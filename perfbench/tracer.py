"""Run one `tetravib` invocation with spans and counts recorded from outside.

Usage: python tracer.py TRACE_FILE SAMPLE_ID TETRAVIB_ARG...

The program's output goes to stdout exactly as the CLI writes it.  The
public functions of each module in `src/tetravib` are replaced by wrappers
that record, per call, its name, start, end and the enclosing wrapped call;
a frame's self time is its duration minus the time of the wrapped calls
inside it.  Spans stay in memory and are appended to TRACE_FILE as JSONL when
the invocation ends:

  {"type": "span", "sample", "id", "parent", "name", "start", "end", "self"}
  {"type": "calls", "sample", "name", "parent", "calls", "total_s", "self_s"}
  {"type": "sample", "sample", "import_s", "values": {...}}

High-frequency leaves (`Universe.n_count`) are aggregated into the "calls"
records only.  A function that re-enters itself (`cli.dumps` recurses) is
timed by its outermost call.  The "sample" record holds the per-layer values
that run.py reports.
"""
from __future__ import annotations

import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    """Wrapper factory holding the spans and call statistics of one process."""

    def __init__(self):
        self.stack = []           # open frames: [name, start, child_s, span_id]
        self.spans = []
        self.stats = {}           # (name, parent name) -> [calls, total, self]
        self.active = set()
        self.pairs = set()        # distinct n_count arguments

    def wrap(self, name, fn, span=True, observe=None):
        stack, stats, active = self.stack, self.stats, self.active

        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(args)
            frame = [name, 0.0, 0.0, None]
            if span:
                frame[3] = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(frame)
            active.add(name)
            frame[1] = start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                active.discard(name)
                dur = end - start
                own = dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                key = (name, parent[0] if parent is not None else None)
                st = stats.get(key)
                if st is None:
                    stats[key] = [1, dur, own]
                else:
                    st[0] += 1
                    st[1] += dur
                    st[2] += own
                if span:
                    self.spans[frame[3]] = (
                        frame[3], parent[3] if parent is not None else None,
                        name, start, end, own)

        return wrapper

    def patch(self, owner, attr, name, **kw):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    # -- reading the statistics -------------------------------------------

    def calls(self, name, parent=None):
        return sum(st[0] for (n, p), st in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def total(self, name):
        return sum(st[1] for (n, _), st in self.stats.items() if n == name)

    def self_time(self, name):
        return sum(st[2] for (n, _), st in self.stats.items() if n == name)


def install(tracer, universes, results):
    """Replace the public functions of every layer with tracer wrappers.

    Universes built during the run are appended to `universes`; the number
    of families and of branch points found are summed into `results`."""
    import numpy as np

    from tetravib import bifurcation, burnside, cli, forcefield, grouprep, orbits

    t = tracer
    # forcefield: the equilibrium (called by the CLI, or by the continuation
    # when no equilibrium is passed in) and the corrector's Hessians
    for owner in (cli, orbits):
        t.patch(owner, "find_equilibrium", "forcefield.find_equilibrium")
    t.patch(orbits, "hessian", "forcefield.hessian")
    # grouprep: slice_spectrum is bound by name in cli and imported inside
    # find_equilibrium from the module
    for owner in (cli, grouprep):
        t.patch(owner, "slice_spectrum", "grouprep.slice_spectrum")
    # burnside
    u_cls = burnside.Universe
    init = u_cls.__init__

    def build(self, *args, **kwargs):
        init(self, *args, **kwargs)
        universes.append(self)
    u_cls.__init__ = t.wrap("burnside.universe", build)
    t.patch(u_cls, "n_count", "burnside.n_count", span=False,
            observe=lambda a: t.pairs.add((id(a[0]), a[1].index, a[2].index)))
    t.patch(u_cls, "basic_degree", "burnside.basic_degree")
    t.patch(u_cls, "fold_cover", "burnside.fold_cover")
    mul = t.wrap("burnside.element_mul", burnside.BurnsideElement.__mul__)
    burnside.BurnsideElement.__mul__ = mul
    burnside.BurnsideElement.__rmul__ = mul
    # bifurcation
    t.patch(bifurcation, "invariant", "bifurcation.invariant")
    fams = bifurcation.independent_families

    def independent_families(reports):
        out = fams(reports)
        results["families"] = results.get("families", 0) + len(out)
        return out
    bifurcation.independent_families = t.wrap(
        "bifurcation.independent_families", independent_families)
    # orbits
    cont = orbits.continue_branch

    def continue_branch(*args, **kwargs):
        branch = cont(*args, **kwargs)
        results["branch_points"] = (results.get("branch_points", 0)
                                    + len(branch.points))
        return branch
    orbits.continue_branch = t.wrap("orbits.continue_branch", continue_branch)
    for fn in ("residual", "verify_predicates", "frequency_extrapolation"):
        t.patch(orbits, fn, "orbits." + fn)
    t.patch(np.linalg, "lstsq", "orbits.lstsq")
    # cli: the serializer
    t.patch(cli, "dumps", "cli.dumps")


def layer_values(t, import_s, universes, results):
    """The per-layer metrics of one traced invocation."""
    n_calls = t.calls("burnside.n_count")
    hessians = t.calls("forcefield.hessian")
    solves = t.calls("orbits.lstsq", parent="orbits.continue_branch")
    return {
        "cli.import_s": import_s,
        "cli.dumps_s": t.total("cli.dumps"),
        "forcefield.find_equilibrium_s": t.total("forcefield.find_equilibrium"),
        "forcefield.hessian_calls": hessians,
        "forcefield.hessian_s": t.total("forcefield.hessian"),
        "grouprep.slice_spectrum_calls": t.calls("grouprep.slice_spectrum"),
        "burnside.universe_s": t.total("burnside.universe"),
        "burnside.classes": sum(len(u.classes) for u in universes),
        "burnside.phi0_classes": sum(len(u.phi0_classes()) for u in universes),
        "burnside.n_count_calls": n_calls,
        "burnside.n_count_pairs": len(t.pairs),
        "burnside.n_count_useful_ratio": (len(t.pairs) / n_calls
                                          if n_calls else 0.0),
        "burnside.n_count_s": t.total("burnside.n_count"),
        "burnside.basic_degree_calls": t.calls("burnside.basic_degree"),
        "burnside.basic_degree_s": t.total("burnside.basic_degree"),
        "burnside.element_mul_calls": t.calls("burnside.element_mul"),
        "burnside.element_mul_s": t.total("burnside.element_mul"),
        "burnside.fold_cover_calls": t.calls("burnside.fold_cover"),
        "burnside.fold_cover_s": t.total("burnside.fold_cover"),
        "bifurcation.invariant_calls": t.calls("bifurcation.invariant"),
        "bifurcation.invariant_s": t.self_time("bifurcation.invariant"),
        "bifurcation.independent_families_s":
            t.total("bifurcation.independent_families"),
        "bifurcation.families": results.get("families", 0),
        "orbits.continue_branch_s": t.total("orbits.continue_branch"),
        "orbits.branches": t.calls("orbits.continue_branch"),
        "orbits.branch_points": results.get("branch_points", 0),
        "orbits.lstsq_calls": t.calls("orbits.lstsq"),
        "orbits.lstsq_s": t.total("orbits.lstsq"),
        "orbits.jacobian_use_ratio": solves / hessians if hessians else 0.0,
        "orbits.residual_s": t.total("orbits.residual"),
        "orbits.verify_predicates_s": t.total("orbits.verify_predicates"),
    }


def write_trace(path, sample, t, import_s, values):
    with open(path, "a", encoding="utf-8") as fh:
        for span in t.spans:
            sid, parent, name, start, end, own = span
            fh.write(json.dumps({
                "type": "span", "sample": sample, "id": sid,
                "parent": parent, "name": name, "start": start, "end": end,
                "self": own}) + "\n")
        for (name, parent), (calls, total, own) in sorted(
                t.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
            fh.write(json.dumps({
                "type": "calls", "sample": sample, "name": name,
                "parent": parent, "calls": calls, "total_s": total,
                "self_s": own}) + "\n")
        fh.write(json.dumps({"type": "sample", "sample": sample,
                             "import_s": import_s, "values": values}) + "\n")


def main(argv):
    path, sample, args = argv[0], int(argv[1]), argv[2:]
    start = _clock()
    from tetravib import cli
    import_s = _clock() - start
    tracer, universes, results = Tracer(), [], {}
    install(tracer, universes, results)
    try:
        code = cli.main(args)
        sys.stdout.flush()
    finally:
        values = layer_values(tracer, import_s, universes, results)
        write_trace(path, sample, tracer, import_s, values)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
