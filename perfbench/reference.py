"""Reference figures recorded in perfbench/README.md.

Usage, from the root of a checkout:

    python3 perfbench/reference.py

Prints three Markdown tables and writes them as JSON to
perfbench/out/reference.json:

- `tetravib invariants` for l_max = 2 .. 5: wall time, and from one traced
  invocation the universe build and the ring arithmetic after it;
- `tetravib branch` on (D3^Z1 x_D3 D3), mode (1, 1), for n_modes = 8, 16,
  32, 64: wall time, continuation time and least-squares time;
- each benchmark workload with the default BLAS threads against
  OPENBLAS_NUM_THREADS=1, invocations alternating between the two.

Wall and CPU times are medians over REPEAT fresh processes.  Nothing here
is checked against bounds; run.py is the benchmark.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

import run

REPEAT = 5
BRANCH = ["branch", "--class", "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "1"]


def config(name, section, key, value):
    path = os.path.join(run.OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[%s]\n%s = %d\n" % (section, key, value))
    return path


def plain(args, env):
    invs = [run.Invocation(run.PLAIN_ARGV + args, env) for _ in range(REPEAT)]
    if any(inv.code for inv in invs):
        raise SystemExit("tetravib %s failed" % " ".join(args))
    return (statistics.median(inv.wall_s for inv in invs),
            statistics.median(inv.cpu_s for inv in invs))


def traced(args, env):
    trace_file = os.path.join(run.OUT, "reference.trace.jsonl")
    open(trace_file, "w").close()
    inv = run.Invocation([sys.executable, os.path.join(run.BENCH, "tracer.py"),
                          trace_file, "0"] + args, env)
    if inv.code:
        raise SystemExit("traced tetravib %s failed" % " ".join(args))
    with open(trace_file, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    values = next(r["values"] for r in records if r["type"] == "sample")
    totals = {}
    for r in records:
        if r["type"] == "calls":
            totals[r["name"]] = totals.get(r["name"], 0.0) + r["total_s"]
    return values, totals


def invariants_scaling(env):
    rows = []
    for l_max in (2, 3, 4, 5):
        args = ["--config", config("l_max%d.toml" % l_max, "analysis",
                                   "l_max", l_max), "invariants"]
        wall, _ = plain(args, env)
        v, totals = traced(args, env)
        rows.append({"l_max": l_max, "classes": v["burnside.classes"],
                     "phi0_classes": v["burnside.phi0_classes"],
                     "wall_s": wall, "universe_s": v["burnside.universe_s"],
                     "ring_s": (totals["bifurcation.invariant"]
                                + totals["bifurcation.independent_families"]),
                     "n_count_calls": v["burnside.n_count_calls"]})
    return rows


def branch_scaling(env):
    rows = []
    for n_modes in (8, 16, 32, 64):
        args = ["--config", config("n_modes%d.toml" % n_modes, "analysis",
                                   "n_modes", n_modes)] + BRANCH
        wall, cpu = plain(args, env)
        v, _ = traced(args, env)
        rows.append({"n_modes": n_modes, "wall_s": wall, "cpu_s": cpu,
                     "continue_branch_s": v["orbits.continue_branch_s"],
                     "lstsq_s": v["orbits.lstsq_s"],
                     "lstsq_calls": v["orbits.lstsq_calls"],
                     "hessian_calls": v["forcefield.hessian_calls"]})
    return rows


def blas_threads(env):
    one = dict(env, OPENBLAS_NUM_THREADS="1")
    rows = []
    for name, spec in run.WORKLOADS.items():
        runs = {"default": [], "one": []}
        for _ in range(REPEAT):
            for key, e in (("default", env), ("one", one)):
                runs[key].append(run.Invocation(run.PLAIN_ARGV + spec["args"],
                                                e))
        row = {"workload": name}
        for key, invs in runs.items():
            row[key + "_wall_s"] = statistics.median(i.wall_s for i in invs)
            row[key + "_cpu_s"] = statistics.median(i.cpu_s for i in invs)
        rows.append(row)
    return rows


def table(rows):
    keys = list(rows[0])
    lines = ["| " + " | ".join(keys) + " |",
             "|" + "---|" * len(keys)]
    for r in rows:
        lines.append("| " + " | ".join(
            "%.3f" % r[k] if isinstance(r[k], float) else str(r[k])
            for k in keys) + " |")
    return "\n".join(lines)


def main():
    run.preflight()
    os.makedirs(run.OUT, exist_ok=True)
    env = run.program_env()
    run.warm_up(env)
    result = {"invariants": invariants_scaling(env),
              "branch": branch_scaling(env),
              "blas_threads": blas_threads(env)}
    with open(os.path.join(run.OUT, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for name, rows in result.items():
        print("## %s\n\n%s\n" % (name, table(rows)))


if __name__ == "__main__":
    main()
