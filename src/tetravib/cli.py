"""Command-line front end: configuration, pipeline orchestration, reports.

Subcommands cover the individual analysis stages (equilibrium, spectrum,
reps, degrees, invariants, branch) plus `report`, which runs the whole
pipeline.  All numeric output is serialized deterministically: dictionary
keys are sorted and floats carry 17 significant digits, so identical
configurations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import functools
import gc
import io
import math
import os
import sys

from . import bifurcation, burnside, orbits
from .burnside import UsageError
from .forcefield import (ConvergenceError, DegenerateParameters, DomainError,
                         PairPotential, find_equilibrium)
# slice_spectrum is not called here (find_equilibrium keeps its result), but
# perfbench/tracer.py counts calls through this name
from .grouprep import (CHARACTER_TABLE, CLASS_SIZES, IRREP_DIMS,  # noqa: F401
                       multiplicities, projection_ranks,
                       representation_character, slice_spectrum)

__all__ = ["main", "run", "RunConfig", "ConfigError", "load_config", "dumps"]

_OUTPUT_DIR_ENV = "TETRAVIB_OUTPUT_DIR"


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


# ---------------------------------------------------------------------------
# configuration

# the potential's and the corrector's defaults are the library's own
_BRANCH_DEFAULTS = orbits.continue_branch.__kwdefaults__
_CORRECTOR_KEYS = ("n_modes", "newton_tol", "target_amplitude", "step_size")
_DEFAULTS = {
    "potential": PairPotential._field_defaults,
    "analysis": {"l_max": 2,
                 **{key: _BRANCH_DEFAULTS[key] for key in _CORRECTOR_KEYS}},
    "output": {"format": "json", "path": ""},
}
# every key takes values of its default's type
_SCHEMA = {section: {key: type(v) for key, v in values.items()}
           for section, values in _DEFAULTS.items()}


class RunConfig:
    """Validated flat configuration (sections -> scalar settings)."""

    def __init__(self, sections=None):
        data = {s: dict(v) for s, v in _DEFAULTS.items()}
        for section, values in (sections or {}).items():
            if section not in _SCHEMA:
                if not isinstance(values, dict):
                    raise ConfigError("config key %r needs a [section] "
                                      "header above it" % section)
                raise ConfigError("unknown config section [%s]" % section)
            if not isinstance(values, dict):
                raise ConfigError("config section [%s] must be a table"
                                  % section)
            for key, raw in values.items():
                if key not in _SCHEMA[section]:
                    raise ConfigError("unknown key %r in section [%s]"
                                      % (key, section))
                want = _SCHEMA[section][key]
                is_number = (isinstance(raw, (int, float))
                             and not isinstance(raw, bool))
                if want is float and is_number:
                    try:
                        raw = float(raw)
                    except OverflowError:       # integer beyond float range
                        raw = math.inf
                    if not math.isfinite(raw):
                        raise ConfigError("key %s.%s must be finite"
                                          % (section, key))
                if not isinstance(raw, want) or isinstance(raw, bool):
                    raise ConfigError("key %s.%s expects %s"
                                      % (section, key, want.__name__))
                data[section][key] = raw
        self.potential_params = data["potential"]
        self.analysis = data["analysis"]
        self.output = data["output"]
        if self.analysis["l_max"] < 1:
            raise ConfigError("analysis.l_max must be at least 1")
        for key in ("newton_tol", "target_amplitude", "step_size"):
            if self.analysis[key] <= 0:
                raise ConfigError("analysis.%s must be positive" % key)
        if self.analysis["n_modes"] < 1:
            raise ConfigError("analysis.n_modes must be at least 1")
        if self.analysis["n_modes"] > orbits.MAX_N_MODES:
            raise ConfigError("analysis.n_modes must be at most %d"
                              % orbits.MAX_N_MODES)
        if self.output["format"] not in ("json", "csv"):
            raise ConfigError("output.format must be json or csv")

    def potential(self):
        return PairPotential(**self.potential_params)


def load_config(path) -> RunConfig:
    """Read a TOML file whose tables are the sections of RunConfig."""
    import tomllib      # here, so that runs without --config skip the import
    try:
        with open(path, "rb") as fh:
            sections = tomllib.load(fh)
    except (OSError, UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    return RunConfig(sections)


# ---------------------------------------------------------------------------
# deterministic serialization

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ArithmeticError("non-finite float in report")
    if x == int(x) and abs(x) < 1e16:
        return "%.1f" % x
    return format(x, ".17g")


def dumps(obj, indent=0) -> str:
    """Minimal deterministic JSON: sorted keys, 17-digit floats.  With
    indent None it is one line, with ", " and ": " separators."""
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return '"%s"' % out
    deeper = None if indent is None else indent + 2
    if isinstance(obj, dict):
        brackets = "{}"
        items = ["%s: %s" % (dumps(str(k)), dumps(v, deeper))
                 for k, v in sorted(obj.items())]
    elif type(obj) in (list, tuple):
        brackets = "[]"
        items = [dumps(v, deeper) for v in obj]
    else:       # a record or an array: the report builder is at fault
        raise burnside.InternalError("unserializable object of type %s"
                                     % type(obj).__name__)
    if not items:
        return brackets
    if indent is None:
        return "%s%s%s" % (brackets[0], ", ".join(items), brackets[1])
    return "%s\n%s\n%s%s" % (
        brackets[0], ",\n".join(" " * deeper + item for item in items),
        " " * indent, brackets[1])


def _csv_cell(v):
    if isinstance(v, float):
        return _format_float(v)
    if type(v) in (list, tuple):
        return "|".join(_csv_cell(x) for x in v)
    if v is None or isinstance(v, (str, int)):
        return str(v)
    return dumps(v, None)       # a dict as JSON; any other type is refused


def _to_csv(rows, fieldnames):
    import csv          # here, so that JSON runs skip the import
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([_csv_cell(row[f]) for f in fieldnames] for row in rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# report builders

def _class_entry(kl, coeff=None):
    out = {"class": kl.printed_form(), "canonical": kl.canonical_form()}
    if coeff is not None:
        out["coeff"] = int(coeff)
    return out


def _element_terms(element):
    return [_class_entry(kl, c) for kl, c in element.terms()]


def _equilibrium_report(eq):
    return {
        "r_o": eq.r_o,
        "s_o": eq.s_o,
        "nu0_sq": eq.nu0_sq,
        "mu": list(eq.mu),
        "u_o": [[float(v) for v in row] for row in eq.u_o],
        "lam_critical": list(eq.lam_critical),
    }


def _spectrum_report(eq):
    spec = eq.spectrum
    return {
        "mu": list(spec.mu),
        "ratios": [m / spec.mu[2] for m in spec.mu],
        "slice_multiplicities": list(spec.slice_mults),
        "zero_modes": spec.zero_modes,
        "slice_eigenvalues": [float(v) for v in spec.eigenvalues],
    }


def _reps_report():
    return {
        "character_table": [list(map(int, row)) for row in CHARACTER_TABLE],
        "class_sizes": list(CLASS_SIZES),
        "irrep_dims": list(IRREP_DIMS),
        "representation_character": list(map(int, representation_character())),
        "multiplicities": list(multiplicities()),
        "projection_ranks": list(projection_ranks()),
    }


def _invariant_report(rep):
    return {
        "critical_value": rep.critical.value,
        "contributors": [list(c) for c in rep.critical.contributors],
        "lam_minus": rep.lam_minus,
        "lam_plus": rep.lam_plus,
        "omega": _element_terms(rep.omega),
        "maximal": [_class_entry(kl, c) for kl, c in rep.maximal],
        "descriptions": [
            {"class": d.klass.printed_form(), "title": d.title,
             "brake": d.klass.brake, "text": d.text}
            for d in rep.descriptions],
    }


def _family_entry(f):
    return {**_class_entry(f.klass, f.coefficient), "j": f.j, "l": f.l,
            "critical_value": f.value}


def _branch_rows(branch):
    return [{"amplitude": p.amplitude, "lambda": p.lam,
             "residual": p.residual, "predicate_residuals": list(
                 orbits.verify_predicates(p.orbit, branch.klass))}
            for p in branch.points]


def _branch_summary(branch, potential):
    last = branch.points[-1]
    _, spread = orbits.energy_profile(branch.orbit, potential)
    return {
        **_class_entry(branch.klass),
        "j": branch.j, "l": branch.l,
        "steps": len(branch.points),
        "final_amplitude": last.amplitude,
        "final_lambda": last.lam,
        "final_residual": last.residual,
        "max_predicate_residual": max(
            orbits.verify_predicates(branch.orbit, branch.klass)),
        "energy_spread": spread,
        "brake": branch.klass.brake,
        "frequency_extrapolation": orbits.frequency_extrapolation(branch),
    }


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_equilibrium(args, config):
    eq = find_equilibrium(config.potential())
    return {"equilibrium": _equilibrium_report(eq)}


def _cmd_spectrum(args, config):
    eq = find_equilibrium(config.potential())
    return {"spectrum": _spectrum_report(eq)}


def _cmd_reps(args, config):
    return {"representation": _reps_report()}


def _cmd_degrees(args, config):
    l_max = max(config.analysis["l_max"], args.l)
    universe = burnside.Universe.for_l_max(l_max)
    element = universe.basic_degree(args.j, args.l)
    return {"j": args.j, "l": args.l, "degree": _element_terms(element)}


def _analysis(config, critical=None):
    """The potential, its equilibrium, the isolatable invariants (those of
    the mode `critical` only, when given) and their independent families."""
    potential = config.potential()
    eq = find_equilibrium(potential)
    l_max = config.analysis["l_max"]
    reports = bifurcation.invariants(eq.mu, l_max)
    if critical is not None:
        j, l = critical
        picked = [r for r in reports if (j, l) in r.critical.contributors]
        if not picked:
            raise UsageError("no isolatable critical number for mode "
                             "(%d, %d) within l_max=%d" % (j, l, l_max))
        reports = picked
    return (potential, eq, reports,
            bifurcation.independent_families(reports))


def _cmd_invariants(args, config):
    _, _, reports, families = _analysis(config, args.critical)
    return {
        "invariants": [_invariant_report(r) for r in reports],
        "families": [_family_entry(f) for f in families],
    }


def _parse_critical(text):
    try:
        j, l = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expects 'j,l' with integers")
    return j, l


def _settings(config):
    """The corrector settings of continue_branch, from [analysis]."""
    return {key: config.analysis[key] for key in _CORRECTOR_KEYS}


def _cmd_branch(args, config):
    settings = _settings(config)
    orbits.check_branch_request(args.j, args.l, steps=args.steps, **settings)
    potential = config.potential()
    klass = burnside.Universe.for_l_max(
        max(config.analysis["l_max"], args.l)).parse_class(args.klass)
    branch = orbits.continue_branch(potential, klass, args.j, args.l,
                                    steps=args.steps, **settings)
    return _branch_rows(branch)


def _cmd_report(args, config):
    potential, eq, reports, families = _analysis(config)
    branches = []
    for fam in families:
        branch = orbits.continue_branch(potential, fam.klass, fam.j, fam.l,
                                        **_settings(config))
        branches.append(_branch_summary(branch, potential))
    return {
        "equilibrium": _equilibrium_report(eq),
        "spectrum": _spectrum_report(eq),
        "representation": _reps_report(),
        "invariants": [_invariant_report(r) for r in reports],
        "families": [_family_entry(f) for f in families],
        "branches": branches,
    }


# ---------------------------------------------------------------------------
# wiring

class _Parser(argparse.ArgumentParser):
    """Bad arguments are usage errors: exit 1 with the one-line message that
    every other usage error prints.  The message can echo argv, so line
    breaks inside it become spaces."""

    def error(self, message):
        self.exit(1, "error: %s\n" % " ".join(message.splitlines()))


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The parser, built on the first call; each subcommand's handler is
    its `run` default."""
    parser = _Parser(prog="tetravib",
                     description="Symmetric vibration and bifurcation "
                                 "analysis of the four-particle molecule.")
    parser.add_argument("--config", help="TOML configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded in output metadata; the pipeline is "
                             "deterministic and ignores it")
    parser.add_argument("--output", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="override output.format")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("equilibrium").set_defaults(run=_cmd_equilibrium)
    sub.add_parser("spectrum").set_defaults(run=_cmd_spectrum)
    sub.add_parser("reps").set_defaults(run=_cmd_reps)
    sub.add_parser("report").set_defaults(run=_cmd_report)
    p_deg = sub.add_parser("degrees")
    p_deg.set_defaults(run=_cmd_degrees)
    p_deg.add_argument("--j", type=int, required=True,
                       help="isotypic index 0..4")
    p_deg.add_argument("--l", type=int, required=True, help="Fourier mode")
    p_inv = sub.add_parser("invariants")
    p_inv.set_defaults(run=_cmd_invariants)
    p_inv.add_argument("--critical", type=_parse_critical, default=None,
                       metavar="J,L", help="single critical number, by one "
                                           "contributing mode")
    p_br = sub.add_parser("branch")
    p_br.set_defaults(run=_cmd_branch)
    p_br.add_argument("--class", dest="klass", required=True,
                      help="symmetry class name (canonical or printed form)")
    p_br.add_argument("--j", type=int, required=True)
    p_br.add_argument("--l", type=int, required=True)
    p_br.add_argument("--steps", type=int, default=_BRANCH_DEFAULTS["steps"])
    return parser


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            _flatten(prefix + (str(k),), v, rows)
    elif type(obj) in (list, tuple):
        for i, v in enumerate(obj):
            _flatten(prefix + (str(i),), v, rows)
    else:
        rows.append({"key": ".".join(prefix), "value": obj})


def _render(result, fmt):
    """JSON or CSV of a report (a dict) or of rows (a list of dicts)."""
    if fmt == "json":
        if isinstance(result, list):
            return "".join(dumps(row, None) + "\n" for row in result)
        return dumps(result) + "\n"
    rows = result
    if isinstance(result, dict):
        rows = []
        _flatten((), result, rows)
    return _to_csv(rows, list(rows[0]))


def _write_output(text, config):
    path = config.output["path"]
    if not path:
        sys.stdout.write(text)
        return
    out_dir = os.environ.get(_OUTPUT_DIR_ENV)
    if out_dir:
        path = os.path.join(out_dir, os.path.basename(path))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:       # ValueError: a NUL in the path
        raise ConfigError("cannot write output: %s" % exc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        if args.format:
            config.output["format"] = args.format
        if args.output:
            config.output["path"] = args.output
        result = args.run(args, config)
        if isinstance(result, dict):
            result["meta"] = {"seed": args.seed, "command": args.command}
        _write_output(_render(result, config.output["format"]), config)
        return 0
    except (ConfigError, UsageError, DomainError, DegenerateParameters) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except ConvergenceError as exc:
        sys.stderr.write("non-convergence: %s\n" % exc)
        return 2
    except (burnside.InternalError, ArithmeticError) as exc:
        sys.stderr.write("internal consistency failure: %s\n" % exc)
        return 3


def run():
    """The `tetravib` process: main() on the command line, then exit with
    its code.  main() itself leaves the garbage collector alone."""
    try:
        code = main()
    finally:
        # Finalization runs full collections over the ~23 000 objects
        # still tracked (5-6 ms each after a `report`), though all of them
        # die with the process; frozen, they are not traversed.
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
