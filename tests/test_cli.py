import ast
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tomllib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tetravib.bifurcation as bf
import tetravib.burnside as bu
import tetravib.grouprep as gr
from tetravib import cli, orbits
from tetravib.forcefield import PairPotential, find_equilibrium

from _golden import (BRANCHES, INVARIANTS_L4_SHA256, INVARIANTS_L8_SHA256,
                     INVARIANTS_L16_SHA256, KERNEL_FINGERPRINT,
                     KERNEL_SHA256, kernel_sha256)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# configuration files

def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text(
        "# comment line\n"
        "[potential]\n"
        "bond_weight = 1.0\n"
        "vdw_A = 2.0        # trailing comment\n"
        "vdw_B = 1.0\n"
        "sigma = 0.05\n"
        "\n"
        "[analysis]\n"
        "l_max = 2\n"
        "n_modes = 8\n"
        "\n"
        "[output]\n"
        'format = "csv"\n')
    config = cli.load_config(path)
    assert config.potential_params == {
        "bond_weight": 1.0, "vdw_A": 2.0, "vdw_B": 1.0, "sigma": 0.05}
    assert config.analysis["n_modes"] == 8
    assert config.analysis["newton_tol"] == 1e-11       # default survives
    assert config.output["format"] == "csv"


def test_readme_config_block_gives_the_defaults(tmp_path, capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"```toml\n(.*?)```", fh.read(), re.S).group(1)
    path = tmp_path / "defaults.toml"
    path.write_text(block, encoding="utf-8")
    config, default = cli.load_config(path), cli.RunConfig()
    assert config.potential_params == default.potential_params
    assert config.analysis == default.analysis
    assert config.output == default.output
    code, out, err = run(capsys, "--config", str(path), "report")
    assert (code, err) == (0, "")
    assert out == run(capsys, "report")[1]


def test_cli_defaults_are_the_library_defaults():
    # the command line runs what the library runs when nothing is set: the
    # potential's field defaults and continue_branch's keyword defaults
    config, kw = cli.RunConfig(), orbits.continue_branch.__kwdefaults__
    assert config.potential() == PairPotential()
    assert config.analysis == {"l_max": 2, **{key: kw[key] for key in (
        "n_modes", "newton_tol", "target_amplitude", "step_size")}}
    args = cli._build_parser().parse_args(
        ["branch", "--class", "(S4 x D1)", "--j", "0", "--l", "1"])
    assert args.steps == kw["steps"] == 40


def test_readme_command_line_block_runs(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("tetravib ")]
    assert len(commands) == 8
    for argv in commands:
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        if argv[1:] == ["invariants", "--critical", "0,1"]:
            # the example the README prints below the block
            inv, = json.loads(out)["invariants"]
            assert inv["critical_value"] == 0.35355339059327373
            assert inv["omega"] == [
                {"class": "(S4 x D1)", "canonical": "(S4^S4_S4 x_Z1 D1)",
                 "coeff": -1}]
            assert inv["omega"] == json.loads(
                re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_hash_inside_a_string_is_not_a_comment(tmp_path):
    path = tmp_path / "hash.toml"
    path.write_text('[output]  # "d"\npath = "a#b"   # "c"\nformat = "csv"#\n')
    assert cli.load_config(path).output == {"path": "a#b", "format": "csv"}


@pytest.mark.parametrize("body", [
    "[weird]\nx = 1\n",                         # unknown section
    "[analysis]\nbananas = 3\n",                # unknown key
    "[analysis]\nl_max = \"two\"\n",            # wrong type
    "[analysis]\nl_max = 0\n",                  # out of range
    "[output]\nformat = \"xml\"\n",             # unsupported format
    "l_max = 2\n",                              # key outside any section
    "[analysis\nl_max = 2\n",                   # malformed header
    "[analysis]\nl_max\n",                      # missing '='
    "[potential]\nbond_weight = true\n",        # boolean for a float
    "analysis = 3\n",                           # section that is no table
    "[analysis]\nl_max = 2\nl_max = 3\n",      # duplicated key
    "l_max = 2\n[analysis]\nn_modes = 8\n",     # key above the first header
])
def test_bad_config_exits_one(tmp_path, capsys, body):
    path = tmp_path / "bad.toml"
    path.write_text(body)
    code, _, err = run(capsys, "--config", str(path), "reps")
    assert code == 1
    assert "error" in err
    assert _BAD_CONFIG_MESSAGES.get(body, "") in err


# the message of a key above the first header names the key, not a section
_BAD_CONFIG_MESSAGES = {
    "l_max = 2\n": "config key 'l_max' needs a [section] header",
    "l_max = 2\n[analysis]\nn_modes = 8\n":
        "config key 'l_max' needs a [section] header",
    "analysis = 3\n": "config section [analysis] must be a table",
}


_FLOAT_KEYS = ["%s.%s" % (section, key)
               for section, keys in sorted(cli._SCHEMA.items())
               for key, want in sorted(keys.items()) if want is float]


@pytest.mark.parametrize("value", [
    "nan", "inf", "-inf",
    pytest.param("1" + "0" * 400, id="int-beyond-float-range"),
])
@pytest.mark.parametrize("dotted", _FLOAT_KEYS)
def test_non_finite_config_value_exits_one(tmp_path, capsys, dotted, value):
    section, key = dotted.split(".")
    path = tmp_path / "bad.toml"
    path.write_text("[%s]\n%s = %s\n" % (section, key, value))
    code, _, err = run(capsys, "--config", str(path), "equilibrium")
    assert code == 1
    assert "must be finite" in err


_SCHEMA_KEYS = [(section, key) for section, keys in sorted(cli._SCHEMA.items())
                for key in sorted(keys)]
_VALUES = st.one_of(
    st.floats().map(repr),                      # nan and inf included
    st.integers().map(str),
    st.sampled_from(["true", "false"]),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters='"\\\r\n'),
            max_size=8).map('"{}"'.format),
)


def _config_text(entries):
    """(file bytes, whether some key is given a boolean)."""
    body = "".join("[%s]\n" % section + "".join(
        "%s = %s\n" % (key, value) for (s, key), value in entries
        if s == section) for section in sorted({s for (s, _), _ in entries}))
    return body.encode(), any(v in ("true", "false") for _, v in entries)


def _not_an_integer(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# The two keys that size a run take small integers or a value of another
# type, so that every command stays fast (branch runs with --steps 5).  A
# float key mostly takes a float within 16 times its default (within 16 of
# 0 for a default of 0), either sign.
_SIZES = {"l_max": st.integers(-2, 4), "n_modes": st.integers(-1, 12)}


def _key_values(section, key):
    default = cli._DEFAULTS[section][key]
    if key in _SIZES:
        return st.one_of(_SIZES[key].map(str),
                         _VALUES.filter(_not_an_integer))
    if isinstance(default, float):
        bound = 16.0 * (abs(default) or 1.0)
        return st.one_of(st.floats(-bound, bound).map(repr), _VALUES)
    return _VALUES


# each key at most once and each section under one header: TOML rejects
# a repeated key or table before any value is checked
_SCHEMA_LINES = st.lists(
    st.one_of([st.tuples(st.just(key), _key_values(*key))
               for key in _SCHEMA_KEYS]),
    max_size=4, unique_by=lambda e: e[0]).map(_config_text)

# each command that reads the configuration, as a fuzzed config runs it
_CONFIG_ARGVS = (
    ("equilibrium",), ("spectrum",), ("degrees", "--j", "1", "--l", "2"),
    ("invariants",), ("invariants", "--critical", "1,1"), ("report",),
    ("branch", "--class", "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "1",
     "--steps", "5"),
    ("branch", "--class", "(S4 x D1)", "--j", "0", "--l", "1",
     "--steps", "5"))


@settings(database=None, derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(st.binary(max_size=80).map(lambda b: (b, False)),
                      _SCHEMA_LINES),
       command=st.sampled_from(_CONFIG_ARGVS))
@example(case=(b"[potential]\nbond_weight = 1.0\xff\n", False),
         command=("equilibrium",))
@example(case=(b"[potential]\nbond_weight = true\n", True),
         command=("equilibrium",))
@example(case=(b'[output]\npath = "/"\n', False),    # names a directory
         command=("equilibrium",))
# phi'' of the radial polish overflows at the largest float
@example(case=(b"[potential]\nbond_weight = 1.7976931348623157e+308\n",
               False), command=("spectrum",))
# the amplitude row divides by an amplitude whose square underflows
@example(case=(b"[analysis]\ntarget_amplitude = 1e-300\n"
               b"newton_tol = 1e-300\n", False),
         command=_CONFIG_ARGVS[-1])
# squares of the gradient overflow, yet V -> cV moves no radius
@example(case=(b"[potential]\nbond_weight = 1e170\n", False),
         command=("report",))
def test_fuzzed_config_exits_cleanly(tmp_path, monkeypatch, capsys, case,
                                     command):
    body, has_boolean = case
    monkeypatch.setenv("TETRAVIB_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "fuzz.toml"
    path.write_bytes(body)
    code, _, err = run(capsys, "--config", str(path), *command)
    assert code in (0, 1, 2)
    # one line on a failure, with its exit code's prefix; none on success
    assert len(err.splitlines()) == (code != 0), err
    if code:
        prefix = "error: " if code == 1 else "non-convergence: "
        assert err.startswith(prefix)
    if has_boolean:                     # no key takes a boolean
        assert code == 1


# argv from the CLI's own words, small integers and free text.  Integers
# come only from the bounded strategy, because a large --l makes `degrees`
# build a huge class universe; report, invariants and a converging branch
# are too slow to draw, so no valid class name is offered.
_INT = st.integers(-3, 3).map(str)
_VALUE = st.one_of(_INT, st.sampled_from(["json", "csv", "/", ".", "-h"]),
                   st.text(max_size=6).filter(_not_an_integer))
# each option mostly with a value of its own type, sometimes with any value
_OWN = {"--config": st.sampled_from(["/", ".", "nope.toml"]),
        "--seed": _INT, "--output": st.sampled_from(["out.json", ".", "/"]),
        "--format": st.sampled_from(["json", "csv"]), "--j": _INT,
        "--l": _INT, "--class": st.text(max_size=6), "--steps": _INT,
        "--critical": st.sampled_from(["0,1", "1,1", "2,2", "1"])}


def _options(flags, stray):
    pairs = [st.tuples(st.just(f), st.one_of(_OWN[f], _OWN[f], _VALUE))
             for f in flags]
    option = st.one_of(*pairs, *([st.tuples(_VALUE)] if stray else []))
    return st.lists(option, max_size=3).map(
        lambda opts: [tok for opt in opts for tok in opt])


# global options, a subcommand (or none), subcommand options and a stray
# token now and then
_ARGV = st.tuples(
    _options(["--config", "--seed", "--output", "--format"], stray=False),
    st.sampled_from([[], ["equilibrium"], ["spectrum"], ["reps"],
                     ["degrees"], ["branch"]]),
    _options(["--j", "--l", "--class", "--steps", "--critical"],
             stray=True)).map(lambda t: t[0] + t[1] + t[2])


@settings(database=None, derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV)
@example(argv=["bogus"])                    # argparse's own usage error
@example(argv=["degrees", "--j", "x", "--l", "1"])
@example(argv=["reps", "two\nlines"])      # argv echoed in the message
def test_fuzzed_argv_exits_cleanly(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("TETRAVIB_OUTPUT_DIR", str(tmp_path))
    try:
        code = cli.main(argv)
    except SystemExit as exc:               # argparse: --help or bad usage
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        prefix = "error: " if code == 1 else "non-convergence: "
        assert len(err.splitlines()) == 1, err
        assert err.startswith(prefix), err


def test_missing_config_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "--config", str(tmp_path / "nope.toml"), "reps")
    assert code == 1


# ---------------------------------------------------------------------------
# subcommands

def test_equilibrium_bond_only(capsys):
    doc = run_json(capsys, "equilibrium")
    eq = doc["equilibrium"]
    assert eq["r_o"] == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-12)
    assert eq["nu0_sq"] == pytest.approx(2.0, abs=1e-12)
    assert eq["mu"] == pytest.approx([8.0, 4.0, 2.0], abs=1e-10)
    assert doc["meta"]["command"] == "equilibrium"
    assert doc["meta"]["seed"] is None


def test_seed_is_recorded_but_inert(capsys):
    a = run_json(capsys, "--seed", "7", "spectrum")
    b = run_json(capsys, "spectrum")
    assert a["meta"]["seed"] == 7
    assert a["spectrum"] == b["spectrum"]


def test_spectrum_report_fields(capsys):
    doc = run_json(capsys, "spectrum")
    spec = doc["spectrum"]
    assert spec["ratios"] == pytest.approx([4.0, 2.0, 1.0], rel=1e-10)
    assert spec["slice_multiplicities"] == [1, 3, 2]
    assert spec["zero_modes"] == 3


def test_reps_report(capsys):
    doc = run_json(capsys, "reps")
    rep = doc["representation"]
    assert rep["multiplicities"] == [1, 2, 1, 1, 0]
    assert rep["projection_ranks"] == [1, 6, 2, 3, 0]
    assert rep["representation_character"] == [12, 2, 0, 0, 0]


def test_degrees_top_irrep(capsys):
    doc = run_json(capsys, "degrees", "--j", "4", "--l", "1")
    terms = {t["class"]: t["coeff"] for t in doc["degree"]}
    assert terms == {"(S4 x O2)": 1, "(S4^A4 x_Z2 D2)": -1}


def test_degrees_rejects_bad_indices(capsys):
    # the universe's basic degree refuses the mode itself
    for j, l in (("9", "1"), ("0", "0")):
        code, out, err = run(capsys, "degrees", "--j", j, "--l", l)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: no loop mode (j, l) = (%s, %s)"
                                    % (j, l)]


def test_invariants_first_critical(capsys):
    doc = run_json(capsys, "invariants", "--critical", "0,1")
    assert len(doc["invariants"]) == 1
    inv = doc["invariants"][0]
    assert inv["omega"] == [
        {"class": "(S4 x D1)", "canonical": "(S4^S4_S4 x_Z1 D1)",
         "coeff": -1}]
    assert [d["brake"] for d in inv["descriptions"]] == [True]
    assert inv["lam_minus"] < inv["critical_value"] < inv["lam_plus"]


def test_invariants_full_run_lists_seven_families(capsys):
    doc = run_json(capsys, "invariants")
    assert len(doc["families"]) == 7
    names = [f["class"] for f in doc["families"]]
    assert names.count("(S4 x D1)") == 1
    assert "(S4 x D2)" not in names        # frequency-doubled duplicate
    # canonical names parse back to the same classes
    u = bu.Universe.for_l_max(2)
    for f in doc["families"]:
        assert u.parse_class(f["canonical"]).printed_form() == f["class"]


@pytest.mark.parametrize("l_max", [4, 8, 16])
def test_invariants_are_byte_identical(capsys, tmp_path, l_max):
    cfg = tmp_path / "l.toml"
    cfg.write_text("[analysis]\nl_max = %d\n" % l_max)
    code, out, err = run(capsys, "--config", str(cfg), "invariants")
    assert code == 0, err
    digest = {4: INVARIANTS_L4_SHA256, 8: INVARIANTS_L8_SHA256,
              16: INVARIANTS_L16_SHA256}[l_max]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _fresh(*args):
    """Stdout bytes of a fresh interpreter on the program's one BLAS thread:
    the branch's bytes depend on the thread count, and numpy may have sized
    this process's pool before tetravib."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("config, argv, which", [
    (None, ("report",), 0),
    ("[analysis]\nn_modes = 64\n",
     ("branch", "--class", "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "1"), 1)],
    ids=["report", "branch_n64"])
def test_benchmark_outputs_are_byte_identical(tmp_path, config, argv, which):
    # the stdout of the two benchmarked commands, the default report and
    # one branch at 64 modes, byte for byte, each from a fresh process,
    # against the pins of the BLAS kernel this host runs
    if config is not None:
        cfg = tmp_path / "run.toml"
        cfg.write_text(config)
        argv = ("--config", str(cfg)) + argv
    fingerprint = _fresh("-c", KERNEL_FINGERPRINT).decode().strip()
    digest = kernel_sha256(fingerprint)[which]
    out = _fresh("-m", "tetravib.cli", *argv)
    assert hashlib.sha256(out).hexdigest() == digest


def test_unrecorded_blas_kernel_fails_by_its_fingerprint():
    assert len(KERNEL_SHA256) == 5
    with pytest.raises(AssertionError, match="fingerprint '0123456789abcdef'"):
        kernel_sha256("0123456789abcdef")


def test_invariants_unresolvable_mode_exits_one(capsys):
    code, _, err = run(capsys, "invariants", "--critical", "2,2")
    assert code == 1                       # largest critical: not isolatable
    for bad in ("nonsense", "1,2,3"):
        with pytest.raises(SystemExit) as info:
            cli.main(["invariants", "--critical", bad])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err == ("error: argument --critical: expects 'j,l' with "
                       "integers\n")


# ---------------------------------------------------------------------------
# branch output

def test_branch_jsonl(capsys, tmp_path):
    cfg = tmp_path / "fast.toml"
    cfg.write_text("[analysis]\nn_modes = 8\n")
    code, out, err = run(capsys, "--config", str(cfg), "branch",
                         "--class", "(S4 x D1)", "--j", "0", "--l", "1")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) >= 2
    rows = [json.loads(line) for line in lines]
    assert rows[-1]["amplitude"] >= 0.05
    assert all(r["residual"] < 1e-9 for r in rows)
    amps = [r["amplitude"] for r in rows]
    assert amps == sorted(amps)


def test_branch_csv(capsys, tmp_path):
    cfg = tmp_path / "fast.toml"
    cfg.write_text("[analysis]\nn_modes = 8\n")
    code, out, err = run(capsys, "--config", str(cfg), "--format", "csv",
                         "branch", "--class", "(S4 x D1)", "--j", "0",
                         "--l", "1")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "amplitude,lambda,residual,predicate_residuals"
    assert float(lines[-1].split(",")[0]) >= 0.05


def test_branch_unknown_class_exits_one(capsys):
    code, _, err = run(capsys, "branch", "--class", "(S9 x D1)",
                       "--j", "0", "--l", "1")
    assert code == 1
    assert "unknown symmetry class" in err
    # a class with K = Z_n has an infinite Weyl group: not in the universe
    code, _, err = run(capsys, "branch", "--class", "(Z1 x Z1)",
                       "--j", "0", "--l", "1")
    assert code == 1
    assert "unknown symmetry class" in err


def test_branch_on_a_class_holding_so2_exits_one(capsys):
    # the universe holds no class with SO(2) but G, so other SO2 and O2
    # names are unknown, as a Z_n name is; G keeps its own message
    code, out, err = run(capsys, "branch", "--class", "(D4 x SO2)",
                         "--j", "1", "--l", "1")
    assert code == 1 and out == ""
    assert err == "error: unknown symmetry class '(D4 x SO2)'\n"
    code, out, err = run(capsys, "branch", "--class", "(S4 x O2)",
                         "--j", "1", "--l", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: continuous symmetry classes do not pin "
                          "down a single orbit")


def test_branch_with_several_critical_directions_exits_one(capsys,
                                                           monkeypatch):
    # (Z1 x D1) fixes a three-dimensional part of the (1, 1) critical mode;
    # the rank is checked before the corrector is built
    def no_corrector(*args, **kwargs):
        raise AssertionError("corrector built for a rank-3 kernel")
    monkeypatch.setattr(orbits, "_NewtonSystem", no_corrector)
    code, out, err = run(capsys, "branch", "--class", "(Z1 x D1)",
                         "--j", "1", "--l", "1")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: class (Z1 x D1) has 3 critical directions in the (1, 1) "
        "mode; a branch needs exactly one"]


def test_branch_accepts_canonical_name(capsys, tmp_path):
    cfg = tmp_path / "fast.toml"
    cfg.write_text("[analysis]\nn_modes = 8\n")
    code, out, err = run(capsys, "--config", str(cfg), "branch",
                         "--class", "(S4^S4_S4 x_Z1 D1)", "--j", "0",
                         "--l", "1")
    assert code == 0, err


# ---------------------------------------------------------------------------
# output handling

def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "invariants", "--critical", "1,1")
    _, out2, _ = run(capsys, "invariants", "--critical", "1,1")
    assert out1 == out2


def test_report_bytes_do_not_depend_on_the_hash_seed():
    # the seed salts str hashes and with them set iteration order, which
    # only a fresh process picks up
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "tetravib.cli", "report"],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_cli_import_generates_no_dataclass():
    # every invocation pays for its imports: the records are named tuples,
    # so starting the command line neither imports dataclasses nor
    # generates code for it
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tetravib.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_parser_is_built_once_per_process_and_not_at_import(capsys):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import tetravib.cli as cli; "
         "print(cli._build_parser.cache_info().misses)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr
    cli._build_parser.cache_clear()
    for _ in range(50):
        assert run(capsys, "reps")[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 49)


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # only the process entry freezes; in-process callers keep theirs
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(capsys, "reps")[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# a process that reports, after the entry has exited, how many objects the
# collector holds frozen
_FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "from tetravib import cli\n"
    "atexit.register(lambda: sys.stderr.write("
    "'frozen %d\\n' % gc.get_freeze_count()))\n"
    "cli.run()\n")


@pytest.mark.parametrize("argv", [
    ("reps",),
    ("branch", "--class", "nonsense", "--j", "1", "--l", "1"),
    ("nonsense",)], ids=["exit0", "usage_error", "parser_error"])
def test_process_entry_freezes_the_collector_before_exit(capsys, argv):
    try:
        want = cli.main(list(argv))
    except SystemExit as exc:               # the parser's own exit
        want = exc.code
    captured = capsys.readouterr()
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    *err, probe = proc.stderr.splitlines(keepends=True)
    assert (proc.returncode, proc.stdout, "".join(err)) == \
        (want, captured.out, captured.err)
    assert re.fullmatch(r"frozen [1-9]\d*\n", probe), probe


def test_console_script_is_the_main_block_entry():
    root = os.path.dirname(os.path.dirname(__file__))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tetravib"]
    module, name = target.split(":")
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == ["%s()" % name]
    assert module == cli.__name__ and callable(getattr(cli, name))


def test_csv_rendering_flattens_keys(capsys):
    code, out, err = run(capsys, "--format", "csv", "reps")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "representation.multiplicities.0" in keys


def test_csv_quotes_values_with_commas(capsys):
    doc = run_json(capsys, "invariants")
    code, out, err = run(capsys, "--format", "csv", "invariants")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    values = dict(rows[1:])
    texts = {"invariants.%d.descriptions.%d.text" % (i, k): d["text"]
             for i, inv in enumerate(doc["invariants"])
             for k, d in enumerate(inv["descriptions"])}
    assert any("," in text for text in texts.values())
    assert {key: values[key] for key in texts} == texts


def test_output_file_and_dir_override(capsys, tmp_path, monkeypatch):
    target = tmp_path / "configured" / "out.json"
    (tmp_path / "configured").mkdir()
    redirect = tmp_path / "redirected"
    redirect.mkdir()
    code, out, _ = run(capsys, "--output", str(target), "reps")
    assert code == 0 and out == ""
    assert target.exists()
    monkeypatch.setenv("TETRAVIB_OUTPUT_DIR", str(redirect))
    code, out, _ = run(capsys, "--output", str(target), "reps")
    assert code == 0
    assert (redirect / "out.json").read_text() == target.read_text()


def test_output_options_override_the_config(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.toml"
    cfg.write_text('[output]\nformat = "csv"\npath = "configured.out"\n')
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "--config", str(cfg), "reps") == (0, "", "")
    configured = (tmp_path / "configured.out").read_text()
    assert configured.startswith("key,value\n")
    # an empty --output leaves the configured path
    assert run(capsys, "--config", str(cfg), "--output", "", "--format",
               "json", "reps") == (0, "", "")
    doc = json.loads((tmp_path / "configured.out").read_text())
    assert doc["meta"] == {"seed": None, "command": "reps"}
    assert run(capsys, "--config", str(cfg), "--output", "given.out",
               "reps") == (0, "", "")
    assert (tmp_path / "given.out").read_text() == configured


# ---------------------------------------------------------------------------
# exit codes

def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 1
    capsys.readouterr()


def _no_universe(*args, **kwargs):
    raise AssertionError("a class universe was built")


@pytest.mark.parametrize("option, message", [
    (("--steps", "0"), "error: steps must be at least 1"),
    (("--steps", "-1"), "error: steps must be at least 1"),
    (("--l", "40"), "error: mode l must lie within the truncation"),
    (("--j", "3"), "error: isotypic index j must be 0, 1 or 2"),
], ids=["steps0", "steps-1", "l40", "j3"])
def test_branch_arguments_checked_before_universe(capsys, monkeypatch,
                                                  option, message):
    monkeypatch.setattr(bu.Universe, "for_l_max", _no_universe)
    args = {"--j": "1", "--l": "1", "--steps": "40"}
    args[option[0]] = option[1]
    code, out, err = run(capsys, "branch", "--class", "(D3^Z1 x_D3 D3)",
                         *(tok for kv in args.items() for tok in kv))
    assert code == 1 and out == ""
    assert err.splitlines() == [message]


@pytest.mark.parametrize("config, argv", [
    ("", ("degrees", "--j", "1", "--l", "41")),
    ("[analysis]\nn_modes = 41\n",
     ("branch", "--class", "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "41")),
    ("[analysis]\nl_max = 41\n", ("invariants",)),
    ("[analysis]\nl_max = 41\n", ("report",)),
], ids=["degrees", "branch", "invariants", "report"])
def test_mode_beyond_int64_codes_exits_one(capsys, monkeypatch, tmp_path,
                                           config, argv):
    # at l = 41 the element codes of the grid universe pass 2**63; the
    # universe refuses that mode before it enumerates a class
    assert bu.MAX_MODE == 40
    monkeypatch.setattr(bu.Universe, "_enumerate", _no_universe)
    cfg = tmp_path / "run.toml"
    cfg.write_text(config)
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: Fourier mode 41 is above 40, the largest whose element "
        "codes fit in 64-bit integers"]


@pytest.mark.parametrize("n_modes", [257, 10000000])
@pytest.mark.parametrize("argv", [
    ("branch", "--class", "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "1"),
    ("report",),
], ids=["branch", "report"])
def test_n_modes_above_the_cap_exits_one(capsys, monkeypatch, tmp_path,
                                         n_modes, argv):
    # the corrector's arrays grow as n_modes^2: 10**7 modes would ask for
    # tens of GiB, so such a config is refused before anything is built
    assert orbits.MAX_N_MODES == 256
    cli.RunConfig({"analysis": {"n_modes": 256}})
    monkeypatch.setattr(bu.Universe, "for_l_max", _no_universe)
    cfg = tmp_path / "run.toml"
    cfg.write_text("[analysis]\nn_modes = %d\n" % n_modes)
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: analysis.n_modes must be at most 256"]


_BRANCH_ARGV = ("branch", "--class", "(D3^Z1 x_D3 D3)", "--j", "1", "--l",
                "1")


@pytest.mark.parametrize("line, argv", [
    pytest.param(line, _BRANCH_ARGV, id=line)
    for line in ("step_size = 1e300", "target_amplitude = 1e300",
                 "newton_tol = 1e-300")] + [
    # at 1e-300 the amplitude's squares underflow, so the point converged
    # at the last target reads amplitude 0 and the target cannot move on
    pytest.param(line, argv, id="%s-%s" % (line, argv[0]))
    for line in ("target_amplitude = 1e-300", "target_amplitude = 1e-100")
    for argv in (_BRANCH_ARGV, ("report",))] + [
    # and with newton_tol as small, the corrector goes on to build the
    # amplitude row of the normal equations, which divides by that 0
    pytest.param("target_amplitude = 1e-300\nnewton_tol = 1e-300",
                 ("branch", "--class", "(S4 x D1)", "--j", "0", "--l", "1",
                  "--steps", "5"), id="target_amplitude-and-newton_tol")])
def test_extreme_continuation_settings_end_cleanly(tmp_path, line, argv):
    # a fresh process, so that a numpy warning would show on stderr as it
    # does to a user
    cfg = tmp_path / "extreme.toml"
    cfg.write_text("[analysis]\n%s\n" % line)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "tetravib.cli", "--config", str(cfg), *argv],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 1, 2), proc.stderr
    lines = proc.stderr.splitlines()
    if proc.returncode == 0:
        assert lines == [] and proc.stdout
    else:
        prefix = "error: " if proc.returncode == 1 else "non-convergence: "
        assert len(lines) == 1 and lines[0].startswith(prefix), lines


@pytest.mark.parametrize("argv", [
    ("equilibrium",), ("report",),
    ("branch", "--class", "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "1"),
], ids=["equilibrium", "report", "branch"])
def test_vanishing_potential_exits_one(capsys, tmp_path, argv):
    cfg = tmp_path / "zero.toml"
    cfg.write_text("[potential]\nbond_weight = 0.0\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, out) == (1, "")
    assert err == "error: all pair potential terms vanish\n"


def test_nonconvergence_exits_two(capsys, tmp_path):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("[potential]\nbond_weight = 0.0\nvdw_A = 1.0\n")
    code, _, err = run(capsys, "--config", str(cfg), "equilibrium")
    assert code == 2
    assert "non-convergence" in err


def test_van_der_waals_only_equilibrium_exits_zero(capsys, tmp_path):
    # U = B x^-6 - A x^-3 is least at x^3 = 2B/A; its phi' is of order
    # 1e-8 at the converged radius, so a stop on |phi'| alone fails here
    cfg = tmp_path / "vdw.toml"
    cfg.write_text("[potential]\nbond_weight = 0.0\nvdw_A = 50.0\n"
                   "vdw_B = 0.001\n")
    eq = run_json(capsys, "--config", str(cfg), "equilibrium")["equilibrium"]
    assert eq["s_o"] == pytest.approx((2.0 * 0.001 / 50.0) ** (1.0 / 3.0),
                                      rel=1e-12)


_NO_MINIMUM = ("non-convergence: no interior minimum of the radial energy "
               "in [0.001, 1000]")


@pytest.mark.parametrize("line, message", [
    pytest.param(line, _NO_MINIMUM, id=line)
    for line in ("vdw_B = 1.0945e+262", "vdw_B = 1e300", "sigma = 1e300")] + [
    # phi'' of the radial polish overflows, and an infinite phi'' would
    # pass any phi'
    pytest.param("bond_weight = 1.7976931348623157e+308",
                 "non-convergence: Newton polish stalled at "
                 "|phi'|=1.26811e+305", id="bond_weight = max")])
def test_overflowing_parameter_prints_one_line(tmp_path, line, message):
    # numpy reports overflow through the warnings machinery, which a test
    # run inside this process would capture; only a fresh process shows
    # what a user sees on stderr
    cfg = tmp_path / "huge.toml"
    cfg.write_text("[potential]\n%s\n" % line)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "tetravib.cli", "--config", str(cfg),
         "equilibrium"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [message]


def test_truncation_floor_is_reported(capsys, tmp_path):
    # two modes cannot carry the wave past amplitude ~1e-3 at newton_tol
    # 1e-11: the collocation residual floor grows like amplitude^3
    cfg = tmp_path / "coarse.toml"
    cfg.write_text("[analysis]\nn_modes = 2\n")
    code, out, err = run(capsys, "--config", str(cfg), "branch", "--class",
                         "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "1")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "non-convergence: corrector failed repeatedly on class "
        "(D3^Z1 x_D3 D3) at target amplitude ")
    assert "(step " in lines[0]
    least = float(lines[0].split("smallest collocation residual ")[1]
                  .split()[0])
    assert lines[0].endswith("against newton_tol 1e-11")
    assert 1e-11 <= least < 2e-11          # stalled right at the floor


def test_step_budget_message_names_step_size(capsys, tmp_path):
    # 40 converged steps of 0.005 end near 0.196, short of 0.5: the one
    # line names the key that would carry the branch further, and its value
    cfg = tmp_path / "far.toml"
    cfg.write_text("[analysis]\ntarget_amplitude = 0.5\n")
    code, out, err = run(capsys, "--config", str(cfg), "branch", "--class",
                         "(S4 x D1)", "--j", "0", "--l", "1")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "non-convergence: branch did not reach amplitude 0.5 in 40 steps of "
        "at most step_size = 0.005 on class (S4 x D1) at target amplitude "
        "0.196 (step 0.005): smallest collocation residual ")


def test_step_below_the_target_resolution_stalls(capsys, tmp_path):
    # after the first point at 0.001, a step of 1e-300 leaves the target
    cfg = tmp_path / "tiny.toml"
    cfg.write_text("[analysis]\nstep_size = 1e-300\n")
    code, out, err = run(capsys, "--config", str(cfg), "branch", "--class",
                         "(S4 x D1)", "--j", "0", "--l", "1")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "non-convergence: continuation stalled on class (S4 x D1) at target "
        "amplitude 0.001 (step 1e-300): smallest collocation residual ")


def test_fold_cover_fault_exits_three(capsys, monkeypatch):
    def broken(self, kl, k):
        raise bu.InternalError("fold cover has wrong order (resolution?)")
    monkeypatch.setattr(bu.Universe, "fold_cover", broken)
    code, out, err = run(capsys, "invariants")
    assert code == 3
    assert out == ""
    assert "internal consistency failure" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value", [
    orbits.BranchPoint(0.05, 1.0, 1e-12, (0.0,)), np.zeros(2)],
    ids=["record", "array"])
def test_unserializable_result_exits_three(capsys, monkeypatch, fmt, value):
    # a record or an array in a report is the builder's fault, not the
    # user's: it is refused, not written as a list or as its str
    monkeypatch.setattr(cli, "_reps_report", lambda: {"rows": [value]})
    code, out, err = run(capsys, "--format", fmt, "reps")
    assert (code, out) == (3, "")
    assert err.splitlines() == ["internal consistency failure: "
                                "unserializable object of type %s"
                                % type(value).__name__]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_float_in_a_report_exits_three(capsys, monkeypatch, fmt,
                                                  value):
    monkeypatch.setattr(cli, "_reps_report", lambda: {"x": value})
    code, out, err = run(capsys, "--format", fmt, "reps")
    assert (code, out) == (3, "")
    assert err.splitlines() == ["internal consistency failure: "
                                "non-finite float in report"]


def test_empty_containers_serialize_as_empty_brackets():
    assert cli.dumps({"a": [], "b": {}, "c": ()}) == (
        '{\n  "a": [],\n  "b": {},\n  "c": []\n}')
    assert cli.dumps([[], {}], None) == "[[], {}]"


def test_full_report_smoke(capsys, tmp_path):
    cfg = tmp_path / "fast.toml"
    cfg.write_text("[analysis]\nn_modes = 8\n")
    doc = run_json(capsys, "--config", str(cfg), "report")
    assert len(doc["branches"]) == 7
    for b in doc["branches"]:
        assert b["final_amplitude"] >= 0.05
        assert b["final_residual"] < 1e-9
    assert doc["equilibrium"]["r_o"] == pytest.approx(
        math.sqrt(3.0 / 8.0), abs=1e-12)


@pytest.fixture(scope="module")
def default_report():
    """The default `tetravib report`, parsed; the number of calls that went
    through orbits.hessian and orbits.gradient while it ran; and every
    result of describe_symmetry, AmalgamClass.elements, action_matrix and
    isotypic_projection it asked for, kept alive so that distinct results
    have distinct ids; and (computations, calls) of the cached equilibrium,
    critical set, representation character and predicate tables, counted
    from empty caches."""
    counts = {"hessian": 0, "gradient": 0}
    derived = {"describe_symmetry": [], "elements": [], "action_matrix": [],
               "isotypic_projection": []}

    def counting(name):
        fn = getattr(orbits, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def keeping(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            derived[name].append(out)
            return out
        return wrapper

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            mp.setattr(orbits, name, counting(name))
        mp.setattr(bf, "describe_symmetry",
                   keeping("describe_symmetry", bf.describe_symmetry))
        mp.setattr(bu.AmalgamClass, "elements",
                   keeping("elements", bu.AmalgamClass.elements))
        for name in ("action_matrix", "isotypic_projection"):
            fn = keeping(name, getattr(gr, name))
            for module in (gr, orbits):
                mp.setattr(module, name, fn)
        cached = {"find_equilibrium": find_equilibrium,
                  "critical_set": bf._critical_set,
                  "representation_character": gr.representation_character,
                  "relation_tables": orbits._relation_tables}
        for fn in cached.values():
            fn.cache_clear()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report"])
    assert code == 0
    builds = {name: (fn.cache_info().misses,
                     fn.cache_info().hits + fn.cache_info().misses)
              for name, fn in cached.items()}
    return json.loads(out.getvalue()), counts, derived, builds


def test_default_report_corrector_work(default_report):
    # one Hessian per Newton step, one gradient per residual: the seven
    # branches at n_modes 16 make exactly this much corrector work, and
    # each of their 77 points takes its residual from the corrector
    _, counts, _, _ = default_report
    assert counts == {"hessian": 66, "gradient": 143}


@pytest.mark.parametrize("c", [1e-10, 1e100, 1e-300])
def test_report_is_free_of_the_potential_scale(tmp_path, capsys,
                                               default_report, c):
    # V -> cV only rescales time, lambda -> lambda / sqrt(c).  The corrector
    # solves for lambda / lambda0, so its column-scaled system is that of
    # c = 1, and so is every branch (measured: 1.1e-15 relative at most)
    cfg = tmp_path / "scaled.toml"
    cfg.write_text("[potential]\nbond_weight = %r\n" % c)
    scaled = run_json(capsys, "--config", str(cfg), "report")["branches"]
    default = default_report[0]["branches"]
    assert len(scaled) == 7
    assert [b["canonical"] for b in scaled] == [
        b["canonical"] for b in default]
    for got, want in zip(scaled, default):
        assert got["final_lambda"] * math.sqrt(c) == pytest.approx(
            want["final_lambda"], rel=1e-12, abs=0.0), want["class"]


def test_default_report_derives_each_class_once(default_report):
    # one description per maximal class of the five invariants (the seven
    # families and the dropped frequency-doubled breathing class); one
    # element list per branch class, whose relations the report checks at
    # its last point; one action matrix per permutation and at most one
    # projection per irreducible
    _, _, derived, _ = default_report
    distinct = {name: len({id(x) for x in kept})
                for name, kept in derived.items()}
    # orbits holds no name from bifurcation, so no call to
    # describe_symmetry goes past the count
    assert {name for name, v in vars(orbits).items()
            if getattr(v, "__module__", None) == bf.__name__} == set()
    assert len(derived["describe_symmetry"]) == 8
    assert distinct["elements"] == 7
    assert distinct["action_matrix"] == 24
    assert distinct["isotypic_projection"] <= 5


def test_default_report_computes_shared_inputs_once(default_report):
    # the equilibrium serves the report and each of the seven branches; the
    # critical set serves bifurcation.invariants and each of the five
    # invariant calls; the character serves reps and multiplicities; the
    # predicate tables are built once per branch class, seven, and read
    # only at the last point of each branch, the one the report prints
    _, _, _, builds = default_report
    assert builds == {"find_equilibrium": (1, 8),
                      "critical_set": (1, 6),
                      "representation_character": (1, 2),
                      "relation_tables": (7, 7)}


def test_cached_results_are_read_only():
    crits = bf.critical_set((4.0, 2.0, 1.0), l_max=2)
    assert isinstance(crits, tuple) and len(crits[:3]) == 3
    assert bf.critical_set([4.0, 2.0, 1.0], l_max=2) is crits
    chi = gr.representation_character()
    with pytest.raises(ValueError):
        chi[0] = 0.0
    eq = find_equilibrium(PairPotential())
    assert find_equilibrium(PairPotential(1.0, 0.0, 0.0, 0.0)) is eq
    with pytest.raises(ValueError):
        eq.u_o[0, 0] = 0.0
    with pytest.raises(ValueError):
        eq.spectrum.eigenvalues[0] = 0.0


@pytest.mark.parametrize("l_max", [2, 4, 8])
def test_library_invariants_are_the_printed_invariants(capsys, tmp_path,
                                                       l_max):
    # bifurcation.invariants is the stage that `tetravib invariants` prints,
    # report by report and in the same order
    cfg = tmp_path / "run.toml"
    cfg.write_text("[analysis]\nl_max = %d\n" % l_max)
    printed = run_json(capsys, "--config", str(cfg), "invariants")
    reports = bf.invariants(find_equilibrium(PairPotential()).mu, l_max)
    assert isinstance(reports, tuple)
    assert [json.loads(cli.dumps(cli._invariant_report(r)))
            for r in reports] == printed["invariants"]


@pytest.mark.parametrize("l_max, message", [
    (0, "l_max must be at least 1"),
    (41, "Fourier mode 41 is above 40, the largest whose element codes fit "
         "in 64-bit integers"),
])
def test_library_invariants_refuse_an_l_max_outside_the_window(
        monkeypatch, l_max, message):
    # refused before any class is enumerated, as the command line refuses
    monkeypatch.setattr(bu.Universe, "_enumerate", _no_universe)
    with pytest.raises(bf.UsageError) as info:
        bf.invariants((8.0, 4.0, 2.0), l_max)
    assert str(info.value) == message


def test_default_report_branches_match_golden(default_report):
    doc, _, _, _ = default_report
    got = doc["branches"]
    assert [b["class"] for b in got] == [g[0] for g in BRANCHES]
    for b, (name, j, l, steps, brake, amp, lam, lam_star) in zip(got,
                                                                BRANCHES):
        assert (b["j"], b["l"], b["steps"], b["brake"]) == (j, l, steps,
                                                            brake), name
        assert b["final_amplitude"] == pytest.approx(amp, rel=1e-12), name
        assert b["final_lambda"] == pytest.approx(lam, rel=1e-12), name
        assert b["frequency_extrapolation"] == pytest.approx(
            lam_star, rel=1e-12), name


def test_one_point_branches_have_no_extrapolation(capsys, tmp_path):
    # the first corrector step already passes this target, so each branch
    # has one point, and one point cannot fix a limit
    cfg = tmp_path / "tiny.toml"
    cfg.write_text("[analysis]\ntarget_amplitude = 0.0005\n")
    doc = run_json(capsys, "--config", str(cfg), "report")
    assert len(doc["branches"]) == 7
    for b in doc["branches"]:
        assert b["steps"] == 1
        assert b["frequency_extrapolation"] is None
        # the first step asks for the target (with the 1e-4 overshoot of
        # every branch's last step), not for FIRST_STEP = 0.001
        assert b["final_amplitude"] == pytest.approx(0.0005 * 1.0001,
                                                     rel=1e-6)
