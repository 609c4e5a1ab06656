import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tetravib.bifurcation as bf
import tetravib.burnside as bu
from tetravib import cli


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
])
def test_bad_config_exits_one(tmp_path, capsys, body):
    path = tmp_path / "bad.toml"
    path.write_text(body)
    code, _, err = run(capsys, "--config", str(path), "reps")
    assert code == 1
    assert "error" in err


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
    body = "".join("[%s]\n%s = %s\n" % (section, key, value)
                   for (section, key), value in entries)
    return body.encode(), any(v in ("true", "false") for _, v in entries)


# each key at most once, so a boolean is never overridden by a later line
_SCHEMA_LINES = st.lists(st.tuples(st.sampled_from(_SCHEMA_KEYS), _VALUES),
                         max_size=4, unique_by=lambda e: e[0]).map(_config_text)


@settings(database=None, derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(st.binary(max_size=80).map(lambda b: (b, False)),
                      _SCHEMA_LINES))
@example(case=(b"[potential]\nbond_weight = 1.0\xff\n", False))
@example(case=(b"[potential]\nbond_weight = true\n", True))
@example(case=(b'[output]\npath = "/"\n', False))   # names a directory
def test_fuzzed_config_exits_cleanly(tmp_path, monkeypatch, capsys, case):
    body, has_boolean = case
    monkeypatch.setenv("TETRAVIB_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "fuzz.toml"
    path.write_bytes(body)
    code, _, err = run(capsys, "--config", str(path), "equilibrium")
    assert code in (0, 1, 2)
    if code:
        prefix = "error: " if code == 1 else "non-convergence: "
        assert err.splitlines()[-1].startswith(prefix)
    if has_boolean:                     # no key takes a boolean
        assert code == 1


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
    code, _, err = run(capsys, "degrees", "--j", "9", "--l", "1")
    assert code == 1
    code, _, err = run(capsys, "degrees", "--j", "0", "--l", "0")
    assert code == 1


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
    u = bf._universe(2)
    for f in doc["families"]:
        assert u.parse_class(f["canonical"]).printed_form() == f["class"]


def test_invariants_unresolvable_mode_exits_one(capsys):
    code, _, err = run(capsys, "invariants", "--critical", "2,2")
    assert code == 1                       # largest critical: not isolatable
    with pytest.raises(SystemExit) as info:
        cli.main(["invariants", "--critical", "nonsense"])
    assert info.value.code == 1
    capsys.readouterr()


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


def test_csv_rendering_flattens_keys(capsys):
    code, out, err = run(capsys, "--format", "csv", "reps")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "representation.multiplicities.0" in keys


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


# ---------------------------------------------------------------------------
# exit codes

def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 1
    capsys.readouterr()


def test_nonconvergence_exits_two(capsys, tmp_path):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("[potential]\nbond_weight = 0.0\nvdw_A = 1.0\n")
    code, _, err = run(capsys, "--config", str(cfg), "equilibrium")
    assert code == 2
    assert "non-convergence" in err


@pytest.mark.parametrize("line", ["vdw_B = 1.0945e+262", "vdw_B = 1e300",
                                  "sigma = 1e300"])
def test_overflowing_parameter_prints_one_line(tmp_path, line):
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
    assert proc.stderr.splitlines() == [
        "non-convergence: no interior minimum of the radial energy in "
        "[0.001, 1000]"]


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


def test_fold_cover_fault_exits_three(capsys, monkeypatch):
    def broken(self, kl, k):
        raise bu.InternalError("fold cover has wrong order (resolution?)")
    monkeypatch.setattr(bu.Universe, "fold_cover", broken)
    code, out, err = run(capsys, "invariants")
    assert code == 3
    assert out == ""
    assert "internal consistency failure" in err


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
