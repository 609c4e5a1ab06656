"""The benchmark's output checks accept real outputs and reject corrupted ones.

Run with `PYTHONPATH=src python -m pytest perfbench`.  The outputs come from
the CLI in-process at small sizes (l_max = 2, n_modes = 16); each corruption
changes one value the way a regression in the program would.
"""
import contextlib
import copy
import io
import json

import pytest

import checks
from tetravib import cli

CLASS = "(D3^Z1 x_D3 D3)"


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    return checks.load_golden()


@pytest.fixture(scope="module")
def report():
    return json.loads(_run(["--seed", "7", "report"]))


@pytest.fixture(scope="module")
def invariants():
    return json.loads(_run(["--seed", "7", "invariants"]))


@pytest.fixture(scope="module")
def branch_rows():
    text = _run(["branch", "--class", CLASS, "--j", "1", "--l", "1"])
    return [json.loads(line) for line in text.splitlines()]


def _dump_rows(rows):
    return "".join(json.dumps(r) + "\n" for r in rows)


def test_real_outputs_pass(golden, report, invariants, branch_rows):
    checks.check_report(json.dumps(report), 7, golden)
    checks.check_invariants(json.dumps(invariants), 7, golden, l_max=2)
    checks.check_branch(_dump_rows(branch_rows), 1, 1, 5)


def _flip_coefficient(doc):
    doc["invariants"][1]["omega"][0]["coeff"] *= -1


def _drop_family(doc):
    del doc["families"][3]
    del doc["branches"][3]


def _shift_lambda(doc):
    doc["branches"][2]["frequency_extrapolation"] += 2e-4


def _rough_branch(doc):
    doc["branches"][4]["final_residual"] = 2e-9


def _energy_drift(doc):
    doc["branches"][0]["energy_spread"] = 1e-7


def _wrong_radius(doc):
    doc["equilibrium"]["r_o"] *= 1.0 + 1e-9


def _wrong_seed(doc):
    doc["meta"]["seed"] = 8


def _swap_family_class(doc):
    a, b = doc["families"][1], doc["families"][2]
    a["canonical"], b["canonical"] = b["canonical"], a["canonical"]


def _extra_term(doc):
    doc["invariants"][0]["omega"].append(dict(doc["invariants"][1]["omega"][0]))


@pytest.mark.parametrize("corrupt", [
    _flip_coefficient, _drop_family, _shift_lambda, _rough_branch,
    _energy_drift, _wrong_radius, _wrong_seed, _swap_family_class,
    _extra_term])
def test_corrupted_report_is_rejected(golden, report, corrupt):
    doc = copy.deepcopy(report)
    corrupt(doc)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(json.dumps(doc), 7, golden)


@pytest.mark.parametrize("corrupt", [
    lambda d: d["invariants"][2]["omega"].pop(),
    lambda d: d["invariants"][2]["maximal"].pop(),
    lambda d: d["invariants"].pop(1),
    lambda d: d["invariants"][1]["contributors"].append([0, 2]),
    lambda d: d["families"].pop(),
])
def test_corrupted_invariants_are_rejected(golden, invariants, corrupt):
    doc = copy.deepcopy(invariants)
    corrupt(doc)
    with pytest.raises(checks.CheckFailed):
        checks.check_invariants(json.dumps(doc), 7, golden, l_max=2)


@pytest.mark.parametrize("corrupt", [
    lambda rows: [dict(r, **{"lambda": r["lambda"] + 2e-4}) for r in rows],
    lambda rows: rows[:-1],
    lambda rows: [dict(r, residual=1e-8) if i == 3 else r
                  for i, r in enumerate(rows)],
    lambda rows: [dict(r, predicate_residuals=r["predicate_residuals"][1:])
                  for r in rows],
])
def test_corrupted_branch_is_rejected(branch_rows, corrupt):
    with pytest.raises(checks.CheckFailed):
        checks.check_branch(_dump_rows(corrupt(copy.deepcopy(branch_rows))),
                            1, 1, 5)
