"""perfbench/tracer.py wraps names in every layer of the program.  A traced
`report` must print the report bytes and count the work the report does, so
that renaming or deleting a wrapped name fails here."""
import json
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the per-layer counts of one default `report`
COUNTS = {
    "forcefield.hessian_calls": 66,
    "burnside.classes": 207,
    "burnside.phi0_classes": 207,
    "burnside.n_count_calls": 156,
    "burnside.n_count_pairs": 156,
    "burnside.fold_cover_calls": 2,
    "bifurcation.invariant_calls": 5,
    "bifurcation.families": 7,
    "orbits.branch_points": 77,
}


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_traced_report_prints_the_report_and_counts_its_work(tmp_path):
    trace = tmp_path / "trace.jsonl"
    traced = _python(os.path.join(_ROOT, "perfbench", "tracer.py"),
                     str(trace), "0", "report")
    assert traced.returncode == 0, traced.stderr
    plain = _python("-m", "tetravib.cli", "report")
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    with open(trace, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    values = next(r["values"] for r in records if r["type"] == "sample")
    assert {k: values[k] for k in COUNTS} == COUNTS
