"""The trajectory script's fresh-process samples and its environment
record, on a small branch and small invariants.

Run with `PYTHONPATH=src python -m pytest bench`.
"""
import hashlib
import os
import runpy
import subprocess
import sys

import pytest

import trajectory
from tetravib import cli


def test_branch_samples_summarize_to_medians_and_one_digest(tmp_path):
    config = tmp_path / "n8.toml"
    config.write_text("[analysis]\nn_modes = 8\n")
    argv = ["-m", "tetravib.cli", "--config", str(config),
            *trajectory.SCALING["branch"][1]]
    samples = [trajectory.sample(trajectory.ROOT, argv) for _ in range(2)]
    assert all(s["exit"] == 0 and s["wall_s"] > 0.0 and s["peak_rss_mb"] > 0
               for s in samples)
    summary = trajectory.summarize(samples + [dict(samples[0], exit=2)])
    assert summary["runs"] == 3 and summary["failed"] == 1
    # the program is deterministic: both runs print the same bytes
    assert len(summary["sha256"]) == 1
    assert min(s["wall_s"] for s in samples) <= summary["wall_s"] \
        <= max(s["wall_s"] for s in samples)


def test_perfbench_runs_alternate_and_keep_medians(monkeypatch):
    calls = []

    def stub(root, workload, seconds):
        calls.append((root, workload, seconds))
        if len(calls) == 6:         # a run that printed nothing
            return {"correct": False, "exit": 1, "stderr": "boom"}
        return {"correct": True, "metrics": {
            "wall_s": {"value": float(len(calls)), "unit": "s"},
            "peak_rss_mb": {"value": 30.0 + len(calls), "unit": "MB"}}}

    monkeypatch.setattr(trajectory, "perfbench", stub)
    got = trajectory.perfbench_runs({"parent": "P", "change": "C"},
                                    "branch_n64", 30)
    assert calls == [(root, "branch_n64", 30)
                     for root in ("P", "C", "C", "P", "P", "C")]
    assert [r["metrics"]["wall_s"]["value"]
            for r in got["parent"]["runs"]] == [1.0, 4.0, 5.0]
    assert got["change"]["runs"][-1]["correct"] is False
    assert got["parent"]["median"] == {"wall_s": 4.0, "peak_rss_mb": 34.0}
    # calls 2 and 3; the sixth has no metrics
    assert got["change"]["median"] == {"wall_s": 2.5, "peak_rss_mb": 32.5}


def test_alternated_samples_reverse_the_order_after_each_round(monkeypatch):
    calls = []

    def stub(root, argv):
        calls.append(root)
        return {"exit": 0, "wall_s": float(len(calls)), "peak_rss_mb": 30.0,
                "sha256": "x"}

    monkeypatch.setattr(trajectory, "sample", stub)
    got = trajectory.alternated({"parent": "P", "change": "C"}, ["-c", ""], 5)
    assert calls == ["P", "C", "C", "P", "P", "C", "C", "P", "P", "C"]
    assert got["parent"]["wall_s"] == 5.0       # runs 1, 4, 5, 8 and 9
    assert got["change"]["wall_s"] == 6.0       # runs 2, 3, 6, 7 and 10


def test_paired_rows_flip_the_order_on_each_pair(monkeypatch):
    calls = []

    def stub(root, argv):
        calls.append(root)
        pair = (len(calls) - 1) // 2
        # pair i: the parent takes 1 s, the change 1 + i/100 s; the change's
        # run of the fourth pair fails
        return {"exit": 2 if (pair, root) == (3, "C") else 0,
                "wall_s": 1.0 + pair / 100 if root == "C" else 1.0,
                "peak_rss_mb": 30.0, "sha256": "x"}

    monkeypatch.setattr(trajectory, "sample", stub)
    got = trajectory.paired({"parent": "P", "change": "C"}, ["-c", ""], 11)
    assert calls == ["P", "C", "C", "P"] * 5 + ["P", "C"]
    assert (got["parent"]["runs"], got["parent"]["failed"]) == (11, 0)
    assert (got["change"]["runs"], got["change"]["failed"]) == (11, 1)
    # ten ratios 1.00, 1.01, 1.02, 1.04, ..., 1.10: the interval runs from
    # the second smallest to the second largest, as P(B <= 1) = 11/1024
    # and P(B <= 2) = 56/1024 for B ~ Binomial(10, 1/2)
    ratio = got["ratio"]
    assert ratio["n"] == 10
    assert ratio["median"] == pytest.approx(1.055)
    assert (ratio["low"], ratio["high"]) == (pytest.approx(1.01),
                                             pytest.approx(1.09))
    # the first pair is a tie, and the change is slower in the others
    assert got["change_won"] == 0


def test_startup_rows_split_import_from_shutdown():
    # the import row minus the shutdown row is the interpreter's shutdown
    # with tetravib loaded: the same import, ended before finalization
    _, _, imports, shutdown = trajectory.STARTUP
    assert shutdown == imports + ", os; os._exit(0)"
    empty = hashlib.sha256(b"").hexdigest()
    for code in trajectory.STARTUP:
        got = trajectory.sample(trajectory.ROOT, ["-c", code])
        assert (got["exit"], got["sha256"]) == (0, empty), code
        assert got["wall_s"] > 0.0 and got["peak_rss_mb"] > 0


@pytest.mark.parametrize("n, low, high", [
    (5, None, None), (6, 0, 5), (10, 1, 8), (40, 13, 26)])
def test_median_interval_takes_binomial_order_statistics(n, low, high):
    got = trajectory.median_interval(range(n))
    assert (got["n"], got["low"], got["high"]) == (n, low, high)
    assert got["median"] == (n - 1) / 2


def test_invariants_scaling_samples_each_l_max(tmp_path, monkeypatch,
                                               capsys):
    key, args, _ = trajectory.SCALING["invariants"]
    monkeypatch.setitem(trajectory.SCALING, "invariants", (key, args, {2: 2}))
    got = trajectory.scaling({"change": trajectory.ROOT}, "invariants",
                             str(tmp_path))
    summary = got["change"]["2"]
    assert (summary["runs"], summary["failed"]) == (2, 0)
    assert summary["wall_s"] > 0.0 and summary["peak_rss_mb"] > 0
    # the sample ran `invariants` at l_max 2, the command line's default
    assert cli.main(["invariants"]) == 0
    want = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert summary["sha256"] == [want]


def test_environment_names_the_kernel_and_the_interpreter():
    env = trajectory.environment(trajectory.ROOT)
    assert len(env["kernel_fingerprint"]) == 16
    assert env["cpu_count"] == os.cpu_count()
    assert env["python"] and env["numpy"]


@pytest.mark.parametrize("pythonpath", [None, os.pathsep.join(["a", "b"])])
def test_program_env_is_perfbench_program_env(monkeypatch, pythonpath):
    if pythonpath is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", pythonpath)
    bench = os.path.join(trajectory.ROOT, "perfbench")
    monkeypatch.syspath_prepend(bench)      # for its `import checks`
    run = runpy.run_path(os.path.join(bench, "run.py"))
    assert trajectory.program_env(trajectory.ROOT) == run["program_env"]()


def test_program_env_leaves_numpy_unloaded():
    # a child's ru_maxrss starts at the sampler's own peak, so the sampler
    # must not carry numpy's pages into every sample
    code = ("import sys, trajectory; trajectory.program_env(trajectory.ROOT); "
            "print(sorted({'numpy', 'checks'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code],
                         cwd=os.path.dirname(trajectory.__file__),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["[]"]
