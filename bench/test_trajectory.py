"""The trajectory script's fresh-process branch timing and its environment
record, on a small branch.

Run with `PYTHONPATH=src python -m pytest bench`.
"""
import os

import trajectory


def test_branch_samples_summarize_to_medians_and_one_digest(tmp_path):
    config = tmp_path / "n8.toml"
    config.write_text("[analysis]\nn_modes = 8\n")
    samples = [trajectory.branch_sample(trajectory.ROOT, str(config))
               for _ in range(2)]
    assert all(s["exit"] == 0 and s["wall_s"] > 0.0 and s["peak_rss_mb"] > 0
               for s in samples)
    summary = trajectory.summarize(samples + [dict(samples[0], exit=2)])
    assert summary["runs"] == 3 and summary["failed"] == 1
    # the program is deterministic: both runs print the same bytes
    assert len(summary["sha256"]) == 1
    assert min(s["wall_s"] for s in samples) <= summary["wall_s"] \
        <= max(s["wall_s"] for s in samples)


def test_environment_names_the_kernel_and_the_interpreter():
    env = trajectory.environment(trajectory.ROOT)
    assert len(env["kernel_fingerprint"]) == 16
    assert env["cpu_count"] == os.cpu_count()
    assert env["python"] and env["numpy"]
