"""Committed bench trajectory: end-to-end metrics and branch scaling of one or
two checkouts, written to BENCH_<N>.json.

Usage, from the root of a checkout:

    python3 bench/trajectory.py --number N [--parent DIR]

For the checkout this script lives in (and, with --parent, for the checkout
at DIR, a `git clone` of the parent commit), it

- runs that checkout's `perfbench/run.py`, unchanged, with `--trace 0`
  three times on each gated workload for BENCHMARK.json's `run_seconds`,
  and keeps the last line of each run's stdout, the JSON object
  {"correct", "attempted", "failed", "metrics"}, and the median of each
  metric over the three;
- splits start-up and shutdown: fresh interpreters that run the codes of
  STARTUP, `pass`, `import numpy`, `import tetravib.cli` and that import
  ended by `os._exit(0)`, so that the third minus the second is tetravib's
  own import (`import numpy` alone sizes OpenBLAS's thread pool, which
  tetravib sets to one thread first) and the third minus the fourth is the
  interpreter's shutdown with tetravib loaded;
- times each command of SCALING at each value of the [analysis] setting it
  scales with, in fresh processes: `tetravib branch` on BRANCH_CLASS over
  n_modes and `tetravib invariants` over l_max;
- records the interpreter, the numpy version, the BLAS kernel fingerprint
  of `tests/_golden.py`, the CPU count and `git rev-parse HEAD`;
- with --parent, runs the command of each gated workload (PAIRED) as PAIRS
  pairs of fresh processes, one per checkout a pair, and records the
  per-side medians and the median of the change/parent wall-time ratio
  over the pairs, with a 95 % interval on it.  Drift of the host over the
  minutes of a perfbench run swamps a few per cent between whole runs;
  within a pair both sides see the same drift.

Each fresh-process sample keeps the medians of the wall time and of the
peak resident set (ru_maxrss), and the sha256 of the output.  With two
checkouts every measurement alternates between them, in an order that
reverses after each round, so that both see the same drift of the machine.
Each sample runs in the environment that `perfbench/run.py` gives its
program (`program_env`: the checkout's `src` in front of PYTHONPATH).
PYTHONPYCACHEPREFIX is not set: under PYTHONDONTWRITEBYTECODE=1 an empty
prefix would make every child compile the standard library as well.  The
file is written at the root of this checkout.

A child's ru_maxrss starts at the peak of the process that spawned it,
since Linux keeps the high-water mark across the exec that follows
subprocess's vfork.  So this script imports neither numpy nor perfbench,
and a sample reads the child's own peak wherever that lies above this
script's; the `pass` row reads this script's peak.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("report_default", "branch_n64")
BRANCH_CLASS = "(D3^Z1 x_D3 D3)"
# command: (the [analysis] setting it scales with, its arguments,
# {setting value: fresh-process runs whose medians are kept})
SCALING = {
    "branch": ("n_modes", ("branch", "--class", BRANCH_CLASS, "--j", "1",
                           "--l", "1"),
               {8: 5, 16: 5, 32: 5, 64: 5, 128: 3, 256: 3}),
    "invariants": ("l_max", ("invariants",),
                   {2: 5, 4: 5, 8: 5, 16: 5, 24: 3, 40: 3}),
}
SEED = 0
# the start-up split: each row's code, run in a fresh interpreter
STARTUP = ("pass", "import numpy", "import tetravib.cli",
           "import tetravib.cli, os; os._exit(0)")
# the command of each gated workload: (the [analysis] setting and value it
# runs with, or None, and its arguments)
PAIRED = {
    "report": (None, ("report",)),
    "branch_n64": (("n_modes", 64), SCALING["branch"][1]),
}
# an A/A test of 40 pairs on the 64-mode branch gave a ratio interquartile
# range of 0.963 to 1.046, so about +-2.5 % on the median ratio
PAIRS = 40


def program_env(root, **extra):
    """perfbench's environment for the program of the checkout at root:
    root/src in front of PYTHONPATH, plus the variables extra."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env, cwd):
    """(exit code, stdout, wall seconds, ru_maxrss in MB) of one process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    # wait4, not Popen.wait: it returns the child's own rusage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, out, wall, usage.ru_maxrss / 1024.0


def perfbench(root, workload, seconds):
    """The last-line JSON of one `perfbench/run.py --trace 0` run of
    `seconds`."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "exit": proc.returncode,
                "stderr": proc.stderr.strip()}
    return json.loads(lines[-1])


def alternation(labels, rounds):
    """The labels of `rounds` rounds, one run of each checkout a round, in
    an order that reverses after each round (parent, change, change,
    parent, parent, change, ...), so that a drift of the machine falls on
    both alike."""
    order = list(labels)
    for _ in range(rounds):
        yield from order
        order.reverse()


def perfbench_runs(roots, workload, seconds):
    """{label: {"runs": [last-line JSON, ...], "median": {metric: value}}}
    of three perfbench runs of the workload per checkout {label: root},
    taken in alternation.  A run that printed nothing has no metrics and
    counts in no median."""
    runs = {label: [] for label in roots}
    for label in alternation(roots, 3):
        runs[label].append(perfbench(roots[label], workload, seconds))
    out = {}
    for label, got in runs.items():
        values = {}
        for run in got:
            for name, metric in run.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        out[label] = {"runs": got, "median": {
            name: statistics.median(v) for name, v in values.items()}}
    return out


def sample(root, argv):
    """One fresh interpreter, in the checkout's program environment, run
    with the arguments argv."""
    code, out, wall, rss = run_child([sys.executable, *argv],
                                     program_env(root), root)
    return {"exit": code, "wall_s": wall, "peak_rss_mb": rss,
            "sha256": hashlib.sha256(out).hexdigest()}


def alternated_samples(roots, argv, runs):
    """{label: [sample, ...]} of runs samples of argv per checkout
    {label: root}, taken in alternation."""
    samples = {label: [] for label in roots}
    for label in alternation(roots, runs):
        samples[label].append(sample(roots[label], argv))
    return samples


def alternated(roots, argv, runs):
    """{label: summary} of runs samples of argv per checkout {label: root},
    taken in alternation."""
    return {label: summarize(got) for label, got in
            alternated_samples(roots, argv, runs).items()}


def median_interval(values):
    """{"n", "median", "low", "high"} of values: the median, and the
    distribution-free 95 % interval on it between the k-th smallest and the
    k-th largest value, with k the largest at which a Binomial(n, 1/2)
    falls below k with probability at most 2.5 %.  low and high are None
    where no k qualifies (n < 6)."""
    xs = sorted(values)
    n = len(xs)
    k, below = 0, 0.0
    while k < n and below + math.comb(n, k) / 2 ** n <= 0.025:
        below += math.comb(n, k) / 2 ** n
        k += 1
    return {"n": n, "median": statistics.median(xs) if xs else None,
            "low": xs[k - 1] if k else None,
            "high": xs[n - k] if k else None}


def paired(roots, argv, pairs):
    """{"parent": summary, "change": summary, "ratio": median_interval,
    "change_won": count} of `pairs` pairs of samples of argv, one per
    checkout a pair, the order flipping on each pair; the ratio is the
    change's wall time over the parent's in each pair where both ran, and
    the change wins a pair where the ratio is below 1."""
    got = alternated_samples(roots, argv, pairs)
    ratios = [c["wall_s"] / p["wall_s"]
              for p, c in zip(got["parent"], got["change"])
              if p["exit"] == c["exit"] == 0]
    return {**{label: summarize(s) for label, s in got.items()},
            "ratio": median_interval(ratios),
            "change_won": sum(r < 1.0 for r in ratios)}


def config_argv(tmp, key, value):
    """--config and a file in the directory tmp that sets [analysis] key to
    value."""
    config = os.path.join(tmp, "%s%d.toml" % (key, value))
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("[analysis]\n%s = %d\n" % (key, value))
    return ["--config", config]


def scaling(roots, command, tmp):
    """{label: {value: summary}} of the SCALING command at each value of
    its setting, with config files written to the directory tmp."""
    key, args, runs = SCALING[command]
    out = {label: {} for label in roots}
    for value, n in runs.items():
        argv = ["-m", "tetravib.cli", *config_argv(tmp, key, value), *args]
        for label, summary in alternated(roots, argv, n).items():
            out[label][str(value)] = summary
    return out


def paired_rows(roots):
    """{workload: row} of the PAIRED commands, each run as PAIRS pairs of
    the checkouts {"parent": root, "change": root}."""
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (setting, args) in PAIRED.items():
            config = config_argv(tmp, *setting) if setting else []
            argv = ["-m", "tetravib.cli", *config, *args]
            rows[name] = {"args": list(args),
                          "analysis": dict([setting] if setting else []),
                          "pairs": PAIRS,
                          **paired(roots, argv, PAIRS)}
    return rows


def summarize(samples):
    """Medians over the samples, the number that failed and the distinct
    output digests of those that did not."""
    ok = [s for s in samples if s["exit"] == 0]
    out = {"runs": len(samples), "failed": len(samples) - len(ok),
           "sha256": sorted({s["sha256"] for s in ok})}
    for key in ("wall_s", "peak_rss_mb"):
        out[key] = statistics.median(s[key] for s in ok) if ok else None
    return out


def environment(root):
    golden = importlib.util.spec_from_file_location(
        "_golden", os.path.join(root, "tests", "_golden.py"))
    module = importlib.util.module_from_spec(golden)
    golden.loader.exec_module(module)
    fingerprint = subprocess.run(
        [sys.executable, "-c", module.KERNEL_FINGERPRINT],
        env=program_env(root, OPENBLAS_NUM_THREADS="1"), cwd=root,
        capture_output=True, text=True, check=True).stdout.strip()
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True, check=False)
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                           cwd=root, capture_output=True, text=True,
                           check=False)
    return {"python": sys.version.split()[0], "numpy": numpy,
            "kernel_fingerprint": fingerprint, "cpu_count": os.cpu_count(),
            "git_head": git.stdout.strip() if git.returncode == 0 else None,
            "src_modified": bool(dirty.stdout.strip())
            if dirty.returncode == 0 else None}


def trajectory(roots, seconds):
    """{label: record} for the checkouts {label: root}, measured in turn,
    with perfbench runs of `seconds`."""
    out = {label: {"environment": environment(root), "perfbench": {},
                   "startup": {}}
           for label, root in roots.items()}
    # perfbench's untimed warm-up import comes first, before any sample
    for workload in WORKLOADS:
        for label, runs in perfbench_runs(roots, workload, seconds).items():
            out[label]["perfbench"][workload] = runs
    # 21 runs of each: a few ms of difference in start-up is resolved
    for code in STARTUP:
        for label, summary in alternated(roots, ["-c", code], 21).items():
            out[label]["startup"][code] = summary
    with tempfile.TemporaryDirectory() as tmp:
        for command, (key, args, _) in SCALING.items():
            for label, values in scaling(roots, command, tmp).items():
                out[label][command] = {"args": list(args), key: values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--number", type=int, required=True,
                        help="N of the BENCH_<N>.json written")
    parser.add_argument("--parent", help="root of a checkout of the parent")
    args = parser.parse_args(argv)
    roots = {"change": ROOT}
    if args.parent:
        roots = {"parent": os.path.abspath(args.parent), "change": ROOT}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {"number": args.number, "seconds": seconds,
              "checkouts": trajectory(roots, seconds)}
    if args.parent:
        record["paired"] = paired_rows(roots)
    path = os.path.join(ROOT, "BENCH_%d.json" % args.number)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
