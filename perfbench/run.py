"""End-to-end benchmark of the `tetravib` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `tetravib` command, run as a fresh process at a time in
a closed loop (the next invocation starts when the previous one has exited)
for S seconds, in the default environment: the program's `src` is put on
PYTHONPATH and nothing else is set, BLAS threads included.  The pipeline is
deterministic, so the seed only reaches the program as `--seed N` (it is
echoed in the report metadata).  Every output is checked outside the timed
region by checks.py, and all outputs of one run must be byte-identical.

--trace 0 prints the end-to-end metrics, each a median over the invocations
of the run; --trace 1 alternates plain invocations with traced ones (see
tracer.py) and prints the per-layer metrics, medians over the traced
samples, plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CONFIGS = os.path.join(BENCH, "configs")

SETUP_SAMPLES = 9           # least number of set-up samples in a run
INVOCATION_TIMEOUT = 40.0   # seconds; a hung child is killed and counted

WORKLOADS = {
    # the shipped result: every layer runs
    "report_default": {
        "args": ["report"],
        "check": checks.check_report,
    },
    # ring arithmetic at N = 144: universe build and BurnsideElement products.
    # Not in BENCHMARK.json: five-second invocations give too few samples per
    # run for a steady median on a drifting machine (README.md).
    "invariants_l4": {
        "args": ["--config", os.path.join(CONFIGS, "l_max4.toml"),
                 "invariants"],
        "check": lambda text, seed, golden: checks.check_invariants(
            text, seed, golden, l_max=4),
    },
    # one long branch: Jacobian assembly and least-squares solves
    "branch_n64": {
        "args": ["--config", os.path.join(CONFIGS, "n_modes64.toml"),
                 "branch", "--class", "(D3^Z1 x_D3 D3)", "--j", "1",
                 "--l", "1"],
        # the class is the graph of D3 -> D3: five non-identity elements
        "check": lambda text, seed, golden: checks.check_branch(
            text, j=1, l=1, n_predicates=5),
    },
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

PER_LAYER = (
    ("cli.import_s", "s"), ("cli.dumps_s", "s"),
    ("forcefield.find_equilibrium_s", "s"),
    ("forcefield.hessian_calls", "count"), ("forcefield.hessian_s", "s"),
    ("grouprep.slice_spectrum_calls", "count"),
    ("burnside.universe_s", "s"), ("burnside.classes", "count"),
    ("burnside.phi0_classes", "count"),
    ("burnside.n_count_calls", "count"), ("burnside.n_count_pairs", "count"),
    ("burnside.n_count_useful_ratio", "ratio"),
    ("burnside.basic_degree_calls", "count"),
    ("burnside.element_mul_calls", "count"),
    ("burnside.fold_cover_calls", "count"),
    ("bifurcation.invariant_calls", "count"),
    ("bifurcation.families", "count"),
    ("orbits.continue_branch_s", "s"), ("orbits.branches", "count"),
    ("orbits.branch_points", "count"), ("orbits.lstsq_calls", "count"),
    ("orbits.lstsq_s", "s"), ("orbits.jacobian_use_ratio", "ratio"),
    ("orbits.residual_s", "s"), ("orbits.verify_predicates_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)

# Ring arithmetic times read exactly 0 on branch_n64, which bypasses ring
# arithmetic, so they are not printed; out/<workload>.layers.json holds them
# with every other per-layer metric.
TRACE_ONLY = (
    ("burnside.n_count_s", "s"), ("burnside.basic_degree_s", "s"),
    ("burnside.element_mul_s", "s"), ("burnside.fold_cover_s", "s"),
    ("bifurcation.invariant_s", "s"),
    ("bifurcation.independent_families_s", "s"),
)

PLAIN_ARGV = [sys.executable, "-m", "tetravib.cli"]
IMPORT_ARGV = [sys.executable, "-c", "import tetravib.cli"]


class Invocation:
    """One finished child process: exit code, output and its resource use."""

    def __init__(self, argv, env):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        timer = threading.Timer(INVOCATION_TIMEOUT, proc.kill)
        timer.start()
        status = None
        try:
            # stderr is read after stdout: the CLI writes at most one line
            # there, far below the pipe buffer
            self.out = proc.stdout.read()
            self.err = proc.stderr.read()
            # wait4, not Popen.wait: it returns the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0     # ru_maxrss is in KiB


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def warm_up(env):
    """Import once untimed: writes the bytecode cache on a new checkout."""
    inv = Invocation(IMPORT_ARGV, env)
    if inv.code != 0:
        raise SystemExit("importing tetravib.cli failed: %s"
                         % inv.err.decode(errors="replace").strip())


class Run:
    """Closed loop of invocations of one workload, with checked outputs."""

    def __init__(self, workload, seed, seconds, env):
        spec = WORKLOADS[workload]
        self.args = ["--seed", str(seed)] + spec["args"]
        self.check = spec["check"]
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.golden = checks.load_golden()
        self.attempted = 0
        self.failed = 0
        self.failures = []        # invocations that exited non-zero
        self.problems = []        # wrong outputs of invocations that did not
        self.reference = None

    def invoke(self, prefix):
        """One checked invocation; None when it failed."""
        inv = Invocation(prefix + self.args, self.env)
        self.attempted += 1
        if inv.code != 0:
            self.failed += 1
            self.failures.append("exit %d: %s" % (
                inv.code, inv.err.decode(errors="replace").strip()))
            return None
        try:
            self.check(inv.out.decode(), self.seed, self.golden)
        except checks.CheckFailed as exc:
            self.problems.append("check: %s" % exc)
        if self.reference is None:
            self.reference = inv.out
        elif inv.out != self.reference:
            self.problems.append("output differs between invocations")
        return inv

    def loop(self, one_round):
        """Whole rounds until the next one would overrun the run time.  A
        failed invocation does not end the loop: every round makes the same
        invocations, so `failed` is a share of `attempted`."""
        start = time.perf_counter()
        last = 0.0
        while True:
            t0 = time.perf_counter()
            one_round()
            now = time.perf_counter()
            last = now - t0
            if now - start + last > self.seconds:
                break


def measure(run):
    """End-to-end metrics.  Each round times one fresh interpreter importing
    tetravib.cli (set-up) and then one invocation, so that both medians are
    taken over the same stretch of time; set-up is topped up to
    SETUP_SAMPLES after the loop."""
    samples = []
    setups = []

    def one_round():
        setups.append(Invocation(IMPORT_ARGV, run.env).wall_s)
        inv = run.invoke(PLAIN_ARGV)
        if inv is not None:
            samples.append(inv)
    run.loop(one_round)
    if not samples:
        run.problems.append("no invocation succeeded, so no output was "
                            "checked and no time measured")
        return {}
    while len(setups) < SETUP_SAMPLES:
        setups.append(Invocation(IMPORT_ARGV, run.env).wall_s)
    metrics = {}
    for name, unit in END_TO_END:
        if name != "setup_s":
            metrics[name] = {"value": statistics.median(
                getattr(inv, name) for inv in samples), "unit": unit}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return metrics


def measure_traced(run, workload):
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, workload + ".trace.jsonl")
    open(trace_file, "w").close()
    walls = {"plain": [], "traced": []}
    rounds = 0

    def one_round():
        nonlocal rounds
        sample = str(rounds)
        rounds += 1
        for kind, prefix in (("plain", PLAIN_ARGV),
                             ("traced", [sys.executable,
                                         os.path.join(BENCH, "tracer.py"),
                                         trace_file, sample])):
            inv = run.invoke(prefix)
            if inv is not None:
                walls[kind].append(inv.wall_s)
    run.loop(one_round)

    values = []
    with open(trace_file, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["type"] == "sample":
                values.append(record["values"])
    if not values or not walls["plain"]:
        run.problems.append("no plain and traced invocation pair succeeded, "
                            "so no layer was measured")
        return {}
    metrics = {}
    for name, unit in PER_LAYER + TRACE_ONLY:
        if name.startswith("trace."):
            continue
        column = [v[name] for v in values]
        if unit == "count" and len(set(column)) > 1:
            run.problems.append("count %s differs between traced samples: %s"
                                % (name, sorted(set(column))))
        metrics[name] = {"value": statistics.median(column), "unit": unit}
    traced = statistics.median(walls["traced"])
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced - statistics.median(walls["plain"]), "unit": "s"}
    with open(os.path.join(OUT, workload + ".layers.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload, "samples": len(values),
                   "metrics": metrics}, fh, indent=1)
    return {name: metrics[name] for name, _ in PER_LAYER}


def preflight():
    """The benchmark needs the program's sources and the golden tables."""
    missing = [p for p in (os.path.join(SRC, "tetravib", "cli.py"),
                           os.path.join(ROOT, "tests", "_golden.py"))
               if not os.path.isfile(p)]
    if missing:
        sys.stderr.write("error: not a tetravib checkout, missing %s\n"
                         % ", ".join(os.path.relpath(p, ROOT) for p in missing))
        sys.exit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that Invocation kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    preflight()
    env = program_env()
    warm_up(env)
    run = Run(args.workload, args.seed, args.seconds, env)
    if args.trace:
        metrics = measure_traced(run, args.workload)
    else:
        metrics = measure(run)
    for problem in run.failures + run.problems:
        sys.stderr.write("%s: %s\n" % (args.workload, problem))
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
