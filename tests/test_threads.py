"""tetravib runs its numerics on one BLAS thread unless the caller says
otherwise, and its report holds what the mathematics fixes on any BLAS
kernel.  The thread count and the kernel are read when numpy loads, so
every check runs in a fresh interpreter."""
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from _golden import FORCED_KERNELS, KERNEL_FINGERPRINT, kernel_sha256

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def _python(*args, **blas):
    """Stdout of a fresh interpreter; OPENBLAS_NUM_THREADS and
    OPENBLAS_CORETYPE are unset unless given as keywords."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OPENBLAS_CORETYPE", None)
    env.update(blas)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc to count threads")
def test_import_leaves_one_thread():
    out = _python("-c", "import os, tetravib; "
                        "print(len(os.listdir('/proc/self/task')))")
    assert out == "1\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc to count threads")
def test_test_process_runs_on_one_thread():
    # the root conftest imports tetravib before any test module loads numpy
    assert len(os.listdir("/proc/self/task")) == 1


def test_caller_thread_count_wins():
    out = _python("-c", "import os, tetravib; "
                        "print(os.environ['OPENBLAS_NUM_THREADS'])",
                  OPENBLAS_NUM_THREADS="2")
    assert out == "2\n"


def test_report_bytes_do_not_depend_on_thread_count():
    # the report, and one branch at the default 16 modes; at 64 modes the
    # branch's bytes do depend on the thread count
    for command in (("report",), ("branch", "--class", "(D3^Z1 x_D3 D3)",
                                  "--j", "1", "--l", "1")):
        argv = ("-m", "tetravib.cli", *command)
        assert _python(*argv, OPENBLAS_NUM_THREADS="2") == _python(*argv)


def _bounds():
    """The benchmark's bounds on the round-off fields of a branch."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", os.path.join(_ROOT, "perfbench", "checks.py"))
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return {"final_residual": checks.MAX_RESIDUAL,
            "max_predicate_residual": checks.MAX_PREDICATE,
            "energy_spread": checks.MAX_ENERGY_SPREAD}


@pytest.fixture(scope="module")
def default_kernel_report():
    return json.loads(_python("-m", "tetravib.cli", "report"))


@pytest.mark.parametrize("core", FORCED_KERNELS)
def test_report_holds_on_any_blas_kernel(default_kernel_report, core):
    # OpenBLAS picks its kernel by CPU, and dsyrk, dpotrf and dsyevd round
    # differently on each, so the pinned sha256s hold on one kernel only.
    # What the mathematics fixes holds on all of them.  A BLAS that ignores
    # OPENBLAS_CORETYPE gives two equal runs, which pass too.
    want = default_kernel_report
    got = json.loads(_python("-m", "tetravib.cli", "report",
                             OPENBLAS_CORETYPE=core))
    for section in ("equilibrium", "representation", "invariants",
                    "families"):
        assert json.dumps(got[section]) == json.dumps(want[section]), section
    spec, spec0 = got["spectrum"], want["spectrum"]
    assert spec["slice_multiplicities"] == spec0["slice_multiplicities"]
    assert spec["zero_modes"] == spec0["zero_modes"] == 3
    assert spec["mu"] == pytest.approx(spec0["mu"], rel=1e-14, abs=0.0)
    eigs, eigs0 = spec["slice_eigenvalues"], spec0["slice_eigenvalues"]
    assert len(eigs) == len(eigs0) == 9
    assert eigs[3:] == pytest.approx(eigs0[3:], rel=1e-14, abs=0.0)
    assert all(abs(z) < 1e-12 * max(eigs) for z in eigs[:3])
    bounds = _bounds()
    assert len(got["branches"]) == len(want["branches"]) == 7
    for b, b0 in zip(got["branches"], want["branches"]):
        for key in ("class", "canonical", "j", "l", "brake", "steps"):
            assert b[key] == b0[key], (b0["class"], key)
        assert b["final_lambda"] == pytest.approx(
            b0["final_lambda"], rel=1e-12, abs=0.0)
        assert b["frequency_extrapolation"] == pytest.approx(
            b0["frequency_extrapolation"], rel=1e-11, abs=0.0)
        for key, bound in bounds.items():
            assert b[key] < bound, (b0["class"], key)


@pytest.mark.parametrize("core", FORCED_KERNELS)
def test_recorded_kernel_pins_hold_under_forced_kernels(tmp_path, core):
    # the report and the 64-mode branch of each recorded kernel, byte for
    # byte against its pins.  A BLAS that ignores OPENBLAS_CORETYPE runs
    # its own kernel, whose fingerprint selects its own pins.
    cfg = tmp_path / "n64.toml"
    cfg.write_text("[analysis]\nn_modes = 64\n")
    fingerprint = _python("-c", KERNEL_FINGERPRINT,
                          OPENBLAS_CORETYPE=core).strip()
    outputs = [_python("-m", "tetravib.cli", *argv, OPENBLAS_CORETYPE=core)
               for argv in (("report",),
                            ("--config", str(cfg), "branch", "--class",
                             "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "1"))]
    assert tuple(hashlib.sha256(out.encode()).hexdigest()
                 for out in outputs) == kernel_sha256(fingerprint)
