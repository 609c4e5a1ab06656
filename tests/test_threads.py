"""tetravib runs its numerics on one BLAS thread unless the caller says
otherwise.  The count is read when numpy loads, so every check runs in a
fresh interpreter."""
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _python(*args, blas_threads=None):
    """Stdout of a fresh interpreter; OPENBLAS_NUM_THREADS is unset unless
    `blas_threads` is given."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
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
                  blas_threads="2")
    assert out == "2\n"


def test_report_bytes_do_not_depend_on_thread_count():
    # the report, and one branch at the default 16 modes; at 64 modes the
    # branch's bytes do depend on the thread count
    for command in (("report",), ("branch", "--class", "(D3^Z1 x_D3 D3)",
                                  "--j", "1", "--l", "1")):
        argv = ("-m", "tetravib.cli", *command)
        assert _python(*argv, blas_threads="2") == _python(*argv)
