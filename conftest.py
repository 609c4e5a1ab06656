"""Import tetravib before any test module loads numpy, so the test process
runs on the program's one BLAS thread (numpy sizes its thread pool when it
loads)."""
import tetravib  # noqa: F401
