"""Symmetric vibrations of a tetrahedral four-particle molecule.

Pipeline: pair force field -> tetrahedral equilibrium -> Hessian spectrum on
the isotypic components of the particle-permutation symmetry -> bifurcation
invariants in the Burnside ring of the full spatio-temporal symmetry group ->
numerical continuation of the predicted symmetric periodic orbit families.
"""

import os

# One BLAS thread, set before the first numpy import below.  The largest
# linear system of the benchmark is 532 x 195 (a branch at n_modes = 64);
# at that size OpenBLAS worker threads only spin, nearly doubling the CPU
# time for no gain in wall time.  A count the caller has set wins; numpy
# imported before tetravib has already sized its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .forcefield import (  # noqa: E402
    PairPotential, EquilibriumResult,
    pair_potential, total_potential, gradient, hessian, find_equilibrium,
    DomainError, DegenerateParameters, ConvergenceError,
)
from .grouprep import (
    realization, act, action_matrix, multiplicities,
    isotypic_projection, projection_ranks, slice_spectrum,
)

__version__ = "0.1.0"
