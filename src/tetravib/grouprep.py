"""Permutation symmetry of the four-particle cluster.

The symmetric group on the four particles acts on configuration space by
permuting particles and simultaneously rotating space with the orthogonal
matrix that realizes the permutation on the vertices of the reference
tetrahedron.  This module builds that realization, the character table, and
the isotypic decomposition of the 12-dimensional configuration
representation.

Permutations are stored as tuples of images, (p[0], p[1], p[2], p[3]),
composed with (p * q)(i) = p(q(i)).
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "TETRAHEDRON", "S4", "IDENTITY", "pmul", "pinv", "cycle_type",
    "conjugacy_class_index", "CLASS_ORDER", "CLASS_SIZES", "CHARACTER_TABLE",
    "IRREP_DIMS", "realization", "act", "action_matrix",
    "representation_character", "multiplicities", "isotypic_projection",
    "projection_ranks", "SO3_GENERATORS", "tangent_basis",
    "translation_basis", "COM_FREE", "centre_of_mass_free_basis",
    "SliceSpectrum", "slice_spectrum",
    "TEST_VECTORS",
]

# Vertices of the regular tetrahedron with unit circumradius, centre of mass
# at the origin.  Rows are the four particle positions.
TETRAHEDRON = np.array([
    [0.0, 0.0, 1.0],
    [2.0 * math.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0],
    [-math.sqrt(2.0) / 3.0, math.sqrt(6.0) / 3.0, -1.0 / 3.0],
    [-math.sqrt(2.0) / 3.0, -math.sqrt(6.0) / 3.0, -1.0 / 3.0],
])

IDENTITY = (0, 1, 2, 3)
S4 = tuple(sorted(itertools.permutations(range(4))))


def pmul(p, q):
    """Composition (p * q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(4))


def pinv(p):
    out = [0] * 4
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def cycle_type(p):
    """Sorted cycle lengths, longest first (e.g. (2, 1, 1))."""
    seen = [False] * 4
    lens = []
    for i in range(4):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lens.append(n)
    return tuple(sorted(lens, reverse=True))


# conjugacy classes ordered: identity, transpositions, double transpositions,
# 3-cycles, 4-cycles
CLASS_ORDER = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
CLASS_SIZES = (1, 6, 3, 8, 6)
_CLASS_INDEX = {t: i for i, t in enumerate(CLASS_ORDER)}


def conjugacy_class_index(p):
    return _CLASS_INDEX[cycle_type(p)]


# rows: trivial, standard (natural minus trivial), two-dimensional,
# standard tensor sign, sign
CHARACTER_TABLE = np.array([
    [1, 1, 1, 1, 1],
    [3, 1, -1, 0, -1],
    [2, 0, 2, -1, 0],
    [3, -1, -1, 0, 1],
    [1, -1, 1, 1, -1],
], dtype=int)
IRREP_DIMS = (1, 3, 2, 3, 1)


def realization():
    """Orthogonal matrices A_p with A_p gamma_j = gamma_{p(j)} for all j.

    The reference vertices gamma_j span R^3 (any three are a basis), so A_p
    is determined by its action on gamma_0, gamma_1, gamma_2.
    """
    basis = TETRAHEDRON[:3].T            # columns gamma_0, gamma_1, gamma_2
    basis_inv = np.linalg.inv(basis)
    mats = {}
    for p in S4:
        target = TETRAHEDRON[list(p[:3])].T
        mats[p] = target @ basis_inv
    return mats


@functools.lru_cache(maxsize=1)
def _matrices():
    return realization()


def act(p, u):
    """Action of a permutation on a configuration (rows = particles).

    Row j of the result is A_p u_{p^{-1}(j)}; the reference tetrahedron is
    fixed by every permutation under this action.
    """
    a = _matrices()[tuple(p)]
    u = np.asarray(u, dtype=float)
    inv = pinv(tuple(p))
    return u[..., list(inv), :] @ a.T


def action_matrix(p) -> np.ndarray:
    """The 12x12 orthogonal matrix of act(p, .) on stacked coordinates, for
    a permutation tuple or list; built once per permutation, read-only."""
    return _action_matrix(tuple(p))


@functools.lru_cache(maxsize=None)
def _action_matrix(p):
    a = _matrices()[p]
    rho = np.zeros((12, 12))
    for i in range(4):
        j = p[i]
        rho[3 * j:3 * j + 3, 3 * i:3 * i + 3] = a
    rho.flags.writeable = False
    return rho


@functools.lru_cache(maxsize=1)
def representation_character():
    """Character of the 12-dimensional configuration representation, one
    value per conjugacy class; built once, read-only."""
    classes = [conjugacy_class_index(p) for p in S4]
    chi = (np.bincount(classes, [np.trace(action_matrix(p)) for p in S4], 5)
           / np.bincount(classes, minlength=5))
    chi.flags.writeable = False
    return chi


def multiplicities():
    """Multiplicity of each irreducible in the configuration representation."""
    chi_v = representation_character()
    sizes = np.array(CLASS_SIZES)
    m = (CHARACTER_TABLE @ (sizes * chi_v)) / 24.0
    out = np.rint(m).astype(int)
    if np.abs(m - out).max() > 1e-12:
        raise ArithmeticError("non-integer irreducible multiplicities")
    return tuple(int(v) for v in out)


@functools.lru_cache(maxsize=None)
def isotypic_projection(j: int) -> np.ndarray:
    """Projection of R^12 onto the isotypic component of irreducible j;
    built once per j, read-only."""
    dim = IRREP_DIMS[j]
    proj = np.zeros((12, 12))
    for p in S4:
        proj += CHARACTER_TABLE[j, conjugacy_class_index(p)] * action_matrix(p)
    proj *= dim / 24.0
    proj.flags.writeable = False
    return proj


def projection_ranks() -> tuple:
    """Ranks of the isotypic projections of R^12, one per irreducible."""
    return tuple(int(round(np.trace(isotypic_projection(j))))
                 for j in range(5))


# infinitesimal rotations about the coordinate axes
SO3_GENERATORS = (
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
)


def tangent_basis(u) -> np.ndarray:
    """Rows span the tangent space of the rotation orbit through u (in R^12)."""
    u = np.asarray(u, dtype=float)
    return np.stack([(u @ j.T).reshape(12) for j in SO3_GENERATORS])


def translation_basis() -> np.ndarray:
    """Orthonormal rows spanning simultaneous translations of all particles."""
    t = np.zeros((3, 12))
    for k in range(3):
        t[k, k::3] = 0.5
    return t


# orthogonal projector onto configurations with the centre of mass fixed
COM_FREE = np.eye(12) - translation_basis().T @ translation_basis()
COM_FREE.flags.writeable = False


def centre_of_mass_free_basis() -> np.ndarray:
    """Orthonormal columns spanning the centre-of-mass-free subspace (dim 9)."""
    w, v = np.linalg.eigh(COM_FREE)
    return v[:, w > 0.5]


def _test_vectors():
    g = TETRAHEDRON
    v0 = g.reshape(12)
    v1 = np.stack([-2.0 * g[0], g[0] + g[1], g[0] + g[2], g[0] + g[3]]).reshape(12)
    v2 = np.stack([g[1] - g[2], g[0] - g[3], g[3] - g[0], g[2] - g[1]]).reshape(12)
    return v0, v1, v2


#: One vector in each vibrational isotypic component (trivial, standard,
#: two-dimensional), used as Rayleigh-quotient probes of the Hessian.
TEST_VECTORS = _test_vectors()


class SliceSpectrum(NamedTuple):
    """Spectrum of the Hessian split along the isotypic decomposition.

    mu            eigenvalues on the three vibrational components
    slice_mults   their multiplicities inside the 6-dim symmetry slice (1,3,2)
    zero_modes    number of rotational zero eigenvalues (3)
    eigenvalues   all nine eigenvalues on the centre-of-mass-free subspace
    """

    mu: tuple
    slice_mults: tuple
    zero_modes: int
    eigenvalues: np.ndarray


# each eigenvalue lies this near its component's Rayleigh quotient, relatively
SPECTRUM_TOL = 1e-8


def slice_spectrum(hess: np.ndarray, u_o: np.ndarray) -> SliceSpectrum:
    """Diagonalize the equilibrium Hessian on the centre-of-mass-free subspace.

    Returns the three distinct vibrational eigenvalues (mu_0, mu_1, mu_2),
    ordered by the isotypic component they live on, after checking them
    against independent Rayleigh quotients on the probe vectors and counting
    the three rotational zero modes.
    """
    hess = np.asarray(hess, dtype=float)
    basis = centre_of_mass_free_basis()          # 12 x 9
    hq = basis.T @ hess @ basis
    w, v = np.linalg.eigh(hq)
    vecs = basis @ v                              # back in R^12

    scale = max(np.abs(w).max(), 1e-300)
    zero = np.abs(w) < 1e-8 * scale
    n_zero = int(zero.sum())

    # rotational tangent vectors must exhaust the kernel
    tb = tangent_basis(u_o)
    for row in tb:
        # hypot squares nothing, so a large Hessian cannot overflow it
        if (math.hypot(*hess @ row)
                > 1e-7 * scale * max(math.hypot(*row), 1.0)):
            raise ArithmeticError("rotation tangent vector not annihilated")

    # Rayleigh quotients on the probe vectors give the mu_j independently.
    mu = []
    for vec in TEST_VECTORS:
        mu.append(float(vec @ hess @ vec) / float(vec @ vec))

    # group the nonzero eigenvalues by isotypic component of the eigenvector
    projs = [isotypic_projection(j) for j in (0, 1, 2)]
    grouped = {0: [], 1: [], 2: []}
    for lam_val, vec in zip(w[~zero], vecs.T[~zero]):
        comps = [np.linalg.norm(pj @ vec) for pj in projs]
        grouped[int(np.argmax(comps))].append(lam_val)
    mults = tuple(len(grouped[j]) for j in range(3))
    for j in range(3):
        for lam_val in grouped[j]:
            if abs(lam_val - mu[j]) > SPECTRUM_TOL * scale:
                raise ArithmeticError(
                    "eigenvalue/Rayleigh mismatch on component %d" % j)
    return SliceSpectrum(mu=tuple(mu), slice_mults=mults,
                         zero_modes=n_zero, eigenvalues=w)
