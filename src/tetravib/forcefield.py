"""Molecular force field for a four-particle cluster.

The pair interaction is expressed as a function of the *squared* separation
x = |u_j - u_k|^2:

    U(x) = w * (sqrt(x) - 1)^2  +  B/x^6 - A/x^3  +  sigma/sqrt(x)

(harmonic bond term in the interparticle distance, a van der Waals pair, and
a screened repulsion).  All derivatives below are taken with respect to the
squared separation x, which keeps the gradient/Hessian assembly free of
square roots of vector norms.

The full potential of a configuration u = (u_1, ..., u_4) is

    V(u) = sum_{1 <= j < k <= 4} U(|u_j - u_k|^2),

which is invariant under permutations of the particles, rigid rotations and
reflections, and translations.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import grouprep
from .grouprep import TETRAHEDRON

__all__ = [
    "DomainError",
    "DegenerateParameters",
    "ConvergenceError",
    "PairPotential",
    "EquilibriumResult",
    "TETRAHEDRON",
    "PAIRS",
    "INCIDENCE",
    "TETRA_PAIR_X",
    "pair_potential",
    "total_potential",
    "gradient",
    "hessian",
    "radial_energy",
    "find_equilibrium",
]


class DomainError(ValueError):
    """Pair potential evaluated outside its domain (x <= 0)."""


class DegenerateParameters(ValueError):
    """Every term of the pair potential is switched off."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance.

    diagnostics holds, by name, the values of the failed attempt that the
    solver reports (empty where it reports none).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


# The six unordered particle pairs, and the squared edge length of TETRAHEDRON:
# |gamma_j - gamma_k|^2 = 2 - 2*(-1/3) = 8/3 for every pair.
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TETRA_PAIR_X = 8.0 / 3.0

# Signed pair-particle incidence: row p, for the pair (j, k), holds +1 at j
# and -1 at k.  INCIDENCE @ u stacks the differences u_j - u_k, and
# INCIDENCE.T sums the pair forces onto the particles.  Every weight is 0 or
# +-1, so every product is exact, and the sums equal those of a loop over
# the pairs bit for bit.
INCIDENCE = np.zeros((6, 4))
INCIDENCE[np.arange(6), [j for j, _ in PAIRS]] = 1.0
INCIDENCE[np.arange(6), [k for _, k in PAIRS]] = -1.0
INCIDENCE.flags.writeable = False
# weight of pair p in the Hessian block (j, k): INCIDENCE[p, j] INCIDENCE[p, k]
_BLOCK_SIGNS = np.einsum("pj,pk->jkp", INCIDENCE, INCIDENCE).reshape(16, 6)
_BLOCK_SIGNS.flags.writeable = False


class PairPotential(namedtuple("PairPotential",
                               ("bond_weight", "vdw_A", "vdw_B", "sigma"),
                               defaults=(1.0, 0.0, 0.0, 0.0))):
    """Parameters of the pair interaction U(x).

    bond_weight scales the harmonic bond term, vdw_A / vdw_B are the
    attractive / repulsive van der Waals coefficients, sigma the screened
    repulsion strength.  At least one term must be active.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if all(term == 0.0 for term in self):
            raise DegenerateParameters("all pair potential terms vanish")
        return self

    # _replace builds through _make, which bypasses __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


def _check_domain(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("pair potential requires squared separation x > 0")
    return x


def pair_potential(p: PairPotential, x):
    """Evaluate U, dU/dx and d2U/dx2 at squared separation x (x > 0).

    Accepts scalars or arrays; returns a triple of matching shape.
    """
    x = _check_domain(x)
    rx = np.sqrt(x)
    u = np.zeros_like(x)
    du = np.zeros_like(x)
    d2u = np.zeros_like(x)
    if p.bond_weight != 0.0:
        w = p.bond_weight
        u = u + w * (rx - 1.0) ** 2
        du = du + w * (1.0 - 1.0 / rx)
        d2u = d2u + w * 0.5 * x ** -1.5
    if p.vdw_A != 0.0 or p.vdw_B != 0.0:
        u = u + p.vdw_B * x ** -6 - p.vdw_A * x ** -3
        du = du + (-6.0 * p.vdw_B * x ** -7 + 3.0 * p.vdw_A * x ** -4)
        d2u = d2u + (42.0 * p.vdw_B * x ** -8 - 12.0 * p.vdw_A * x ** -5)
    if p.sigma != 0.0:
        u = u + p.sigma / rx
        du = du - 0.5 * p.sigma * x ** -1.5
        d2u = d2u + 0.75 * p.sigma * x ** -2.5
    if np.ndim(x) == 0:
        return float(u), float(du), float(d2u)
    return u, du, d2u


def _positions(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[-2:] != (4, 3):
        raise ValueError("expected positions of shape (..., 4, 3)")
    return u


def _pair_geometry(u):
    """Difference vectors and squared separations for the six pairs."""
    d = INCIDENCE @ u                                 # (..., 6, 3)
    x = np.einsum("...pi,...pi->...p", d, d)         # (..., 6)
    return d, x


def total_potential(p: PairPotential, u):
    """V(u) = sum over pairs of U(|u_j - u_k|^2)."""
    u = _positions(u)
    _, x = _pair_geometry(u)
    val, _, _ = pair_potential(p, x)
    return float(np.sum(val)) if u.ndim == 2 else np.sum(val, axis=-1)


def gradient(p: PairPotential, u):
    """dV/du, shape (..., 4, 3).  Analytic: dV/du_j = sum_k 2 U'(x_jk) (u_j-u_k)."""
    u = _positions(u)
    d, x = _pair_geometry(u)
    _, du, _ = pair_potential(p, x)
    return INCIDENCE.T @ (2.0 * du[..., None] * d)


def hessian(p: PairPotential, u):
    """d2V/du2 as a (..., 12, 12) matrix in row-major particle blocks.

    Blocks: d2V/du_j du_j = sum_k [2 U' I + 4 U'' d d^T],
            d2V/du_j du_k = -(2 U' I + 4 U'' d d^T) for the pair (j, k),
    with d = u_j - u_k and all derivatives at x = |d|^2.
    """
    u = _positions(u)
    d, x = _pair_geometry(u)
    _, du, d2u = pair_potential(p, x)
    shape = u.shape[:-2]
    blk = np.einsum("...pi,...pj->...pij", d, d)      # (..., 6, 3, 3)
    blk *= 4.0 * d2u[..., None, None]
    blk += 2.0 * du[..., None, None] * np.eye(3)
    h = _BLOCK_SIGNS @ blk.reshape(shape + (6, 9))    # (..., (j, k), (a, b))
    return h.reshape(shape + (4, 4, 3, 3)).swapaxes(-3, -2).reshape(
        shape + (12, 12))


def radial_energy(p: PairPotential, r):
    """Energy of the regular tetrahedron with circumradius r: 6 U(8 r^2 / 3)."""
    r = np.asarray(r, dtype=float)
    val, _, _ = pair_potential(p, TETRA_PAIR_X * r ** 2)
    out = 6.0 * val
    return float(out) if np.ndim(r) == 0 else out


def _radial_derivatives(p: PairPotential, r: float):
    """phi(r), phi'(r), phi''(r) for phi(r) = 6 U(8 r^2/3)."""
    s = TETRA_PAIR_X * r * r
    u, du, d2u = pair_potential(p, s)
    c = 2.0 * TETRA_PAIR_X * r          # ds/dr = 16 r / 3
    phi = 6.0 * u
    dphi = 6.0 * du * c
    d2phi = 6.0 * (d2u * c * c + du * 2.0 * TETRA_PAIR_X)
    return phi, dphi, d2phi


class EquilibriumResult(NamedTuple):
    """Tetrahedral critical point of V restricted to symmetric configurations.

    r_o      circumradius of the equilibrium tetrahedron
    u_o      equilibrium positions (4x3)
    s_o      squared pair separation 8 r_o^2 / 3
    nu0_sq   base vibrational eigenvalue (32/3) r_o^2 U''(s_o)
    mu       slice spectrum (mu_0, mu_1, mu_2) = (4, 2, 1) * nu0_sq
    spectrum the Hessian's SliceSpectrum at u_o, which mu was checked against
    """

    r_o: float
    u_o: np.ndarray
    s_o: float
    nu0_sq: float
    mu: tuple
    spectrum: grouprep.SliceSpectrum

    @property
    def lam_critical(self):
        """First three basic critical frequencies l/sqrt(mu_j) at l = 1."""
        return tuple(1.0 / math.sqrt(m) for m in self.mu)


# The bracketing grid: RADIAL_GRID radii log-spaced from R_MIN to R_MAX.  It
# spans six decades of r, so large coefficients overflow to inf (or inf - inf)
# at its ends; such points are never the minimum, and a parameter set with no
# finite minimum fails the checks below.  The polish ends on a Newton step
# below POLISH_TOL * max(1, r).
R_MIN, R_MAX, RADIAL_GRID, POLISH_TOL = 1e-3, 1e3, 4001, 1e-12


@functools.lru_cache(maxsize=64)
@np.errstate(over="ignore", invalid="ignore")
def find_equilibrium(p: PairPotential) -> EquilibriumResult:
    """Locate the tetrahedral equilibrium radius, once per potential; the
    result is shared, so its arrays are read-only.

    Polishes the minimum of phi(r) = 6 U(8 r^2/3) on a logarithmic grid by
    Newton iteration on phi' until the Newton step |phi'/phi''| is below
    POLISH_TOL * max(1, r).
    """
    rs = np.geomspace(R_MIN, R_MAX, RADIAL_GRID)
    vals = radial_energy(p, rs)
    i = int(np.argmin(vals))
    if i == 0 or i == RADIAL_GRID - 1:
        raise ConvergenceError(
            "no interior minimum of the radial energy in [%g, %g]" % (R_MIN, R_MAX),
            {"r_min": R_MIN, "r_max": R_MAX, "grid": RADIAL_GRID,
             "argmin_r": float(rs[i])})
    r = float(rs[i])
    for _ in range(100):
        _, dphi, d2phi = _radial_derivatives(p, r)
        if d2phi <= 0.0:
            raise ConvergenceError("radial energy is not convex at the iterate",
                                   {"r": r, "d2phi": d2phi})
        step = dphi / d2phi
        r -= step
        if abs(step) < 1e-16 * max(1.0, r):
            break
    # the Newton step |phi'/phi''| is the distance to the root, unchanged
    # by V -> cV, where phi' alone scales with c; a phi'' that overflows
    # would pass any phi', so it fails the polish
    _, dphi, d2phi = _radial_derivatives(p, r)
    if not abs(dphi) < POLISH_TOL * max(1.0, r) * d2phi < math.inf:
        raise ConvergenceError("Newton polish stalled at |phi'|=%g" % abs(dphi),
                               {"r": r, "abs_dphi": abs(dphi),
                                "tol": POLISH_TOL})

    s_o = TETRA_PAIR_X * r * r
    _, _, d2u = pair_potential(p, s_o)
    if d2u <= 0.0:
        raise ConvergenceError("U''(s_o) <= 0: radius is not a stable minimum",
                               {"r": r, "s_o": s_o, "d2u": d2u})
    nu0_sq = (32.0 / 3.0) * r * r * d2u
    u_o = r * TETRAHEDRON
    g = gradient(p, u_o)
    scale = max(1.0, abs(nu0_sq)) * max(1.0, r)
    g_norm = math.hypot(*g.ravel())     # squares nothing, so cannot overflow
    if g_norm > 1e-10 * scale:
        raise ConvergenceError("gradient at the symmetric equilibrium is not zero",
                               {"r": r, "gradient_norm": g_norm,
                                "limit": 1e-10 * scale})
    mu = (4.0 * float(nu0_sq), 2.0 * float(nu0_sq), 1.0 * float(nu0_sq))

    # cross-validate the closed-form mu_j against the actual Hessian spectrum
    spec = grouprep.slice_spectrum(hessian(p, u_o), u_o)
    for a_val, b_val in zip(spec.mu, mu):
        if abs(a_val - b_val) > 1e-8 * scale:
            raise ConvergenceError("slice spectrum disagrees with (4,2,1)*nu0^2",
                                   {"mu": mu, "spectrum_mu": tuple(spec.mu),
                                    "limit": 1e-8 * scale})
    u_o.flags.writeable = spec.eigenvalues.flags.writeable = False
    return EquilibriumResult(r_o=float(r), u_o=u_o, s_o=float(s_o),
                             nu0_sq=float(nu0_sq), mu=mu, spectrum=spec)
