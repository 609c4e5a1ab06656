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

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:                       # grouprep imports this module
    from .grouprep import SliceSpectrum

__all__ = [
    "DomainError",
    "DegenerateParameters",
    "ConvergenceError",
    "PairPotential",
    "Configuration",
    "EquilibriumResult",
    "TETRAHEDRON",
    "PAIRS",
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
    """An iterative solve failed to reach its tolerance."""


# Vertices of the regular tetrahedron with unit circumradius, centre of mass
# at the origin.  Rows are the four particle positions.
TETRAHEDRON = np.array([
    [0.0, 0.0, 1.0],
    [2.0 * math.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0],
    [-math.sqrt(2.0) / 3.0, math.sqrt(6.0) / 3.0, -1.0 / 3.0],
    [-math.sqrt(2.0) / 3.0, -math.sqrt(6.0) / 3.0, -1.0 / 3.0],
])

# The six unordered particle pairs, and the squared edge length of TETRAHEDRON:
# |gamma_j - gamma_k|^2 = 2 - 2*(-1/3) = 8/3 for every pair.
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TETRA_PAIR_X = 8.0 / 3.0


@dataclass(frozen=True)
class PairPotential:
    """Parameters of the pair interaction U(x).

    bond_weight scales the harmonic bond term, vdw_A / vdw_B are the
    attractive / repulsive van der Waals coefficients, sigma the screened
    repulsion strength.  At least one term must be active.
    """

    bond_weight: float = 1.0
    vdw_A: float = 0.0
    vdw_B: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if (self.bond_weight == 0.0 and self.vdw_A == 0.0
                and self.vdw_B == 0.0 and self.sigma == 0.0):
            raise DegenerateParameters("all pair potential terms vanish")


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


@dataclass(frozen=True)
class Configuration:
    """Positions of the four particles (rows), centre of mass at the origin."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (4, 3):
            raise ValueError("configuration must be a 4x3 array")
        com = pos.mean(axis=0)
        if np.linalg.norm(com) > 1e-9 * max(1.0, np.abs(pos).max()):
            raise ValueError("centre of mass must sit at the origin")
        for j, k in PAIRS:
            if np.linalg.norm(pos[j] - pos[k]) == 0.0:
                raise ValueError("particle positions must be distinct")
        object.__setattr__(self, "positions", pos)


def _positions(u) -> np.ndarray:
    if isinstance(u, Configuration):
        return u.positions
    u = np.asarray(u, dtype=float)
    if u.shape[-2:] != (4, 3):
        raise ValueError("expected positions of shape (..., 4, 3)")
    return u


def _pair_geometry(u):
    """Difference vectors and squared separations for the six pairs."""
    idx_j = [j for j, _ in PAIRS]
    idx_k = [k for _, k in PAIRS]
    d = u[..., idx_j, :] - u[..., idx_k, :]          # (..., 6, 3)
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
    g = np.zeros_like(u)
    for idx, (j, k) in enumerate(PAIRS):
        f = 2.0 * du[..., idx, None] * d[..., idx, :]
        g[..., j, :] += f
        g[..., k, :] -= f
    return g


def hessian(p: PairPotential, u):
    """d2V/du2 as a (..., 12, 12) matrix in row-major particle blocks.

    Blocks: d2V/du_j du_j = sum_k [2 U' I + 4 U'' d d^T],
            d2V/du_j du_k = -(2 U' I + 4 U'' d d^T) for the pair (j, k),
    with d = u_j - u_k and all derivatives at x = |d|^2.
    """
    u = _positions(u)
    d, x = _pair_geometry(u)
    _, du, d2u = pair_potential(p, x)
    eye = np.eye(3)
    shape = u.shape[:-2]
    h = np.zeros(shape + (12, 12))
    outer = np.einsum("...pi,...pj->...pij", d, d)
    for idx, (j, k) in enumerate(PAIRS):
        blk = (2.0 * du[..., idx, None, None] * eye
               + 4.0 * d2u[..., idx, None, None] * outer[..., idx, :, :])
        sj, sk = slice(3 * j, 3 * j + 3), slice(3 * k, 3 * k + 3)
        h[..., sj, sj] += blk
        h[..., sk, sk] += blk
        h[..., sj, sk] -= blk
        h[..., sk, sj] -= blk
    return h


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


@dataclass(frozen=True)
class EquilibriumResult:
    """Tetrahedral critical point of V restricted to symmetric configurations.

    r_o      circumradius of the equilibrium tetrahedron
    u_o      equilibrium positions (4x3)
    s_o      squared pair separation 8 r_o^2 / 3
    nu0_sq   base vibrational eigenvalue (32/3) r_o^2 U''(s_o)
    mu       slice spectrum (mu_0, mu_1, mu_2) = (4, 2, 1) * nu0_sq
    spectrum the Hessian's SliceSpectrum at u_o, which mu was checked against
    """

    r_o: float
    u_o: np.ndarray = field(repr=False)
    s_o: float
    nu0_sq: float
    mu: tuple
    spectrum: SliceSpectrum = field(repr=False)

    @property
    def lam_critical(self):
        """First three basic critical frequencies l/sqrt(mu_j) at l = 1."""
        return tuple(1.0 / math.sqrt(m) for m in self.mu)


# The bracketing grid spans twelve decades of r, so large coefficients
# overflow to inf (or inf - inf) at its ends; such points are never the
# minimum, and a parameter set with no finite minimum fails the checks below.
@np.errstate(over="ignore", invalid="ignore")
def find_equilibrium(p: PairPotential, r_min: float = 1e-3, r_max: float = 1e3,
                     grid: int = 4001, tol: float = 1e-12) -> EquilibriumResult:
    """Locate the tetrahedral equilibrium radius.

    Brackets an interior minimum of phi(r) = 6 U(8 r^2/3) on a logarithmic
    grid, refines by golden-section, and polishes with Newton iteration on
    phi' until |phi'(r)| < tol.
    """
    rs = np.geomspace(r_min, r_max, grid)
    vals = radial_energy(p, rs)
    i = int(np.argmin(vals))
    if i == 0 or i == grid - 1:
        raise ConvergenceError(
            "no interior minimum of the radial energy in [%g, %g]" % (r_min, r_max))
    a, b = rs[i - 1], rs[i + 1]

    # golden-section shrink to a tight bracket
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = radial_energy(p, c), radial_energy(p, d)
    for _ in range(200):
        if b - a < 1e-10 * max(1.0, a):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = radial_energy(p, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = radial_energy(p, d)

    r = float(0.5 * (a + b))
    for _ in range(100):
        _, dphi, d2phi = _radial_derivatives(p, r)
        if d2phi <= 0.0:
            raise ConvergenceError("radial energy is not convex at the iterate")
        step = dphi / d2phi
        r -= step
        if abs(step) < 1e-16 * max(1.0, r):
            break
    _, dphi, d2phi = _radial_derivatives(p, r)
    if not (abs(dphi) < tol):
        raise ConvergenceError("Newton polish stalled at |phi'|=%g" % abs(dphi))

    s_o = TETRA_PAIR_X * r * r
    _, _, d2u = pair_potential(p, s_o)
    if d2u <= 0.0:
        raise ConvergenceError("U''(s_o) <= 0: radius is not a stable minimum")
    nu0_sq = (32.0 / 3.0) * r * r * d2u
    u_o = r * TETRAHEDRON
    g = gradient(p, u_o)
    scale = max(1.0, abs(nu0_sq)) * max(1.0, r)
    if np.linalg.norm(g) > 1e-10 * scale:
        raise ConvergenceError("gradient at the symmetric equilibrium is not zero")
    mu = (4.0 * float(nu0_sq), 2.0 * float(nu0_sq), 1.0 * float(nu0_sq))

    # cross-validate the closed-form mu_j against the actual Hessian spectrum
    from .grouprep import slice_spectrum
    spec = slice_spectrum(hessian(p, u_o), u_o)
    for a_val, b_val in zip(spec.mu, mu):
        if abs(a_val - b_val) > 1e-8 * scale:
            raise ConvergenceError("slice spectrum disagrees with (4,2,1)*nu0^2")
    return EquilibriumResult(r_o=float(r), u_o=u_o, s_o=float(s_o),
                             nu0_sq=float(nu0_sq), mu=mu, spectrum=spec)
