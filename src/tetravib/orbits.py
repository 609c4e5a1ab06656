"""Continuation of symmetric periodic orbits from the equilibrium.

Periodic solutions are represented by truncated Fourier series on [0, 2*pi]
after rescaling time by the frequency parameter lambda, so that the residual
of u'' + lambda^2 grad V(u) measures how far a loop is from a genuine orbit
of period 2*pi*lambda.  A symmetry class from the bifurcation analysis is
imposed exactly, mode by mode, by averaging the induced action on Fourier
coefficients; Gauss-Newton corrections then run inside the fixed subspace
with the loop amplitude as continuation parameter.  The corrector uses the
class twice more.  Its time action, the dihedral group D_s of the shifts by
k/s of a turn and the reflections, maps the residual at t to an orthogonal
image of the residual at every moved time, so only a fundamental domain of
the collocation grid, the times in [0, pi/s], is solved.  And no coordinate
of the fixed subspace moves the centre of mass.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .burnside import AmalgamClass, InternalError, UsageError
from .forcefield import (ConvergenceError, PairPotential, find_equilibrium,
                         gradient, hessian, total_potential)
from .grouprep import (COM_FREE, action_matrix, isotypic_projection,
                       tangent_basis)

__all__ = [
    "FourierOrbit", "SymmetryConstraint", "BranchPoint", "Branch",
    "amplitude", "residual", "energy_profile", "check_branch_request",
    "continue_branch", "verify_predicates", "frequency_extrapolation",
]


class FourierOrbit(namedtuple("FourierOrbit",
                              ("cos_coeffs", "sin_coeffs", "lam"))):
    """Loop t -> sum_m cos_coeffs[m] cos(mt) + sin_coeffs[m] sin(mt).

    Coefficient arrays have shape (n_modes + 1, 12); row 0 of sin_coeffs is
    identically zero.  lam is the frequency parameter of the rescaled
    problem (the orbit has period 2*pi*lam in physical time).
    """

    __slots__ = ()

    def __new__(cls, cos_coeffs, sin_coeffs, lam):
        c = np.asarray(cos_coeffs, dtype=float)
        s = np.asarray(sin_coeffs, dtype=float)
        if c.shape != s.shape or c.ndim != 2 or c.shape[1] != 12:
            raise UsageError("coefficient arrays must both be (n_modes+1, 12)")
        return super().__new__(cls, c, s, lam)

    # _replace builds through _make, which bypasses __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n_modes(self):
        return self.cos_coeffs.shape[0] - 1

    def _combine(self, cos, sin, deriv=0):
        """The loop (deriv 0), velocity (1) or acceleration (2) at the times
        whose tables cos(m t), sin(m t), m = 0..n_modes, are given."""
        m = np.arange(self.n_modes + 1)
        if deriv == 1:
            cos, sin = -m * sin, m * cos
        elif deriv == 2:
            cos, sin = -(m ** 2) * cos, -(m ** 2) * sin
        return cos @ self.cos_coeffs + sin @ self.sin_coeffs

    def _at(self, t, deriv):
        out = self._combine(*_trig(t, self.n_modes), deriv)
        return out[0] if np.isscalar(t) else out

    def evaluate(self, t):
        """Positions (..., 12) at scaled times t."""
        return self._at(t, 0)

    def velocity(self, t):
        return self._at(t, 1)

    def acceleration(self, t):
        return self._at(t, 2)


def _trig(t, n_modes):
    phase = np.outer(np.atleast_1d(np.asarray(t, dtype=float)),
                     np.arange(n_modes + 1))
    return np.cos(phase), np.sin(phase)


def _read_only(a):
    a.flags.writeable = False
    return a


def amplitude(orbit: FourierOrbit, reference) -> float:
    """H^1 distance of the loop from the constant reference configuration."""
    ref = np.asarray(reference, dtype=float).reshape(12)
    d0 = orbit.cos_coeffs[0] - ref
    m = np.arange(1, orbit.n_modes + 1)
    tail = (1.0 + m ** 2) @ (np.sum(orbit.cos_coeffs[1:] ** 2, axis=1)
                             + np.sum(orbit.sin_coeffs[1:] ** 2, axis=1))
    return math.sqrt(2.0 * math.pi * float(d0 @ d0) + math.pi * float(tail))


def _collocation_times(n_points):
    return np.arange(n_points) * (2.0 * math.pi / n_points)


def residual(orbit: FourierOrbit, potential: PairPotential,
             n_points: int) -> float:
    """RMS of u'' + lam^2 grad V(u) over n_points equispaced times."""
    table = _trig(_collocation_times(n_points), orbit.n_modes)
    u = orbit._combine(*table).reshape(-1, 4, 3)
    acc = orbit._combine(*table, deriv=2)
    res = acc + orbit.lam ** 2 * gradient(potential, u).reshape(-1, 12)
    return math.sqrt(float(np.mean(np.sum(res ** 2, axis=1))))


# The sample times of energy_profile and verify_predicates, and the branch
# points (the smallest in amplitude) that frequency_extrapolation fits.
ENERGY_SAMPLES, PREDICATE_SAMPLES, EXTRAPOLATION_FIT = 128, 32, 4


def energy_profile(orbit: FourierOrbit, potential: PairPotential):
    """Mean energy and its relative spread along the loop, over
    ENERGY_SAMPLES equispaced times.

    E(t) = |u'|^2 / 2 + lam^2 V(u); constant along exact orbits.  The spread
    is normalized by the largest of |mean energy|, the peak kinetic energy
    and a small floor, so that near-equilibrium loops are judged fairly.
    """
    table = _trig(_collocation_times(ENERGY_SAMPLES), orbit.n_modes)
    u = orbit._combine(*table).reshape(-1, 4, 3)
    v = orbit._combine(*table, deriv=1)
    kinetic = 0.5 * np.sum(v ** 2, axis=1)
    e = kinetic + orbit.lam ** 2 * total_potential(potential, u)
    mean = float(np.mean(e))
    scale = max(abs(mean), float(np.max(kinetic)), 1e-12)
    spread = float(np.max(e) - np.min(e)) / scale
    return mean, spread


# ---------------------------------------------------------------------------
# symmetry constraints on Fourier coefficients


class SymmetryConstraint:
    """Exact spatio-temporal symmetry, imposed mode by mode.

    An element (sigma, time shift 2*pi*alpha) sends the loop u to
    rho(sigma) u(t + 2*pi*alpha); a time reflection about -pi*alpha sends it
    to rho(sigma) u(-t - 2*pi*alpha).  On the (cos, sin) coefficient pair of
    mode m the shift acts through a rotation by m*2*pi*alpha and the
    reflection through the corresponding orthogonal reflection, both tensored
    with the 12-dimensional spatial action.  Every angle is a multiple of
    1/p turn, so averaging over the finite group yields one projector per
    residue of m mod p; orthonormal bases of their ranges, one object shared
    by the modes of a residue, are the reduced coordinates used by the
    corrector.  The pair forces sum to zero, so the centre of mass of a
    periodic loop never moves, and the potential does not see it: every mode
    keeps only the centre-of-mass-free part of its fixed space.  A
    translation coordinate would be an exact null direction of every Newton
    system in mode 0 and a decoupled unknown that must come out zero in
    every other mode.
    """

    def __init__(self, klass: AmalgamClass, n_modes: int):
        if not klass.is_finite:
            raise UsageError(
                "continuous symmetry classes do not pin down a single orbit; "
                "pick a finite class from the invariant")
        self.klass = klass
        self.n_modes = int(n_modes)
        # one matrix product sums every residue r < p at once: the
        # (cos, sin) blocks of residue r are [[c, s], [-s, c]] (x) rho for a
        # shift and [[c, -s], [-s, -c]] (x) rho for a reflection, with
        # (c, s) = (cos, sin)(2*pi*r*angle), so the (elements, 4 * residues)
        # phase blocks times the (elements, 144) action matrices give the
        # sums; mode 0 is the (cos, cos) block of r = 0
        elements = klass.elements()
        perms, kinds, angles = zip(*elements)
        p = math.lcm(*(angle.denominator for angle in angles))
        r = np.arange(min(p, self.n_modes + 1))
        phase = np.multiply.outer([float(angle) for angle in angles],
                                  2.0 * math.pi * r)
        cos, sin = np.cos(phase), np.sin(phase)
        sign = np.where([kind == "rot" for kind in kinds], 1.0, -1.0)[:, None]
        blocks = np.stack([cos, sign * sin, -sin, sign * cos], axis=2)
        rho = np.stack([action_matrix(perm) for perm in perms])
        total = (blocks.reshape(len(elements), -1).T
                 @ rho.reshape(len(elements), 144)).reshape(-1, 2, 2, 12, 12)
        total = total.transpose(0, 1, 3, 2, 4) / len(elements)
        p0 = COM_FREE @ total[0, 0, :, 0] @ COM_FREE
        free = np.kron(np.eye(2), COM_FREE)
        residues = _range_bases(free @ total.reshape(-1, 24, 24) @ free)
        self.bases = _range_bases(p0[None]) + [
            residues[m % p] for m in range(1, self.n_modes + 1)]
        # Fourier mode of each reduced coordinate, in pack/unpack order
        self.modes = np.repeat(np.arange(self.n_modes + 1), self.fixed_dims())

    def fixed_dims(self):
        return tuple(b.shape[1] for b in self.bases)

    def h1_weights(self):
        """H^1 weight w of each reduced coordinate: 2*pi on mode 0 and
        pi*(1 + m^2) on mode m.

        Each mode's basis is orthonormal, so the H^1 distance of unpack(x)
        from a constant loop c with reduced point x_c is
        sqrt(w @ (x - x_c)**2), provided c lies in the mode-0 fixed space,
        as the equilibrium does.
        """
        m = self.modes
        return np.where(m == 0, 2.0 * math.pi, math.pi * (1.0 + m ** 2))

    def collocation(self, ts):
        """D of shape (len(ts), 12, K): the loop of a reduced point x at
        times ts is D @ x, and its acceleration D @ (-modes**2 * x)."""
        ts = np.asarray(ts, dtype=float)[:, None, None]
        widths = self.fixed_dims()
        D = np.empty((len(ts), 12, sum(widths)))
        parts = np.split(D, np.cumsum(widths)[:-1], axis=2)
        parts[0][...] = self.bases[0]
        for m in range(1, len(parts)):
            np.multiply(np.cos(m * ts), self.bases[m][:12], out=parts[m])
            parts[m] += np.sin(m * ts) * self.bases[m][12:]
        return D

    # reduced coordinates <-> coefficients ---------------------------------

    def pack(self, orbit: FourierOrbit) -> np.ndarray:
        parts = [self.bases[0].T @ orbit.cos_coeffs[0]]
        for m in range(1, self.n_modes + 1):
            parts.append(self.bases[m].T @ np.concatenate(
                [orbit.cos_coeffs[m], orbit.sin_coeffs[m]]))
        return np.concatenate(parts)

    def unpack(self, x: np.ndarray, lam: float) -> FourierOrbit:
        cos = np.zeros((self.n_modes + 1, 12))
        sin = np.zeros((self.n_modes + 1, 12))
        k0 = self.bases[0].shape[1]
        cos[0] = self.bases[0] @ x[:k0]
        pos = k0
        for m in range(1, self.n_modes + 1):
            k = self.bases[m].shape[1]
            v = self.bases[m] @ x[pos:pos + k]
            cos[m], sin[m] = v[:12], v[12:]
            pos += k
        return FourierOrbit(cos, sin, lam)


# a projector's eigenvalues lie this near 0 or 1
PROJECTOR_TOL = 1e-9


def _range_bases(projectors):
    """Orthonormal bases of the ranges of a stack of (numerically) orthogonal
    projectors, one per projector."""
    w, v = np.linalg.eigh(projectors)
    if np.any((w > PROJECTOR_TOL) & (w < 1.0 - PROJECTOR_TOL)):
        raise ArithmeticError("symmetry averaging did not yield a projector")
    return [vk[:, wk > 1.0 - PROJECTOR_TOL] for wk, vk in zip(w, v)]


def verify_predicates(orbit: FourierOrbit, klass: AmalgamClass):
    """Max violation along the loop of each relation of the class, one per
    non-identity element in element order: u(t) = rho(perm) u(s) with s
    = t + 2*pi*angle for a 'rot' and s = -t - 2*pi*angle for a 'refl', at
    PREDICATE_SAMPLES equispaced times t.

    All relations are checked in one evaluation: the time tables of the
    relations are stacked into one table of every moved time, and their
    spatial matrices into one stack.
    """
    n_relations = len(klass.elements()) - 1
    n_modes = orbit.n_modes
    base_cos, base_sin, cos, sin, rho_t = _relation_tables(klass, n_modes)
    base = orbit._combine(base_cos, base_sin)
    mapped = orbit._combine(cos, sin)
    err = mapped.reshape(n_relations, PREDICATE_SAMPLES, 12) @ rho_t - base
    return tuple(np.max(np.linalg.norm(err, axis=2), axis=1).tolist())


# one entry: every point of a branch checks the same class at the same size,
# and the tables of one class are no larger than one call's own would be
@functools.lru_cache(maxsize=1)
def _relation_tables(klass, n_modes):
    """The time tables cos(m t), sin(m t), m = 0..n_modes, at the
    PREDICATE_SAMPLES equispaced times t; the same of the moved times s of
    every relation of the class, stacked; and the stack of their transposed
    spatial matrices; read-only."""
    perms, kinds, angles = zip(*klass.elements())
    # s = t + tau, or -(t + tau) = -t - tau exactly; the identity's s is t
    sign = np.where(np.array(kinds) == "rot", 1.0, -1.0)[:, None]
    tau = 2.0 * math.pi * np.array(angles, dtype=float)[:, None]
    cos, sin = _trig(sign * (_collocation_times(PREDICATE_SAMPLES) + tau),
                     n_modes)
    rho = np.stack([action_matrix(perm) for perm in perms[1:]]).swapaxes(1, 2)
    n = PREDICATE_SAMPLES
    return tuple(map(_read_only, (cos[:n], sin[:n], cos[n:], sin[n:], rho)))


# ---------------------------------------------------------------------------
# branch continuation

class BranchPoint(NamedTuple):
    amplitude: float
    lam: float
    residual: float
    orbit: FourierOrbit


class Branch(NamedTuple):
    klass: AmalgamClass
    j: int
    l: int
    points: tuple

    @property
    def orbit(self):
        return self.points[-1].orbit

    @property
    def final_amplitude(self):
        return self.points[-1].amplitude

    @property
    def final_lam(self):
        return self.points[-1].lam


def _kernel_direction(constraint, j, l):
    """Unit H^1 vector spanning the critical mode inside the fixed subspace,
    which the caller has checked to be one-dimensional."""
    tilde = isotypic_projection(j) @ COM_FREE
    # columns spanning the critical directions
    proj = np.kron(np.eye(2), tilde) @ constraint.bases[l]
    vec = np.linalg.svd(proj, full_matrices=False)[0][:, 0]
    norm = math.sqrt(math.pi * (1.0 + l ** 2) * float(vec @ vec))
    return vec / norm


# Largest trusted condition estimate of a scaled Newton system.  The normal
# equations square it, so at this bound a step keeps about four correct
# digits, enough for Newton to converge; the default families reach 7.1e3,
# on (S4^V4 x_D3 D3).
MAX_CONDITION = 1e6
# The first step's amplitude (unless target_amplitude is smaller), and the
# most Newton steps of one corrector call.
FIRST_STEP = 1e-3
MAX_NEWTON = 25
# The Jacobian's collocation rows are built in blocks of collocation points
# that fill about this many bytes, and J^T J and J^T F are summed over the
# blocks from one reused buffer, so the whole Jacobian is never held.  A block
# holds at least (n_red + 1) / 12 points, so that its product a^T a has at
# least as many rows as columns: on (D3^Z1 x_D3 D3) at 256 modes (172
# collocated points) the budget alone gives blocks of 3 points, and a Newton
# step takes 145 ms against 59 ms with the 65 points of that floor.  At
# n_modes = 64 (44 points), blocks of 14 to 44 points take 2.4 to 2.9 ms a
# step and blocks of 4 points 3.5 ms; at 16 modes this budget keeps the
# system one block.
JACOBIAN_BLOCK_BYTES = 256 * 1024
# The most Fourier modes a configuration may ask for.  The corrector's
# arrays grow as n_modes^2 (on (Z1 x D1), the largest class, a process that
# builds the corrector and takes one Newton step peaks at 55 MB at 64 modes
# and at 321 MB at 256); far above, they would not fit in memory.
MAX_N_MODES = 256
# Rows per diagonal block of _triangular_solve.  Every default family (18 to
# 51 unknowns) is one block; at 256 modes (771 unknowns) blocks of 32 and 64
# rows take within 10 % of each other's time.
SOLVE_BLOCK = 64


def _triangular_solve(t, b, lower):
    """Solution z of t @ z = b for a lower (or upper) triangular t, by
    forward (or back) substitution in blocks of SOLVE_BLOCK rows: each block
    subtracts the product of its rows with the unknowns already solved and
    solves its diagonal block, O(n^2) work where np.linalg.solve on all of t
    would factor it in O(n^3).  With one block the product is empty and the
    result is that of np.linalg.solve(t, b)."""
    n = len(t)
    z = b.copy()
    starts = range(0, n, SOLVE_BLOCK)
    for s in (starts if lower else reversed(starts)):
        e = min(s + SOLVE_BLOCK, n)
        done = slice(0, s) if lower else slice(e, n)
        z[s:e] -= t[s:e, done] @ z[done]
        z[s:e] = np.linalg.solve(t[s:e, s:e], z[s:e])
    return z


def _normal_solve(gram, rhs):
    """Solution z of the normal equations gram @ z = rhs, where gram = a.T @ a
    and rhs = a.T @ b for a least-squares problem a @ z = b, from the Cholesky
    factor of gram, and a condition estimate of a: the ratio of the largest
    to the smallest diagonal entry of the factor.

    z is None when the factorization fails, the estimate exceeds
    MAX_CONDITION or the solution is not finite.
    """
    with np.errstate(all="ignore"):
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None, math.inf
        diag = np.abs(np.diagonal(chol))
        cond = float(diag.max() / diag.min())
        if not cond <= MAX_CONDITION:
            return None, cond
        z = _triangular_solve(chol.T, _triangular_solve(chol, rhs, True),
                              False)
    return (z if np.all(np.isfinite(z)) else None), cond


class _NewtonSystem:
    """The corrector's least-squares system F(x, lam) = 0 in the reduced
    coordinates x of a constraint, and the normal equations of its
    column-scaled Jacobian.

    Rows: the weighted collocation residual r = u'' + lam^2 grad V(u), then
    the amplitude row and three rotational gauge rows.  Every finite class
    projects onto K = D_s: it holds a time reflection at angle 0, (sigma, 0),
    and a shift by each k/s of a turn, (tau, k/s).  So every loop of the
    fixed space satisfies u(-t) = rho(sigma) u(t) and
    u(t + 2*pi/s) = rho(tau) u(t); since V is invariant, r obeys the same
    relations, and on N = s*M equispaced times the row at t_{+-k + jM} is
    an orthogonal image of the row at t_k.  Only the fundamental domain
    t_k = 2*pi*k/N, k = 0..M//2, the times in [0, pi/s], is collocated, with
    the row weight sqrt(orbit_k / N): orbit_k, the number of grid times
    that t_k stands for, is s when t_k is its own mirror (2k = 0 mod M) and
    2s otherwise.  J^T J, J^T F and |F| are then those of all N rows
    weighted by 1/sqrt(N).  N is 4 n_modes + 1 rounded up to a multiple of
    s.  lam0, the frequency parameter at the bifurcation, scales the lambda
    column (see col_scale).
    """

    def __init__(self, potential: PairPotential,
                 constraint: SymmetryConstraint, equilibrium, lam0: float):
        klass = constraint.klass
        if not any(kind == "refl" and angle == 0
                   for _, kind, angle in klass.elements()):
            raise InternalError(
                "class %s has a time reflection but none at angle 0, which "
                "the fundamental domain of the collocation grid needs"
                % klass.printed_form())
        self.potential = potential
        s = klass.K_order
        self.n_points = n = s * -(-(4 * constraint.n_modes + 1) // s)
        per_shift = n // s              # M, the grid times in 1/s of a turn
        k = np.arange(per_shift // 2 + 1)
        self.weight = np.sqrt(np.where(2 * k % per_shift == 0, s, 2 * s)
                              / n)[:, None]
        self.D = constraint.collocation(_collocation_times(n)[k])
        self.n_red = n_red = self.D.shape[2]
        self.n_c = 12 * k.size  # then the amplitude and gauge rows
        self.h1 = constraint.h1_weights()
        self.msq = msq = constraint.modes ** 2.0
        # collocation points per row block of the Jacobian: the budget's
        # worth, but enough that the block's 12 rows a point outnumber its
        # n_red + 1 columns
        self.block = min(k.size, max(
            JACOBIAN_BLOCK_BYTES // (12 * 8 * (n_red + 1)),
            -(-(n_red + 1) // 12)))
        # the Newton system is solved for S^-1 (dx, dlam): S scales the
        # column of mode m by (1 + m^2)^-1, which undoes the growth of the
        # acceleration block with m, and the lambda column by lam0, so that
        # the unknown is lam / lam0.  V -> cV takes lam0 to lam0 / sqrt(c)
        # and leaves the scaled system as it was
        self.col_scale = np.append(1.0 / (1.0 + msq), lam0)
        # the collocation rows of one block of J S, rebuilt in place for
        # every block at every Newton step
        self.buf = np.empty((12 * self.block, n_red + 1))

        # rotational gauge rows: H^1 inner product with the constant rotation
        # tangents at the equilibrium (zero whenever, as for every class
        # arising from the invariants here, the fixed subspace contains no
        # rigid rotations; appended regardless so that an accidental
        # rotational freedom is pinned rather than wandering)
        u_o = equilibrium.u_o
        k0 = constraint.bases[0].shape[1]
        self.gauge = np.zeros((3, n_red + 1))
        self.gauge[:, :k0] = (2.0 * math.pi * tangent_basis(u_o)
                              @ constraint.bases[0])

        # x0 is the equilibrium, the reference of the amplitude
        self.x0 = np.zeros(n_red)
        self.x0[:k0] = constraint.bases[0].T @ u_o.reshape(12)

    def amplitude(self, x):
        return math.sqrt(float(self.h1 @ (x - self.x0) ** 2))

    def residual(self, x, lam, target):
        """F at (x, lam), with the loop and potential gradient it used."""
        u = (self.D @ x).reshape(-1, 4, 3)
        g = gradient(self.potential, u).reshape(-1, 12)
        r = self.D @ (-self.msq * x) + lam ** 2 * g
        f = np.concatenate([(self.weight * r).ravel(),
                            [self.amplitude(x) - target],
                            self.gauge[:, :-1] @ x])
        return f, u, g

    def normal_equations(self, x, lam, u, g, f):
        """A^T A and A^T F for the column-scaled Jacobian A = J S at
        (x, lam), where residual gave F, the loop u and the gradient g: the
        product of the amplitude and gauge rows, plus that of each row block
        of the collocation rows, built in turn in self.buf."""
        buf, n_red, D, msq = self.buf, self.n_red, self.D, self.msq
        weighted = (lam ** 2 * self.weight)[:, :, None] * hessian(
            self.potential, u)
        lam_col = 2.0 * lam * self.weight * g
        # an overflow, or an amplitude that underflows to 0, leaves
        # non-finite sums, which _normal_solve rejects
        with np.errstate(all="ignore"):
            tail = np.vstack([np.append(self.h1 * (x - self.x0)
                                        / self.amplitude(x), 0.0),
                              self.gauge]) * self.col_scale
            gram, rhs = tail.T @ tail, tail.T @ f[self.n_c:]
        for b in range(0, len(D), self.block):
            blk = slice(b, b + self.block)
            n = len(D[blk])
            a = buf[:12 * n]
            rows = a.reshape(n, 12, n_red + 1)
            np.matmul(weighted[blk], D[blk], out=rows[:, :, :n_red])
            # the weighted acceleration block, the same at every step
            rows[:, :, :n_red] += D[blk] * -(self.weight[blk, :, None] * msq)
            rows[:, :, n_red] = lam_col[blk]
            np.multiply(a, self.col_scale, out=a)
            with np.errstate(all="ignore"):
                gram += a.T @ a
                rhs += a.T @ f[12 * b:12 * (b + n)]
        return gram, rhs


def check_branch_request(j: int, l: int, n_modes: int, steps: int,
                         target_amplitude: float, step_size: float,
                         newton_tol: float) -> None:
    """Raise UsageError unless continue_branch can serve (j, l) at this
    truncation in `steps` steps with these settings; cheap, so callers run
    it before building anything."""
    if not 0 <= j <= 2:
        raise UsageError("isotypic index j must be 0, 1 or 2")
    if not 1 <= l <= n_modes:
        raise UsageError("mode l must lie within the truncation")
    if n_modes > MAX_N_MODES:
        raise UsageError("n_modes must be at most %d" % MAX_N_MODES)
    if steps < 1:
        raise UsageError("steps must be at least 1")
    for name, value in (("target_amplitude", target_amplitude),
                        ("step_size", step_size), ("newton_tol", newton_tol)):
        if not 0.0 < value < math.inf:
            raise UsageError("%s must be positive and finite" % name)


def continue_branch(potential: PairPotential, klass: AmalgamClass,
                    j: int, l: int, *, n_modes: int = 16, steps: int = 40,
                    target_amplitude: float = 0.05, step_size: float = 5e-3,
                    newton_tol: float = 1e-11) -> Branch:
    """Follow one symmetric branch from the equilibrium up in amplitude.

    The loop amplitude is the continuation parameter: each step asks the
    Gauss-Newton corrector for a symmetric loop of prescribed amplitude,
    solving simultaneously for the Fourier coefficients (in reduced
    coordinates) and the frequency parameter lambda.  Its seed is the
    quadratic extrapolation of _predict through the equilibrium and the
    last converged points, off by O(h^3) in the step h, so each point of
    the default families takes at most one Newton step.  Each Newton step
    is taken whole and evaluates one residual; a step that does not lower
    |F| fails the attempt and halves the step, as a refused solve does.
    The branch stops once target_amplitude is reached.
    The corrector collocates 4 n_modes + 1 equispaced times, rounded up to
    a multiple of s for a class whose time action is D_s; each point's
    residual is the RMS collocation residual on that grid.  Each point
    keeps its loop, which verify_predicates checks against the class.
    """
    check_branch_request(j, l, n_modes, steps, target_amplitude, step_size,
                         newton_tol)
    eq = find_equilibrium(potential)
    lam0 = l / math.sqrt(eq.mu[j])

    constraint = SymmetryConstraint(klass, n_modes)
    # the critical directions the class fixes: dim V_{j,l}^klass, exactly
    rank = klass.universe.fixed_point_dim(j, l, klass)
    if rank == 0:
        raise UsageError("symmetry class has no fixed directions in the "
                         "(%d, %d) critical mode" % (j, l))
    if rank != 1:
        # the seed follows one critical direction; with several, the branch
        # it picks is arbitrary and the corrector need not converge on it
        raise UsageError("class %s has %d critical directions in the "
                         "(%d, %d) mode; a branch needs exactly one"
                         % (klass.printed_form(), rank, j, l))
    kernel = _kernel_direction(constraint, j, l)
    system = _NewtonSystem(potential, constraint, eq, lam0)
    x0, n_red, n_c = system.x0, system.n_red, system.n_c

    # the seed adds a sliver of the kernel direction to the equilibrium x0
    kdir = np.zeros(n_red)
    kdir[constraint.modes == l] = constraint.bases[l].T @ kernel

    def correct(x, lam, target):
        """Corrected (x, lam, its collocation residual) or None, the least
        collocation residual and the condition estimate of the last Newton
        system (None if none).  The Gauss-Newton steps come from the normal
        equations of the column-scaled Jacobian."""
        f, u, g = system.residual(x, lam, target)
        least = math.inf
        cond = None
        for _ in range(MAX_NEWTON):
            norm_c = float(np.linalg.norm(f[:n_c]))
            norm_all = float(np.linalg.norm(f))
            least = min(least, norm_c)
            if norm_c < newton_tol and norm_all < 10.0 * newton_tol:
                return (x, lam, norm_c), least, cond
            gram, rhs = system.normal_equations(x, lam, u, g, f)
            z, cond = _normal_solve(gram, -rhs)
            if z is None:
                break
            step = z * system.col_scale
            x, lam = x + step[:n_red], lam + step[n_red]
            f, u, g = system.residual(x, lam, target)
            if not np.linalg.norm(f) < norm_all:
                break
        return None, least, cond

    def stuck(what):
        # the target and step of the last corrector call, not the next ones
        diagnostics = {"class": klass.printed_form(), "target": tried[0],
                       "step": tried[1], "smallest_residual": least,
                       "newton_tol": newton_tol, "condition": cond}
        return ConvergenceError(
            ("{what} on class {class} at target amplitude {target:g} (step "
             "{step:g}): smallest collocation residual {smallest_residual:.3e}"
             " against newton_tol {newton_tol:g}").format(what=what,
                                                          **diagnostics),
            diagnostics)

    points = []
    history = []                    # (target, x, lam) of converged steps
    # the last target lies a little above target_amplitude, so that the
    # corrector's amplitude error cannot leave the branch just short of it;
    # a target_amplitude below FIRST_STEP is the first and last target
    ceiling = target_amplitude * 1.0001
    target = min(FIRST_STEP, ceiling)
    step = step_size
    failures = 0
    for _ in range(steps):
        tried = target, step
        got, least, cond = correct(*_predict(history, target, x0, kdir, lam0),
                                   target)
        if got is None:
            failures += 1
            if failures > 12:
                raise stuck("corrector failed repeatedly")
            step *= 0.5
            if not history:
                target *= 0.5
                continue
            target = history[-1][0] + step
        else:
            x, lam, res = got
            points.append(BranchPoint(amplitude=system.amplitude(x), lam=lam,
                                      residual=res,
                                      orbit=constraint.unpack(x, lam)))
            history.append((target, x, lam))
            if points[-1].amplitude >= target_amplitude:
                break
            target = min(target + step, ceiling)
        # a step below the resolution of the target, or an amplitude whose
        # squares underflow to 0 at the ceiling, leaves the target in place
        if not target > history[-1][0]:
            raise stuck("continuation stalled")
    else:
        raise stuck("branch did not reach amplitude %g in %d steps of at "
                    "most step_size = %g" % (target_amplitude, steps,
                                             step_size))
    return Branch(klass=klass, j=j, l=l, points=tuple(points))


def _predict(history, target, x0, kdir, lam0):
    """The corrector's seed (x, lam) at amplitude `target`, from the
    (target, x, lam) of the converged points in `history`, oldest first.

    A Lyapunov family leaves the equilibrium x0 along the kernel direction
    kdir: x(t) = x0 + t kdir + O(t^2) and lam(t) = lam0 + O(t^2).  With no
    point the seed is that line and lam0.  With one point (t1, x1, lam1) it
    is the quadratic through the equilibrium with slope kdir there and
    through the point, x0 + t kdir + (t/t1)^2 (x1 - x0 - t1 kdir), and
    lam0 + (lam1 - lam0) (t/t1)^2.  With more, it is the quadratic through
    the last three nodes of (0, x0, lam0) + history, in Newton's
    divided-difference form, which extrapolates equal nodes exactly.  Both
    quadratics are exact on a branch quadratic in t, so the seed is off by
    O(h^3) in the step h, and one Newton step takes it under newton_tol.
    """
    if not history:
        return x0 + target * kdir, lam0
    if len(history) == 1:
        (t1, x1, l1), = history
        w = (target / t1) ** 2
        return (x0 + target * kdir + w * (x1 - x0 - t1 * kdir),
                lam0 + (l1 - lam0) * w)
    (ta, *a), (tb, *b), (tc, *c) = ([(0.0, x0, lam0)] + history)[-3:]

    def extrapolate(ya, yb, yc):
        d1 = (yc - yb) / (tc - tb)
        d2 = (d1 - (yb - ya) / (tb - ta)) / (tc - ta)
        return yc + (target - tc) * (d1 + (target - tb) * d2)
    return tuple(map(extrapolate, a, b, c))


def frequency_extrapolation(branch: Branch):
    """Limit of lambda as amplitude -> 0, from a quadratic-in-amplitude fit,
    or None when the branch has fewer than two points.

    Near a nondegenerate bifurcation the frequency parameter behaves like
    lambda(s) = lambda_* + c s^2; fitting the EXTRAPOLATION_FIT
    smallest-amplitude branch points recovers lambda_* without evaluating at
    the singular point.  One point cannot fix both lambda_* and c: a fit
    through it would only return that point's own lambda.
    """
    if len(branch.points) < 2:
        return None
    pts = sorted(branch.points, key=lambda p: p.amplitude)[:EXTRAPOLATION_FIT]
    a = np.array([[1.0, p.amplitude ** 2] for p in pts])
    y = np.array([p.lam for p in pts])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(coef[0])
