"""Continuation of symmetric periodic orbits from the equilibrium.

Periodic solutions are represented by truncated Fourier series on [0, 2*pi]
after rescaling time by the frequency parameter lambda, so that the residual
of u'' + lambda^2 grad V(u) measures how far a loop is from a genuine orbit
of period 2*pi*lambda.  A symmetry class from the bifurcation analysis is
imposed exactly, mode by mode, by averaging the induced action on Fourier
coefficients; Gauss-Newton corrections then run inside the fixed subspace
with the loop amplitude as continuation parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bifurcation import SymmetryDescription, UsageError, describe_symmetry
from .burnside import AmalgamClass
from .forcefield import (ConvergenceError, PairPotential, find_equilibrium,
                         gradient, hessian, total_potential)
from .grouprep import SO3_GENERATORS, action_matrix, isotypic_projection

__all__ = [
    "FourierOrbit", "SymmetryConstraint", "BranchPoint", "Branch",
    "amplitude", "residual", "energy_profile", "continue_branch",
    "verify_predicates", "frequency_extrapolation",
]


@dataclass(frozen=True)
class FourierOrbit:
    """Loop t -> sum_m cos_coeffs[m] cos(mt) + sin_coeffs[m] sin(mt).

    Coefficient arrays have shape (n_modes + 1, 12); row 0 of sin_coeffs is
    identically zero.  lam is the frequency parameter of the rescaled
    problem (the orbit has period 2*pi*lam in physical time).
    """

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    lam: float

    def __post_init__(self):
        c = np.asarray(self.cos_coeffs, dtype=float)
        s = np.asarray(self.sin_coeffs, dtype=float)
        if c.shape != s.shape or c.ndim != 2 or c.shape[1] != 12:
            raise UsageError("coefficient arrays must both be (n_modes+1, 12)")
        object.__setattr__(self, "cos_coeffs", c)
        object.__setattr__(self, "sin_coeffs", s)

    @property
    def n_modes(self):
        return self.cos_coeffs.shape[0] - 1

    def _trig(self, t, deriv=0):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        m = np.arange(self.n_modes + 1)
        phase = np.outer(t, m)
        cos, sin = np.cos(phase), np.sin(phase)
        if deriv == 0:
            return cos, sin
        if deriv == 1:
            return -m * sin, m * cos
        return -(m ** 2) * cos, -(m ** 2) * sin

    def evaluate(self, t):
        """Positions (..., 12) at scaled times t."""
        cos, sin = self._trig(t)
        out = cos @ self.cos_coeffs + sin @ self.sin_coeffs
        return out[0] if np.isscalar(t) else out

    def velocity(self, t):
        cos, sin = self._trig(t, deriv=1)
        out = cos @ self.cos_coeffs + sin @ self.sin_coeffs
        return out[0] if np.isscalar(t) else out

    def acceleration(self, t):
        cos, sin = self._trig(t, deriv=2)
        out = cos @ self.cos_coeffs + sin @ self.sin_coeffs
        return out[0] if np.isscalar(t) else out


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
             n_points: int = None) -> float:
    """RMS of u'' + lam^2 grad V(u) over equispaced collocation times."""
    if n_points is None:
        n_points = 4 * orbit.n_modes + 1
    ts = _collocation_times(n_points)
    u = orbit.evaluate(ts).reshape(-1, 4, 3)
    acc = orbit.acceleration(ts)
    res = acc + orbit.lam ** 2 * gradient(potential, u).reshape(-1, 12)
    return math.sqrt(float(np.mean(np.sum(res ** 2, axis=1))))


def energy_profile(orbit: FourierOrbit, potential: PairPotential,
                   n_points: int = 128):
    """Mean energy and its relative spread along the loop.

    E(t) = |u'|^2 / 2 + lam^2 V(u); constant along exact orbits.  The spread
    is normalized by the largest of |mean energy|, the peak kinetic energy
    and a small floor, so that near-equilibrium loops are judged fairly.
    """
    ts = _collocation_times(n_points)
    u = orbit.evaluate(ts).reshape(-1, 4, 3)
    v = orbit.velocity(ts)
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
    with the 12-dimensional spatial action.  Averaging over the finite group
    yields one projector per mode; orthonormal bases of their ranges are the
    reduced coordinates used by the corrector.
    """

    def __init__(self, klass: AmalgamClass, n_modes: int):
        if not klass.is_finite:
            raise UsageError(
                "continuous symmetry classes do not pin down a single orbit; "
                "pick a finite class from the invariant")
        self.klass = klass
        self.n_modes = int(n_modes)
        elements = klass.elements()
        spatial = {perm: action_matrix(list(perm)) for perm, _, _ in elements}
        self.projectors = []
        p0 = np.zeros((12, 12))
        for perm, kind, angle in elements:
            p0 += spatial[perm]
        p0 /= len(elements)
        self.projectors.append(p0)
        for m in range(1, self.n_modes + 1):
            pm = np.zeros((24, 24))
            for perm, kind, angle in elements:
                rho = spatial[perm]
                c = math.cos(2.0 * math.pi * m * angle)
                s = math.sin(2.0 * math.pi * m * angle)
                block = np.zeros((24, 24))
                if kind == "rot":
                    block[:12, :12] = c * rho
                    block[:12, 12:] = s * rho
                    block[12:, :12] = -s * rho
                    block[12:, 12:] = c * rho
                else:
                    block[:12, :12] = c * rho
                    block[:12, 12:] = -s * rho
                    block[12:, :12] = -s * rho
                    block[12:, 12:] = -c * rho
                pm += block
            pm /= len(elements)
            self.projectors.append(pm)
        self.bases = [_range_basis(p) for p in self.projectors]

    def fixed_dims(self):
        return tuple(b.shape[1] for b in self.bases)

    def project(self, orbit: FourierOrbit) -> FourierOrbit:
        if orbit.n_modes != self.n_modes:
            raise UsageError("orbit and constraint disagree on n_modes")
        cos = orbit.cos_coeffs.copy()
        sin = orbit.sin_coeffs.copy()
        cos[0] = self.projectors[0] @ cos[0]
        sin[0] = 0.0
        for m in range(1, self.n_modes + 1):
            v = self.projectors[m] @ np.concatenate([cos[m], sin[m]])
            cos[m], sin[m] = v[:12], v[12:]
        return FourierOrbit(cos, sin, orbit.lam)

    # reduced coordinates <-> coefficients ---------------------------------

    def pack(self, orbit: FourierOrbit) -> np.ndarray:
        parts = [self.bases[0].T @ orbit.cos_coeffs[0]]
        for m in range(1, self.n_modes + 1):
            if self.bases[m].shape[1]:
                parts.append(self.bases[m].T @ np.concatenate(
                    [orbit.cos_coeffs[m], orbit.sin_coeffs[m]]))
        return np.concatenate(parts) if parts else np.zeros(0)

    def unpack(self, x: np.ndarray, lam: float) -> FourierOrbit:
        cos = np.zeros((self.n_modes + 1, 12))
        sin = np.zeros((self.n_modes + 1, 12))
        k0 = self.bases[0].shape[1]
        cos[0] = self.bases[0] @ x[:k0]
        pos = k0
        for m in range(1, self.n_modes + 1):
            k = self.bases[m].shape[1]
            if k:
                v = self.bases[m] @ x[pos:pos + k]
                cos[m], sin[m] = v[:12], v[12:]
                pos += k
        return FourierOrbit(cos, sin, lam)


def _range_basis(projector, tol=1e-9):
    """Orthonormal basis of the range of a (numerically) orthogonal projector."""
    w, v = np.linalg.eigh(projector)
    cols = v[:, w > 1.0 - tol]
    if np.any((w > tol) & (w < 1.0 - tol)):
        raise ArithmeticError("symmetry averaging did not yield a projector")
    return cols


def verify_predicates(orbit: FourierOrbit, description: SymmetryDescription,
                      n_samples: int = 64):
    """Max violation of each symmetry relation along the loop."""
    ts = _collocation_times(n_samples)
    base = orbit.evaluate(ts)
    out = []
    for pred in description.predicates:
        rho = action_matrix(list(pred.perm))
        tau = 2.0 * math.pi * float(pred.angle)
        mapped = ts + tau if pred.kind == "shift" else -ts - tau
        err = orbit.evaluate(mapped) @ rho.T - base
        out.append(float(np.max(np.linalg.norm(err, axis=1))))
    return tuple(out)


# ---------------------------------------------------------------------------
# branch continuation

@dataclass(frozen=True)
class BranchPoint:
    amplitude: float
    lam: float
    residual: float
    predicate_residuals: tuple


@dataclass(frozen=True)
class Branch:
    klass: AmalgamClass
    j: int
    l: int
    points: tuple
    orbit: FourierOrbit
    description: SymmetryDescription

    @property
    def final_amplitude(self):
        return self.points[-1].amplitude

    @property
    def final_lam(self):
        return self.points[-1].lam


def _kernel_direction(constraint, j, l):
    """Unit H^1 vector spanning the critical mode inside the fixed subspace."""
    iso = isotypic_projection(j)
    com = np.eye(12) - np.kron(np.ones((4, 4)) / 4.0, np.eye(3))
    tilde = iso @ com
    basis = constraint.bases[l]
    if basis.shape[1] == 0:
        raise UsageError("symmetry class fixes nothing in mode %d" % l)
    big = np.zeros((24, 24))
    big[:12, :12] = tilde
    big[12:, 12:] = tilde
    proj = big @ basis            # columns spanning the critical directions
    u_, s_, _ = np.linalg.svd(proj, full_matrices=False)
    rank = int(np.sum(s_ > 1e-9))
    if rank == 0:
        raise UsageError("symmetry class has no fixed directions in the "
                         "(%d, %d) critical mode" % (j, l))
    vec = u_[:, 0]
    norm = math.sqrt(math.pi * (1.0 + l ** 2) * float(vec @ vec))
    return vec / norm, rank


def continue_branch(potential: PairPotential, klass: AmalgamClass,
                    j: int, l: int, *, n_modes: int = 16,
                    n_points: int = None, steps: int = 40,
                    target_amplitude: float = 0.05,
                    step_size: float = 5e-3, first_step: float = 1e-3,
                    newton_tol: float = 1e-11, max_newton: int = 25,
                    equilibrium=None) -> Branch:
    """Follow one symmetric branch from the equilibrium up in amplitude.

    The loop amplitude is the continuation parameter: each step asks the
    Gauss-Newton corrector for a symmetric loop of prescribed amplitude,
    solving simultaneously for the Fourier coefficients (in reduced
    coordinates) and the frequency parameter lambda.  Steps halve on
    corrector failure; the branch stops once target_amplitude is reached.
    """
    if n_points is None:
        n_points = 4 * n_modes + 1
    if n_points < 4 * n_modes + 1:
        raise UsageError("need at least 4*n_modes+1 collocation points")
    eq = equilibrium or find_equilibrium(potential)
    if not 0 <= j <= 2:
        raise UsageError("isotypic index j must be 0, 1 or 2")
    if not 1 <= l <= n_modes:
        raise UsageError("mode l must lie within the truncation")
    u_o = eq.u_o.reshape(12)
    lam0 = l / math.sqrt(eq.mu[j])

    constraint = SymmetryConstraint(klass, n_modes)
    if not klass.has_time_reflection:
        raise UsageError("class contains no time reflection; the phase of "
                         "the loop would be undetermined")
    description = describe_symmetry(klass)
    kernel, _ = _kernel_direction(constraint, j, l)

    ts = _collocation_times(n_points)
    weight = 1.0 / math.sqrt(n_points)
    modes = np.arange(n_modes + 1)
    ct = np.cos(np.outer(ts, modes))
    st = np.sin(np.outer(ts, modes))

    # constant basis tensors: value and second derivative of each reduced
    # direction at every collocation time
    cols = []
    for m in range(n_modes + 1):
        b = constraint.bases[m]
        for k in range(b.shape[1]):
            if m == 0:
                prof = np.outer(np.ones(n_points), b[:, k])
                cols.append((prof, np.zeros_like(prof)))
            else:
                prof = (np.outer(ct[:, m], b[:12, k])
                        + np.outer(st[:, m], b[12:, k]))
                cols.append((prof, -(m ** 2) * prof))
    n_red = len(cols)
    D = np.stack([c[0] for c in cols], axis=2)     # (M, 12, K)
    D2 = np.stack([c[1] for c in cols], axis=2)

    # rotational gauge rows: H^1 inner product with the constant rotation
    # tangents at the equilibrium (zero whenever, as for every class arising
    # from the invariants here, the fixed subspace contains no rigid
    # rotations; appended regardless so that an accidental rotational
    # freedom is pinned rather than wandering)
    tangents = np.stack([(g @ eq.u_o.T).T.reshape(12)
                         for g in SO3_GENERATORS])
    k0 = constraint.bases[0].shape[1]
    gauge = np.zeros((3, n_red + 1))
    gauge[:, :k0] = 2.0 * math.pi * tangents @ constraint.bases[0]

    amps_m = np.pi * (1.0 + modes[1:] ** 2)

    def unpack(x, lam):
        return constraint.unpack(x, lam)

    def amp_and_grad(orbit):
        d0 = orbit.cos_coeffs[0] - u_o
        q = 2.0 * math.pi * float(d0 @ d0)
        q += float(amps_m @ (np.sum(orbit.cos_coeffs[1:] ** 2, axis=1)
                             + np.sum(orbit.sin_coeffs[1:] ** 2, axis=1)))
        a = math.sqrt(q)
        # gradient of q in coefficient space, then reduced
        gcos = np.zeros((n_modes + 1, 12))
        gsin = np.zeros((n_modes + 1, 12))
        gcos[0] = 4.0 * math.pi * d0
        gcos[1:] = 2.0 * amps_m[:, None] * orbit.cos_coeffs[1:]
        gsin[1:] = 2.0 * amps_m[:, None] * orbit.sin_coeffs[1:]
        grad = constraint.pack(FourierOrbit(gcos, gsin, orbit.lam))
        return a, grad / (2.0 * a)

    def system(x, lam, target):
        orbit = unpack(x, lam)
        u = ct @ orbit.cos_coeffs + st @ orbit.sin_coeffs
        acc = ((ct * -(modes ** 2)) @ orbit.cos_coeffs
               + (st * -(modes ** 2)) @ orbit.sin_coeffs)
        conf = u.reshape(-1, 4, 3)
        g = gradient(potential, conf).reshape(-1, 12)
        h = hessian(potential, conf)
        f_c = weight * (acc + lam ** 2 * g)
        amp, amp_grad = amp_and_grad(orbit)
        f = np.concatenate([f_c.ravel(), [amp - target],
                            gauge[:, :-1] @ x])
        jac_c = weight * (D2 + lam ** 2 * np.einsum("mab,mbk->mak", h, D))
        jac = np.zeros((12 * n_points + 4, n_red + 1))
        jac[:12 * n_points, :n_red] = jac_c.reshape(-1, n_red)
        jac[:12 * n_points, n_red] = (weight * 2.0 * lam * g).ravel()
        jac[12 * n_points, :n_red] = amp_grad
        jac[12 * n_points + 1:, :] = gauge
        return f, jac, amp

    def correct(x, lam, target):
        for _ in range(max_newton):
            f, jac, _ = system(x, lam, target)
            norm_c = float(np.linalg.norm(f[:12 * n_points]))
            norm_all = float(np.linalg.norm(f))
            if norm_c < newton_tol and norm_all < 10.0 * newton_tol:
                return x, lam, norm_c
            step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
            scale = 1.0
            for _ in range(8):
                xn = x + scale * step[:n_red]
                ln = lam + scale * step[n_red]
                fn = system(xn, ln, target)[0]
                if np.linalg.norm(fn) < norm_all:
                    x, lam = xn, ln
                    break
                scale *= 0.5
            else:
                return None
        f, _, _ = system(x, lam, target)
        norm_c = float(np.linalg.norm(f[:12 * n_points]))
        if norm_c < newton_tol:
            return x, lam, norm_c
        return None

    # seed: equilibrium plus a sliver of the kernel direction
    x0 = constraint.pack(FourierOrbit(
        np.vstack([u_o, np.zeros((n_modes, 12))]),
        np.zeros((n_modes + 1, 12)), lam0))
    kc = np.zeros((n_modes + 1, 12))
    ks = np.zeros((n_modes + 1, 12))
    kc[l], ks[l] = kernel[:12], kernel[12:]
    kdir = constraint.pack(FourierOrbit(kc, ks, lam0))

    points = []
    history = []                    # (target, x, lam) of converged steps
    target = first_step
    step = step_size
    x, lam = x0 + first_step * kdir, lam0
    failures = 0
    for _ in range(steps):
        got = correct(x.copy(), lam, target)
        if got is None:
            failures += 1
            if failures > 12:
                raise ConvergenceError(
                    "corrector failed repeatedly on class %s"
                    % klass.printed_form())
            step *= 0.5
            if history:
                target = history[-1][0] + step
                x, lam = _predict(history, target, x0, kdir, lam0)
            else:
                target *= 0.5
                x, lam = x0 + target * kdir, lam0
            continue
        x, lam, norm_c = got
        orbit = unpack(x, lam)
        amp, _ = amp_and_grad(orbit)
        res = residual(orbit, potential, n_points)
        preds = verify_predicates(orbit, description, n_samples=32)
        points.append(BranchPoint(amplitude=amp, lam=lam, residual=res,
                                  predicate_residuals=preds))
        history.append((target, x.copy(), lam))
        if amp >= target_amplitude:
            break
        target = min(target + step, target_amplitude * 1.0001)
        x, lam = _predict(history, target, x0, kdir, lam0)
    else:
        if not points or points[-1].amplitude < target_amplitude:
            raise ConvergenceError(
                "branch for %s did not reach amplitude %g in %d steps"
                % (klass.printed_form(), target_amplitude, steps))
    final = unpack(history[-1][1], history[-1][2])
    return Branch(klass=klass, j=j, l=l, points=tuple(points), orbit=final,
                  description=description)


def _predict(history, target, x0, kdir, lam0):
    if len(history) >= 2:
        (t1, x1, l1), (t2, x2, l2) = history[-2], history[-1]
        w = (target - t2) / (t2 - t1)
        return x2 + w * (x2 - x1), l2 + w * (l2 - l1)
    t2, x2, l2 = history[-1]
    return x0 + target * kdir, lam0 + (l2 - lam0) * (target / t2) ** 2


def frequency_extrapolation(branch: Branch, n_fit: int = 4):
    """Limit of lambda as amplitude -> 0, from a quadratic-in-amplitude fit.

    Near a nondegenerate bifurcation the frequency parameter behaves like
    lambda(s) = lambda_* + c s^2; fitting the smallest-amplitude branch
    points recovers lambda_* without evaluating at the singular point.
    """
    pts = sorted(branch.points, key=lambda p: p.amplitude)[:max(n_fit, 2)]
    a = np.array([[1.0, p.amplitude ** 2] for p in pts])
    y = np.array([p.lam for p in pts])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(coef[0])
