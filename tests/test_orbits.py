import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import tetravib.burnside as bu
import tetravib.orbits as ob
from tetravib import cli
from tetravib.bifurcation import (UsageError, critical_set,
                                  independent_families, invariants)
from tetravib.forcefield import (ConvergenceError, PairPotential,
                                 find_equilibrium, gradient, hessian)
from tetravib.grouprep import COM_FREE, action_matrix, translation_basis

from _golden import BRANCHES

BOND = PairPotential()


@pytest.fixture(scope="module")
def u2():
    return bu.Universe.for_l_max(2)


@pytest.fixture(scope="module")
def eq():
    return find_equilibrium(BOND)


@pytest.fixture(scope="module")
def breathing_class(u2):
    return u2.parse_class("(S4 x D1)")


@pytest.fixture(scope="module")
def wave_class(u2):
    return u2.parse_class("(D3^Z1 x_D3 D3)")


@pytest.fixture(scope="module")
def breathing_branch(breathing_class):
    return ob.continue_branch(BOND, breathing_class, 0, 1, n_modes=8)


@pytest.fixture(scope="module")
def wave_branch(wave_class):
    return ob.continue_branch(BOND, wave_class, 1, 1, n_modes=8)


def _random_orbit(n_modes, lam=1.0, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    cos = scale * rng.standard_normal((n_modes + 1, 12))
    sin = scale * rng.standard_normal((n_modes + 1, 12))
    sin[0] = 0.0
    return ob.FourierOrbit(cos, sin, lam)


# ---------------------------------------------------------------------------
# Fourier loops

def test_evaluate_matches_direct_summation():
    orbit = _random_orbit(5, seed=11)
    for t in (0.0, 0.3, 2.0, 5.9):
        want = np.zeros(12)
        for m in range(6):
            want += (orbit.cos_coeffs[m] * math.cos(m * t)
                     + orbit.sin_coeffs[m] * math.sin(m * t))
        assert np.allclose(orbit.evaluate(t), want, atol=1e-14)


def test_velocity_and_acceleration_match_finite_differences():
    orbit = _random_orbit(4, seed=7)
    ts = np.array([0.1, 1.0, 3.7])
    h = 1e-5
    v_fd = (orbit.evaluate(ts + h) - orbit.evaluate(ts - h)) / (2.0 * h)
    assert np.max(np.abs(orbit.velocity(ts) - v_fd)) < 1e-6
    h = 1e-4
    a_fd = (orbit.evaluate(ts + h) - 2.0 * orbit.evaluate(ts)
            + orbit.evaluate(ts - h)) / h ** 2
    assert np.max(np.abs(orbit.acceleration(ts) - a_fd)) < 1e-5


def test_orbit_shape_validation():
    with pytest.raises(UsageError):
        ob.FourierOrbit(np.zeros((3, 12)), np.zeros((4, 12)), 1.0)
    with pytest.raises(UsageError):
        ob.FourierOrbit(np.zeros((3, 11)), np.zeros((3, 11)), 1.0)
    # lists become float arrays, and the orbit is immutable
    orbit = ob.FourierOrbit(cos_coeffs=[[1] * 12], sin_coeffs=[[0] * 12],
                            lam=1.0)
    assert orbit.cos_coeffs.dtype == float and orbit.n_modes == 0
    assert orbit._replace(sin_coeffs=[[1] * 12]).sin_coeffs.dtype == float
    with pytest.raises(UsageError):
        orbit._replace(sin_coeffs=[[0] * 11])
    with pytest.raises(AttributeError):
        orbit.lam = 2.0


def test_amplitude_closed_form():
    ref = np.arange(12.0)
    cos = np.zeros((4, 12))
    sin = np.zeros((4, 12))
    cos[0] = ref + 3.0                       # constant offset d, |d|^2 = 12*9
    cos[2, 5] = 2.0                          # one cosine mode, m = 2
    sin[3, 1] = 1.5                          # one sine mode, m = 3
    orbit = ob.FourierOrbit(cos, sin, 1.0)
    want = math.sqrt(2.0 * math.pi * 108.0
                     + math.pi * (1 + 4) * 4.0
                     + math.pi * (1 + 9) * 2.25)
    assert ob.amplitude(orbit, ref) == pytest.approx(want, rel=1e-14)
    assert ob.amplitude(ob.FourierOrbit(np.vstack([ref, np.zeros((3, 12))]),
                                        sin * 0.0, 1.0), ref) == 0.0


def test_residual_of_constant_loop_is_gradient_norm(eq):
    u = 1.1 * eq.u_o                         # squashed: nonzero gradient
    cos = np.vstack([u.reshape(12), np.zeros((6, 12))])
    orbit = ob.FourierOrbit(cos, np.zeros((7, 12)), lam=0.7)
    g = gradient(BOND, u)
    want = 0.7 ** 2 * float(np.linalg.norm(g))
    assert ob.residual(orbit, BOND, 25) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# symmetry constraints

def test_projection_is_idempotent_and_satisfies_predicates(breathing_class):
    con = ob.SymmetryConstraint(breathing_class, n_modes=4)
    orbit = _random_orbit(4, seed=3)
    once = con.unpack(con.pack(orbit), orbit.lam)
    twice = con.unpack(con.pack(once), once.lam)
    assert np.allclose(once.cos_coeffs, twice.cos_coeffs, atol=1e-14)
    assert np.allclose(once.sin_coeffs, twice.sin_coeffs, atol=1e-14)
    assert max(ob.verify_predicates(once, breathing_class)) < 1e-12


def test_wave_projection_satisfies_predicates(wave_class):
    con = ob.SymmetryConstraint(wave_class, n_modes=4)
    orbit = _random_orbit(4, seed=5)
    orbit = con.unpack(con.pack(orbit), orbit.lam)
    assert max(ob.verify_predicates(orbit, wave_class)) < 1e-12
    # a generic random loop does not satisfy them
    assert max(ob.verify_predicates(_random_orbit(4, seed=6),
                                    wave_class)) > 0.1


def test_brake_projection_kills_sine_coefficients(breathing_class):
    con = ob.SymmetryConstraint(breathing_class, n_modes=4)
    assert con.klass.brake and bool(con.klass.refl_perms)
    orbit = _random_orbit(4, seed=9)
    proj = con.unpack(con.pack(orbit), orbit.lam)
    assert np.max(np.abs(proj.sin_coeffs)) < 1e-13
    # the fixed subspace is the breathing direction in every mode
    assert con.fixed_dims() == (1, 1, 1, 1, 1)


# The per-(mode, element) and per-relation loops that the array passes of
# SymmetryConstraint and verify_predicates replaced, kept as the oracles of
# the differential tests below.
def _loop_projectors(klass, n_modes):
    elements = klass.elements()
    p0 = np.zeros((12, 12))
    for perm, kind, angle in elements:
        p0 += action_matrix(perm)
    projectors = [COM_FREE @ (p0 / len(elements)) @ COM_FREE]
    free = np.kron(np.eye(2), COM_FREE)
    for m in range(1, n_modes + 1):
        pm = np.zeros((24, 24))
        for perm, kind, angle in elements:
            rho = action_matrix(perm)
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
        projectors.append(free @ (pm / len(elements)) @ free)
    return projectors


def _loop_basis(projector, tol=1e-9):
    w, v = np.linalg.eigh(projector)
    return v[:, w > 1.0 - tol]


def _loop_verify_predicates(orbit, klass, n_samples):
    ts = ob._collocation_times(n_samples)
    base = orbit.evaluate(ts)
    out = []
    for perm, kind, angle in klass.elements():
        if perm == (0, 1, 2, 3) and kind == "rot" and angle == 0:
            continue            # the identity is no relation
        tau = 2.0 * math.pi * float(angle)
        mapped = orbit.evaluate(ts + tau if kind == "rot" else -ts - tau)
        err = mapped @ action_matrix(perm).T - base
        out.append(float(np.max(np.linalg.norm(err, axis=1))))
    return tuple(out)


def _finite_classes(l_max):
    return [c for c in bu.Universe.for_l_max(l_max).classes if c.is_finite]


@pytest.mark.parametrize("l_max", [2, 4])
def test_projectors_and_bases_equal_the_element_loop(l_max):
    # eigh may pick any orthonormal basis of a degenerate range, so each
    # mode's basis B is compared through its range projector B @ B.T
    for c in _finite_classes(l_max):
        con = ob.SymmetryConstraint(c, n_modes=8)
        want = _loop_projectors(c, 8)
        assert len(con.bases) == 9
        for m, exp in enumerate(want):
            b, e = con.bases[m], _loop_basis(exp)
            assert b.shape == e.shape, (c.printed_form(), m)
            assert np.max(np.abs(b @ b.T - e @ e.T)) < 1e-14, (
                c.printed_form(), m)
        # every angle is a multiple of 1/p turn: modes m and m - p share
        # one basis object
        p = math.lcm(*(angle.denominator for _, _, angle in c.elements()))
        for m in range(p + 1, 9):
            assert con.bases[m] is con.bases[m - p], (c.printed_form(), m)
        assert np.array_equal(con.modes, np.concatenate(
            [np.full(b.shape[1], m) for m, b in enumerate(con.bases)]))


def test_verify_predicates_equals_the_predicate_loop(wave_branch):
    assert ob.PREDICATE_SAMPLES == 32
    for k, c in enumerate(_finite_classes(2)):
        orbit = _random_orbit(8, seed=k)
        assert ob.verify_predicates(orbit, c) == _loop_verify_predicates(
            orbit, c, 32), c.printed_form()
    klass = wave_branch.klass
    assert (ob.verify_predicates(wave_branch.orbit, klass)
            == _loop_verify_predicates(wave_branch.orbit, klass, 32))


@pytest.mark.parametrize("which", ["breathing_class", "wave_class"])
def test_collocation_model_matches_fourier_loop(request, eq, which):
    # the corrector works on reduced points x alone: D @ x,
    # D @ (-modes**2 * x) and the weighted norm of x - x_eq must be the loop,
    # its acceleration and its H^1 amplitude about the equilibrium
    con = ob.SymmetryConstraint(request.getfixturevalue(which), n_modes=4)
    ts = ob._collocation_times(17)
    D = con.collocation(ts)
    w = con.h1_weights()
    u_o = eq.u_o.reshape(12)
    x_eq = con.pack(ob.FourierOrbit(np.vstack([u_o, np.zeros((4, 12))]),
                                    np.zeros((5, 12)), 1.0))
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.standard_normal(D.shape[2])
        orbit = con.unpack(x, 1.0)
        assert np.max(np.abs(D @ x - orbit.evaluate(ts))) < 1e-13
        assert np.max(np.abs(D @ (-(con.modes ** 2) * x)
                             - orbit.acceleration(ts))) < 1e-13
        assert math.sqrt(w @ (x - x_eq) ** 2) == pytest.approx(
            ob.amplitude(orbit, u_o), rel=1e-13)


def _lam0(fam, eq):
    """The frequency parameter at the family's bifurcation."""
    return fam.l / math.sqrt(eq.mu[fam.j])


def _concatenated_collocation(con, ts):
    """D as one C-order concatenation of per-mode pieces."""
    ts = np.asarray(ts, dtype=float)[:, None, None]
    return np.ascontiguousarray(np.concatenate(
        [np.cos(m * ts) * b[:12] + np.sin(m * ts) * b[12:] if m
         else np.broadcast_to(b, ts.shape[:1] + b.shape)
         for m, b in enumerate(con.bases)], axis=2))


def test_collocation_keeps_the_concatenated_bytes_and_layout(u2):
    # D is built in place, in C order (points, 12, K), with the values of
    # the concatenation of its per-mode pieces, on every class
    # continue_branch accepts
    for n_modes in (1, 2, 5):
        ts = ob._collocation_times(4 * n_modes + 1)[:2 * n_modes + 1]
        for kl in u2.all_classes():
            if kl.is_finite:
                con = ob.SymmetryConstraint(kl, n_modes)
                got = con.collocation(ts)
                want = _concatenated_collocation(con, ts)
                assert got.flags.c_contiguous, (str(kl), n_modes)
                assert got.shape == want.shape, (str(kl), n_modes)
                assert got.tobytes() == want.tobytes(), (str(kl), n_modes)


def test_collocation_holds_nothing_but_D(u2):
    # D is built in place, one mode at a time: nothing of D's size is held
    # besides D
    con = ob.SymmetryConstraint(u2.parse_class("(D3^Z1 x_D3 D3)"), 64)
    ts = ob._collocation_times(257)[:129]
    tracemalloc.start()
    try:
        D = con.collocation(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < D.nbytes + 2 ** 19


# the default families whose mode-0 fixed space holds a translation
TRANSLATING = ["(D3^Z1 x_D3 D3)", "(D3 x D1)", "(D2^D1 x_Z2 D2)"]


@pytest.mark.parametrize("name", TRANSLATING)
def test_mode_zero_basis_is_free_of_translation(u2, eq, name):
    # the rule of mode 0 holds in every mode: no basis vector moves the
    # centre of mass
    klass = u2.parse_class(name)
    t = translation_basis()
    # the class does fix a translation: its spatial average keeps one
    spatial = np.mean([action_matrix(list(perm))
                       for perm, _, _ in klass.elements()], axis=0)
    assert np.linalg.matrix_rank(t @ spatial @ t.T, tol=1e-9) >= 1
    con = ob.SymmetryConstraint(klass, n_modes=4)
    assert np.max(np.abs(t @ con.bases[0])) < 1e-14
    t2 = np.kron(np.eye(2), t)
    for m in range(1, 5):
        assert np.max(np.abs(t2 @ con.bases[m]), initial=0.0) < 1e-14, m
    # the centred equilibrium survives the round trip unchanged
    u_o = eq.u_o.reshape(12)
    orbit = ob.FourierOrbit(np.vstack([u_o, np.zeros((4, 12))]),
                            np.zeros((5, 12)), 1.0)
    back = con.unpack(con.pack(orbit), 1.0)
    assert np.max(np.abs(back.cos_coeffs - orbit.cos_coeffs)) < 1e-14
    assert np.max(np.abs(back.sin_coeffs)) == 0.0


def test_newton_system_size_at_64_modes(u2, eq):
    # one translation fewer in each of the 64 modes m >= 1 than the fixed
    # space holds (258 coordinates); the class's time action is D3, so the
    # 257 collocation times round up to N = 258 = 3 * 86, and the
    # fundamental domain [0, pi/3] holds 86 // 2 + 1 = 44 of them:
    # 12 * 44 collocation rows, the amplitude row and three gauge rows
    con = ob.SymmetryConstraint(u2.parse_class("(D3^Z1 x_D3 D3)"), 64)
    assert con.modes.size == 194
    system = ob._NewtonSystem(BOND, con, eq, 1.0 / math.sqrt(eq.mu[1]))
    assert system.n_points == 258
    assert (system.n_c + 4, system.n_red + 1) == (532, 195)
    # the normal equations are 195 x 195, summed over blocks of 17 points,
    # the fewest whose 204 rows outnumber the 195 columns: three blocks, of
    # 17, 17 and 10 points
    x = system.x0 + 1e-3 * con.pack(_random_orbit(64))
    f, u, g = system.residual(x, 0.5, 0.0)
    gram, rhs = system.normal_equations(x, 0.5, u, g, f)
    assert gram.shape == (195, 195) and rhs.shape == (195,)
    assert system.block == 17 and system.buf.shape == (12 * 17, 195)
    assert (-(-44 // system.block), 44 % system.block) == (3, 10)


def _tail_rows(system, x):
    """The amplitude row and the three gauge rows of J S at x."""
    tail = np.zeros((4, system.n_red + 1))
    tail[0, :-1] = system.h1 * (x - system.x0) / system.amplitude(x)
    tail[1:] = system.gauge
    return tail * system.col_scale


def _full_grid_system(system, con, x, lam, target):
    """(J S, F) of all N = system.n_points collocation rows, each weighted
    by 1/sqrt(N), assembled here from the Fourier loop, and the RMS size of
    the loop's acceleration; the amplitude and gauge rows are the system's
    own."""
    f_half = system.residual(x, lam, target)[0]
    n_points = system.n_points
    ts = ob._collocation_times(n_points)
    orbit = con.unpack(x, lam)
    u = orbit.evaluate(ts).reshape(-1, 4, 3)
    g = gradient(BOND, u).reshape(-1, 12)
    D = con.collocation(ts)
    w = 1.0 / math.sqrt(n_points)
    msq = con.modes ** 2.0
    jac_c = w * (lam ** 2 * np.matmul(hessian(BOND, u), D) - D * msq)
    lam_col = (w * 2.0 * lam * g).reshape(-1, 1)
    jac = np.vstack([np.hstack([jac_c.reshape(-1, msq.size), lam_col])
                     * system.col_scale, _tail_rows(system, x)])
    acc = orbit.acceleration(ts)
    f = np.concatenate([w * (acc + lam ** 2 * g).ravel(),
                        f_half[system.n_c:]])
    return jac, f, w * float(np.linalg.norm(acc))


def _full_grid_gaps(system, con, x, lam):
    """How far J^T J, J^T F and the collocation norm of the system lie from
    those of all system.n_points rows at (x, lam), with the amplitude row
    at zero, relative to their size.  The residual is a near-cancellation
    of u'' and lam^2 grad V, and rounding differs between images of one
    time, so what is built from F is measured relative to the size of
    u''."""
    target = system.amplitude(x)
    f, u, g = system.residual(x, lam, target)
    gram_half, rhs_half = system.normal_equations(x, lam, u, g, f)
    a_full, f_full, scale = _full_grid_system(system, con, x, lam, target)
    gram = a_full.T @ a_full
    return (np.linalg.norm(gram_half - gram) / np.linalg.norm(gram),
            np.linalg.norm(rhs_half - a_full.T @ f_full)
            / (np.linalg.norm(a_full) * scale),
            abs(np.linalg.norm(f[:system.n_c])
                - np.linalg.norm(f_full[:-4])) / scale)


def _seed(system, con, fam, eq):
    """The branch's first corrector guess and its lam0."""
    kernel = ob._kernel_direction(con, fam.j, fam.l)
    kc = np.zeros((con.n_modes + 1, 12))
    ks = np.zeros((con.n_modes + 1, 12))
    kc[fam.l], ks[fam.l] = kernel[:12], kernel[12:]
    lam0 = _lam0(fam, eq)
    return system.x0 + 1e-3 * con.pack(ob.FourierOrbit(kc, ks, lam0)), lam0


def test_half_grid_matches_full_grid(eq):
    # J^T J, J^T F and the collocation norm of the fundamental domain
    # [0, pi/s] of each default family's time action D_s equal those of all
    # N rows of the system's own grid, N = 4 n_modes + 1 = 65 rounded up to
    # a multiple s*M of s: at the seed of each family and at its last
    # converged point (measured: 4.5e-13 at most, relative to the size of
    # u'', on the collocation norm at the seed of (D3^Z1 x_D3 D3)).  Both an
    # odd M and an even M, where t = pi/s is its own mirror, occur with
    # s > 1; with s = 1, where the domain is the half grid, M = 65.
    families = independent_families(invariants(eq.mu, 2))
    assert len(families) == 7
    grids = set()
    for fam in families:
        con = ob.SymmetryConstraint(fam.klass, 16)
        system = ob._NewtonSystem(BOND, con, eq, _lam0(fam, eq))
        s = fam.klass.K_order
        m = system.n_points // s
        assert system.n_points == s * m < 65 + s
        assert system.n_c == 12 * (m // 2 + 1)
        grids.add((s > 1, m % 2))
        seed, lam0 = _seed(system, con, fam, eq)
        branch = ob.continue_branch(BOND, fam.klass, fam.j, fam.l,
                                    n_modes=16)
        for x, lam in ((seed, lam0), (con.pack(branch.orbit),
                                      branch.final_lam)):
            assert max(_full_grid_gaps(system, con, x, lam)) < 1e-12, (
                fam.klass.printed_form())
    assert grids == {(False, 1), (True, 0), (True, 1)}


class _ForcedOrder:
    """A class that claims a time action D_order in place of its own."""

    def __init__(self, klass, order):
        self.klass, self.K_order = klass, order

    def __getattr__(self, name):
        return getattr(self.klass, name)


def test_fundamental_domain_of_a_larger_shift_group_misses_the_sums(eq):
    # negative control: a domain [0, pi/2s] that assumes a shift by 1/2s of
    # a turn, which the class lacks, gets J^T J wrong, while the class's own
    # domain [0, pi/s] gets it right
    fams = {f.klass.printed_form(): f for f in independent_families(
        invariants(eq.mu, 2))}
    for name in ("(D3^Z1 x_D3 D3)", "(D4^D2 x_Z2 D2)"):
        fam = fams[name]
        con = ob.SymmetryConstraint(fam.klass, 16)
        system = ob._NewtonSystem(BOND, con, eq, _lam0(fam, eq))
        x, lam = _seed(system, con, fam, eq)
        assert max(_full_grid_gaps(system, con, x, lam)) < 1e-12, name
        con.klass = _ForcedOrder(fam.klass, 2 * fam.klass.K_order)
        wrong = ob._NewtonSystem(BOND, con, eq, lam)
        # measured: 0.58 and 0.46
        assert _full_grid_gaps(wrong, con, x, lam)[0] > 0.1, name


def test_time_reversible_family_keeps_the_half_grid(eq):
    # with s = 1 the fundamental domain is the half grid: D and the row
    # weights are those of k = 0..N//2 on the N = 65 grid, bit for bit, on
    # both such default families
    families = [f for f in independent_families(
        invariants(eq.mu, 2)) if f.klass.K_order == 1]
    assert {f.klass.printed_form() for f in families} == {
        "(S4 x D1)", "(D3 x D1)"}
    for fam in families:
        con = ob.SymmetryConstraint(fam.klass, 16)
        name = fam.klass.printed_form()
        system = ob._NewtonSystem(BOND, con, eq, _lam0(fam, eq))
        k = np.arange(65 // 2 + 1)
        weight = np.sqrt(np.where(2 * k % 65 == 0, 1.0, 2.0) / 65)[:, None]
        D = con.collocation(ob._collocation_times(65)[k])
        assert system.n_points == 65
        assert system.weight.tobytes() == weight.tobytes(), name
        assert system.weight.shape == weight.shape, name
        assert system.D.tobytes() == D.tobytes(), name
        assert system.D.strides == D.strides, name


def _whole_array_jacobian(system, x, lam, u, g):
    """J S from the whole-array formula: every collocation row in one
    product, plus the weighted acceleration block D * -(w m^2) formed whole,
    then the lambda column and the scale, and the scaled amplitude and gauge
    rows."""
    n_c, n_red = system.n_c, system.n_red
    jac = np.zeros((n_c + 4, n_red + 1))
    jac_c = jac[:n_c].reshape(-1, 12, n_red + 1)[:, :, :n_red]
    np.matmul((lam ** 2 * system.weight)[:, :, None] * hessian(BOND, u),
              system.D, out=jac_c)
    jac_c += system.D * -(system.weight[:, :, None] * system.msq)
    jac[:n_c, n_red] = (2.0 * lam * system.weight * g).ravel()
    np.multiply(jac[:n_c], system.col_scale, out=jac[:n_c])
    jac[n_c:] = _tail_rows(system, x)
    return jac


def _assert_block_sums_exact(system, lam, name):
    """J^T J and J^T F, the tail rows' product plus the row blocks', against
    the products of the whole-array Jacobian: bitwise equal to the tail's
    product plus the collocation rows' when one block covers the system,
    and to 1e-14 relative otherwise (measured: 1.8e-15 at most).  The rows
    the buffer holds at the end, the last block's, are those of the whole
    array, bitwise."""
    # two points in turn on one system: at the second, the buffer already
    # holds the first point's values
    n_c = system.n_c
    n_half = n_c // 12
    last = 12 * (n_half - (n_half - 1) // system.block * system.block)
    rng = np.random.default_rng(7)
    for _ in range(2):
        x = system.x0 + 1e-2 * rng.standard_normal(system.n_red)
        f, u, g = system.residual(x, lam, 0.0)
        want = _whole_array_jacobian(system, x, lam, u, g)
        gram, rhs = system.normal_equations(x, lam, u, g, f)
        assert np.array_equal(system.buf[:last], want[n_c - last:n_c]), name
        if system.block >= n_half:
            coll, tail = want[:n_c], want[n_c:]
            assert np.array_equal(gram, tail.T @ tail + coll.T @ coll), name
            assert np.array_equal(
                rhs, tail.T @ f[n_c:] + coll.T @ f[:n_c]), name
        else:
            for got, exact in ((gram, want.T @ want), (rhs, want.T @ f)):
                assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(
                    np.abs(exact)), name


@pytest.mark.parametrize("one_byte_budget", [False, True])
def test_block_jacobian_equals_the_whole_array_formula(eq, monkeypatch,
                                                       one_byte_budget):
    # every family of the default report at n_modes 16, where the default
    # budget makes the collocation rows one block, and with a budget of one
    # byte, which leaves blocks of the fewest points whose rows outnumber
    # the columns
    if one_byte_budget:
        monkeypatch.setattr(ob, "JACOBIAN_BLOCK_BYTES", 1)
    families = independent_families(invariants(eq.mu, 2))
    assert len(families) == 7
    for fam in families:
        con = ob.SymmetryConstraint(fam.klass, 16)
        system = ob._NewtonSystem(BOND, con, eq, _lam0(fam, eq))
        # the fundamental domain of D_s on N = s*M of the 65 times
        # holds M // 2 + 1 points: 33, 17, 12 and 9 points at s = 1 to 4
        n_half = system.n_points // fam.klass.K_order // 2 + 1
        assert system.n_c // 12 == n_half == {1: 33, 2: 17, 3: 12, 4: 9}[
            fam.klass.K_order]
        if one_byte_budget:
            assert system.block == -(-(system.n_red + 1) // 12) < n_half
        else:
            assert system.block == n_half
            assert system.buf.shape == (system.n_c, system.n_red + 1)
        _assert_block_sums_exact(system, _lam0(fam, eq),
                                 fam.klass.printed_form())


def test_block_jacobian_is_exact_with_a_short_last_block(u2, eq):
    con = ob.SymmetryConstraint(u2.parse_class("(D3^Z1 x_D3 D3)"), 64)
    lam0 = 1.0 / math.sqrt(eq.mu[1])
    system = ob._NewtonSystem(BOND, con, eq, lam0)
    n_half = system.n_c // 12
    assert system.block < n_half and n_half % system.block
    _assert_block_sums_exact(system, lam0, "(D3^Z1 x_D3 D3)")


def test_newton_system_holds_only_D_and_the_jacobian(u2, eq):
    # at n_modes 64 the collocation matrix D of the 44 points of the
    # fundamental domain is 0.8 MB, as the whole Jacobian would be; the
    # system holds nothing else of their size, only the 0.3 MB buffer of
    # one row block, and the normal equations build with no temporary of
    # their size
    con = ob.SymmetryConstraint(u2.parse_class("(D3^Z1 x_D3 D3)"), 64)
    lam = 1.0 / math.sqrt(eq.mu[1])
    tracemalloc.start()
    try:
        system = ob._NewtonSystem(BOND, con, eq, lam)
        held = tracemalloc.get_traced_memory()[0]
        x = system.x0 + 1e-2 * np.random.default_rng(0).standard_normal(
            system.n_red)
        f, u, g = system.residual(x, lam, 0.0)
        # measured from here: the generator's first use holds 0.8 MB
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        system.normal_equations(x, lam, u, g, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < system.D.nbytes + 2 ** 19
    assert peak < before + 2 ** 20


def test_every_reflecting_class_reflects_time_at_angle_zero():
    # the fundamental domain rests on a time reflection at angle 0; no
    # finite class of the universes at l_max 2 and 4 lacks one
    for l_max, count in ((2, 206), (4, 312)):
        reflecting = _finite_classes(l_max)
        assert len(reflecting) == count
        for c in reflecting:
            assert any(kind == "refl" and angle == 0
                       for _, kind, angle in c.elements()), c.printed_form()


def test_every_finite_class_shifts_time_by_each_k_over_s():
    # the fundamental domain [0, pi/s] rests on the class's time action
    # being D_s, s = K_order: its shifts are exactly the k/s of a turn, and
    # its reflections sit at those same angles
    for l_max in (2, 4):
        for c in bu.Universe.for_l_max(l_max).classes:
            if c.is_finite:
                turns = {Fraction(k, c.K_order) for k in range(c.K_order)}
                for kind in ("rot", "refl"):
                    assert {angle for _, k, angle in c.elements()
                            if k == kind} == turns, c.printed_form()


class _ShiftedReflections:
    """A finite class conjugated by a quarter-period time shift: every
    reflection of time moves from axis parameter a to a + 1/2, so the class
    keeps a time reflection but none at angle 0."""

    is_finite = True

    def __init__(self, klass):
        self.klass = klass
        # a conjugate of klass, so the universe's class of klass
        self.universe, self.index = klass.universe, klass.index

    def elements(self):
        return [(perm, kind, angle + Fraction(1, 2) if kind == "refl"
                 else angle) for perm, kind, angle in self.klass.elements()]

    def printed_form(self):
        return "shifted " + self.klass.printed_form()


def test_reflection_off_angle_zero_is_an_internal_error(breathing_class,
                                                        monkeypatch, capsys):
    stub = _ShiftedReflections(breathing_class)
    # still a group: the constraint's averages are projectors
    ob.SymmetryConstraint(stub, n_modes=4)
    with pytest.raises(bu.InternalError, match="none at angle 0"):
        ob.continue_branch(BOND, stub, 0, 1, n_modes=4)
    monkeypatch.setattr(bu.Universe, "parse_class", lambda self, name: stub)
    code = cli.main(["branch", "--class", "stub", "--j", "0", "--l", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal consistency failure: class "
                                   "shifted (S4 x D1) has a time reflection")


class _DroppedElement(_ShiftedReflections):
    """A finite class without its last element: no longer a group, so the
    averages over its elements are no projectors."""

    def elements(self):
        return self.klass.elements()[:-1]


def test_average_over_a_non_group_is_an_internal_error(u2, monkeypatch,
                                                       capsys):
    stub = _DroppedElement(u2.parse_class("(D3 x D1)"))
    with pytest.raises(ArithmeticError,
                       match="symmetry averaging did not yield a projector"):
        ob.SymmetryConstraint(stub, n_modes=4)
    monkeypatch.setattr(bu.Universe, "parse_class", lambda self, name: stub)
    code = cli.main(["branch", "--class", "stub", "--j", "1", "--l", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal consistency failure: symmetry "
                            "averaging did not yield a projector\n")


def test_scaled_jacobian_has_full_column_rank(monkeypatch):
    # every Newton system of every default family at n_modes = 16: the
    # column-scaled Jacobian keeps its smallest singular value, the square
    # root of the normal matrix's smallest eigenvalue, well clear of zero
    # (largest measured condition number 7.1e3, on (S4^V4 x_D3 D3), with
    # lambda's column scaled by lam0).  A screened term is added because
    # the bare bond potential makes the breathing branch exactly harmonic,
    # so that family would take no Newton step at all.
    potential = PairPotential(bond_weight=1.0, sigma=0.05)
    eq = find_equilibrium(potential)
    seen = []
    solve = ob._normal_solve

    def spy(gram, rhs):
        seen.append(np.linalg.eigvalsh(gram))
        return solve(gram, rhs)

    monkeypatch.setattr(ob, "_normal_solve", spy)
    families = independent_families(invariants(eq.mu, 2))
    assert len(families) == 7
    for fam in families:
        del seen[:]
        ob.continue_branch(potential, fam.klass, fam.j, fam.l, n_modes=16)
        assert seen, fam.klass.printed_form()
        for ev in seen:
            assert ev[0] > 0.0 and math.sqrt(ev[-1] / ev[0]) < 1e5, (
                fam.klass.printed_form(), math.sqrt(ev[-1] / ev[0]))


_ONES = np.ones(6)
_NAN_AT_0 = np.where(np.arange(6) == 0, np.nan, 1.0)


@pytest.mark.parametrize("a, b, trusted", [
    (np.outer(np.arange(1.0, 7.0), [1.0, 2.0, 3.0]), _ONES, False),  # rank 1
    (np.hstack([np.eye(6)[:, :3], np.eye(6)[:, :1]]), _ONES, False),  # twice
    (np.diag([1.0, 1e-8, 1.0, 1.0, 1.0, 1.0])[:, :3], _ONES, False),
    (np.full((6, 3), np.nan), _ONES, False),
    (np.eye(6)[:, :3], _NAN_AT_0, True),    # well posed, but no finite step
])
def test_normal_solve_reports_failure(a, b, trusted):
    z, cond = ob._normal_solve(a.T @ a, a.T @ b)
    assert z is None
    assert (cond <= ob.MAX_CONDITION) == trusted


def test_normal_solve_matches_least_squares():
    # the second case has as many unknowns as 256 modes: 13 blocks
    rng = np.random.default_rng(3)
    for rows, cols in ((40, 6), (1542, 771)):
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal(rows)
        z, cond = ob._normal_solve(a.T @ a, a.T @ b)
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.max(np.abs(z - want)) < 1e-12
        assert 1.0 <= cond < 10.0


def _cholesky_factor(n, seed):
    a = np.random.default_rng(seed).standard_normal((2 * n, n))
    return np.linalg.cholesky(a.T @ a)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 195, 771])
@pytest.mark.parametrize("lower", [True, False])
def test_triangular_solve_matches_a_general_solve(n, lower):
    # 65, 195 and 771 end in a partial block of 1, 3 and 3 rows
    chol = _cholesky_factor(n, n)
    t = chol if lower else chol.T
    b = np.random.default_rng(n + 1).standard_normal(n)
    z = ob._triangular_solve(t, b, lower)
    want = np.linalg.solve(t, b)
    assert np.max(np.abs(z - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 18, 51, 64])
@pytest.mark.parametrize("lower", [True, False])
def test_triangular_solve_in_one_block_is_one_general_solve(n, lower):
    # up to SOLVE_BLOCK unknowns, every default family among them, the
    # substitution is the single np.linalg.solve, bit for bit
    assert n <= ob.SOLVE_BLOCK
    chol = _cholesky_factor(n, n)
    t = chol if lower else chol.T
    b = np.random.default_rng(n + 1).standard_normal(n)
    assert (ob._triangular_solve(t, b, lower).tobytes()
            == np.linalg.solve(t, b).tobytes())


def test_convergence_error_carries_diagnostics(wave_class):
    # two modes cannot carry the wave far: its truncation floor meets
    # newton_tol near amplitude 0.0012
    with pytest.raises(ConvergenceError) as info:
        ob.continue_branch(BOND, wave_class, 1, 1, n_modes=2)
    d = info.value.diagnostics
    assert set(d) == {"class", "target", "step", "smallest_residual",
                      "newton_tol", "condition"}
    assert d["class"] == wave_class.printed_form()
    assert d["newton_tol"] == 1e-11
    assert d["newton_tol"] < d["smallest_residual"] < 2e-11
    assert 0.001 < d["target"] < 0.002
    assert 1.0 <= d["condition"] <= ob.MAX_CONDITION
    assert str(info.value) == (
        "corrector failed repeatedly on class %s at target amplitude %g "
        "(step %g): smallest collocation residual %.3e against newton_tol %g"
        % (d["class"], d["target"], d["step"], d["smallest_residual"],
           d["newton_tol"]))


def test_each_newton_step_evaluates_one_residual(monkeypatch, wave_class):
    # a Newton step that does not lower |F| fails the corrector call whole,
    # with no shorter trial step: a residual (one gradient call) for each
    # seed and one for each step taken.  An uphill solve makes every step
    # fail, so the branch ends in repeated failures
    calls = {"predict": 0, "step": 0, "gradient": 0}
    predict, solve, grad = ob._predict, ob._normal_solve, ob.gradient

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def uphill(gram, rhs):
        z, cond = solve(gram, rhs)
        calls["step"] += z is not None
        return (None if z is None else -z), cond

    monkeypatch.setattr(ob, "_predict", counted("predict", predict))
    monkeypatch.setattr(ob, "gradient", counted("gradient", grad))
    monkeypatch.setattr(ob, "_normal_solve", uphill)
    with pytest.raises(ConvergenceError, match="corrector failed repeatedly"):
        ob.continue_branch(BOND, wave_class, 1, 1, n_modes=8)
    assert calls["gradient"] == calls["predict"] + calls["step"]
    assert (calls["predict"], calls["step"]) == (16, 13)


def test_step_budget_error_names_the_last_target_tried(breathing_class):
    # three steps converge at 0.001, 0.006 and 0.011; the error names the
    # last of them, not the 0.016 that was never tried
    with pytest.raises(ConvergenceError) as info:
        ob.continue_branch(BOND, breathing_class, 0, 1, steps=3)
    d = info.value.diagnostics
    assert d["target"] == pytest.approx(0.011, abs=1e-15)
    assert d["step"] == 0.005
    assert "at target amplitude 0.011 (step 0.005)" in str(info.value)


def test_constraint_rejects_continuous_class(u2):
    with pytest.raises(UsageError):
        ob.SymmetryConstraint(u2.unit, n_modes=4)


def _kernel_residual(eq, con, j, eps):
    assert con.klass.universe.fixed_point_dim(j, 1, con.klass) == 1
    kernel = ob._kernel_direction(con, j, 1)
    lam0 = 1.0 / math.sqrt(eq.mu[j])
    cos = np.zeros((con.n_modes + 1, 12))
    sin = np.zeros((con.n_modes + 1, 12))
    cos[0] = eq.u_o.reshape(12)
    cos[1], sin[1] = eps * kernel[:12], eps * kernel[12:]
    return ob.residual(ob.FourierOrbit(cos, sin, lam0), BOND,
                       4 * con.n_modes + 1)


def test_kernel_direction_linearizes_the_flow(eq, wave_class):
    con = ob.SymmetryConstraint(wave_class, n_modes=4)
    big = _kernel_residual(eq, con, 1, 1e-2)
    small = _kernel_residual(eq, con, 1, 1e-4)
    # the linear part cancels exactly, so the residual is quadratic in eps
    assert big > 1e-8
    assert small < 3e-4 * big


def test_bond_breathing_ray_is_exactly_harmonic(eq, breathing_class):
    # the bond energy is quadratic in the pair distances, and distances are
    # linear along the breathing ray: the kernel loop solves the full
    # nonlinear equation at any amplitude, not just to second order
    con = ob.SymmetryConstraint(breathing_class, n_modes=4)
    assert _kernel_residual(eq, con, 0, 1e-2) < 1e-13


# ---------------------------------------------------------------------------
# continuation: the predictor

@pytest.mark.parametrize("targets", [
    [0.001],                            # one point: through the equilibrium
    [0.001, 0.006],                     # the equilibrium and two points
    [0.001, 0.006, 0.011, 0.0135],      # the last three, after a halving
    [0.002, 0.0025, 0.0045]])           # three points, uneven
def test_predict_is_exact_on_a_quadratic_branch(targets):
    # a branch x(t) = x0 + t kdir + t^2 w, lam(t) = lam0 + c t^2 is
    # extrapolated to round-off from any history, evenly spaced or not
    rng = np.random.default_rng(7)
    x0, kdir, w = rng.standard_normal((3, 9))
    lam0, c = 0.5, -0.7

    def branch(t):
        return x0 + t * kdir + t * t * w, lam0 + c * t * t

    history = [(t, *branch(t)) for t in targets]
    for target in (targets[-1] + 0.0025, targets[-1] + 0.005):
        x, lam = ob._predict(history, target, x0, kdir, lam0)
        want_x, want_lam = branch(target)
        np.testing.assert_allclose(x, want_x, rtol=0.0, atol=1e-14)
        assert lam == pytest.approx(want_lam, rel=0.0, abs=1e-15)


def test_predict_without_history_is_the_kernel_line():
    x0, kdir = np.arange(4.0), np.ones(4)
    x, lam = ob._predict([], 0.25, x0, kdir, 0.5)
    assert np.array_equal(x, x0 + 0.25 * kdir) and lam == 0.5


@pytest.mark.parametrize("name, j, l, n_modes", [
    *((name, j, l, 16) for name, j, l, *_ in BRANCHES),
    ("(D3^Z1 x_D3 D3)", 1, 1, 64)])
def test_one_newton_step_per_branch_point(monkeypatch, u2, name, j, l,
                                          n_modes):
    # the quadratic seed is off by O(h^3), so every point of the default
    # families and of the 64-mode branch converges in at most one Newton
    # step, one hessian call
    calls = []

    def counting(*args):
        calls.append(None)
        return hessian(*args)
    monkeypatch.setattr(ob, "hessian", counting)
    branch = ob.continue_branch(BOND, u2.parse_class(name), j, l,
                                n_modes=n_modes)
    assert len(branch.points) == 11
    assert len(calls) <= len(branch.points)


# ---------------------------------------------------------------------------
# continuation: the breathing brake orbit

def test_breathing_branch_reaches_target(breathing_branch):
    b = breathing_branch
    assert b.final_amplitude >= 0.05
    assert all(p.residual < 1e-9 for p in b.points)
    assert all(max(ob.verify_predicates(p.orbit, b.klass)) < 1e-8
               for p in b.points)


def test_breathing_branch_conserves_energy(breathing_branch):
    _, spread = ob.energy_profile(breathing_branch.orbit, BOND)
    assert spread < 1e-8


def test_breathing_orbit_stays_tetrahedral(breathing_branch):
    ts = np.linspace(0.0, 2.0 * math.pi, 17)
    pos = breathing_branch.orbit.evaluate(ts).reshape(-1, 4, 3)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for frame in pos:
        d = np.array([np.linalg.norm(frame[a] - frame[b]) for a, b in pairs])
        assert np.ptp(d) < 1e-9 * d.mean()


def test_breathing_orbit_brakes_twice_per_period(breathing_branch):
    orbit = breathing_branch.orbit
    ts = np.linspace(0.0, 2.0 * math.pi, 65)
    vmax = float(np.max(np.linalg.norm(orbit.velocity(ts), axis=1)))
    assert np.linalg.norm(orbit.velocity(0.0)) < 1e-8 * vmax
    assert np.linalg.norm(orbit.velocity(math.pi)) < 1e-8 * vmax


def test_breathing_frequency_extrapolates_to_critical(eq, breathing_branch):
    lam0 = 1.0 / math.sqrt(eq.mu[0])
    assert ob.frequency_extrapolation(breathing_branch) == pytest.approx(
        lam0, abs=1e-4)


def test_branch_amplitudes_increase(breathing_branch):
    amps = [p.amplitude for p in breathing_branch.points]
    assert all(a < b for a, b in zip(amps, amps[1:]))


# ---------------------------------------------------------------------------
# continuation: the discrete rotating wave

def test_wave_branch_reaches_target(wave_branch):
    b = wave_branch
    assert b.final_amplitude >= 0.05
    assert all(p.residual < 1e-9 for p in b.points)
    assert all(max(ob.verify_predicates(p.orbit, b.klass)) < 1e-8
               for p in b.points)


def test_wave_is_not_a_brake_orbit(wave_branch):
    orbit = wave_branch.orbit
    ts = np.linspace(0.0, 2.0 * math.pi, 129)
    speeds = np.linalg.norm(orbit.velocity(ts), axis=1)
    assert float(speeds.min()) > 1e-3 * float(speeds.max())


def test_wave_particles_share_one_delayed_trajectory(wave_branch):
    perm, _, angle = next(e for e in wave_branch.klass.elements()
                          if e[1] == "rot" and e[2].denominator == 3)
    axis = next(i for i in range(4) if perm[i] == i)
    ts = np.linspace(0.0, 2.0 * math.pi, 33)
    tau = 2.0 * math.pi * float(angle)
    v_now = wave_branch.orbit.velocity(ts).reshape(-1, 4, 3)
    v_later = wave_branch.orbit.velocity(ts + tau).reshape(-1, 4, 3)
    # u_i(t) = A u_{perm^-1(i)}(t + tau) with A orthogonal, so the speed
    # profile of each moving particle is a time-shifted copy of the next
    for i in range(4):
        if i == axis:
            continue
        src = perm.index(i)
        a = np.linalg.norm(v_now[:, i, :], axis=1)
        b = np.linalg.norm(v_later[:, src, :], axis=1)
        assert np.max(np.abs(a - b)) < 1e-9


def test_wave_frequency_extrapolates_to_critical(eq, wave_branch):
    lam0 = 1.0 / math.sqrt(eq.mu[1])
    assert ob.frequency_extrapolation(wave_branch) == pytest.approx(
        lam0, abs=1e-4)


# ---------------------------------------------------------------------------
# truncation quality

def test_breathing_branch_is_spectrally_converged(breathing_class,
                                                  breathing_branch):
    orbit = breathing_branch.orbit
    head = float(np.max(np.abs(orbit.cos_coeffs[1])))
    tail = float(np.max(np.abs(orbit.cos_coeffs[7:])))
    assert tail < 1e-8 * head
    # residual sampled off the collocation grid stays small
    assert ob.residual(orbit, BOND, n_points=129) < 1e-8
    fine = ob.continue_branch(BOND, breathing_class, 0, 1, n_modes=16)
    assert ob.frequency_extrapolation(fine) == pytest.approx(
        ob.frequency_extrapolation(breathing_branch), abs=1e-8)


# ---------------------------------------------------------------------------
# input validation

def test_continue_branch_rejects_bad_modes(breathing_class):
    with pytest.raises(UsageError):
        ob.continue_branch(BOND, breathing_class, 5, 1, n_modes=4)
    with pytest.raises(UsageError):
        ob.continue_branch(BOND, breathing_class, 0, 0, n_modes=4)
    with pytest.raises(UsageError, match="steps must be at least 1"):
        ob.continue_branch(BOND, breathing_class, 0, 1, n_modes=4, steps=0)
    # the breathing class fixes nothing in the j = 1 isotypic component
    with pytest.raises(UsageError, match=r"no fixed directions in the "
                                         r"\(1, 1\) critical mode"):
        ob.continue_branch(BOND, breathing_class, 1, 1, n_modes=4)


def _built(*args, **kwargs):
    raise AssertionError("the branch's equilibrium or constraint was built")


@pytest.mark.parametrize("setting, message", [
    ({"target_amplitude": math.nan},
     "target_amplitude must be positive and finite"),
    ({"step_size": 0.0}, "step_size must be positive and finite"),
    ({"target_amplitude": -1.0},
     "target_amplitude must be positive and finite"),
    ({"newton_tol": math.inf}, "newton_tol must be positive and finite"),
    ({"n_modes": 257}, "n_modes must be at most 256"),
], ids=["target-nan", "step-0", "target-negative", "tol-inf", "modes-257"])
def test_continue_branch_checks_the_cli_settings(monkeypatch, wave_class,
                                                 setting, message):
    # the library refuses what RunConfig refuses, before anything is built,
    # instead of ending in a ConvergenceError, returning points that no
    # Newton step touched or building arrays above the mode cap
    assert ob.MAX_N_MODES == 256
    monkeypatch.setattr(ob, "find_equilibrium", _built)
    monkeypatch.setattr(ob, "SymmetryConstraint", _built)
    with pytest.raises(UsageError) as info:
        ob.continue_branch(BOND, wave_class, 1, 1, **setting)
    assert str(info.value) == message


def test_continue_branch_requires_a_time_reflection(u2):
    # every finite class of the universe projects onto a dihedral group, so
    # it holds a time reflection and one at angle 0 for the half
    # collocation grid; G keeps its own message
    for kl in u2.classes:
        if kl.is_finite:
            assert any(kind == "refl" and angle == 0
                       for _, kind, angle in kl.elements()), str(kl)
    continuous = u2.parse_class("(S4 x O2)")
    with pytest.raises(UsageError, match="continuous symmetry classes"):
        ob.continue_branch(BOND, continuous, 0, 1, n_modes=4)


def test_census_of_branch_requests_at_l_max_2(u2, eq):
    # every request with a one-dimensional fixed space: a finite class, j at
    # most 2 and l in {1, 2}.  Each ends in a branch or in one of the two
    # named errors, and where the whole critical number leaves the class one
    # dimension, d(H) = 1, the Lyapunov centre theorem inside Fix(H) gives a
    # family, so the continuation must reach it
    crit = {jl: c for c in critical_set(eq.mu, 4) for jl in c.contributors}
    requests = [(kl, j, l) for kl in u2.classes if kl.is_finite
                for j in range(3) for l in (1, 2)
                if u2.fixed_point_dim(j, l, kl) == 1]
    assert len(requests) == 191
    simple = []
    for kl, j, l in requests:
        d = sum(u2.fixed_point_dim(jj, ll, kl)
                for jj, ll in crit[j, l].contributors)
        try:
            got = ob.continue_branch(BOND, kl, j, l)
        except (UsageError, ConvergenceError) as exc:
            got = exc
        if d == 1:
            simple.append((str(kl), j, l, type(got).__name__))
    assert len(simple) == 122
    assert [r for r in simple if r[3] != "Branch"] == []
