import math

import numpy as np
import pytest

import tetravib.orbits as ob
from tetravib.bifurcation import UsageError, _universe, describe_symmetry
from tetravib.forcefield import PairPotential, find_equilibrium, gradient

BOND = PairPotential()


@pytest.fixture(scope="module")
def u2():
    return _universe(2)


@pytest.fixture(scope="module")
def eq():
    return find_equilibrium(BOND)


@pytest.fixture(scope="module")
def breathing_class(u2):
    return u2.find_class("S4", z_label="S4", l_label="Z1", k_order=1)


@pytest.fixture(scope="module")
def wave_class(u2):
    return u2.find_class("D3", z_label="Z1", l_label="D3", k_order=3)


@pytest.fixture(scope="module")
def breathing_branch(eq, breathing_class):
    return ob.continue_branch(BOND, breathing_class, 0, 1, n_modes=8,
                              equilibrium=eq)


@pytest.fixture(scope="module")
def wave_branch(eq, wave_class):
    return ob.continue_branch(BOND, wave_class, 1, 1, n_modes=8,
                              equilibrium=eq)


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
    assert ob.residual(orbit, BOND) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# symmetry constraints

def test_projection_is_idempotent_and_satisfies_predicates(breathing_class):
    con = ob.SymmetryConstraint(breathing_class, n_modes=4)
    orbit = _random_orbit(4, seed=3)
    once = con.project(orbit)
    twice = con.project(once)
    assert np.allclose(once.cos_coeffs, twice.cos_coeffs, atol=1e-14)
    assert np.allclose(once.sin_coeffs, twice.sin_coeffs, atol=1e-14)
    desc = describe_symmetry(breathing_class)
    assert max(ob.verify_predicates(once, desc)) < 1e-12


def test_wave_projection_satisfies_predicates(wave_class):
    con = ob.SymmetryConstraint(wave_class, n_modes=4)
    orbit = con.project(_random_orbit(4, seed=5))
    desc = describe_symmetry(wave_class)
    assert max(ob.verify_predicates(orbit, desc)) < 1e-12
    # a generic random loop does not satisfy them
    assert max(ob.verify_predicates(_random_orbit(4, seed=6), desc)) > 0.1


def test_brake_projection_kills_sine_coefficients(breathing_class):
    con = ob.SymmetryConstraint(breathing_class, n_modes=4)
    assert con.klass.brake and con.klass.has_time_reflection
    proj = con.project(_random_orbit(4, seed=9))
    assert np.max(np.abs(proj.sin_coeffs)) < 1e-13
    # the fixed subspace is the breathing direction in every mode
    assert con.fixed_dims() == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("which", ["breathing_class", "wave_class"])
def test_collocation_model_matches_fourier_loop(request, eq, which):
    # the corrector works on reduced points x alone: D @ x, D2 @ x and the
    # weighted norm of x - x_eq must be the loop, its acceleration and its
    # H^1 amplitude about the equilibrium
    con = ob.SymmetryConstraint(request.getfixturevalue(which), n_modes=4)
    ts = ob._collocation_times(17)
    D, D2 = con.collocation(ts)
    w = con.h1_weights()
    u_o = eq.u_o.reshape(12)
    x_eq = con.pack(ob.FourierOrbit(np.vstack([u_o, np.zeros((4, 12))]),
                                    np.zeros((5, 12)), 1.0))
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.standard_normal(D.shape[2])
        orbit = con.unpack(x, 1.0)
        assert np.max(np.abs(D @ x - orbit.evaluate(ts))) < 1e-13
        assert np.max(np.abs(D2 @ x - orbit.acceleration(ts))) < 1e-13
        assert math.sqrt(w @ (x - x_eq) ** 2) == pytest.approx(
            ob.amplitude(orbit, u_o), rel=1e-13)


def test_constraint_rejects_continuous_class(u2):
    with pytest.raises(UsageError):
        ob.SymmetryConstraint(u2.unit, n_modes=4)


def _kernel_residual(eq, con, j, eps):
    kernel, rank = ob._kernel_direction(con, j, 1)
    assert rank >= 1
    lam0 = 1.0 / math.sqrt(eq.mu[j])
    cos = np.zeros((con.n_modes + 1, 12))
    sin = np.zeros((con.n_modes + 1, 12))
    cos[0] = eq.u_o.reshape(12)
    cos[1], sin[1] = eps * kernel[:12], eps * kernel[12:]
    return ob.residual(ob.FourierOrbit(cos, sin, lam0), BOND)


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
# continuation: the breathing brake orbit

def test_breathing_branch_reaches_target(breathing_branch):
    b = breathing_branch
    assert b.final_amplitude >= 0.05
    assert all(p.residual < 1e-9 for p in b.points)
    assert all(max(p.predicate_residuals) < 1e-8 for p in b.points)


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
    assert all(max(p.predicate_residuals) < 1e-8 for p in b.points)


def test_wave_is_not_a_brake_orbit(wave_branch):
    orbit = wave_branch.orbit
    ts = np.linspace(0.0, 2.0 * math.pi, 129)
    speeds = np.linalg.norm(orbit.velocity(ts), axis=1)
    assert float(speeds.min()) > 1e-3 * float(speeds.max())


def test_wave_particles_share_one_delayed_trajectory(wave_branch):
    desc = wave_branch.description
    pred = next(p for p in desc.predicates
                if p.kind == "shift" and p.angle.denominator == 3)
    perm = pred.perm
    axis = next(i for i in range(4) if perm[i] == i)
    ts = np.linspace(0.0, 2.0 * math.pi, 33)
    tau = 2.0 * math.pi * float(pred.angle)
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

def test_breathing_branch_is_spectrally_converged(eq, breathing_class,
                                                  breathing_branch):
    orbit = breathing_branch.orbit
    head = float(np.max(np.abs(orbit.cos_coeffs[1])))
    tail = float(np.max(np.abs(orbit.cos_coeffs[7:])))
    assert tail < 1e-8 * head
    # residual sampled off the collocation grid stays small
    assert ob.residual(orbit, BOND, n_points=129) < 1e-8
    fine = ob.continue_branch(BOND, breathing_class, 0, 1, n_modes=16,
                              equilibrium=eq)
    assert ob.frequency_extrapolation(fine) == pytest.approx(
        ob.frequency_extrapolation(breathing_branch), abs=1e-8)


# ---------------------------------------------------------------------------
# input validation

def test_continue_branch_rejects_bad_modes(eq, breathing_class):
    with pytest.raises(UsageError):
        ob.continue_branch(BOND, breathing_class, 5, 1, n_modes=4,
                           equilibrium=eq)
    with pytest.raises(UsageError):
        ob.continue_branch(BOND, breathing_class, 0, 0, n_modes=4,
                           equilibrium=eq)
    # the breathing class fixes nothing in the j = 1 isotypic component
    with pytest.raises(UsageError):
        ob.continue_branch(BOND, breathing_class, 1, 1, n_modes=4,
                           equilibrium=eq)


def test_continue_branch_requires_a_time_reflection(u2, eq):
    rotations_only = u2.find_class("S4", kind="cyclic", l_label="Z1",
                                   k_order=1)
    with pytest.raises(UsageError):
        ob.continue_branch(BOND, rotations_only, 0, 1, n_modes=4,
                           equilibrium=eq)
