import math

import numpy as np
import pytest

from tetravib import forcefield as ff

RNG = np.random.default_rng(20260817)

# Frozen oracle values for the tetraphosphorus-like parameter set
# (bond_weight=1, A=2, B=1, sigma=0.05), tabulated beforehand by a dense
# 1-D scan plus bisection on phi'(r) at 50-digit precision.
P4_LIKE = ff.PairPotential(bond_weight=1.0, vdw_A=2.0, vdw_B=1.0, sigma=0.05)
P4_R_O = 0.6127885158424496
P4_S_O = 1.0013593737290456
P4_NU0_SQ = 73.07860068572824


def random_configs(n, spread=0.15):
    """Non-degenerate CoM-centred configurations near the unit tetrahedron."""
    out = []
    while len(out) < n:
        u = ff.TETRAHEDRON * RNG.uniform(0.9, 1.3) + spread * RNG.normal(size=(4, 3))
        u -= u.mean(axis=0)
        if min(np.linalg.norm(u[j] - u[k]) for j, k in ff.PAIRS) > 0.8:
            out.append(u)
    return out


def test_pair_potential_bond_only_values():
    p = ff.PairPotential(bond_weight=1.0)
    assert ff.pair_potential(p, 1.0)[0] == 0.0
    assert ff.pair_potential(p, 4.0)[0] == 1.0


def test_pair_potential_terms_cancel():
    p = ff.PairPotential(bond_weight=1.0, vdw_A=1.0, vdw_B=1.0)
    val, _, _ = ff.pair_potential(p, 1.0)
    assert val == 0.0


def test_pair_potential_domain_error():
    p = ff.PairPotential(bond_weight=1.0)
    with pytest.raises(ff.DomainError):
        ff.pair_potential(p, 0.0)
    with pytest.raises(ff.DomainError):
        ff.pair_potential(p, -1.0)


def test_degenerate_parameters_rejected():
    with pytest.raises(ff.DegenerateParameters):
        ff.PairPotential(bond_weight=0.0)
    with pytest.raises(ff.DegenerateParameters):
        ff.PairPotential(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ff.DegenerateParameters):
        ff.PairPotential()._replace(bond_weight=0.0)


def test_pair_potential_is_an_immutable_value():
    p = ff.PairPotential()
    assert p == ff.PairPotential(1.0, 0.0, 0.0, 0.0)
    assert hash(p) == hash(ff.PairPotential(1.0, 0.0, 0.0, 0.0))
    assert ff.PairPotential(sigma=0.5, bond_weight=0.0) == (0.0, 0.0, 0.0, 0.5)
    with pytest.raises(AttributeError):
        p.sigma = 1.0
    with pytest.raises(AttributeError):
        p.extra = 1.0


def test_pair_potential_derivatives_match_finite_differences():
    p = P4_LIKE
    h = 1e-6
    for x in (0.7, 1.0, 1.9, 3.5):
        u0, du, d2u = ff.pair_potential(p, x)
        up = ff.pair_potential(p, x + h)[0]
        um = ff.pair_potential(p, x - h)[0]
        assert abs((up - um) / (2 * h) - du) < 1e-5 * max(1.0, abs(du))
        assert abs((up - 2 * u0 + um) / h ** 2 - d2u) < 1e-3 * max(1.0, abs(d2u))


def test_total_potential_regular_tetrahedron():
    p = ff.PairPotential(bond_weight=1.0)
    for r in (0.5, 1.0, 2.0):
        expected = 6.0 * (math.sqrt(8.0 * r * r / 3.0) - 1.0) ** 2
        assert abs(ff.total_potential(p, r * ff.TETRAHEDRON) - expected) < 1e-12


def test_total_potential_invariances():
    from tetravib import grouprep as gr
    p = P4_LIKE
    u = random_configs(1)[0]
    v0 = ff.total_potential(p, u)
    # particle-permutation + rotation symmetry
    swap = (1, 0, 2, 3)
    assert abs(ff.total_potential(p, gr.act(swap, u)) - v0) < 1e-12 * max(1.0, abs(v0))
    # translation symmetry
    t = np.array([0.3, -1.2, 0.7])
    assert abs(ff.total_potential(p, u + t) - v0) < 1e-10 * max(1.0, abs(v0))


def test_gradient_vanishes_at_equilibrium():
    for p in (ff.PairPotential(bond_weight=1.0), P4_LIKE):
        eq = ff.find_equilibrium(p)
        assert np.linalg.norm(ff.gradient(p, eq.u_o)) < 1e-10 * max(1.0, eq.nu0_sq)


def test_gradient_matches_finite_differences():
    p = P4_LIKE
    h = 1e-6
    for u in random_configs(100):
        g = ff.gradient(p, u)
        fd = np.zeros_like(u)
        for j in range(4):
            for c in range(3):
                up, um = u.copy(), u.copy()
                up[j, c] += h
                um[j, c] -= h
                fd[j, c] = (ff.total_potential(p, up) - ff.total_potential(p, um)) / (2 * h)
        assert np.linalg.norm(fd - g) < 1e-6 * max(1.0, np.linalg.norm(g))


def test_hessian_matches_finite_differences():
    p = P4_LIKE
    h = 1e-6
    for u in random_configs(100):
        m = ff.hessian(p, u)
        fd = np.zeros((12, 12))
        for j in range(4):
            for c in range(3):
                up, um = u.copy(), u.copy()
                up[j, c] += h
                um[j, c] -= h
                fd[3 * j + c] = (ff.gradient(p, up) - ff.gradient(p, um)).reshape(12) / (2 * h)
        assert np.linalg.norm(fd - m) < 1e-5 * max(1.0, np.linalg.norm(m))


# The per-pair accumulation that the incidence matrix replaced, kept as the
# oracle of the differential tests below.
def _loop_geometry(u):
    j, k = zip(*ff.PAIRS)
    d = u[..., list(j), :] - u[..., list(k), :]
    return d, np.einsum("...pi,...pi->...p", d, d)


def _loop_gradient(p, u):
    d, x = _loop_geometry(u)
    _, du, _ = ff.pair_potential(p, x)
    g = np.zeros_like(u)
    for idx, (j, k) in enumerate(ff.PAIRS):
        f = 2.0 * du[..., idx, None] * d[..., idx, :]
        g[..., j, :] += f
        g[..., k, :] -= f
    return g


def _loop_hessian(p, u):
    d, x = _loop_geometry(u)
    _, du, d2u = ff.pair_potential(p, x)
    h = np.zeros(u.shape[:-2] + (12, 12))
    outer = np.einsum("...pi,...pj->...pij", d, d)
    for idx, (j, k) in enumerate(ff.PAIRS):
        blk = (2.0 * du[..., idx, None, None] * np.eye(3)
               + 4.0 * d2u[..., idx, None, None] * outer[..., idx, :, :])
        sj, sk = slice(3 * j, 3 * j + 3), slice(3 * k, 3 * k + 3)
        h[..., sj, sj] += blk
        h[..., sk, sk] += blk
        h[..., sj, sk] -= blk
        h[..., sk, sj] -= blk
    return h


@pytest.mark.parametrize("shape", [(), (33,), (5, 7)])
def test_incidence_forces_equal_the_pair_loop(shape):
    # bond, van der Waals and screened terms all on; bit for bit, since
    # every weight of the incidence matrix is 0 or +-1
    rng = np.random.default_rng(8)
    u = ff.TETRAHEDRON * 0.61 + 0.05 * rng.standard_normal(shape + (4, 3))
    for _ in range(3):
        g = ff.gradient(P4_LIKE, u)
        h = ff.hessian(P4_LIKE, u)
        assert g.shape == shape + (4, 3) and h.shape == shape + (12, 12)
        assert np.array_equal(g, _loop_gradient(P4_LIKE, u))
        assert np.array_equal(h, _loop_hessian(P4_LIKE, u))
        u = u + 0.1 * rng.standard_normal(u.shape)


def test_hessian_symmetric():
    p = P4_LIKE
    for u in random_configs(5):
        m = ff.hessian(p, u)
        assert np.abs(m - m.T).max() == 0.0


def test_symmetry_properties_under_full_group():
    from tetravib import grouprep as gr
    p = P4_LIKE
    u = random_configs(1)[0]
    v0 = ff.total_potential(p, u)
    g0 = ff.gradient(p, u)
    m0 = ff.hessian(p, u)
    scale = max(1.0, abs(v0), np.linalg.norm(g0), np.linalg.norm(m0))
    for perm in gr.S4:
        gu = gr.act(perm, u)
        rho = gr.action_matrix(perm)
        assert abs(ff.total_potential(p, gu) - v0) < 1e-10 * scale
        assert np.linalg.norm(ff.gradient(p, gu) - gr.act(perm, g0)) < 1e-10 * scale
        assert np.linalg.norm(ff.hessian(p, gu) - rho @ m0 @ rho.T) < 1e-10 * scale


def test_gradient_equivariance_tight():
    from tetravib import grouprep as gr
    p = ff.PairPotential(bond_weight=1.0)
    u = random_configs(1)[0]
    g0 = ff.gradient(p, u)
    for perm in gr.S4:
        res = np.linalg.norm(ff.gradient(p, gr.act(perm, u)) - gr.act(perm, g0))
        assert res < 1e-12


def test_bond_only_equilibrium_analytic():
    eq = ff.find_equilibrium(ff.PairPotential(bond_weight=1.0))
    assert abs(eq.r_o - math.sqrt(3.0 / 8.0)) < 1e-12
    assert abs(eq.s_o - 1.0) < 1e-12
    assert abs(eq.nu0_sq - 2.0) < 1e-12
    assert abs(eq.mu[0] - 8.0) < 1e-12
    assert abs(eq.mu[1] - 4.0) < 1e-12
    assert abs(eq.mu[2] - 2.0) < 1e-12


def scan_bisect_oracle(p, lo=0.2, hi=5.0):
    """Independent equilibrium radius: dense scan of phi plus bisection on phi'.

    Formulas written out from scratch rather than reusing the library."""
    def phi(r):
        x = 8.0 * r * r / 3.0
        return 6.0 * (p.bond_weight * (math.sqrt(x) - 1.0) ** 2
                      + p.vdw_B / x ** 6 - p.vdw_A / x ** 3
                      + p.sigma / math.sqrt(x))

    def dphi(r):
        x = 8.0 * r * r / 3.0
        du = (p.bond_weight * (1.0 - x ** -0.5)
              - 6.0 * p.vdw_B * x ** -7 + 3.0 * p.vdw_A * x ** -4
              - 0.5 * p.sigma * x ** -1.5)
        return 6.0 * du * (16.0 / 3.0) * r

    rs = np.linspace(lo, hi, 200001)
    vals = np.array([phi(r) for r in rs])
    i = int(np.argmin(vals))
    a, b = rs[i - 1], rs[i + 1]
    fa, fb = dphi(a), dphi(b)
    assert fa < 0.0 < fb
    for _ in range(200):
        m = 0.5 * (a + b)
        if dphi(m) < 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def test_tetraphosphorus_like_equilibrium_frozen_oracle():
    eq = ff.find_equilibrium(P4_LIKE)
    assert abs(eq.r_o - P4_R_O) < 1e-12
    assert abs(eq.s_o - P4_S_O) < 1e-12
    assert abs(eq.nu0_sq - P4_NU0_SQ) < 1e-9
    # the in-test oracle reproduces the frozen radius as well
    assert abs(scan_bisect_oracle(P4_LIKE) - P4_R_O) < 1e-10


@pytest.mark.parametrize("c", [1e-10, 1e6, 1e10, 1e100])
def test_equilibrium_radius_is_free_of_the_energy_scale(c):
    # V -> cV scales phi' by c and leaves the radius as it is; so must the
    # polish's stop
    p = ff.PairPotential(bond_weight=c, vdw_A=2.0 * c, vdw_B=c,
                         sigma=0.05 * c)
    assert ff.find_equilibrium(p).r_o == P4_R_O


def test_no_minimizer_raises():
    p = ff.PairPotential(bond_weight=0.0, vdw_A=1.0)   # purely attractive
    with pytest.raises(ff.ConvergenceError):
        ff.find_equilibrium(p)


def test_equilibrium_errors_carry_diagnostics(monkeypatch):
    # the purely attractive potential falls all the way to the grid's start
    with pytest.raises(ff.ConvergenceError) as info:
        ff.find_equilibrium(ff.PairPotential(bond_weight=0.0, vdw_A=1.0))
    assert str(info.value) == (
        "no interior minimum of the radial energy in [0.001, 1000]")
    assert info.value.diagnostics == {"r_min": 0.001, "r_max": 1000.0,
                                      "grid": 4001, "argmin_r": 0.001}
    # no iterate meets a zero tolerance; the equilibrium of the default
    # potential may be cached from a run at the module's own tolerance
    monkeypatch.setattr(ff, "POLISH_TOL", 0.0)
    ff.find_equilibrium.cache_clear()
    with pytest.raises(ff.ConvergenceError) as info:
        ff.find_equilibrium(ff.PairPotential())
    d = info.value.diagnostics
    assert set(d) == {"r", "abs_dphi", "tol"} and d["tol"] == 0.0
    assert abs(d["r"] - math.sqrt(3.0 / 8.0)) < 1e-12
    assert str(info.value) == "Newton polish stalled at |phi'|=%g" % d["abs_dphi"]


def test_radial_energy_consistency():
    p = P4_LIKE
    for r in (0.4, 0.8, 1.5):
        v = ff.total_potential(p, r * ff.TETRAHEDRON)
        assert abs(ff.radial_energy(p, r) - v) < 1e-12 * max(1.0, abs(v))
