import math

import numpy as np
import pytest

from tetravib import forcefield as ff
from tetravib import grouprep as gr

RNG = np.random.default_rng(7)


def test_group_basics():
    assert len(gr.S4) == 24
    assert gr.IDENTITY in gr.S4
    p = (1, 0, 2, 3)
    assert gr.pmul(p, p) == gr.IDENTITY
    assert gr.pinv((1, 2, 3, 0)) == (3, 0, 1, 2)
    for p in gr.S4:
        assert gr.pmul(p, gr.pinv(p)) == gr.IDENTITY


def test_cycle_types_and_class_sizes():
    counts = {}
    for p in gr.S4:
        counts[gr.cycle_type(p)] = counts.get(gr.cycle_type(p), 0) + 1
    assert counts == {
        (1, 1, 1, 1): 1, (2, 1, 1): 6, (2, 2): 3, (3, 1): 8, (4,): 6}


def test_realization_identity_and_orthogonality():
    mats = gr.realization()
    assert np.abs(mats[gr.IDENTITY] - np.eye(3)).max() < 1e-15
    for a in mats.values():
        assert np.abs(a @ a.T - np.eye(3)).max() < 1e-13


def test_realization_printed_transposition_matrix():
    # the spatial matrix realizing the swap of particles 1 and 2
    expected = np.array([
        [1.0 / 3.0, 0.0, 2.0 * math.sqrt(2.0) / 3.0],
        [0.0, 1.0, 0.0],
        [2.0 * math.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0],
    ])
    a = gr.realization()[(1, 0, 2, 3)]
    assert np.abs(a - expected).max() < 1e-14


def test_realization_defining_relation():
    mats = gr.realization()
    for p in gr.S4:
        img = mats[p] @ ff.TETRAHEDRON.T           # columns A gamma_j
        assert np.abs(img - ff.TETRAHEDRON[list(p)].T).max() < 1e-14


def test_realization_homomorphism_all_pairs():
    mats = gr.realization()
    for p in gr.S4:
        for q in gr.S4:
            assert np.abs(mats[gr.pmul(p, q)] - mats[p] @ mats[q]).max() < 1e-14


def test_act_identity_and_involution():
    u = RNG.normal(size=(4, 3))
    assert np.abs(gr.act(gr.IDENTITY, u) - u).max() < 1e-14
    swapped = gr.act((1, 0, 2, 3), u)
    assert np.abs(gr.act((1, 0, 2, 3), swapped) - u).max() < 1e-14


def test_act_fixes_reference_tetrahedron():
    for p in gr.S4:
        assert np.abs(gr.act(p, ff.TETRAHEDRON) - ff.TETRAHEDRON).max() < 1e-14


def test_act_is_left_action():
    u = RNG.normal(size=(4, 3))
    for p, q in [((1, 0, 2, 3), (1, 2, 3, 0)), ((2, 0, 1, 3), (0, 2, 1, 3))]:
        both = gr.act(p, gr.act(q, u))
        assert np.abs(gr.act(gr.pmul(p, q), u) - both).max() < 1e-13


def test_character_table_orthogonality_exact():
    chi = gr.CHARACTER_TABLE
    sizes = np.array(gr.CLASS_SIZES)
    gram = chi @ np.diag(sizes) @ chi.T        # integer arithmetic
    assert (gram == 24 * np.eye(5, dtype=int)).all()
    # column orthogonality
    for c1 in range(5):
        for c2 in range(5):
            s = int((chi[:, c1] * chi[:, c2]).sum())
            assert s == (24 // gr.CLASS_SIZES[c1] if c1 == c2 else 0)


def test_irrep_dims():
    assert tuple(gr.CHARACTER_TABLE[:, 0]) == gr.IRREP_DIMS == (1, 3, 2, 3, 1)


def test_configuration_representation_character():
    assert np.abs(gr.representation_character()
                  - np.array([12.0, 2.0, 0.0, 0.0, 0.0])).max() < 1e-12


def test_multiplicities():
    assert gr.multiplicities() == (1, 2, 1, 1, 0)


def test_projections_idempotent_orthogonal_complete():
    projs = [gr.isotypic_projection(j) for j in range(5)]
    for j, pj in enumerate(projs):
        for k, pk in enumerate(projs):
            target = pj if j == k else np.zeros((12, 12))
            assert np.abs(pj @ pk - target).max() < 1e-12
    assert np.abs(sum(projs) - np.eye(12)).max() < 1e-12


def test_projections_commute_with_group():
    projs = [gr.isotypic_projection(j) for j in range(5)]
    for p in gr.S4:
        rho = gr.action_matrix(p)
        for pj in projs:
            assert np.abs(pj @ rho - rho @ pj).max() < 1e-12


def test_projection_ranks():
    assert gr.projection_ranks() == (1, 6, 2, 3, 0)


def test_translations_have_standard_type():
    w = RNG.normal(size=3)
    v = np.tile(w, 4)
    p1 = gr.isotypic_projection(1)
    assert np.abs(p1 @ v - v).max() < 1e-12


def test_probe_vectors_live_in_their_components():
    for j, v in enumerate(gr.TEST_VECTORS):
        pj = gr.isotypic_projection(j)
        assert np.abs(pj @ v - v).max() < 1e-12


def test_tangent_basis_type_and_independence():
    eq = ff.find_equilibrium(ff.PairPotential(bond_weight=1.0))
    tb = gr.tangent_basis(eq.u_o)
    gram = tb @ tb.T
    assert np.linalg.det(gram) > 1e-6
    p3 = gr.isotypic_projection(3)
    for row in tb:
        assert np.abs(p3 @ row - row).max() < 1e-12


def test_hessian_annihilates_tangent_vectors():
    for p in (ff.PairPotential(bond_weight=1.0),
              ff.PairPotential(1.0, 2.0, 1.0, 0.05)):
        eq = ff.find_equilibrium(p)
        m = ff.hessian(p, eq.u_o)
        for row in gr.tangent_basis(eq.u_o):
            assert np.linalg.norm(m @ row) < 1e-8 * eq.nu0_sq


def test_slice_spectrum_bond_only():
    p = ff.PairPotential(bond_weight=1.0)
    eq = ff.find_equilibrium(p)
    spec = gr.slice_spectrum(ff.hessian(p, eq.u_o), eq.u_o)
    assert abs(spec.mu[2] - 2.0) < 1e-12
    assert abs(spec.mu[0] / spec.mu[2] - 4.0) < 1e-10
    assert abs(spec.mu[1] / spec.mu[2] - 2.0) < 1e-10
    assert spec.slice_mults == (1, 3, 2)
    assert spec.zero_modes == 3


def test_slice_spectrum_three_potentials():
    params = [
        ff.PairPotential(bond_weight=1.0),
        ff.PairPotential(1.0, 2.0, 1.0, 0.05),
        ff.PairPotential(2.0, 1.0, 3.0, 0.0),
    ]
    for p in params:
        eq = ff.find_equilibrium(p)
        spec = gr.slice_spectrum(ff.hessian(p, eq.u_o), eq.u_o)
        assert abs(spec.mu[0] / spec.mu[2] - 4.0) < 1e-8
        assert abs(spec.mu[1] / spec.mu[2] - 2.0) < 1e-8
        assert spec.slice_mults == (1, 3, 2)
        assert spec.zero_modes == 3


def test_hessian_is_scalar_on_each_slice_component():
    p = ff.PairPotential(1.0, 2.0, 1.0, 0.05)
    eq = ff.find_equilibrium(p)
    m = ff.hessian(p, eq.u_o)
    free = gr.centre_of_mass_free_basis()
    for j in range(3):
        pj = gr.isotypic_projection(j)
        # basis of the j-component of the centre-of-mass-free subspace
        sub = pj @ free
        q, r = np.linalg.qr(sub)
        cols = q[:, np.abs(np.diag(r)) > 1e-8]
        restricted = cols.T @ m @ cols
        resid = np.abs(restricted - eq.mu[j] * np.eye(cols.shape[1])).max()
        assert resid < 1e-10 * max(1.0, eq.nu0_sq)


def test_multiplicities_fault_on_a_non_integer_character(monkeypatch):
    chi = gr.representation_character()
    monkeypatch.setattr(gr, "representation_character", lambda: chi + 0.5)
    with pytest.raises(ArithmeticError, match="^non-integer irreducible "
                                              "multiplicities$"):
        gr.multiplicities()


def test_slice_spectrum_faults_on_a_moved_rotation():
    # the identity Hessian moves every rotation tangent
    eq = ff.find_equilibrium(ff.PairPotential())
    with pytest.raises(ArithmeticError, match="^rotation tangent vector not "
                                              "annihilated$"):
        gr.slice_spectrum(np.eye(12), eq.u_o)


def test_slice_spectrum_faults_on_an_eigenvalue_off_its_rayleigh_quotient():
    # a push along a direction of the E component orthogonal to its probe
    # vector splits the doublet, while the probe's quotient stays mu_2
    p = ff.PairPotential()
    eq = ff.find_equilibrium(p)
    probe = gr.TEST_VECTORS[2]
    w = gr.isotypic_projection(2) @ np.arange(12.0)
    w -= (w @ probe) / (probe @ probe) * probe
    hess = ff.hessian(p, eq.u_o) + np.outer(w, w) / (w @ w)
    with pytest.raises(ArithmeticError, match="^eigenvalue/Rayleigh mismatch "
                                              "on component 2$"):
        gr.slice_spectrum(hess, eq.u_o)
