import math
from fractions import Fraction

import numpy as np
import pytest

import tetravib.bifurcation as bf
import tetravib.burnside as bu
from tetravib.forcefield import PairPotential, find_equilibrium

from _golden import (FAMILIES, MAXIMAL_01, MAXIMAL_11, MAXIMAL_21, OMEGA_01,
                     OMEGA_11, OMEGA_21, as_class_set, lookup)

BOND_MU = (8.0, 4.0, 2.0)


@pytest.fixture(scope="module")
def u2():
    return bu.Universe.for_l_max(2)


@pytest.fixture(scope="module")
def reports():
    return bf.invariants(BOND_MU, l_max=2)


# ---------------------------------------------------------------------------
# critical set

def test_critical_values_and_resonances():
    crits = bf.critical_set(BOND_MU, l_max=4)
    assert len(crits) == 10             # 12 modes, two resonant coincidences
    by_mode = {}
    for c in crits:
        for jl in c.contributors:
            by_mode[jl] = c
    for j in range(3):
        for l in range(1, 5):
            value = l / math.sqrt(BOND_MU[j])
            assert by_mode[(j, l)].value == pytest.approx(value, rel=1e-15)
    assert by_mode[(2, 1)] is by_mode[(0, 2)]
    assert by_mode[(2, 2)] is by_mode[(0, 4)]
    assert by_mode[(2, 1)].resonant and by_mode[(2, 1)].key == Fraction(1)


def test_ordering_chain_is_a_subsequence():
    crits = bf.critical_set(BOND_MU, l_max=4)
    by_mode = {jl: c.value for c in crits for jl in c.contributors}
    chain = [by_mode[(0, 1)], by_mode[(1, 1)], by_mode[(2, 1)],
             by_mode[(1, 2)], by_mode[(2, 2)]]
    assert all(a < b for a, b in zip(chain, chain[1:]))
    assert by_mode[(2, 1)] == by_mode[(0, 2)]
    assert by_mode[(2, 2)] == by_mode[(0, 4)]
    # one extra critical number sits inside the chain's last gap
    assert by_mode[(1, 2)] < by_mode[(0, 3)] < by_mode[(2, 2)]


def test_resonance_detection_uses_ratios_not_floats():
    # 3e-10 relative detuning: still recognized as the exact 4:2:1 pattern
    mu = (8.0 * (1.0 + 3e-10), 4.0, 2.0)
    crits = bf.critical_set(mu, l_max=2)
    merged = [c for c in crits if c.resonant]
    assert len(merged) == 1 and set(merged[0].contributors) == {(2, 1), (0, 2)}
    # ratios that are genuinely different rationals must not merge
    crits = bf.critical_set((7.9, 4.0, 2.0), l_max=2)
    assert all(not c.resonant for c in crits)
    assert len(crits) == 6


def test_critical_set_input_validation():
    with pytest.raises(bf.UsageError):
        bf.critical_set((2.0, 4.0, 8.0), l_max=2)
    with pytest.raises(bf.UsageError):
        bf.critical_set(BOND_MU, l_max=0)
    # one class from the ring layer up, for library callers and the CLI
    assert bf.UsageError is bu.UsageError and "UsageError" in bf.__all__


@pytest.mark.parametrize("mu", [(math.inf, 4.0, 2.0), (8.0, 4.0, 1e-320)])
def test_non_finite_spectrum_is_a_usage_error(mu):
    # an infinite mu_0, or a finite one whose ratio to mu_2 overflows
    with pytest.raises(bf.UsageError, match="finite"):
        bf.critical_set(mu, l_max=2)
    crit = bf.critical_set(BOND_MU, l_max=2)[0]
    with pytest.raises(bf.UsageError, match="finite"):
        bf.invariant(crit, mu, l_max=2)


def test_generic_spectrum_runs_the_one_path(u2):
    # no ratio of (8 sqrt 2, 4, 2) to mu_0 is rational: no resonance, and
    # two families more than the resonant 4 : 2 : 1 spectrum has
    mu = (8.0 * math.sqrt(2.0), 4.0, 2.0)
    want = {(j, l, lookup(u2, h, z, r, ll, k))
            for j, l, h, z, r, ll, k in FAMILIES}
    want |= {(2, 1, lookup(u2, "D4", "V4", None, "Z2", 2)),
             (2, 1, lookup(u2, "D4", "D4", None, "Z1", 1))}
    for l_max, n_crits, n_reports, n_maximal in ((2, 6, 4, 10),
                                                 (4, 12, 8, 20)):
        crits = bf.critical_set(mu, l_max)
        assert len(crits) == n_crits and not any(c.resonant for c in crits)
        assert all(isinstance(c.key, Fraction) for c in crits)
        reports = bf.invariants(mu, l_max)
        assert len(reports) == n_reports
        assert sum(len(r.maximal) for r in reports) == n_maximal
        fams = bf.independent_families(reports)
        assert {(f.j, f.l, f.klass.printed_form()) for f in fams} == {
            (j, l, kl.printed_form()) for j, l, kl in want}
    # the classes left over are frequency covers, found on irrational keys
    by_mode = {r.critical.contributors: r for r in reports}
    u4 = bu.Universe.for_l_max(4)
    for l, name in ((2, "(S4 x D2)"), (4, "(S4 x D4)")):
        rep = by_mode[((0, l),)]
        assert rep.critical.key.denominator > 2 ** 40
        assert bf._integer_ratio(rep.critical, by_mode[((0, 1),)].critical) == l
        assert u4.parse_class(name) in {kl for kl, _ in rep.maximal}
        assert name not in {f.klass.printed_form() for f in fams}


def test_no_invariant_holds_g():
    # the jump of two degrees that each hold G once: G never carries a
    # coefficient of an invariant, resonant or generic spectrum alike
    for mu in ((8.0, 4.0, 2.0), (8.3, 4.0, 2.0),
               (8.0 * math.sqrt(2.0), 4.0, 2.0)):
        for l_max in (2, 4):
            g = bu.Universe.for_l_max(l_max).unit
            reports = bf.invariants(mu, l_max)
            for rep in reports:
                assert rep.omega and g.index not in rep.omega.coeffs, (
                    mu, l_max)
            assert reports, (mu, l_max)


@pytest.mark.parametrize("mu, l_max, shared", [
    # mu_0 = (9/4) mu_1, and mu_1 / mu_2 = sqrt 3
    ((4.5 * math.sqrt(3.0), 2.0 * math.sqrt(3.0), 2.0), 4, {(0, 3), (1, 2)}),
    # mu_0 = (10/9)^2 mu_1: the rational's denominator is above 64
    ((2.0 * math.sqrt(5.0) * 100 / 81, 2.0 * math.sqrt(5.0), 2.0), 10,
     {(0, 10), (1, 9)}),
    # mu_0 / mu_2 = (8/7)^2 and mu_0 / mu_1 = 37/31, so mu_1 / mu_2 is a
    # rational of denominator 1813
    ((2.0 * 64 / 49, 2.0 * 64 / 49 * 31 / 37, 2.0), 8, {(0, 8), (2, 7)}),
])
def test_resonance_between_irrational_ratios(mu, l_max, shared):
    merged = [c for c in bf.critical_set(mu, l_max) if c.resonant]
    assert [set(c.contributors) for c in merged] == [shared]
    a, b = sorted(shared)
    assert merged[0].value == a[1] / math.sqrt(mu[a[0]])


# ---------------------------------------------------------------------------
# degree_below

def test_degree_below_unit_before_first_critical(u2):
    out = bf.degree_below(0.01, BOND_MU, l_max=2)
    assert out == bu.BurnsideElement.unit(u2)


def test_degree_below_constant_on_gaps(u2):
    lam1 = 0.5 * (1 / math.sqrt(8.0) + 0.5)
    lam2 = 0.499
    a = bf.degree_below(lam1, BOND_MU, l_max=2)
    b = bf.degree_below(lam2, BOND_MU, l_max=2)
    assert a == b == u2.basic_degree(0, 1)


def test_degree_below_accumulates_products(u2):
    lam = 0.6                      # above (1,1), below the (2,1)=(0,2) pair
    out = bf.degree_below(lam, BOND_MU, l_max=2)
    assert out == u2.basic_degree(0, 1) * u2.basic_degree(1, 1)


def test_degree_below_rejects_critical_lambda():
    with pytest.raises(bf.UsageError):
        bf.degree_below(0.5, BOND_MU, l_max=2)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_degree_below_rejects_non_finite_lambda(lam):
    with pytest.raises(bf.UsageError, match="finite"):
        bf.degree_below(lam, BOND_MU, l_max=2)


# ---------------------------------------------------------------------------
# invariants

def test_invariant_term_lists_match_reference(reports, u2):
    expected = [OMEGA_01, OMEGA_11, OMEGA_21]
    for rep, terms in zip(reports, expected):
        want = as_class_set(u2, terms)
        assert dict(rep.omega.terms()) == want


def test_invariant_maximal_classes(reports, u2):
    expected = [MAXIMAL_01, MAXIMAL_11, MAXIMAL_21]
    for rep, names in zip(reports, expected):
        want = {lookup(u2, *entry) for entry in names}
        assert {kl for kl, _ in rep.maximal} == want
    assert [len(r.maximal) for r in reports] == [1, 5, 2]


def test_invariant_window_brackets_critical(reports):
    for rep in reports:
        assert rep.lam_minus < rep.critical.value < rep.lam_plus


def test_invariant_rejects_last_window_critical():
    # the largest critical number, and the one whose window would reach
    # 3/sqrt(mu_0), where the first mode above l_max lies
    crits = bf.critical_set(BOND_MU, l_max=2)
    for crit in crits[-2:]:
        with pytest.raises(bf.UsageError) as info:
            bf.invariant(crit, BOND_MU, l_max=2)
        assert str(info.value) == ("l_max=2 does not isolate the critical "
                                   "number %g" % crit.value)


def test_invariant_rejects_a_critical_number_of_a_wider_window():
    # 4/sqrt(mu_2), the largest critical number at l_max = 4, is none at 2
    crit = bf.critical_set(BOND_MU, l_max=4)[-1]
    with pytest.raises(bf.UsageError, match="^not a critical number for "
                                            "these eigenvalues$"):
        bf.invariant(crit, BOND_MU, l_max=2)


def test_invariant_of_generic_potential_matches_bond_only(u2):
    eq = find_equilibrium(PairPotential(1.0, 2.0, 1.0, 0.05))
    crits = bf.critical_set(eq.mu, l_max=2)
    rep = bf.invariant(crits[1], eq.mu, l_max=2)
    want = as_class_set(u2, OMEGA_11)
    assert dict(rep.omega.terms()) == want


# ---------------------------------------------------------------------------
# independent families

def test_seven_independent_families(reports, u2):
    fams = bf.independent_families(reports)
    assert len(fams) == 7
    got = {(f.j, f.l, f.klass) for f in fams}
    want = {(j, l, lookup(u2, h, z, r, ll, k))
            for j, l, h, z, r, ll, k in FAMILIES}
    assert got == want
    # the frequency-doubled copy of the breathing family was dropped
    dropped = lookup(u2, "S4", "S4", None, "Z1", 2)
    assert dropped in {kl for kl, _ in reports[2].maximal}
    assert dropped not in {f.klass for f in fams}


def test_family_coefficients_all_nonzero(reports):
    for f in bf.independent_families(reports):
        assert f.coefficient != 0
        assert f.critical.value == pytest.approx(f.l / math.sqrt(BOND_MU[f.j]))


def test_family_needs_a_fixed_direction_on_its_modes(reports, u2):
    # G, which no invariant holds, fixes no direction of any loop mode
    report = reports[0]._replace(maximal=((u2.unit, 1),))
    with pytest.raises(bf.UsageError, match="^class has no fixed directions "
                                            "on the critical modes$"):
        bf.independent_families([report])


# ---------------------------------------------------------------------------
# symmetry descriptions

def test_describe_symmetry_brake_flags(reports, u2):
    brake_expect = {
        "(S4 x D1)": True,
        "(D4^D2 x_Z2 D2)": True,
        "(D2^D1 x_Z2 D2)": True,
        "(D3 x D1)": True,
        "(D4^Z1 x_D4 D4)": False,
        "(D3^Z1 x_D3 D3)": False,
        "(S4^V4 x_D3 D3)": False,
    }
    for f in bf.independent_families(reports):
        desc = bf.describe_symmetry(f.klass)
        assert desc.klass.brake == brake_expect[f.klass.printed_form()]
        # the relations: every element but the identity, which comes first
        elements = f.klass.elements()
        assert len(elements) == f.klass.order
        assert elements[0] == ((0, 1, 2, 3), "rot", 0)
        assert all(e != elements[0] for e in elements[1:])


def test_rotating_wave_predicates(u2):
    wave = lookup(u2, "D3", "Z1", None, "D3", 3)
    shifts = [(perm, angle) for perm, kind, angle in wave.elements()[1:]
              if kind == "rot"]
    thirds = [(perm, angle) for perm, angle in shifts
              if angle in (Fraction(1, 3), Fraction(2, 3))]
    assert len(thirds) == 2
    # the time-shifting permutations are the two 3-cycles of the triangle
    assert all(sum(perm[i] == i for i in range(4)) == 1 for perm, _ in thirds)
    assert {angle for _, angle in thirds} == {Fraction(1, 3), Fraction(2, 3)}


def test_describe_symmetry_rejects_continuous(u2):
    with pytest.raises(bf.UsageError):
        bf.describe_symmetry(u2.unit)
