"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines; every line states the measured quantity next to its bound.
"""
import math
import time

import numpy as np
import pytest

import tetravib.bifurcation as bf
import tetravib.burnside as bu
import tetravib.orbits as ob
from tetravib.forcefield import (PairPotential, find_equilibrium, gradient,
                                 hessian, total_potential)
from tetravib.grouprep import (CHARACTER_TABLE, CLASS_SIZES,
                               isotypic_projection, multiplicities,
                               slice_spectrum)

from _golden import (DEGREE_TABLES, MAXIMAL_01, MAXIMAL_11, MAXIMAL_21,
                     OMEGA_01, OMEGA_11, OMEGA_21, as_class_set, lookup)

BOND = PairPotential()
GENERIC = PairPotential(1.0, 2.0, 1.0, 0.05)
THIRD = PairPotential(0.5, 1.0, 2.0, 0.1)


def _verdict(n, ok, detail):
    print("[criterion %d] %s — %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "[criterion %d] %s" % (n, detail)


@pytest.fixture(scope="module")
def u12():
    return bu.Universe.for_l_max(2)


@pytest.fixture(scope="module")
def eq_bond():
    return find_equilibrium(BOND)


@pytest.fixture(scope="module")
def invariant_reports(eq_bond):
    return bf.invariants(eq_bond.mu, l_max=2)


def test_criterion_1_spectrum_ratios():
    worst = 0.0
    t0 = time.perf_counter()
    for p in (BOND, GENERIC, THIRD):
        eq = find_equilibrium(p)
        spec = slice_spectrum(hessian(p, eq.u_o), eq.u_o)
        eigs = np.sort(np.asarray(spec.eigenvalues))[3:]   # past the zeros
        ratios = eigs / eigs[0]
        worst = max(worst, float(np.max(np.abs(
            ratios - np.array([1.0, 1.0, 2.0, 2.0, 2.0, 4.0])))))
        if spec.zero_modes != 3:
            _verdict(1, False, "%d zero modes for %r" % (spec.zero_modes, p))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    _verdict(1, ok, "3 potentials, ratio deviation %.2e (< 1e-8), 3 zero "
                    "modes each, %.3f s (< 1 s)" % (worst, elapsed))


def test_criterion_2_bond_only_equilibrium():
    t0 = time.perf_counter()
    eq = find_equilibrium(BOND)
    elapsed = time.perf_counter() - t0
    err_r = abs(eq.r_o - math.sqrt(3.0 / 8.0))
    err_nu = abs(eq.nu0_sq - 2.0)
    ok = err_r < 1e-12 and err_nu < 1e-12 and elapsed < 0.1
    _verdict(2, ok, "|r_o - sqrt(3/8)| = %.2e, |nu0^2 - 2| = %.2e (< 1e-12), "
                    "%.4f s (< 0.1 s)" % (err_r, err_nu, elapsed))


def test_criterion_3_representation_theory():
    failures = []
    for i in range(5):
        for j in range(5):
            inner = sum(int(CLASS_SIZES[c]) * int(CHARACTER_TABLE[i, c])
                        * int(CHARACTER_TABLE[j, c]) for c in range(5))
            if inner != (24 if i == j else 0):
                failures.append("<chi_%d, chi_%d> = %d" % (i, j, inner))
    if tuple(multiplicities()) != (1, 2, 1, 1, 0):
        failures.append("multiplicities %r" % (multiplicities(),))
    projections = [isotypic_projection(j) for j in range(5)]
    worst = float(np.max(np.abs(sum(projections) - np.eye(12))))
    for i, pi in enumerate(projections):
        for j, pj in enumerate(projections):
            want = pi if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(pi @ pj - want))))
    if worst >= 1e-12:
        failures.append("projection defect %.2e" % worst)
    _verdict(3, not failures,
             failures[0] if failures else
             "orthogonality exact, multiplicities (1,2,1,1,0), projection "
             "defect %.2e (< 1e-12)" % worst)


def test_criterion_4_degree_tables():
    t0 = time.perf_counter()
    u = bu.Universe.for_l_max(2)
    bad = []
    for j, table in DEGREE_TABLES.items():
        for l in (1, 2):
            expected = as_class_set(u, table, scale=l)
            expected[u.unit] = 1
            if dict(u.basic_degree(j, l).terms()) != expected:
                bad.append((j, l))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _verdict(4, ok, "five tables exact at l=1,2%s, %.2f s (< 30 s)"
             % ("" if not bad else ", mismatches %r" % bad, elapsed))


def test_criterion_5_involution(u12):
    unit = bu.BurnsideElement.unit(u12)
    bad = [(j, l) for j in range(5) for l in (1, 2)
           if u12.basic_degree(j, l) * u12.basic_degree(j, l) != unit]
    _verdict(5, not bad, "Deg * Deg = unit for all 10 (j, l) pairs"
             if not bad else "involution fails at %r" % bad)


def test_criterion_6_invariants(invariant_reports, u12):
    failures = []
    for rep, terms in zip(invariant_reports, (OMEGA_01, OMEGA_11, OMEGA_21)):
        if dict(rep.omega.terms()) != as_class_set(u12, terms):
            failures.append("omega at %.6f" % rep.critical.value)
    counts = [len(r.maximal) for r in invariant_reports]
    if counts != [1, 5, 2]:
        failures.append("maximal counts %r" % counts)
    for rep, names in zip(invariant_reports,
                          (MAXIMAL_01, MAXIMAL_11, MAXIMAL_21)):
        if {kl for kl, _ in rep.maximal} != {lookup(u12, *e) for e in names}:
            failures.append("maximal classes at %.6f" % rep.critical.value)
    families = bf.independent_families(invariant_reports)
    if len(families) != 7:
        failures.append("%d independent families" % len(families))
    _verdict(6, not failures,
             failures[0] if failures else
             "three invariants term-for-term, maximal counts (1, 5, 2), "
             "7 independent families")


def test_criterion_7_critical_ordering(eq_bond):
    crits = bf.critical_set(eq_bond.mu, l_max=4)
    by_mode = {jl: c for c in crits for jl in c.contributors}
    chain = [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]
    keys = [by_mode[jl].key for jl in chain]
    ok = (all(k is not None for k in keys)
          and all(a < b for a, b in zip(keys, keys[1:]))
          and by_mode[(2, 1)] is by_mode[(0, 2)]
          and by_mode[(2, 2)] is by_mode[(0, 4)])
    _verdict(7, ok, "lam_{0,1} < lam_{1,1} < lam_{2,1} = lam_{0,2} < "
                    "lam_{1,2} < lam_{2,2} = lam_{0,4}, by exact ratio keys")


def test_criterion_8_branch_confirmation(invariant_reports, eq_bond):
    families = bf.independent_families(invariant_reports)
    assert len(families) == 7
    failures = []
    t0 = time.perf_counter()
    for fam in families:
        name = fam.klass.printed_form()
        branch = ob.continue_branch(BOND, fam.klass, fam.j, fam.l,
                                    n_modes=16)
        if branch.final_amplitude < 0.05:
            failures.append("%s amplitude %.3f" % (name,
                                                   branch.final_amplitude))
        res = max(p.residual for p in branch.points)
        if res >= 1e-9:
            failures.append("%s residual %.2e" % (name, res))
        pred = max(max(ob.verify_predicates(p.orbit, branch.klass))
                   for p in branch.points)
        if pred >= 1e-8:
            failures.append("%s predicate %.2e" % (name, pred))
        _, spread = ob.energy_profile(branch.orbit, BOND)
        if spread >= 1e-8:
            failures.append("%s energy spread %.2e" % (name, spread))
        lam_star = fam.l / math.sqrt(eq_bond.mu[fam.j])
        drift = abs(ob.frequency_extrapolation(branch) - lam_star)
        if drift >= 1e-4:
            failures.append("%s frequency drift %.2e" % (name, drift))
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append("runtime %.1f s" % elapsed)
    _verdict(8, not failures,
             "; ".join(failures) if failures else
             "7 branches to amplitude 0.05: residual < 1e-9, predicates "
             "< 1e-8, energy spread < 1e-8, frequency within 1e-4, "
             "%.1f s (< 120 s)" % elapsed)


def test_criterion_9_finite_difference_oracles(eq_bond):
    rng = np.random.default_rng(20260817)
    h = 1e-6
    worst_g, worst_h = 0.0, 0.0
    for _ in range(100):
        u = ((1.0 + 0.2 * rng.uniform(-1.0, 1.0)) * eq_bond.u_o
             + 0.15 * rng.standard_normal((4, 3)))
        g = gradient(GENERIC, u).reshape(12)
        hess = hessian(GENERIC, u)
        fd_g = np.zeros(12)
        fd_h = np.zeros((12, 12))
        for k in range(12):
            step = np.zeros(12)
            step[k] = h
            up = (u.reshape(12) + step).reshape(4, 3)
            dn = (u.reshape(12) - step).reshape(4, 3)
            fd_g[k] = (total_potential(GENERIC, up)
                       - total_potential(GENERIC, dn)) / (2.0 * h)
            fd_h[:, k] = (gradient(GENERIC, up)
                          - gradient(GENERIC, dn)).reshape(12) / (2.0 * h)
        worst_g = max(worst_g, float(np.linalg.norm(fd_g - g))
                      / max(1.0, float(np.linalg.norm(g))))
        worst_h = max(worst_h, float(np.linalg.norm(fd_h - hess))
                      / max(1.0, float(np.linalg.norm(hess))))
    ok = worst_g < 1e-6 and worst_h < 1e-5
    _verdict(9, ok, "100 random configurations: gradient error %.2e "
                    "(< 1e-6), Hessian error %.2e (< 1e-5)"
             % (worst_g, worst_h))
