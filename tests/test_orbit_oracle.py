"""An oracle for the continued orbits that shares nothing with the
collocation: Newton's equations u'' = -lam^2 grad V(u), integrated over one
period 2*pi by classical RK4 from the series' (u(0), u'(0)), must come back
to the series' (u(2*pi), u'(2*pi)).  The orbits are the final loops of the
seven branches of the default report and of the one-branch benchmark at
n_modes = 64."""
import math

import numpy as np
import pytest

import tetravib.orbits as ob
from tetravib import cli
from tetravib.bifurcation import _universe, independent_families
from tetravib.forcefield import PairPotential, find_equilibrium, gradient

BOND = PairPotential()
STEPS = 1000
# RK4 at 1 000 steps leaves gaps of at most 1.1e-12 on these orbits, and a
# lambda^2 off by 2e-8 leaves gaps of at least 4.5e-10
BOUND = 1e-10


@pytest.fixture(scope="module")
def final_orbits():
    eq = find_equilibrium(BOND)
    u2 = _universe(2)
    families = independent_families(cli._invariant_reports(eq.mu, 2))
    assert len(families) == 7
    branches = [ob.continue_branch(BOND, fam.klass, fam.j, fam.l,
                                   equilibrium=eq) for fam in families]
    branches.append(ob.continue_branch(
        BOND, u2.parse_class("(D3^Z1 x_D3 D3)"), 1, 1, n_modes=64,
        equilibrium=eq))
    return [b.orbit for b in branches]


def _shooting_gaps(orbits, lam_sq):
    """Per orbit, the largest difference between the RK4 flow after one
    period and the series there, over positions and velocities."""
    u = np.array([o.evaluate(0.0) for o in orbits])
    v = np.array([o.velocity(0.0) for o in orbits])
    lam_sq = np.asarray(lam_sq)[:, None]

    def acc(q):
        return -lam_sq * gradient(BOND, q.reshape(-1, 4, 3)).reshape(-1, 12)

    h = 2.0 * math.pi / STEPS
    for _ in range(STEPS):
        k1u, k1v = v, acc(u)
        k2u, k2v = v + 0.5 * h * k1v, acc(u + 0.5 * h * k1u)
        k3u, k3v = v + 0.5 * h * k2v, acc(u + 0.5 * h * k2u)
        k4u, k4v = v + h * k3v, acc(u + h * k3u)
        u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    end_u = np.array([o.evaluate(2.0 * math.pi) for o in orbits])
    end_v = np.array([o.velocity(2.0 * math.pi) for o in orbits])
    return np.maximum(np.max(np.abs(u - end_u), axis=1),
                      np.max(np.abs(v - end_v), axis=1))


def test_continued_orbits_solve_newtons_equations(final_orbits):
    lam_sq = [o.lam ** 2 for o in final_orbits]
    gaps = _shooting_gaps(final_orbits, lam_sq)
    assert np.max(gaps) < BOUND, gaps


def test_a_slightly_wrong_frequency_fails_the_oracle(final_orbits):
    lam_sq = [o.lam ** 2 * (1.0 + 2e-8) for o in final_orbits]
    gaps = _shooting_gaps(final_orbits, lam_sq)
    assert np.min(gaps) > BOUND, gaps
