"""Bifurcation invariants for the periodic problem near the equilibrium.

Rescaling time by the unknown period turns periodic solutions of the Newton
system into 2*pi-periodic zeros of u'' + lambda^2 grad V(u).  Linearizing at
the equilibrium, the (j, l) loop component (S4-isotypic index j, Fourier mode
l) becomes negative definite exactly when lambda exceeds the critical number

    lambda_{j,l} = l / sqrt(mu_j).

Each critical number is keyed by one exact rational, lambda^2 mu_2 = l^2/r_j
with r_j ~ mu_j / mu_2: modes share a critical number exactly when they
share the key, and frequency covers are read off the keys.

Crossing one critical number changes the product of basic gradient degrees;
the change is the Burnside-ring bifurcation invariant whose nonzero terms
certify bifurcating branches and whose maximal classes prescribe their
spatio-temporal symmetries.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .burnside import AmalgamClass, BurnsideElement, Universe, UsageError

__all__ = [
    "UsageError", "CriticalNumber", "InvariantReport", "Family",
    "SymmetryDescription", "critical_set", "degree_below",
    "invariant", "invariants", "independent_families", "describe_symmetry",
]


class CriticalNumber(NamedTuple):
    """One element of the critical set, with every (j, l) that lands on it.

    key is the exact rational lambda^2 * mu_2 = l^2 / r_j of _ratio_keys, so
    a resonance is a coincidence of rationals, not of floats (every pair
    potential has mu_0 : mu_1 : mu_2 = 4 : 2 : 1).
    """

    value: float
    contributors: tuple
    key: Fraction

    @property
    def resonant(self):
        return len(self.contributors) > 1


# an eigenvalue ratio this near a rational, relatively, counts as that rational
RATIO_TOL = 1e-9


def _ratio_keys(mu, l_max):
    """Exact rationals r_j ~ mu_j / mu_2, with r_2 = 1.  A ratio mu_a / mu_b
    within RATIO_TOL of a rational of denominator at most max(64, l_max^2),
    as any resonance l^2 / l'^2 has, links a to b; r_j is a link times a
    known r_b, links to mu_2 first, and an r_j no link reaches is the exact
    value of the float mu_j / mu_2, from which the links run on."""
    links = []
    for a, b in ((1, 2), (0, 2), (0, 1)):
        r = mu[a] / mu[b]
        frac = Fraction(r).limit_denominator(max(64, l_max * l_max))
        if abs(float(frac) - r) < RATIO_TOL * r:
            links.append((a, b, frac))
    ratios = {}
    for root in (2, 1, 0):
        ratios.setdefault(root, Fraction(mu[root] / mu[2]))
        for a, b, q in links:
            if b in ratios:
                ratios.setdefault(a, q * ratios[b])
            elif a in ratios:
                ratios[b] = ratios[a] / q
    return [ratios[j] for j in range(3)]


def critical_set(mu, l_max: int) -> tuple:
    """Sorted critical numbers l/sqrt(mu_j) for j = 0, 1, 2 and l <= l_max,
    as a tuple computed once per (mu, l_max)."""
    return _critical_set(tuple(mu), l_max)


@functools.lru_cache(maxsize=64)
def _critical_set(mu, l_max):
    if not (0.0 < mu[2] < mu[1] < mu[0]):
        raise UsageError("slice eigenvalues must satisfy 0 < mu_2 < mu_1 < mu_0")
    if not (math.isfinite(mu[0]) and math.isfinite(mu[0] / mu[2])):
        raise UsageError("slice eigenvalues and their ratios must be finite")
    if l_max < 1:
        raise UsageError("l_max must be at least 1")
    ratios = _ratio_keys(mu, l_max)
    crits = {}      # lambda^2 * mu_2 -> (value of its first mode, modes)
    for j in range(3):
        for l in range(1, l_max + 1):
            crits.setdefault(Fraction(l * l) / ratios[j],
                             (l / math.sqrt(mu[j]), []))[1].append((j, l))
    out = [CriticalNumber(value=v, contributors=tuple(c), key=k)
           for k, (v, c) in crits.items()]
    out.sort(key=lambda c: c.value)
    return tuple(out)


def degree_below(lam: float, mu, l_max: int) -> BurnsideElement:
    """Product of the basic degrees of all loop components that are negative
    at lambda: the (j, l) with lambda_{j,l} < lambda and l <= l_max."""
    crits = critical_set(mu, l_max)
    if not math.isfinite(lam):
        raise UsageError("lambda must be finite")
    for c in crits:
        if abs(lam - c.value) < 1e-9 * c.value:
            raise UsageError("lambda coincides with the critical number %g"
                             % c.value)
    u = Universe.for_l_max(l_max)
    return BurnsideElement(u, u.from_marks(u.degree_marks(
        [jl for c in crits if c.value < lam for jl in c.contributors])))


class SymmetryDescription(NamedTuple):
    klass: AmalgamClass
    title: str
    text: str


class InvariantReport(NamedTuple):
    critical: CriticalNumber
    lam_minus: float
    lam_plus: float
    omega: BurnsideElement
    maximal: tuple              # (AmalgamClass, coefficient) pairs
    descriptions: tuple         # SymmetryDescription per maximal class


class Family(NamedTuple):
    """One independent branch family: its symmetry class and starting mode."""

    klass: AmalgamClass
    coefficient: int
    critical: CriticalNumber
    j: int
    l: int

    @property
    def value(self):
        return self.critical.value


def invariant(critical: CriticalNumber, mu, l_max: int) -> InvariantReport:
    """Bifurcation invariant at one critical number.

    The invariant is the jump of degree_below across the critical value,
    evaluated at geometric midpoints of the neighbouring gaps; its sign
    convention follows the printed invariant lists (degree above minus
    degree below).  Both degrees are taken in mark coordinates, where the
    jump is the difference of two sign vectors."""
    crits = critical_set(mu, l_max)
    values = [c.value for c in crits]
    keys = [c.key for c in crits]
    if critical.key not in keys:
        raise UsageError("not a critical number for these eigenvalues")
    pos = keys.index(critical.key)
    if pos + 1 == len(values):
        raise UsageError("critical number is the largest below the mode "
                         "cutoff; raise l_max to isolate it")
    lam_minus = (math.sqrt(values[pos - 1] * values[pos]) if pos > 0
                 else 0.5 * values[pos])
    lam_plus = math.sqrt(values[pos] * values[pos + 1])
    # modes beyond l_max must not sneak into the straddling window
    unseen = (l_max + 1) / math.sqrt(mu[0])
    if lam_plus >= unseen:
        raise UsageError("l_max too small to isolate this critical number")
    u = Universe.for_l_max(l_max)
    above, below = (u.degree_marks([jl for c in crits[:n]
                                    for jl in c.contributors])
                    for n in (pos + 1, pos))
    omega = BurnsideElement(u, u.from_marks(
        [a - b for a, b in zip(above, below)]))
    terms = omega.terms()
    maximal = tuple(
        (kl, c) for kl, c in terms
        if not any(other is not kl and c2 and u.leq(kl, other)
                   for other, c2 in terms))
    descriptions = tuple(describe_symmetry(kl) for kl, _ in maximal)
    return InvariantReport(critical=crits[pos], lam_minus=lam_minus,
                           lam_plus=lam_plus, omega=omega, maximal=maximal,
                           descriptions=descriptions)


def invariants(mu, l_max: int) -> tuple:
    """The InvariantReport of every critical number that l_max isolates, in
    rising order; UsageError unless 1 <= l_max <= burnside.MAX_MODE."""
    # an l_max above MAX_MODE is a usage error, not a window to pass over
    Universe.for_l_max(l_max)
    reports = []
    for crit in critical_set(mu, l_max):
        try:
            reports.append(invariant(crit, mu, l_max))
        except UsageError:
            continue            # not isolatable within this l_max window
    return tuple(reports)


def _integer_ratio(later: CriticalNumber, earlier: CriticalNumber):
    """k >= 2 with later = k * earlier, read off the exact keys, else None."""
    q = later.key / earlier.key
    root = math.isqrt(q.numerator) if q.denominator == 1 else 0
    return root if root >= 2 and root * root == q.numerator else None


def independent_families(reports) -> tuple:
    """Keep one family per genuinely new branch.

    A maximal class at a higher critical number is dropped when it is the
    k-fold frequency cover of a family already reported at value/k: such a
    branch retraces the earlier one with a non-minimal period.
    """
    reports = sorted(reports, key=lambda r: r.critical.value)
    families = []
    for rep in reports:
        u = rep.omega.universe
        for kl, coeff in rep.maximal:
            doubled = False
            for earlier in families:
                k = _integer_ratio(rep.critical, earlier.critical)
                if (k is not None and earlier.klass.universe is u
                        and u.fold_cover(earlier.klass, k) is kl):
                    doubled = True
                    break
            if doubled:
                continue
            j, l = _mode_of(u, kl, rep.critical)
            families.append(Family(klass=kl, coefficient=coeff,
                                   critical=rep.critical, j=j, l=l))
    return tuple(families)


def _mode_of(u, kl, critical):
    for j, l in critical.contributors:
        if u.fixed_point_dim(j, l, kl) >= 1:
            return j, l
    raise UsageError("class has no fixed directions on the critical modes")


# ---------------------------------------------------------------------------
# symmetry descriptions

_FAMILY_PROSE = {
    ("S4", "S4", "Z1", 1): (
        "tetrahedral breathing mode",
        "Brake orbit keeping the full particle-exchange symmetry: the "
        "configuration is a regular tetrahedron at every instant, expanding "
        "and contracting radially, and all velocities vanish simultaneously "
        "twice per period."),
    ("D4", "D2", "Z2", 2): (
        "paired inversion mode",
        "Brake orbit in which particles 1 and 2 mirror each other (u_1 is "
        "the spatial inversion image of u_2, likewise 3 and 4), while "
        "swapping the two pairs combines with a half-period phase shift."),
    ("D2", "D1", "Z2", 2): (
        "single-pair exchange mode",
        "Brake orbit fixed by exchanging particles 1 and 2; exchanging 3 "
        "and 4 instead shifts time by half a period."),
    ("D4", "Z1", "D4", 4): (
        "rotoreflection wave",
        "Travelling wave (not a brake orbit): a quarter-turn rotoreflection "
        "of space combined with a quarter-period phase shift reproduces the "
        "orbit, so the motion circulates through the four particles."),
    ("D3", "D3", "Z1", 1): (
        "axial pulse mode",
        "Brake orbit keeping the full triangle symmetry of particles "
        "1, 2, 3: particle 4 oscillates along the fixed axis while the "
        "other three breathe in the transverse plane."),
    ("D3", "Z1", "D3", 3): (
        "discrete rotating wave",
        "Rotating wave: a third-turn spatial rotation equals a third-period "
        "time shift, so the orbits of particles 1, 2, 3 trace one curve "
        "visited with mutual delay T/3 (up to the realized rotation "
        "matrix), while particle 4 rides the symmetry axis."),
    ("S4", "V4", "D3", 3): (
        "twisted tetrahedral wave",
        "The Klein four-subgroup acts purely spatially while three-cycles "
        "advance time by a third of a period and odd permutations reverse "
        "it: a rotating wave through all four particles."),
}


def describe_symmetry(kl: AmalgamClass) -> SymmetryDescription:
    """Title and prose for an orbit class.  Its machine-checkable relations
    are the class's own non-identity elements (AmalgamClass.elements),
    which orbits.verify_predicates checks."""
    if not kl.is_finite:
        raise UsageError("continuous classes do not describe single orbits")
    key = (kl.H_label, kl.Z_label, kl.L_label, kl.K_order)
    if key in _FAMILY_PROSE:
        title, prose = _FAMILY_PROSE[key]
    else:
        title = "symmetric periodic orbit"
        prose = "Orbit fixed by the group generated by the listed relations."
        if kl.brake:
            prose += " It is a brake orbit."
    return SymmetryDescription(klass=kl, title=title, text=prose)
