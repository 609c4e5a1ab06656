"""Reference containment counts, one (low, high) pair at a time.

This is the per-pair conjugator kernel that the column-by-column table of
marks in `tetravib.burnside` replaced, kept here as an independent check:
it lists the f = 0 and the f = 1 candidate triples of every pair, applies
all of them to all generators at once, and divides by the normalizer count
of the high class.  `conj_apply` is the plain definition of a conjugator
triple acting on one element code.

Run as a script, it compares the Weyl order of every finite class and every
Phi0 column of the table of marks (every class as low) with the library at
each l_max given, prints one line per l_max and exits 1 at the first
difference:

    PYTHONPATH=src python tests/_pair_reference.py 1 2 3 4
"""
import sys

import numpy as np

import tetravib.burnside as bu


def conj_apply(u, trip, e):
    """Image of the element code e under the conjugator triple (g, f, j):
    conjugation by (g, rotation a) with 2a = j/N when f = 0, or by
    (g, reflection b) with 2b = j/N when f = 1."""
    g, f, j = trip
    p, kind, k = u.split(e)
    q = int(bu.CONJ[g, p])
    if f == 0:
        return u.join(q, kind, k + j if kind else k)
    return u.join(q, kind, j - k if kind else -k)


def _maps_into(low, high):
    """Boolean vector over g in S4: does CONJ[g] map the set `low` of
    permutations into the set `high`?"""
    mask = np.zeros(24, dtype=bool)
    mask[sorted(high)] = True
    return mask[bu.CONJ[:, sorted(low)]].all(axis=1)


def conjugators(u, low, high):
    """Which candidate triples, f = 0 and f = 1 alike, map every generator
    of the finite class `low` into the finite class `high`."""
    n = u.N
    g = np.flatnonzero(_maps_into(low.rot_perms, high.rot_perms)
                       & _maps_into(low.refl_perms, high.refl_perms))
    p, kind, k = u.split(np.array(low.gens, dtype=np.int64))
    if low.refl_perms:
        first = np.flatnonzero(kind)[0]
        hp, h_kind, hk = u.split(high.codes)
        hp, hk = hp[h_kind == 1], hk[h_kind == 1]
        gi, ri = np.nonzero(bu.CONJ[g, p[first]][:, None] == hp)
        g = g[gi]
        j = np.concatenate(((hk[ri] - k[first]) % n,
                            (hk[ri] + k[first]) % n))
    else:
        j = np.zeros(2 * len(g), dtype=np.int64)
    sign = np.repeat([1, -1], len(g))
    g = np.concatenate((g, g))
    images = (bu.CONJ[g[:, None], p] * (2 * n) + kind * n
              + (sign[:, None] * k + kind * j[:, None]) % n)
    target = high.codes
    pos = np.minimum(np.searchsorted(target, images), len(target) - 1)
    return (target[pos] == images).all(axis=1)


def conjugator_count(u, low, high):
    """Number of conjugator triples t with t(low) inside the finite high."""
    hits = int(conjugators(u, low, high).sum())
    # without a reflection in low only j = 0 was tried, and every j acts
    # alike on rotations
    return hits if low.refl_perms else hits * u.N


def n_count(u, low, high):
    """n(low, high), per pair."""
    if low is high:
        return 1
    if not high.is_finite:
        # G: O(2) conjugation fixes it, so its conjugates are the distinct
        # S4-conjugates of its (rot, refl) pair
        pairs = {(frozenset(bu.CONJ[g, sorted(high.rot_perms)].tolist()),
                  frozenset(bu.CONJ[g, sorted(high.refl_perms)].tolist()))
                 for g in range(24)}
        return sum(1 for rot, refl in pairs
                   if low.rot_perms <= rot and low.refl_perms <= refl)
    if not low.is_finite or high.order % low.order:
        return 0
    count, rem = divmod(conjugator_count(u, low, high),
                        conjugator_count(u, high, high))
    assert rem == 0, (str(low), str(high))
    return count


def weyl_matches(u, kl):
    """Does the library's |W(kl)| of the finite class kl match the
    normalizer's triple count here?  Each triple stands for two group
    elements, so |W(kl)| |kl| = |N(kl)| is twice the count."""
    return u.weyl(kl) * kl.order == 2 * conjugator_count(u, kl, kl)


def compare(l_max):
    """(columns, Weyl orders) compared between the library and this module
    at l_max: the library's marks M[L, H] against n(L, H) |W(H)|; raises
    AssertionError on the first difference."""
    u = bu.Universe.for_l_max(l_max)
    finite = [kl for kl in u.all_classes() if kl.is_finite]
    for kl in finite:
        assert weyl_matches(u, kl), "|W(%s)|" % kl
    highs = u.phi0_classes()
    for high in highs:
        marks = [n_count(u, low, high) * u.weyl(high) for low in u.classes]
        assert u._marks(high).tolist() == marks, "column of %s" % high
    return len(highs), len(finite)


if __name__ == "__main__":
    for l_max in map(int, sys.argv[1:] or ["4"]):
        try:
            columns, weyls = compare(l_max)
        except AssertionError as fault:
            sys.exit("l_max %d: %s differs" % (l_max, fault))
        print("l_max %d: %d columns and %d Weyl orders agree"
              % (l_max, columns, weyls), flush=True)
