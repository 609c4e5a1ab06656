"""Reference class universe, one Goursat candidate at a time.

This is the sequential enumerator that the batched build in
`tetravib.burnside` replaced, kept here as an independent check: it walks
the Goursat loops, builds each candidate's codes element by element, and
classifies it at once against the classes already found with the same
conjugacy invariant, one conjugator-kernel call per known class.  The
whole group G = S4 x O(2) is registered after the last subgroup H of S4.

Run as a script, it compares the class list (canonical form, codes,
generators and index order) with the library at each l_max given, and
exits 1 on any difference:

    PYTHONPATH=src python tests/_enumerate_reference.py 4 5 6
"""
import itertools
import sys
from functools import cached_property
from types import SimpleNamespace

import numpy as np

import tetravib.burnside as bu


# the quotient groups of the Goursat construction, built element by element


class _CosetGroup:
    """Quotient of the finite group `members` by its normal subgroup
    `kernel` under the product rule product(a, b) -> element."""

    def __init__(self, members, kernel, product):
        cosets, where = [], {}
        for e in sorted(members):
            if e not in where:
                coset = frozenset(product(e, z) for z in kernel)
                where.update(dict.fromkeys(coset, len(cosets)))
                cosets.append(coset)
        self.cosets = tuple(cosets)
        reps = [next(iter(c)) for c in cosets]
        self.table = [[where[product(a, b)] for b in reps] for a in reps]
        # the kernel is the identity coset
        self.identity = where[next(iter(kernel))]

    def __len__(self):
        return len(self.cosets)

    def element_order(self, i):
        n, x = 1, i
        while x != self.identity:
            x = self.table[x][i]
            n += 1
        return n

    @cached_property
    def generating_words(self):
        """A small generating tuple and words expressing every element.

        Returns (gens, words) with words[x] a tuple of generator indices
        whose product is x (empty word = identity).
        """
        n = len(self.cosets)
        order = sorted(range(n), key=self.element_order, reverse=True)
        for r in (1, 2):
            for gens in itertools.combinations(order, r):
                words = {self.identity: ()}
                frontier = [self.identity]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for gi, g in enumerate(gens):
                            y = self.table[x][g]
                            if y not in words:
                                words[y] = words[x] + (gi,)
                                nxt.append(y)
                    frontier = nxt
                if len(words) == n:
                    return gens, words
        raise bu.InternalError("quotient group is not 2-generated")


def _isomorphisms(q1: _CosetGroup, q2: _CosetGroup):
    """All isomorphisms q1 -> q2, groups of one order, as index maps."""
    gens, words = q1.generating_words
    orders = [q1.element_order(g) for g in gens]
    n = len(q1)
    candidates = [[y for y in range(n) if q2.element_order(y) == o]
                  for o in orders]
    isos = []
    for images in itertools.product(*candidates):
        phi = [None] * n
        for x in range(n):
            y = q2.identity
            for gi in words[x]:
                y = q2.table[y][images[gi]]
            phi[x] = y
        if len(set(phi)) == n and all(
                phi[q1.table[a][b]] == q2.table[phi[a]][phi[b]]
                for a in range(n) for b in range(n)):
            isos.append(tuple(phi))
    return isos


def _scalar_mul(u):
    """The product of two element codes of u, one pair at a time."""
    def mul(e1, e2):
        p1, f1, k1 = u.split(e1)
        p2, f2, k2 = u.split(e2)
        return u.join(bu.MUL[p1][p2], f1 ^ f2, k1 - k2 if f1 else k1 + k2)
    return mul


def _k_groups(u):
    """(K_order, [(K/R, generators of R, label of L = K/R)]) for every
    finite K of the Goursat construction: the dihedral D_d (axis parameter
    0) of each order, with its quotients by the normal subgroups R with
    quotient Z_m or D_m.  The rotation groups Z_n are left out: their
    classes have infinite Weyl groups."""
    def grid(c, kind=0):
        # the c rotations, or reflections, spaced 1/c turn from 0
        return [u.join(bu.ID_PERM, kind, i * (u.N // c)) for i in range(c)]

    def quotient(k_codes, c, l_label, dihedral=False):
        # R is Z_c, or D_c with axis parameter 0
        ker, r_gens = grid(c), grid(c)[1:2]
        if dihedral:
            ker, r_gens = ker + grid(c, 1), r_gens + grid(c, 1)[:1]
        return _CosetGroup(k_codes, ker, _scalar_mul(u)), r_gens, l_label

    out = []
    for d in u.orders:
        k_codes = grid(d) + grid(d, 1)
        qs = [quotient(k_codes, c, "D%d" % (d // c)) for c in bu._divisors(d)]
        if d % 2 == 0:
            qs.append(quotient(k_codes, d // 2, "Z2", dihedral=True))
        qs.append(quotient(k_codes, d, "Z1", dihedral=True))
        out.append((d, qs))
    return out


def _bucket_key(u, p, kind, k):
    """Sorted (permutation class, kind, rotation angle up to sign) of every
    element: equal on conjugate subgroups."""
    rot = np.where(kind == 0, np.minimum(k, (u.N - k) % u.N), -1)
    return np.sort((bu.PERM_CLASS[p] * 2 + kind) * (u.N + 1) + rot + 1
                   ).tobytes()


class Sequential:
    """The old enumerator: `enumerate()` lists the classes, then `classify`
    finds the class of a finite subgroup among them."""

    def __init__(self, u):
        self.u = u
        self.classes = []
        self.lookup = {}            # bucket key -> list of class indices

    def classify(self, codes, gens, **fields):
        u = self.u
        p, f, k = u.split(np.fromiter(codes, np.int64, len(codes)))
        rot_perms = frozenset(p[f == 0].tolist())
        refl_perms = frozenset(p[f == 1].tolist())
        key = _bucket_key(u, p, f, k)
        if key in self.lookup:
            row = bu._Rows(u, [SimpleNamespace(
                gens=gens, rot_perms=rot_perms, refl_perms=refl_perms,
                order=len(codes))])
            for idx in self.lookup[key]:
                kl = self.classes[idx]
                if u._conjugator_counts(row, kl)[0]:
                    return kl
        if not fields:
            raise bu.InternalError("subgroup does not match any class")
        kl = bu.AmalgamClass(
            universe=u, index=len(self.classes),
            codes=np.array(sorted(codes), dtype=np.int64),
            rot_perms=rot_perms, refl_perms=refl_perms,
            R_label=bu.s4_subgroup_label(rot_perms), gens=tuple(gens),
            **fields)
        self.classes.append(kl)
        self.lookup.setdefault(key, []).append(kl.index)
        return kl

    def register_whole_group(self):
        s4 = frozenset(range(24))
        self.classes.append(bu.AmalgamClass(
            universe=self.u, index=len(self.classes), codes=None,
            rot_perms=s4, refl_perms=s4, H_label="S4", Z_label="S4",
            R_label="S4", L_label="Z1", K_order=0, gens=()))

    def enumerate(self):
        u, n = self.u, self.u.N
        k_groups = _k_groups(u)
        for s4c in bu.enumerate_s4_subgroups():
            h = s4c.representative
            normals = bu._normal_subgroups_of(h)
            h_quotients = [
                (z, _CosetGroup(h, z, lambda a, b: bu.MUL[a][b]),
                 [u.join(p, 0, 0)
                  for p in sorted(set(bu._s4_subgroups()[z]) - {bu.ID_PERM})])
                for z in normals]
            for d, quotients in k_groups:
                for qk, r_gens, l_label in quotients:
                    for z, qh, z_gens in h_quotients:
                        if len(qh) != len(qk):
                            continue
                        h_gens = qh.generating_words[0]
                        for iso in _isomorphisms(qh, qk):
                            codes = frozenset(
                                p * 2 * n + e
                                for x, ps in enumerate(qh.cosets)
                                for p in ps for e in qk.cosets[iso[x]])
                            lifts = [min(qh.cosets[x]) * 2 * n
                                     + min(qk.cosets[iso[x]])
                                     for x in h_gens]
                            self.classify(
                                codes, lifts + z_gens + r_gens,
                                H_label=s4c.label, L_label=l_label,
                                Z_label=bu.s4_subgroup_label(z), K_order=d)
        self.register_whole_group()
        return self.classes


def enumerate_classes(u):
    """The classes of universe u's orders, in index order, built one
    candidate at a time."""
    return Sequential(u).enumerate()


def _fields(kl):
    codes = None if kl.codes is None else kl.codes.tolist()
    return (kl.canonical_form(), codes, kl.gens, kl.rot_perms,
            kl.refl_perms)


def differences(u):
    """Index positions where the library's class list and the reference
    differ in canonical form, codes, generators or permutations,
    plus a length mismatch."""
    ref = enumerate_classes(u)
    bad = [i for i, (a, b) in enumerate(zip(u.classes, ref))
           if _fields(a) != _fields(b)]
    if len(ref) != len(u.classes):
        bad.append(("length", len(u.classes), len(ref)))
    return bad


if __name__ == "__main__":
    failed = False
    for l_max in map(int, sys.argv[1:] or ["4"]):
        u = bu.Universe.for_l_max(l_max)
        bad = differences(u)
        print("l_max %d: %d classes, %d differences"
              % (l_max, len(u.classes), len(bad)), flush=True)
        failed |= bool(bad)
    sys.exit(1 if failed else 0)
