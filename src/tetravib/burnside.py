"""Burnside ring of the spatio-temporal symmetry group S4 x O(2).

Closed subgroups of S4 x O(2) up to conjugacy are Goursat amalgams
H ^Z x_L K: a subgroup H of S4, a normal subgroup Z of H, and an epimorphism
phi of H onto L = K/ker(psi) for a closed subgroup K of O(2).  Classes whose
Weyl group is finite (the Phi0 classes) generate the ring A(G) used by the
bifurcation invariants.  A K = Z_n of rotations only leaves all of SO(2) in
the normalizer, so its Weyl group is infinite.  The universe holds the
finite classes, K = D_d, and G itself.  They span a subring: a finite class
has mark 0 at every class holding SO(2), and G is the unit.  SO(2) fixes no
vector of a loop mode l >= 1, so every basic degree lies in that subring,
and the classes holding SO(2) other than G never carry a coefficient.  Ring
arithmetic runs in mark coordinates (the table of marks): with
M[L, H] = n(L, H) |W(H)|, x -> Mx maps the subring injectively into Z^n,
one coordinate per class, with the pointwise product, and the basic degree
of the (j, l) loop mode has marks (-1)^dim V_{j,l}^L.  Products and degrees
are pointwise there; one exact top-down back-substitution over the
subconjugacy order returns to class coefficients.

All O(2) data is kept exact.  Every finite class projects onto a dihedral
D_d, so it holds a reflection; all its rotation angles and reflection-axis
parameters live on a rational grid (multiples of 1/N turns), and
conjugations that matter shift axis parameters by multiples of 1/N as well,
so conjugacy, normalizers and containment counts over the full group reduce
to finite exact computations on the grid.

Element encoding inside a grid universe: code = perm_index * 2N + kind * N + k
with kind 0 a rotation by k/N turns and kind 1 the reflection with axis
parameter k/N (the conjugate of the base reflection by a rotation of k/2N
turns).

A finite class stores its elements once, as a sorted read-only int64 array
of codes; membership is a binary search in it.  Its order and H are read off
that array and its permutation sets.

Each finite class keeps generators read off its Goursat data: lifts (p, e)
of generators pZ of H/Z with e in the coset of the kernel R of K -> L that
the quotient isomorphism assigns to pZ, plus (z, 1) for generators z of Z
and (1, r) for generators r of R.  A subgroup maps into a conjugate of a
finite class exactly when some conjugator maps every generator into it.

The universe is built one S4 subgroup H at a time, and each class is
founded by the first Goursat candidate of its name.  Each H's candidates
are listed once, with their codes formed by array arithmetic over the
cosets of Z and R, and one array pass reads off the permutations paired
with rotations, whose label is the R of the name H ^Z_R x_L K.  That name
is a conjugacy invariant and names each conjugacy class once, so no
conjugator is searched for: H's founders are numbered in listing order,
and G follows the founders of H = S4.  The k-fold cover of O(2) keeps the
name but for K's order, so fold covers are found by name as well.

One numpy kernel runs the conjugator test for many subgroups at once: the
table of marks is built column by column, one pass over all finite classes
per high class (Pfeiffer, Experiment. Math. 6, 1997).  The universe stores
the marks themselves, so the high's own mark is the order of its Weyl
group and a containment count is the ratio of two marks.  The pass tests
generators one at a time on the surviving candidate conjugators, taken
BATCH at a time; other arrays span subgroups x 24 or the high's elements.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .grouprep import (S4, IDENTITY, pmul, pinv, cycle_type,
                       conjugacy_class_index, CHARACTER_TABLE)

__all__ = [
    "InternalError", "UsageError", "S4SubgroupClass",
    "enumerate_s4_subgroups", "s4_subgroup_label", "AmalgamClass",
    "Universe", "BurnsideElement", "MAX_MODE",
]


class InternalError(RuntimeError):
    """A consistency check inside the ring arithmetic failed."""


class UsageError(ValueError):
    """A precondition on user-facing input was violated."""


# ---------------------------------------------------------------------------
# the permutation factor

P_INDEX = {p: i for i, p in enumerate(S4)}
MUL = [[P_INDEX[pmul(p, q)] for q in S4] for p in S4]
MUL_ARRAY = np.array(MUL)
INV = [P_INDEX[pinv(p)] for p in S4]
# CONJ[g, p] = g p g^{-1}
CONJ = np.array([[MUL[g][MUL[p][INV[g]]] for p in range(24)]
                 for g in range(24)])
PERM_CLASS = np.array([conjugacy_class_index(p) for p in S4])
ID_PERM = P_INDEX[IDENTITY]
# CONJ_BITS[g, p] = 1 << CONJ[g, p]: a 0/1 row b over S4 maps to the 24-bit
# masks of its conjugates by every g as b @ CONJ_BITS.T
CONJ_BITS = np.left_shift(1, CONJ).astype(np.int64)
# the conjugator kernel takes candidates in batches of about this many; in
# one batch, `invariants` peaks 10-20 % higher in RSS at l_max 8 to 24
BATCH = 2 ** 14


@lru_cache(maxsize=None)
def _bits(perms):
    """The set of permutation indices `perms` as a 24-bit mask."""
    return sum(1 << p for p in perms)


def _perm_closure(seed):
    """Subgroup of S4 generated by the given permutation indices."""
    elems = frontier = {ID_PERM}
    while frontier:
        frontier = {MUL[a][b] for a in frontier for b in seed} - elems
        elems = elems | frontier
    return frozenset(elems)


@lru_cache(maxsize=1)
def _s4_subgroups():
    """Every subgroup of S4, mapped to the first index pair (x, y), x <= y,
    that generates it (every subgroup of S4 is 2-generated), in the order
    (order, sorted members).  This order fixes listing order, class indices
    and generator lists."""
    pairs = {}
    for x in range(24):
        for y in range(x, 24):
            pairs.setdefault(_perm_closure([x, y]), (x, y))
    return dict(sorted(pairs.items(),
                       key=lambda item: (len(item[0]), sorted(item[0]))))


@lru_cache(maxsize=None)
def s4_subgroup_label(h) -> str:
    """Conjugacy-class label of a subgroup of S4 (Z1..S4 naming)."""
    n = len(h)
    if n in (2, 4):
        types = {cycle_type(S4[p]) for p in h}
        if n == 2:
            return "D1" if (2, 1, 1) in types else "Z2"
        return ("Z4" if (4,) in types else
                "V4" if types <= {(1, 1, 1, 1), (2, 2)} else "D2")
    label = {1: "Z1", 3: "Z3", 6: "D3", 8: "D4", 12: "A4", 24: "S4"}.get(n)
    if label is None:
        raise InternalError("impossible subgroup order %d" % n)
    return label


class S4SubgroupClass(NamedTuple):
    label: str
    members: tuple          # all conjugate subgroups, as frozensets of indices

    @property
    def representative(self):
        return self.members[0]


@lru_cache(maxsize=1)
def enumerate_s4_subgroups():
    """All subgroups of S4 grouped into conjugacy classes, labeled."""
    seen, classes = set(), []
    for h in _s4_subgroups():
        if h not in seen:
            orbit = set(map(frozenset, CONJ[:, sorted(h)].tolist()))
            seen |= orbit
            classes.append(S4SubgroupClass(
                label=s4_subgroup_label(h),
                members=tuple(sorted(orbit, key=sorted))))
    return tuple(classes)


def _normal_subgroups_of(h):
    """Normal subgroups of the subgroup h (as frozensets of indices), in
    the order of _s4_subgroups()."""
    return [z for z in _s4_subgroups()
            if z <= h and all(frozenset(row) == z for row in
                              CONJ[np.ix_(sorted(h), sorted(z))].tolist())]


# ---------------------------------------------------------------------------
# small-group helpers for the Goursat construction


def _group(elements, product):
    """A finite group as its sorted int64 element codes and the table of
    positions of products, where product(a, b) multiplies int64 arrays
    elementwise."""
    elements = np.array(sorted(elements), dtype=np.int64)
    return elements, np.searchsorted(elements,
                                     product(elements[:, None], elements))


class _CosetGroup:
    """Quotient of a finite group, given by `_group`, by its normal
    subgroup `kernel`.

    The cosets are numbered by their smallest member; `rows` holds them as
    sorted rows of codes and `table` the product of coset numbers, both
    read off the group's table."""

    def __init__(self, group, kernel):
        elements, table = group
        kernel = np.searchsorted(elements, sorted(kernel))
        # positions are in code order, so the coset of an element starts
        # at its smallest position
        smallest = table[:, kernel].min(axis=1)
        low = np.flatnonzero(smallest == np.arange(len(elements)))
        where = np.searchsorted(low, smallest)      # coset of each element
        self.rows = elements[np.sort(table[low][:, kernel], axis=1)]
        self.table = tuple(map(tuple, where[table[np.ix_(low, low)]
                                            ].tolist()))
        # the kernel is the identity coset
        self.identity = int(where[kernel[0]])

    def __len__(self):
        return len(self.table)

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
        n = len(self)
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
        raise InternalError("quotient group is not 2-generated")


_ISOMORPHISMS = {}


def _isomorphisms(q1: _CosetGroup, q2: _CosetGroup):
    """All isomorphisms q1 -> q2, groups of one order, as the rows of an
    int array of index maps.  They depend on the two tables only, and the
    hundreds of quotient pairs of a universe share a dozen pairs of tables,
    so each pair is solved once."""
    key = (q1.table, q2.table)
    if key not in _ISOMORPHISMS:
        _ISOMORPHISMS[key] = np.array(_solve_isomorphisms(q1, q2),
                                      dtype=np.int64).reshape(-1, len(q1))
    return _ISOMORPHISMS[key]


def _solve_isomorphisms(q1, q2):
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


# ---------------------------------------------------------------------------
# amalgam classes


class AmalgamClass:
    """Conjugacy class of a closed subgroup of S4 x O(2): a finite class
    projecting onto the dihedral group K = D_d of O(2), or G = S4 x O(2).

    codes are its sorted element codes (None for G) and gens codes that
    generate it.  rot_perms and refl_perms are the permutations paired with
    a rotation and with a reflection of time: read off the elements of a
    finite class, and all of S4 for G.

    K's printed name is D_d, or O2 for G, whose K_order is 0.  The universe
    holds one object per class, so two classes are equal when they are the
    same object.
    """

    def __init__(self, universe, index, codes, rot_perms, refl_perms,
                 H_label, Z_label, R_label, L_label, K_order, gens=()):
        self.universe, self.index, self.codes = universe, index, codes
        self.rot_perms, self.refl_perms = rot_perms, refl_perms
        self.H_label, self.Z_label = H_label, Z_label
        self.R_label, self.L_label = R_label, L_label
        self.K_order, self.gens = K_order, gens

    def __repr__(self):
        return "AmalgamClass(index=%d, %s)" % (self.index,
                                               self.canonical_form())

    # -- naming ------------------------------------------------------------

    def _k_name(self, k=1):
        """K's name, with d multiplied by k."""
        return "D%d" % (k * self.K_order) if self.is_finite else "O2"

    def canonical_form(self) -> str:
        """Fully explicit name (H^Z_R x_L K); see README for the grammar."""
        return self._cover_form(1)

    def _cover_form(self, k):
        """canonical_form of the class named like this one with K = D_kd."""
        return "(%s^%s_%s x_%s %s)" % (
            self.H_label, self.Z_label, self.R_label, self.L_label,
            self._k_name(k))

    def printed_form(self) -> str:
        """Abbreviated name: direct products print as (H x K); Z is shown
        whenever the epimorphism is nontrivial, and R only when needed to
        separate classes sharing the same (H, Z, L, K)."""
        if self.L_label == "Z1":
            return "(%s x %s)" % (self.H_label, self._k_name())
        if self.index in self.universe._ambiguous:
            return self.canonical_form()
        return "(%s^%s x_%s %s)" % (
            self.H_label, self.Z_label, self.L_label, self._k_name())

    def __str__(self):
        return self.printed_form()

    def sort_key(self):
        return (-len(self.H_set), -(self.K_order or 10 ** 9),
                self.canonical_form())

    # -- structure ---------------------------------------------------------

    @property
    def order(self):
        """len(codes); 0 means infinite."""
        return 0 if self.codes is None else len(self.codes)

    @property
    def H_set(self):
        return self.rot_perms | self.refl_perms

    @property
    def is_finite(self):
        return self.codes is not None

    def elements(self):
        """Concrete members as (permutation tuple, 'rot'|'refl', Fraction),
        built once per class; the identity, code 0, comes first.

        The Fraction is the rotation angle or the reflection-axis parameter
        in turns.  Only available for finite classes, not for G."""
        return self._elements

    @cached_property
    def _elements(self):
        if not self.is_finite:
            raise ValueError("G has no finite element list")
        n = self.universe.N
        return tuple((S4[p], "refl" if kind else "rot", Fraction(k, n))
                     for p, kind, k in map(self.universe.split,
                                           self.codes.tolist()))

    @property
    def brake(self):
        """Some element is (identity permutation, reflection): the orbit is
        time-reversible in place, so all velocities vanish together."""
        return ID_PERM in self.refl_perms


# ---------------------------------------------------------------------------
# the grid universe


def _divisors(n):
    return [c for c in range(1, n + 1) if n % c == 0]


def _orders(l_max):
    """The dihedral orders that host the isotropy groups of the loop modes
    l = 1..l_max: every divisor c of some m l, m = 1..4.  c divides some
    m l exactly when c / gcd(c, m) <= l_max, and m = 4 covers m = 1, 2."""
    return tuple(c for c in range(1, 4 * l_max + 1)
                 if min(c // math.gcd(c, 3), c // math.gcd(c, 4)) <= l_max)


class _Rows:
    """Subgroups (anything with gens, rot_perms, refl_perms and order) laid
    out for the conjugator kernel: both permutation sets as 24-bit masks
    conjugated by every g (rows x 24), the first reflection generator (p0,
    k0), the other generators' parts.  Every finite class holds a
    reflection, so one of its generators is one; InternalError if not."""

    def __init__(self, universe, subgroups):
        gens, rot, refl, order = zip(*((s.gens, s.rot_perms, s.refl_perms,
                                        s.order) for s in subgroups))
        first = [next((e for e in g if universe.split(e)[1]), None)
                 for g in gens]
        if None in first:
            raise InternalError("class %s has no reflection generator"
                                % subgroups[first.index(None)])
        rest = [[e for e in g if e != f] for g, f in zip(gens, first)]
        width = max(map(len, rest))
        self.p, self.kind, self.k = universe.split(np.array(
            [r + [-1] * (width - len(r)) for r in rest], dtype=np.int64))
        self.p0, _, self.k0 = universe.split(np.array(first, dtype=np.int64))
        self.order = np.array(order)
        self.rot, self.refl = (
            (np.array([_bits(s) for s in sets])[:, None] >> np.arange(24) & 1)
            @ CONJ_BITS.T for sets in (rot, refl))


@lru_cache(maxsize=None)
def _perm_set(mask):
    """The permutation indices in a 24-bit mask, as a frozenset."""
    return frozenset(p for p in range(24) if mask >> p & 1)


class Universe:
    """The classes of S4 x O(2) for the loop modes l = 1..l_max: every
    conjugacy class of closed subgroups whose O(2) projection is dihedral of
    an order in _orders(l_max), on the grid N = their lcm, and G itself.
    They span a subring that holds every basic degree of those modes, so
    the other classes holding SO(2), which never carry a coefficient, are
    left out."""

    _cache = {}

    def __init__(self, l_max):
        if l_max < 1:
            raise UsageError("l_max must be at least 1")
        if l_max > MAX_MODE:
            raise UsageError("Fourier mode %d is above %d, the largest whose "
                             "element codes fit in 64-bit integers"
                             % (l_max, MAX_MODE))
        self.orders = _orders(l_max)
        self.N = math.lcm(*self.orders)
        self.classes = []
        self._columns = {}         # class index -> column of the marks
        self._dims_memo = {}       # l -> fixed-point dims of every j
        self._name_index = {}
        self._enumerate()
        self._classes_sorted = sorted(self.classes,
                                      key=AmalgamClass.sort_key)
        self._finalize_names()

    @classmethod
    def for_l_max(cls, l_max):
        """The universe of l_max, built once; UsageError unless
        1 <= l_max <= MAX_MODE."""
        if l_max not in cls._cache:
            cls._cache[l_max] = cls(l_max)
        return cls._cache[l_max]

    # -- element arithmetic --------------------------------------------------

    def split(self, e):
        n = self.N
        p, rem = divmod(e, 2 * n)
        kind, k = divmod(rem, n)
        return p, kind, k

    def join(self, p, kind, k):
        return (2 * p + kind) * self.N + k % self.N

    def mul(self, e1, e2):
        """Product of two element codes, or of int64 code arrays
        elementwise."""
        p1, f1, k1 = self.split(e1)
        p2, f2, k2 = self.split(e2)
        # a reflection reverses the rotation or axis parameter after it
        return self.join(MUL_ARRAY[p1, p2], f1 ^ f2, k1 + k2 - 2 * f1 * k2)

    # -- conjugation by (gamma, rotation a) or (gamma, reflection b) ---------
    # A conjugator triple (g, f, j) acts with 2a = j/N (f=0) or 2b = j/N
    # (f=1); each triple corresponds to exactly two group elements.

    def _conjugator_counts(self, rows, high):
        """Number of conjugator triples t with t(S) inside the finite class
        high, for every subgroup S of `rows`.

        Candidates have a g whose CONJ[g] maps S's rotation and reflection
        permutations into high's.  S's first reflection generator lands on
        a reflection of high with the same permutation, which fixes j and
        that generator's test.  Only f = 0 is listed: for a reflection h of
        high, t -> h t maps the hits with f = 0 one to one onto those with
        f = 1 (h commutes with the central half turn pairing the two group
        elements of a triple), so they count twice.  Generators are tested
        one at a time, on the survivors."""
        n = self.N
        h_rot, h_refl = _bits(high.rot_perms), _bits(high.refl_perms)
        fits = ((rows.rot & ~h_rot) | (rows.refl & ~h_refl)) == 0
        r, g = np.nonzero(fits & (high.order % rows.order == 0)[:, None])
        # high's reflections, sorted by permutation
        p, kind, k = self.split(high.codes)
        h_perm, h_k = p[kind == 1], k[kind == 1]
        key = CONJ[g, rows.p0[r]]
        lo = np.searchsorted(h_perm, key)
        count = np.searchsorted(h_perm, key, "right") - lo
        ids = np.append(high.codes, 48 * n)     # 48 N is above every code
        hits = np.zeros(len(rows.order), dtype=np.int64)
        cut = np.searchsorted(np.cumsum(count),
                              np.arange(0, count.sum(), BATCH), "right")
        for part in map(slice, cut, np.append(cut[1:], len(r))):
            c = np.repeat(np.arange(part.start, part.stop), count[part])
            nth = np.arange(len(c)) - np.repeat(np.cumsum(count[part])
                                                - count[part], count[part])
            rr, gg = r[c], g[c]
            # j from the matched reflection
            j = (h_k[lo[c] + nth] - rows.k0[rr]) % n
            for i in range(rows.p.shape[1]):
                # (p, kind, k) goes to CONJ[g, p], kind, and k or k + j
                p, kind, k = rows.p[rr, i], rows.kind[rr, i], rows.k[rr, i]
                image = self.join(CONJ[gg, p], kind, k + kind * j)
                keep = (p < 0) | (ids[np.searchsorted(ids, image)] == image)
                rr, gg, j = rr[keep], gg[keep], j[keep]
            hits += np.bincount(rr, minlength=len(rows.order))
        return 2 * hits

    # -- enumeration ---------------------------------------------------------

    def _k_groups(self):
        """(K_order, [(K/R, generators of R, label of L = K/R)]) for every
        finite K of the Goursat construction: the dihedral D_d (axis
        parameter 0) of each order, with its quotients by the normal
        subgroups R with quotient Z_m or D_m.  The rotation groups Z_n are
        left out: their classes have infinite Weyl groups."""
        def grid(c, kind=0):
            # the c rotations, or reflections, spaced 1/c turn from 0
            return [self.join(ID_PERM, kind, i * (self.N // c))
                    for i in range(c)]

        def quotient(k, c, l_label, dihedral=False):
            # R is Z_c, or D_c with axis parameter 0
            ker, r_gens = grid(c), grid(c)[1:2]
            if dihedral:
                ker, r_gens = ker + grid(c, 1), r_gens + grid(c, 1)[:1]
            return _CosetGroup(k, ker), r_gens, l_label

        out = []
        for d in self.orders:
            k = _group(grid(d) + grid(d, 1), self.mul)
            qs = [quotient(k, c, "D%d" % (d // c)) for c in _divisors(d)]
            if d % 2 == 0:
                qs.append(quotient(k, d // 2, "Z2", dihedral=True))
            qs.append(quotient(k, d, "Z1", dihedral=True))
            out.append((d, qs))
        return out

    def _enumerate(self):
        """Number the classes one S4 subgroup H at a time, each H's finite
        classes in listing order, and G after the last.

        A finite candidate's name is its canonical form less H: the labels
        of Z, of the permutations paired with rotations (read off its
        codes) and of L, and K's order.  Conjugating by (g, o)
        conjugates H, Z and those permutations by g and K by o, so the name
        is a conjugacy invariant; the amalgam notation names each conjugacy
        class once (Balanov, Krawcewicz and Steinlein, Applied Equivariant
        Degree, 2006), so candidates of one name are conjugate.  The first
        candidate of each name founds its class and the others are passed
        over.  H runs over one subgroup per S4-conjugacy class, so no class
        spans two H, and the candidates of all H are never held at once."""
        n2 = 2 * self.N
        k_groups = self._k_groups()
        pairs = _s4_subgroups()
        for s4c in enumerate_s4_subgroups():
            h = s4c.representative
            normals = _normal_subgroups_of(h)
            group = _group(h, lambda a, b: MUL_ARRAY[a, b])
            # each quotient H/Z with its cosets times 2N, its generators
            # pZ and 2N times their smallest members p, the generators
            # (z, 1) of Z and the naming fields of H and Z
            h_quotients = []
            for z in normals:
                qh = _CosetGroup(group, z)
                h_gens = list(qh.generating_words[0])
                h_quotients.append((
                    qh, qh.rows * n2, h_gens, qh.rows[h_gens, 0] * n2,
                    [self.join(p, 0, 0)
                     for p in sorted(set(pairs[z]) - {ID_PERM})],
                    dict(H_label=s4c.label, Z_label=s4_subgroup_label(z))))
            codes, gens, fields = [], [], []
            for d, quotients in k_groups:
                for qk, r_gens, l_label in quotients:
                    for qh, ph, h_gens, h_lifts, z_gens, hz in h_quotients:
                        iso = (_isomorphisms(qh, qk) if len(qh) == len(qk)
                               else ())
                        if not len(iso):
                            continue
                        # K's codes carry ID_PERM = 0: (p, e) is p 2N + e,
                        # p in a coset of Z, e in the coset of R that the
                        # isomorphism assigns to it
                        codes += list(np.sort((ph[:, :, None] + qk.rows[iso][
                            :, :, None, :]).reshape(len(iso), -1), axis=1))
                        # lifts (p, e) of generators pZ of H/Z, e in the
                        # coset iso[pZ] of R, with (Z, 1) and (1, R)
                        # generate the amalgam
                        lifts = h_lifts + qk.rows[iso[:, h_gens], 0]
                        gens += [g + z_gens + r_gens for g in lifts.tolist()]
                        fields += [dict(L_label=l_label, K_order=d, **hz)
                                   ] * len(iso)
            # the permutations paired with rotations and with reflections,
            # as 24-bit masks, in one pass over every candidate's codes
            sizes = [len(c) for c in codes]
            p, kind, _ = self.split(np.concatenate(codes))
            bit = np.left_shift(1, p)
            masks = zip(*(np.bitwise_or.reduceat(np.where(kind == f, bit, 0),
                                                 np.cumsum(sizes) - sizes
                                                 ).tolist() for f in (0, 1)))
            names = set()
            for c, g, f, (r, s) in zip(codes, gens, fields, masks):
                r_label = s4_subgroup_label(_perm_set(r))
                name = (f["Z_label"], r_label, f["L_label"], f["K_order"])
                if name not in names:
                    names.add(name)
                    self.classes.append(self._finite(
                        c, g, r, s, dict(f, R_label=r_label)))
        s4 = frozenset(range(24))
        self.classes.append(AmalgamClass(
            universe=self, index=len(self.classes), codes=None,
            rot_perms=s4, refl_perms=s4, H_label="S4", Z_label="S4",
            R_label="S4", L_label="Z1", K_order=0))

    def _finite(self, codes, gens, rot, refl, fields):
        """The next class, founded by the candidate with sorted `codes`,
        generators `gens`, rotation and reflection permutation masks `rot`
        and `refl`, and naming `fields`."""
        codes = codes.copy()            # not a view holding its whole block
        codes.flags.writeable = False
        return AmalgamClass(
            universe=self, index=len(self.classes), codes=codes,
            rot_perms=_perm_set(rot), refl_perms=_perm_set(refl),
            gens=tuple(gens), **fields)

    def _finalize_names(self):
        sig = {}
        for kl in self.classes:
            sig.setdefault((kl.H_label, kl.Z_label, kl.L_label, kl.K_order),
                           []).append(kl.index)
        self._ambiguous = {
            idx for members in sig.values() if len(members) > 1
            for idx in members}
        for kl in self.classes:
            name = kl.canonical_form()
            if name in self._name_index:
                raise InternalError("two classes are named %s" % name)
            self._name_index[name] = kl
            self._name_index.setdefault(kl.printed_form(), kl)

    # -- lookups ---------------------------------------------------------

    @property
    def unit(self):
        return self.parse_class("(S4 x O2)")

    def all_classes(self):
        return tuple(self._classes_sorted)

    # every class of the universe is a Phi0 class
    phi0_classes = all_classes

    def parse_class(self, text) -> AmalgamClass:
        """The class named `text`, in canonical_form or printed_form; the
        only lookup of a class."""
        kl = self._name_index.get(text.strip())
        if kl is None:
            raise KeyError("unknown class string %r" % text)
        return kl

    # -- the table of marks: Weyl groups, containment counts ---------------

    @cached_property
    def _finite_rows(self):
        """(class indices, kernel rows) of every finite class."""
        finite = [kl for kl in self.classes if kl.is_finite]
        return np.array([kl.index for kl in finite]), _Rows(self, finite)

    def weyl(self, kl):
        """Order of the Weyl group N(kl)/kl, finite for every class: kl's
        own mark M[kl, kl] = n(kl, kl) |W(kl)|."""
        return int(self._marks(kl)[kl.index])

    def n_count(self, low, high):
        """Number of conjugates of `high` containing a representative of
        `low`: the containment count n(L, H) = M[L, H] / M[H, H]."""
        marks = self._marks(high)
        return int(marks[low.index] // marks[high.index])

    def _marks(self, high):
        """The marks M[L, high] = n(L, high) |W(high)| of every class L by
        class index, the column of the table of marks, built on first use."""
        if high.index in self._columns:
            return self._columns[high.index]
        if not high.is_finite:
            # G holds every class once, n(L, G) = 1, and |W(G)| = 1
            col = np.ones(len(self.classes), dtype=np.int64)
        else:
            # the conjugators t with t(L) inside H come in whole cosets of
            # the normalizer, one coset per conjugate of H that contains L,
            # and each conjugator triple stands for two group elements, so
            # twice the count over |H| is n(L, H) |N(H)| / |H|
            index, rows = self._finite_rows
            marks, rem = np.divmod(2 * self._conjugator_counts(rows, high),
                                   high.order)
            if rem.any():
                raise InternalError("conjugators into %s do not divide by "
                                    "its order" % high)
            col = np.zeros(len(self.classes), dtype=np.int64)
            col[index] = marks
            if (col % col[high.index]).any():
                raise InternalError("conjugators into %s do not fill "
                                    "normalizer cosets" % high)
        self._columns[high.index] = col
        return col

    def leq(self, low, high):
        """Subconjugacy partial order on classes."""
        return low is high or self.n_count(low, high) >= 1

    # -- fixed point dimensions ----------------------------------------------

    @cached_property
    def _rotations(self):
        """Slot 5 * owner class + character column (int32) and grid step of
        the rotations of all finite classes; and class orders, 1 for G."""
        finite = [kl for kl in self.classes if kl.is_finite]
        p, kind, k = self.split(np.concatenate([kl.codes for kl in finite]))
        owner = np.repeat(np.int32([kl.index for kl in finite]),
                          [kl.order for kl in finite])
        rot = kind == 0
        return (5 * owner[rot] + PERM_CLASS[p[rot]].astype(np.int32), k[rot],
                np.array([kl.order or 1 for kl in self.classes]))

    def _fixed_dims(self, j, l):
        """dim V_{j,l}^L of every class L by class index, all five j at
        once: the character table times one cosine sum per slot, over the
        class order; a full circle of rotations sums to zero, so G gets 0."""
        if not (0 <= j <= 4 and l >= 1):
            raise UsageError("no loop mode (j, l) = (%r, %r)" % (j, l))
        if l not in self._dims_memo:
            slot, k, order = self._rotations
            cos = 2.0 * np.cos(2.0 * np.pi * l * k / self.N)
            sums = np.bincount(slot, cos, minlength=5 * len(order))
            dim = CHARACTER_TABLE @ sums.reshape(-1, 5).T / order
            r = np.rint(dim)
            if np.abs(dim - r).max() > 1e-9:
                raise InternalError("non-integer fixed-point dimension")
            self._dims_memo[l] = r.astype(np.int64)
        return self._dims_memo[l][j]

    def fixed_point_dim(self, j, l, kl):
        """dim of the fixed space of the class inside the (j, l) loop mode."""
        return int(self._fixed_dims(j, l)[kl.index])

    # -- ring arithmetic in mark coordinates ---------------------------------

    @cached_property
    def _mark_order(self):
        """Class indices in back-substitution order, strictly monotone along
        the partial order: G first, then by falling order."""
        return np.array([kl.index for kl in sorted(
            self._classes_sorted, key=lambda kl: (kl.order == 0, kl.order),
            reverse=True)])

    def _mark_column(self, i):
        """The marks M[., H] of the class H with index i over the classes
        in back-substitution order, as Python ints."""
        return self._marks(self.classes[i])[self._mark_order].astype(object)

    def marks(self, coeffs: dict) -> np.ndarray:
        """Mark coordinates v_L = sum_H c_H M[L, H] of the element
        with class coefficients `coeffs`, one exact Python int per class L
        in back-substitution order."""
        v = np.zeros(len(self._mark_order), dtype=object)
        for i, c in coeffs.items():
            v += c * self._mark_column(i)
        return v

    def from_marks(self, v) -> dict:
        """Class coefficients of the element whose mark vector is v.

        The mark of L is c_L M[L, L] plus c_H M[L, H] for every class H
        above L, and those come first in back-substitution order: each
        coefficient is one exact division by the diagonal mark
        M[L, L] = |W(L)|, then c_L times column L leaves the marks still to
        come.  A zero mark gives a zero coefficient, so only the classes
        with a nonzero one have their column of marks read.  The marks are
        Python ints, so nothing wraps around."""
        if len(v) != len(self._mark_order):
            raise ValueError("mark vector has the wrong length")
        v = np.asarray(v).astype(object)        # int64 entries become ints
        coeffs = {}
        for pos, i in enumerate(self._mark_order.tolist()):
            if v[pos]:
                col = self._mark_column(i)
                c, rem = divmod(v[pos], col[pos])
                if rem:
                    raise InternalError(
                        "non-exact division by |W(%s)| in mark "
                        "back-substitution" % self.classes[i])
                coeffs[i] = c
                v -= c * col
        return coeffs

    def degree_marks(self, modes) -> list:
        """Marks of the product of the basic degrees of the (j, l) loop modes
        in `modes`: (-1)^(sum of dim V_{j,l}^L) at each class L."""
        dims = sum((self._fixed_dims(j, l) for j, l in modes),
                   np.zeros(len(self.classes), dtype=np.int64))
        return (1 - 2 * (dims[self._mark_order] % 2)).tolist()

    def basic_degree(self, j, l) -> "BurnsideElement":
        """Gradient degree of -Id on the (j, l) isotypic loop component."""
        return BurnsideElement(self,
                               self.from_marks(self.degree_marks([(j, l)])))

    def fold_cover(self, kl: AmalgamClass, k: int) -> AmalgamClass:
        """Class of the preimage of kl under the k-fold cover of O(2) (used
        by the mode-doubling independence check).

        The cover keeps H, Z, L and the permutations paired with rotations
        and multiplies K's order by k, so the preimage is named like kl
        with K order k K_order.  It pulls K = D_d on the grid back to D_kd,
        and the kernel of K -> L back to a kernel whose cosets are numbered
        alike, so the preimage of kl's founder is the first candidate of the
        new name and founds its class.
        InternalError unless that class exists and its codes are the
        preimage's."""
        codes = self._fold_preimage(kl, k)
        cover = self._name_index.get(kl._cover_form(k))
        if cover is None or not np.array_equal(cover.codes, codes):
            raise InternalError("the %d-fold cover of %s is not a class"
                                % (k, kl))
        return cover

    def _fold_preimage(self, kl, k):
        """Sorted codes of the preimage of kl under the k-fold cover of
        O(2).

        An element with rotation angle or axis parameter t/N pulls back to
        the k elements of parameter (t + jN)/(kN), 0 <= j < k, those on the
        grid."""
        if not kl.is_finite:
            raise ValueError("G has no fold cover preimage")
        n = self.N
        p, kind, t = (np.repeat(a, k) for a in self.split(kl.codes))
        t = t + np.tile(np.arange(k) * n, kl.order)
        on = t % k == 0
        codes = np.sort(self.join(p[on], kind[on], t[on] // k))
        if len(codes) != k * kl.order:
            raise InternalError("fold cover has wrong order (resolution?)")
        return codes


# Largest l_max whose universe keeps every element code, which lies below
# 48 N (24 permutations, two kinds, N = lcm(_orders(l_max)) grid steps),
# inside the int64 arrays of the conjugator kernel: 48 lcm(_orders(40)) is
# below 2**63 and 48 lcm(_orders(41)) is not.
MAX_MODE = 40


# ---------------------------------------------------------------------------
# ring elements


class BurnsideElement:
    """Integer combination of finite-Weyl conjugacy classes."""

    def __init__(self, universe: Universe, coeffs=None):
        self.universe = universe
        self.coeffs = {idx: int(c) for idx, c in (coeffs or {}).items() if c}

    @classmethod
    def unit(cls, universe):
        return cls(universe, {universe.unit.index: 1})

    def terms(self):
        """(class, coefficient) pairs in canonical order."""
        return [(self.universe.classes[i], c) for i, c in
                sorted(self.coeffs.items(),
                       key=lambda ic: self.universe.classes[ic[0]].sort_key())]

    def _check(self, other):
        if not isinstance(other, BurnsideElement):
            raise TypeError("expected a ring element")
        if other.universe is not self.universe:
            raise ValueError("elements from different universes")

    def __add__(self, other):
        self._check(other)
        return BurnsideElement(self.universe, {
            i: self.coeffs.get(i, 0) + other.coeffs.get(i, 0)
            for i in {**self.coeffs, **other.coeffs}})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        """Ring product, pointwise in mark coordinates (an int scales the
        coefficients).  The ring-axiom tests check this product."""
        if isinstance(other, int):
            return BurnsideElement(
                self.universe, {i: c * other for i, c in self.coeffs.items()})
        self._check(other)
        u = self.universe
        return BurnsideElement(u, u.from_marks(
            u.marks(self.coeffs) * u.marks(other.coeffs)))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, BurnsideElement)
                and self.universe is other.universe
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.universe), tuple(sorted(self.coeffs.items()))))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        text = " ".join("%s %s%s" % ("-" if c < 0 else "+",
                                     "" if abs(c) == 1 else abs(c),
                                     kl.printed_form())
                        for kl, c in self.terms())
        return (text[2:] if text.startswith("+ ") else text) or "0"

    __repr__ = __str__

