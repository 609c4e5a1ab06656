import gc
import hashlib
import inspect
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import tetravib.burnside as bu
from tetravib import cli
from tetravib.grouprep import CHARACTER_TABLE

from _golden import DEGREE_TABLES, as_class_set, lookup
import _enumerate_reference as per_candidate
import _pair_reference as per_pair


@pytest.fixture(scope="module")
def u1():
    return bu.Universe.for_l_max(1)


@pytest.fixture(scope="module")
def u12():
    return bu.Universe.for_l_max(2)


# ---------------------------------------------------------------------------
# S4 subgroup lattice, against an independent in-test enumeration

def _compose(p, q):
    return tuple(p[q[i]] for i in range(4))


def _closure(gens, compose=_compose, identity=(0, 1, 2, 3)):
    """Every product of the generators: the finite group they generate."""
    group = frontier = {identity}
    while frontier:
        frontier = {compose(a, b) for a in frontier for b in gens} - group
        group = group | frontier
    return frozenset(group)


def _all_subgroups_oracle():
    perms = list(itertools.permutations(range(4)))
    subs = set()
    for a in perms:
        for b in perms:
            subs.add(_closure([a, b]))
    return subs


def test_subgroup_census_against_closure_oracle():
    oracle = _all_subgroups_oracle()
    assert len(oracle) == 30
    by_order = {}
    for h in oracle:
        by_order[len(h)] = by_order.get(len(h), 0) + 1
    assert by_order == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}

    classes = bu.enumerate_s4_subgroups()
    assert len(classes) == 11
    counts = {c.label: len(c.members) for c in classes}
    assert counts == {"Z1": 1, "D1": 6, "Z2": 3, "Z3": 4, "D2": 3,
                      "V4": 1, "Z4": 3, "D3": 4, "D4": 3, "A4": 1, "S4": 1}
    # same subgroups as the oracle, translated through the S4 index table
    listed = {frozenset(h) for c in classes for h in c.members}
    oracle_idx = {frozenset(bu.S4.index(p) for p in h) for h in oracle}
    assert listed == oracle_idx


def _index_closure(pair):
    """The oracle's closure of a pair of S4 indices, as a set of indices."""
    return frozenset(bu.S4.index(p)
                     for p in _closure([bu.S4[x] for x in pair]))


def test_subgroup_table_holds_first_generating_pairs_in_order():
    table = bu._s4_subgroups()
    assert len(table) == 30
    keys = [(len(h), sorted(h)) for h in table]
    assert keys == sorted(keys)
    pairs = [(x, y) for x in range(24) for y in range(x, 24)]
    closures = [_index_closure(pair) for pair in pairs]
    for h, pair in table.items():
        assert _index_closure(pair) == h
        assert pair == pairs[closures.index(h)]


def test_normal_subgroups_follow_table_order():
    order = list(bu._s4_subgroups())
    for h in order:
        normal = [z for z in order if z <= h and all(
            frozenset(bu.MUL[bu.MUL[g][p]][bu.INV[g]] for p in z) == z
            for g in h)]
        assert bu._normal_subgroups_of(h) == normal


def test_s4_subgroup_classes_are_pinned():
    classes = bu.enumerate_s4_subgroups()
    assert [c.label for c in classes] == [
        "Z1", "D1", "Z2", "Z3", "D2", "V4", "Z4", "D3", "D4", "A4", "S4"]
    assert [sorted(c.representative) for c in classes] == [
        [0], [0, 1], [0, 7], [0, 3, 4], [0, 1, 6, 7], [0, 7, 16, 23],
        [0, 7, 17, 22], [0, 1, 2, 3, 4, 5], [0, 1, 6, 7, 16, 17, 22, 23],
        [0, 3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23], list(range(24))]
    text = repr([[sorted(h) for h in c.members] for c in classes])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6b5bb04e59e3a74026dba093b09d06631081c6e19b2ed22f85a5215831e63fe9")


def test_order_two_labels_distinguish_transpositions():
    transposition = bu.S4.index((1, 0, 2, 3))
    double = bu.S4.index((1, 0, 3, 2))
    assert bu.s4_subgroup_label(frozenset([bu.ID_PERM, transposition])) == "D1"
    assert bu.s4_subgroup_label(frozenset([bu.ID_PERM, double])) == "Z2"


# ---------------------------------------------------------------------------
# universe basics

def test_universe_orders_and_unit(u1):
    assert u1.N == 12                       # lcm of dihedral orders 1..4
    unit = u1.unit
    assert unit.printed_form() == "(S4 x O2)"
    assert u1.weyl(unit) == 1


def test_max_mode_is_the_largest_with_int64_element_codes():
    # element codes lie below 48 N, N = lcm(_orders(l_max)), and N only
    # grows with l_max, so MAX_MODE is the last l_max below 2**63
    def bound(l_max):
        return 48 * math.lcm(*bu._orders(l_max))

    assert bound(bu.MAX_MODE) < 2 ** 63 <= bound(bu.MAX_MODE + 1)


@pytest.mark.parametrize("l_max, message", [
    (bu.MAX_MODE + 1, "Fourier mode 41 is above 40, the largest whose "
                      "element codes fit in 64-bit integers"),
    (0, "l_max must be at least 1")], ids=["41", "0"])
def test_universe_refuses_l_max_out_of_range(l_max, message):
    # a universe beyond MAX_MODE would hold wrapped int64 codes, and one
    # below 1 has no dihedral order; neither is built nor cached
    with pytest.raises(bu.UsageError) as info:
        bu.Universe.for_l_max(l_max)
    assert str(info.value) == message
    assert l_max not in bu.Universe._cache


def test_basic_degree_refuses_a_mode_outside_the_loop_modes(u1):
    with pytest.raises(bu.UsageError) as info:
        u1.basic_degree(5, 1)
    assert str(info.value) == "no loop mode (j, l) = (5, 1)"
    assert issubclass(bu.UsageError, ValueError)


@pytest.mark.parametrize("l_max, census", [
    (1, (12, 126)), (2, (24, 207)), (3, (72, 273)), (4, (144, 313)),
    (5, (720, 438))])
def test_universe_census(l_max, census):
    # the universe holds the dihedral classes and G, all Phi0 classes
    u = bu.Universe.for_l_max(l_max)
    assert (u.N, len(u.all_classes())) == census
    assert u.phi0_classes() == u.all_classes()


@pytest.mark.parametrize("l_max, digest", [
    (2, "da5b90c11aa285cc7bbbcbee5ca930cc314046c24dfd300ff000448efe9d6cc1"),
    (4, "0b383e99e2c0d915ab8687f620c293e8fd83a575397dc9900df61614fe8ada11"),
    (8, "ee81b455e55c3e3e9cff7f15ca3259d2429e23e5108d52b14b83e6140451b633"),
    (16, "6f6736b1a77f73f88e0dff27bcff7f33af954fd3175fcaa45c811455e9d953cf"),
    (40, "c1619d876ff8212bd82622d1c8cd3baa68c9a03b8b37f11271d7eeaf76c15557")],
    ids=["2", "4", "8", "16", "40"])
def test_class_list_order_and_generators_are_pinned(l_max, digest):
    # the enumeration order fixes class indices and generators; a change
    # in how the Goursat loops run must leave both alone.  MAX_MODE is 40,
    # so these pins hold the one-class-per-name founding to the conjugacy
    # classes over every universe the CLI can build
    u = bu.Universe.for_l_max(l_max)
    text = "\n".join("%s %s" % (kl.canonical_form(), kl.gens)
                     for kl in u.classes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("l_max", range(1, 7))
def test_class_list_matches_sequential_reference(l_max):
    # canonical form, codes, generators and permutations of every
    # class, in index order, against the one-candidate-at-a-time build
    u = bu.Universe.for_l_max(l_max)
    assert per_candidate.differences(u) == []


def _code_set(kl):
    """The element codes of a finite class, as a set of ints."""
    return frozenset(kl.codes.tolist())


def _class_fields(u):
    return [(kl.canonical_form(), _code_set(kl) if kl.is_finite else None,
             kl.gens) for kl in u.classes]


def _counting_kernel(monkeypatch):
    calls = []
    kernel = bu.Universe._conjugator_counts

    def counting(self, rows, high):
        calls.append(len(rows.order))
        return kernel(self, rows, high)
    monkeypatch.setattr(bu.Universe, "_conjugator_counts", counting)
    return calls


def test_universe_build_makes_no_kernel_call(monkeypatch):
    # each class is founded by the first candidate of its name, so the
    # build searches for no conjugator; every class is a Phi0 class, and
    # G's column of marks is all ones
    calls = _counting_kernel(monkeypatch)
    u = bu.Universe(2)
    assert u.phi0_classes() == u.all_classes()
    assert all(u.weyl(kl) for kl in u.all_classes() if not kl.is_finite)
    assert calls == []
    assert _class_fields(u) == _class_fields(bu.Universe.for_l_max(2))


def test_invariants_make_one_kernel_call_per_finite_column(monkeypatch):
    # a finite column's pass counts its high against itself too, so the
    # Weyl order, the column's own mark, takes no call of its own
    monkeypatch.setattr(bu.Universe, "_cache", {})
    calls = _counting_kernel(monkeypatch)
    assert cli.main(["invariants"]) == 0
    (u,) = bu.Universe._cache.values()
    assert len(calls) == 25
    assert len(calls) == sum(u.classes[i].is_finite for i in u._columns)


def test_fold_cover_matches_sequential_reference(u12):
    reference = per_candidate.Sequential(u12)
    reference.enumerate()
    for kl in u12.phi0_classes():
        if kl.is_finite:
            for k in (2, 3):
                def classify_preimage():
                    # every element of the preimage serves as a generator
                    codes = u12._fold_preimage(kl, k)
                    return reference.classify(codes, codes).index
                got = _class_or_fault(lambda: u12.fold_cover(kl, k).index)
                expected = _class_or_fault(classify_preimage)
                assert got == expected, (str(kl), k)


def _generated(u, gens):
    return _closure(gens, u.mul, u.join(bu.ID_PERM, 0, 0))


def test_generators_generate_each_finite_class(u12):
    for kl in u12.all_classes():
        if kl.is_finite:
            assert _generated(u12, kl.gens) == _code_set(kl), str(kl)


@pytest.mark.parametrize("l_max", [2, 4])
def test_class_stores_its_elements_once_as_a_sorted_read_only_array(l_max):
    u = bu.Universe.for_l_max(l_max)
    for kl in u.classes:
        assert kl.H_set == kl.rot_perms | kl.refl_perms, str(kl)
        if not kl.is_finite:
            assert kl.codes is None and kl.order == 0, str(kl)
            continue
        codes = kl.codes
        assert isinstance(codes, np.ndarray) and codes.dtype == np.int64
        assert len(codes) == kl.order
        assert (np.diff(codes) > 0).all(), str(kl)
        with pytest.raises(ValueError):
            codes[0] = codes[-1]
    assert {"order", "H_set"}.isdisjoint(
        inspect.signature(bu.AmalgamClass).parameters)
    checked = 0
    for kl in u.phi0_classes():
        if kl.is_finite:
            for k in (2, 3):
                try:
                    codes = u._fold_preimage(kl, k)
                except bu.InternalError:        # off the grid
                    continue
                assert isinstance(codes, np.ndarray)
                assert codes.dtype == np.int64
                assert (np.diff(codes) > 0).all(), (str(kl), k)
                checked += 1
    assert checked == {2: 307, 4: 560}[l_max]


def test_universe_at_l_max_8_holds_under_2_mib_and_peaks_under_4_5_mib():
    # a new universe, not the cached one, so the build is measured; listing
    # the Goursat candidates one S4 subgroup at a time bounds the build's
    # peak, and a class holds its codes and generators only
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = bu.Universe(8)
        gc.collect()
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(u.classes) == 686
    assert held < 2 * 2 ** 20, "%.2f MiB" % (held / 2 ** 20)
    assert peak < 4.5 * 2 ** 20, "%.2f MiB" % (peak / 2 ** 20)


@pytest.mark.parametrize("l_max", [2, 4])
def test_name_round_trip_every_class(l_max):
    u = bu.Universe.for_l_max(l_max)
    assert len(u.all_classes()) == {2: 207, 4: 313}[l_max]
    for kl in u.all_classes():
        assert u.parse_class(kl.canonical_form()) is kl
        assert u.parse_class(kl.printed_form()) is kl
    with pytest.raises(KeyError):
        u.parse_class("(S9 x D1)")


def test_a_class_is_one_object_found_by_its_name(u12):
    # parse_class is the one lookup, a class is equal only to itself, and
    # K's name follows from K_order
    assert not hasattr(bu.Universe, "find_class")
    fields = inspect.signature(bu.AmalgamClass).parameters
    assert {"kind", "K_kind"}.isdisjoint(fields)
    kl = u12.parse_class("(D3^Z1 x_D3 D3)")
    copy = bu.AmalgamClass(**{name: getattr(kl, name) for name in fields})
    assert copy.canonical_form() == kl.canonical_form()
    assert copy != kl and hash(copy) != hash(kl) and len({kl, copy}) == 2
    assert u12.unit is u12.parse_class("(S4^S4_S4 x_Z1 O2)")


def test_two_classes_of_one_canonical_form_fault(monkeypatch):
    # parse_class and fold_cover read the name index, so a name shared by
    # two classes stops the build instead of hiding one of them
    monkeypatch.setattr(bu.AmalgamClass, "canonical_form",
                        lambda self: "(S4 x O2)")
    with pytest.raises(bu.InternalError):
        bu.Universe(1)


def test_weyl_orders(u12):
    for l in (1, 2, 3, 4):
        kl = lookup(u12, "S4", "S4", None, "Z1", l)
        assert u12.weyl(kl) == 2


@pytest.mark.parametrize("name", ["(D4 x SO2)", "(A4 x O2)",
                                  "(S4^A4 x_Z2 O2)"])
def test_classes_holding_so2_other_than_g_are_unknown(u12, name):
    # SO(2) fixes no vector of a loop mode l >= 1, so such a class never
    # carries a coefficient and the universe leaves it out, as it leaves
    # out the Z_n classes
    with pytest.raises(KeyError):
        u12.parse_class(name)


def test_finite_classes_and_g_span_a_subring_with_unit_g():
    # a finite class has mark 0 at G, so a product of finite classes has no
    # G term; G's marks are all 1, so it is the unit
    u = bu.Universe.for_l_max(2)
    g = u.unit
    unit = bu.BurnsideElement.unit(u)
    sample = {kl: bu.BurnsideElement(u, {kl.index: 1})
              for kl in random.Random(32).sample(
                  [kl for kl in u.classes if kl.is_finite], 40)}
    for x in sample.values():
        assert unit * x == x
    for a, b in itertools.combinations(sample, 2):
        assert g.index not in (sample[a] * sample[b]).coeffs, (str(a), str(b))
    # no mode l >= 1 has a vector fixed by SO(2), so every basic degree
    # holds G once
    for l_max in (2, 8):
        u = bu.Universe.for_l_max(l_max)
        for j in range(5):
            for l in range(1, l_max + 1):
                assert u.basic_degree(j, l).coeffs[u.unit.index] == 1, (j, l)


def test_three_epimorphism_kernels_give_distinct_classes(u12):
    kls = [kl for kl in u12.classes
           if (kl.H_label, kl.L_label, kl.K_order) == ("D4", "Z2", 2)
           and kl.Z_label in ("D2", "Z4", "V4")]
    assert len(kls) == 3
    assert len({kl.index for kl in kls}) == 3
    forms = {kl.printed_form() for kl in kls}
    assert forms == {"(D4^D2 x_Z2 D2)", "(D4^Z4 x_Z2 D2)", "(D4^V4 x_Z2 D2)"}


# ---------------------------------------------------------------------------
# counting coefficients and the partial order

def test_n_count_reflexive_and_unit(u1):
    unit = u1.unit
    sample = [kl for kl in u1.phi0_classes() if kl.is_finite][::7]
    for kl in sample:
        assert u1.n_count(kl, kl) == 1
        assert u1.n_count(kl, unit) == 1


def test_n_count_d1_inside_d3(u1):
    low = lookup(u1, "D1", "D1", None, "Z1", 1)       # <(12)> x D1
    high = lookup(u1, "D3", "D3", None, "Z1", 1)      # S3 copies x D1
    assert u1.n_count(low, high) == 2


def _conjugate_subgroups(u, kl):
    """Distinct images of kl under all 48 N conjugator triples."""
    codes = _code_set(kl)
    return {frozenset(per_pair.conj_apply(u, (g, f, j), e) for e in codes)
            for g in range(24) for f in (0, 1) for j in range(u.N)}


def test_n_count_matches_brute_force_conjugates(u1):
    finite = [kl for kl in u1.all_classes() if kl.is_finite]
    for high in u1.phi0_classes():
        if not high.is_finite:
            continue
        conjugates = _conjugate_subgroups(u1, high)
        for low in finite:
            codes = _code_set(low)
            expected = sum(1 for c in conjugates if codes <= c)
            assert u1.n_count(low, high) == expected, (str(low), str(high))


def test_columns_match_per_pair_reference(u1):
    # every class as low, G included
    for high in u1.phi0_classes():
        for low in u1.all_classes():
            assert u1.n_count(low, high) == per_pair.n_count(u1, low, high), (
                str(low), str(high))


class _RotationsOnly(SimpleNamespace):
    def __str__(self):
        return "(Z1 x Z12)"


def test_kernel_rows_fault_on_a_subgroup_without_a_reflection_generator(u1):
    # every finite class projects onto a dihedral group, so one of its
    # generators is a reflection; a subgroup without one is an impossibility
    stub = _RotationsOnly(gens=(u1.join(bu.ID_PERM, 0, 1),),
                          rot_perms=frozenset([bu.ID_PERM]),
                          refl_perms=frozenset(), order=12)
    with pytest.raises(bu.InternalError, match=r"class \(Z1 x Z12\) has no "
                                               "reflection generator"):
        bu._Rows(u1, [u1.parse_class("(S4 x D1)"), stub])


def test_column_faults_on_a_count_off_the_normalizer_cosets(monkeypatch):
    # one conjugator triple too many for the first subgroup that has any:
    # the conjugators no longer come in whole cosets of the normalizer
    kernel = bu.Universe._conjugator_counts

    def one_more(self, rows, high):
        counts = kernel(self, rows, high)
        counts[np.flatnonzero(counts)[0]] += 1
        return counts
    monkeypatch.setattr(bu.Universe, "_conjugator_counts", one_more)
    u = bu.Universe(1)              # a fresh universe, no column cached
    high = u.parse_class("(S4 x D1)")
    with pytest.raises(bu.InternalError, match=r"into \(S4 x D1\) "):
        u.n_count(u.parse_class("(Z1 x D1)"), high)


def test_column_faults_on_a_mark_off_the_weyl_multiples(monkeypatch):
    # half an order more conjugators at a class outside the subgroup: the
    # count still divides by the order, but a mark of 1 is no multiple of
    # |W((Z1 x D1))| = 48, so the conjugators cannot fill whole cosets
    kernel = bu.Universe._conjugator_counts

    def one_mark_more(self, rows, high):
        counts = kernel(self, rows, high)
        counts[np.flatnonzero(counts == 0)[0]] += high.order // 2
        return counts
    monkeypatch.setattr(bu.Universe, "_conjugator_counts", one_mark_more)
    u = bu.Universe(1)              # a fresh universe, no column cached
    with pytest.raises(bu.InternalError, match=r"^conjugators into "
                       r"\(Z1 x D1\) do not fill normalizer cosets$"):
        u.weyl(u.parse_class("(Z1 x D1)"))


def test_subgroup_label_faults_on_an_impossible_order():
    # Lagrange: no subgroup of S4 has 5 elements
    with pytest.raises(bu.InternalError,
                       match="^impossible subgroup order 5$"):
        bu.s4_subgroup_label(frozenset(range(5)))


def test_coset_group_faults_without_two_generators():
    # (Z2)^3, the codes 0..7 under xor, needs three generators
    q = bu._CosetGroup(bu._group(range(8), np.bitwise_xor), [0])
    with pytest.raises(bu.InternalError,
                       match="^quotient group is not 2-generated$"):
        q.generating_words


def test_fixed_dims_fault_on_a_non_integer_dimension(monkeypatch):
    # half the character table gives half of an odd dimension somewhere
    monkeypatch.setattr(bu, "CHARACTER_TABLE", CHARACTER_TABLE / 2)
    u = bu.Universe(1)              # a fresh universe, no dimension cached
    with pytest.raises(bu.InternalError,
                       match="^non-integer fixed-point dimension$"):
        u.fixed_point_dim(0, 1, u.parse_class("(S4 x D1)"))


def test_g_has_no_element_list_and_no_fold_cover(u1):
    with pytest.raises(ValueError, match="^G has no finite element list$"):
        u1.unit.elements()
    with pytest.raises(ValueError, match="^G has no fold cover preimage$"):
        u1.fold_cover(u1.unit, 2)


def test_from_marks_refuses_a_vector_of_the_wrong_length(u1):
    with pytest.raises(ValueError, match="^mark vector has the wrong length$"):
        u1.from_marks([0] * (len(u1.classes) + 1))


def test_ring_operations_refuse_foreign_operands(u1, u12):
    d = u1.basic_degree(0, 1)
    with pytest.raises(TypeError, match="^expected a ring element$"):
        d + 1
    with pytest.raises(ValueError,
                       match="^elements from different universes$"):
        d * u12.basic_degree(0, 1)


def test_class_repr_and_element_hash(u1, u12):
    kl = u1.parse_class("(S4 x D1)")
    assert repr(kl) == "AmalgamClass(index=%d, (S4^S4_S4 x_Z1 D1))" % kl.index
    a, b = (bu.BurnsideElement(u1, {kl.index: 2}) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # the same coefficients in another universe are another element
    other = bu.BurnsideElement(u12, {u12.parse_class("(S4 x D1)").index: 2})
    assert a != other and len({a, other}) == 2


@pytest.mark.parametrize("l_max", [1, 2, 4])
def test_normalizers_match_per_pair_reference(l_max):
    u = bu.Universe.for_l_max(l_max)
    for kl in u.all_classes():
        if kl.is_finite:
            assert per_pair.weyl_matches(u, kl), str(kl)


def test_leq_antisymmetric_on_equal_order_classes(u1):
    finite = [kl for kl in u1.phi0_classes() if kl.is_finite]
    by_order = {}
    for kl in finite:
        by_order.setdefault(kl.order, []).append(kl)
    for group in by_order.values():
        for a, b in itertools.combinations(group, 2):
            assert not (u1.leq(a, b) and u1.leq(b, a))


# ---------------------------------------------------------------------------
# ring structure

def _random_element(u, rng, classes):
    coeffs = {}
    for kl in rng.sample(classes, 2):
        coeffs[kl.index] = rng.choice([-3, -2, -1, 1, 2, 3])
    return bu.BurnsideElement(u, coeffs)


def test_ring_axioms_on_random_elements(u1):
    rng = random.Random(20240817)
    classes = list(u1.phi0_classes())
    unit = bu.BurnsideElement.unit(u1)
    for _ in range(10):
        a = _random_element(u1, rng, classes)
        b = _random_element(u1, rng, classes)
        c = _random_element(u1, rng, classes)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * unit == a
        assert a - a == bu.BurnsideElement(u1, {})
    for _ in range(2):
        a = _random_element(u1, rng, classes)
        b = _random_element(u1, rng, classes)
        c = _random_element(u1, rng, classes)
        assert (a * b) * c == a * (b * c)


def test_mark_arithmetic_is_exact_beyond_int64(u1):
    big = 2 ** 70
    unit = bu.BurnsideElement.unit(u1)
    assert u1.from_marks(u1.marks({u1.unit.index: big})) == {
        u1.unit.index: big}
    assert (unit * big) * (unit * big) == unit * big ** 2
    # every column of a basic degree takes part; Deg * Deg = unit
    d = u1.basic_degree(1, 1) * big
    assert d * d == unit * big ** 2


def test_from_marks_faults_on_a_non_exact_division(u1):
    # a mark of 1 at the last class in back-substitution order, whose Weyl
    # group has 48 elements, is the mark vector of no ring element
    last = u1.classes[u1._mark_order[-1]]
    assert str(last) == "(Z1 x D1)" and u1.weyl(last) == 48
    v = [0] * len(u1._mark_order)
    v[-1] = 1
    with pytest.raises(bu.InternalError, match=r"non-exact division by "
                                               r"\|W\(\(Z1 x D1\)\)\|"):
        u1.from_marks(v)


def test_integer_scalar_multiple(u1):
    d = u1.basic_degree(0, 1)
    assert 2 * d == d + d
    assert -1 * d == -d


# ---------------------------------------------------------------------------
# basic degrees: golden tables and the involution property

def test_basic_degree_tables_l1_l2(u12):
    # l = 3, 4 run on the N = 144 grid of the universe of l_max = 4
    u1234 = bu.Universe.for_l_max(4)
    for u, modes in ((u12, (1, 2)), (u1234, (3, 4))):
        for j, table in DEGREE_TABLES.items():
            for l in modes:
                deg = u.basic_degree(j, l)
                expected = as_class_set(u, table, scale=l)
                expected[u.unit] = 1
                got = dict(deg.terms())
                assert got == expected, "degree table j=%d l=%d" % (j, l)


def test_degree_squares_to_unit(u12):
    unit = bu.BurnsideElement.unit(u12)
    for j in range(5):
        for l in (1, 2):
            d = u12.basic_degree(j, l)
            assert d * d == unit, (j, l)


def test_degree_display_order_matches_reference(u12):
    text = str(u12.basic_degree(1, 1))
    assert text.startswith("(S4 x O2) - (D4^Z1 x_D4 D4) - (D4^D2 x_Z2 D2)")
    assert text.endswith("- (Z2^Z1 x_D1 D1) - (Z1 x D1)")


# ---------------------------------------------------------------------------
# fixed point dimensions

def _manual_fixdim(u, codes, j, l):
    total = 0.0
    for e in codes:
        p, kind, k = u.split(e)
        if kind == 0:
            chi = int(CHARACTER_TABLE[j][bu.PERM_CLASS[p]])
            total += chi * 2.0 * math.cos(2.0 * math.pi * l * k / u.N)
    return total / len(codes)


def test_fixed_point_dim_matches_character_average(u1):
    for kl in u1.phi0_classes():
        if not kl.is_finite:
            continue
        for j, l in ((0, 1), (1, 1), (2, 1)):
            manual = _manual_fixdim(u1, kl.codes, j, l)
            assert abs(manual - round(manual)) < 1e-9
            assert u1.fixed_point_dim(j, l, kl) == round(manual)


def test_fixed_point_dim_constant_on_conjugates(u1):
    triples = [(g, f, j) for g in (0, 5, 17) for f in (0, 1) for j in (0, 1, 7)]
    for name in ("(S4 x D1)", "(D2^D1 x_Z2 D2)", "(D3^Z1 x_D3 D3)"):
        kl = u1.parse_class(name)
        base = u1.fixed_point_dim(1, 1, kl)
        images = {frozenset(per_pair.conj_apply(u1, t, e) for e in kl.codes)
                  for t in triples}
        assert len(images) > 1
        for codes in images:
            assert abs(_manual_fixdim(u1, codes, 1, 1) - base) < 1e-9


def test_fixed_point_dim_examples(u12):
    for l in (1, 2):
        full = lookup(u12, "S4", "S4", None, "Z1", l)
        assert u12.fixed_point_dim(0, l, full) == 1
    assert u12.fixed_point_dim(0, 1, u12.unit) == 0
    # a mode the breathing class does not touch
    assert u12.fixed_point_dim(1, 1, lookup(u12, "S4", "S4", None, "Z1", 1)) == 0


# ---------------------------------------------------------------------------
# covers

def test_fold_cover_doubles_the_k_part(u12):
    d1 = lookup(u12, "S4", "S4", None, "Z1", 1)
    d2 = lookup(u12, "S4", "S4", None, "Z1", 2)
    assert u12.fold_cover(d1, 2) is d2
    wave = lookup(u12, "D3", "Z1", None, "D3", 3)
    doubled = u12.fold_cover(wave, 2)
    assert doubled.K_order == 6 and doubled.H_label == "D3"
    assert len(doubled.codes) == 2 * len(wave.codes)


def _class_or_fault(find):
    try:
        return find()
    except bu.InternalError:
        return "fault"


def test_fold_cover_matches_preimage_scan(u12):
    n = u12.N
    reference = per_candidate.Sequential(u12)
    reference.enumerate()
    found = 0
    for kl in u12.phi0_classes():
        if not kl.is_finite:
            continue
        codes = _code_set(kl)
        for k in (2, 3):
            preimage = frozenset(
                u12.join(p, kind, t) for p in range(24) for kind in (0, 1)
                for t in range(n) if u12.join(p, kind, t * k) in codes)
            expected = "fault"          # off the grid, or not in the universe
            if len(preimage) == k * kl.order:
                # every element of the preimage serves as a generator
                expected = _class_or_fault(
                    lambda: reference.classify(preimage, preimage).index)
            got = _class_or_fault(lambda: u12.fold_cover(kl, k).index)
            assert got == expected, (str(kl), k)
            found += expected != "fault"
    assert found == 186


def test_fold_cover_faults_on_codes_other_than_the_named_class(
        u12, monkeypatch):
    d1 = lookup(u12, "S4", "S4", None, "Z1", 1)
    assert u12.fold_cover(d1, 2) is lookup(u12, "S4", "S4", None, "Z1", 2)
    preimage = bu.Universe._fold_preimage

    def one_code_changed(self, kl, k):
        codes = preimage(self, kl, k).copy()
        codes[-1] += 1
        return codes
    monkeypatch.setattr(bu.Universe, "_fold_preimage", one_code_changed)
    with pytest.raises(bu.InternalError):
        u12.fold_cover(d1, 2)


# ---------------------------------------------------------------------------
# concrete elements

def test_element_lists_and_time_reflection(u1):
    breathing = u1.parse_class("(S4 x D1)")
    elems = breathing.elements()
    assert len(elems) == 48
    assert breathing.brake and bool(breathing.refl_perms)
    wave = u1.parse_class("(D4^Z1 x_D4 D4)")
    assert bool(wave.refl_perms) and not wave.brake
    kinds = {(p, kind) for p, kind, _ in wave.elements()}
    assert ((0, 1, 2, 3), "refl") not in kinds
    assert any(kind == "refl" for _, kind in kinds)
    angles = {ang for p, kind, ang in wave.elements() if kind == "rot"}
    assert Fraction(1, 4) in angles


def test_elements_form_a_closed_group(u1):
    kl = u1.parse_class("(D2^D1 x_Z2 D2)")
    codes = _code_set(kl)
    assert len(codes) == kl.order
    identity = u1.join(bu.ID_PERM, 0, 0)
    for a in codes:
        assert any(u1.mul(a, b) == identity for b in codes)
        for b in codes:
            assert u1.mul(a, b) in codes
