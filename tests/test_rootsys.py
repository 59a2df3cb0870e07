import json

import pytest

from algebra_oracle import (add, gram, idx, inner, is_root, pairing,
                            reflect, root_string, root_system_json,
                            roots_by_reflection, support)
from minorbit.chevalley import build_chevalley
from minorbit.realform import catalog
from minorbit.rootsys import (ROOT_COUNT, RootSystem, SimpleType,
                              build_doubled_system, build_root_system, neg)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 5), ("B", 2), ("B", 4), ("C", 3), ("C", 5),
    ("D", 3), ("D", 4), ("D", 6), ("E", 6), ("F", 4), ("G", 2),
])
def test_root_counts_and_negation(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == ROOT_COUNT[family](rank)
    assert sum(sum(r) > 0 for r in rs.roots) * 2 == len(rs.roots)
    for r in rs.roots:
        assert is_root(rs, neg(r))
        ks = [c for c in r if c]
        assert all(c > 0 for c in ks) or all(c < 0 for c in ks)


def test_neg_index_matches_negation_on_catalog():
    forms = {(e.family, e.rank, e.doubled): e for e in catalog(8)}
    assert len(forms) == 64
    for e in forms.values():
        rs = e.root_system()
        assert len(rs.neg_index) == len(rs.roots)
        for a, r in enumerate(rs.roots):
            assert rs.neg_index[a] == idx(rs, neg(r))


def test_e8_count():
    assert len(build_root_system("E", 8).roots) == 240


def test_reflection_closure_is_fixpoint():
    rs = build_root_system("D", 4)
    for r in rs.roots:
        for i in range(rs.rank):
            assert is_root(rs, reflect(rs, i, r))


SIMPLE_TYPES = [(f, l) for f, lo, hi in (("A", 1, 8), ("B", 2, 8),
                                           ("C", 3, 8), ("D", 3, 8),
                                           ("E", 6, 8), ("F", 4, 4),
                                           ("G", 2, 2))
                for l in range(lo, hi + 1)]


@pytest.mark.parametrize("family,rank", SIMPLE_TYPES,
                         ids=[f"{f}{l}" for f, l in SIMPLE_TYPES])
def test_roots_by_height_match_reflection_closure(family, rank):
    """The positive roots built by height, negated and sorted, equal the
    reflection closure of the simple roots, order included, on every
    simple type of rank <= 8."""
    rs = build_root_system(family, rank)
    assert rs.roots == roots_by_reflection(rs)


def test_doubled_roots_match_reflection_closure():
    """The same on the doubled system of each complex-type catalog form."""
    doubled = {(e.family, e.rank) for e in catalog(8) if e.doubled}
    assert doubled
    for family, rank in sorted(doubled):
        rs = build_doubled_system(family, rank // 2)
        assert rs.roots == roots_by_reflection(rs), (family, rank)


def test_illegal_types():
    for family, rank in [("A", 0), ("B", 1), ("C", 2), ("D", 2), ("E", 5),
                         ("E", 9), ("F", 3), ("G", 1), ("H", 2)]:
        with pytest.raises(ValueError):
            SimpleType(family, rank)


def test_a1_a2_rosters():
    a1 = build_root_system("A", 1)
    assert set(a1.roots) == {(1,), (-1,)}
    a2 = build_root_system("A", 2)
    assert set(a2.roots[len(a2.roots) // 2:]) == {(1, 0), (0, 1), (1, 1)}


def test_is_root_examples():
    a2 = build_root_system("A", 2)
    assert is_root(a2, (1, 1)) and not is_root(a2, (2, 1))
    f4 = build_root_system("F", 4)
    assert is_root(f4, (1, 2, 3, 2))


def test_support():
    assert support((1, 1)) == {1, 2}
    assert support((1, 0)) == {1}
    assert support((0, -1, -1, 0)) == {2, 3}


def test_pairing_values():
    a2 = build_root_system("A", 2)
    for r in a2.roots:
        assert pairing(a2, r, r) == 2
    assert pairing(a2, (1, 0), (0, 1)) == -1
    g2 = build_root_system("G", 2)
    for a in g2.roots:
        for b in g2.roots:
            if a != b and a != neg(b):
                assert pairing(g2, a, b) * pairing(g2, b, a) in (0, 1, 2, 3)


def test_pairing_rejects_non_root():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        pairing(a2, (2, 0), (0, 1))  # 2 alpha_1 is not a root: pairing -1/2


@pytest.mark.parametrize("family,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("B", 2), ("G", 2), ("F", 4), ("D", 4),
])
def test_string_law_exhaustive(family, rank):
    rs = build_root_system(family, rank)
    for a in rs.roots:
        for b in rs.roots:
            if a == b or a == neg(b):
                continue
            p, q = root_string(rs, a, b)
            assert p - q == pairing(rs, a, b)


def test_string_examples():
    a2 = build_root_system("A", 2)
    assert root_string(a2, (1, 0), (0, 1)) == (0, 1)
    g2 = build_root_system("G", 2)
    assert root_string(g2, (1, 0), (0, 1)) == (0, 3)
    a3 = build_root_system("A", 3)
    assert root_string(a3, (1, 0, 0), (0, 0, 1)) == (0, 0)
    with pytest.raises(ValueError):
        root_string(a2, (1, 0), (-1, 0))


def test_two_length_classes():
    for family, rank in [("A", 4), ("B", 3), ("C", 4), ("G", 2), ("F", 4)]:
        rs = build_root_system(family, rank)
        lengths = {inner(rs, r, r) for r in rs.roots}
        assert len(lengths) <= 2


def test_longest_element_cases():
    a3 = build_root_system("A", 3)
    ident = a3.weyl_longest_element([])
    assert ident == tuple(tuple(1 if i == j else 0 for j in range(3))
                          for i in range(3))
    s1 = a3.weyl_longest_element([0])
    e1 = (1, 0, 0)
    img = tuple(sum(s1[i][j] * e1[j] for j in range(3)) for i in range(3))
    assert img == (-1, 0, 0)
    w0 = a3.weyl_longest_element([0, 1, 2])
    for j in range(3):
        ej = tuple(1 if k == j else 0 for k in range(3))
        img = tuple(sum(w0[i][k] * ej[k] for k in range(3)) for i in range(3))
        want = [0, 0, 0]
        want[2 - j] = -1
        assert img == tuple(want)


def test_longest_element_against_brute_force():
    # enumerate the subsystem Weyl group of {a_1, a_2} in B3 and pick the
    # longest word by exhaustive products
    rs = build_root_system("B", 3)
    S = [0, 1]
    ident = tuple(tuple(1 if i == j else 0 for j in range(3))
                  for i in range(3))

    def refl_mat(i):
        cols = []
        for j in range(3):
            ej = tuple(1 if k == j else 0 for k in range(3))
            cols.append(reflect(rs, i, ej))
        return tuple(tuple(cols[j][i2] for j in range(3)) for i2 in range(3))

    def mul(m1, m2):
        return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(3))
                           for j in range(3)) for i in range(3))

    gens = [refl_mat(i) for i in S]
    seen = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                mm = mul(g, m)
                if mm not in seen:
                    seen[mm] = seen[m] + 1
                    nxt.append(mm)
        frontier = nxt
    longest = max(seen.items(), key=lambda kv: kv[1])[0]
    assert rs.weyl_longest_element(S) == longest


def test_subsystem_positive_roots_negated():
    rs = build_root_system("F", 4)
    S = [0, 1, 2]
    w = rs.weyl_longest_element(S)
    for r in rs.roots[len(rs.roots) // 2:]:
        if support(r) <= {1, 2, 3}:
            img = tuple(sum(w[i][j] * r[j] for j in range(4)) for i in range(4))
            assert sum(img) < 0 and is_root(rs, img)


def test_doubled_system():
    d = build_doubled_system("A", 2)
    assert d.rank == 4 and len(d.roots) == 12
    # blocks do not interact
    assert not is_root(d, (1, 0, 1, 0))
    assert is_root(d, (1, 1, 0, 0)) and is_root(d, (0, 0, 1, 1))
    assert d.cartan[0][2] == 0


def test_serialization_roundtrip():
    rs = build_root_system("B", 2)
    doc = json.loads(root_system_json(rs))
    assert doc["types"] == ["B2"]
    assert len(doc["roots"]) == 8
    assert doc["cartan"] == [[2, -1], [-2, 2]]
    assert json.loads(root_system_json(rs)) == doc


def _legal(family, rank):
    try:
        SimpleType(family, rank)
    except ValueError:
        return False
    return True


RANK4_SYSTEMS = (
    [build_root_system(f, r) for f in "ABCDEFG" for r in range(1, 5)
     if _legal(f, r)]
    + [build_doubled_system(f, r) for f in "ABCDEFG" for r in (1, 2)
       if _legal(f, r)])


SIMPLE_TYPES = [SimpleType(f, r) for f in "ABCDEFG" for r in range(1, 9)
                if _legal(f, r)]
DOUBLED_TYPES = sorted({SimpleType(e.family, e.rank // 2)
                        for e in catalog(8) if e.doubled},
                       key=lambda t: (t.family, t.rank))


@pytest.mark.parametrize("types", [(t,) for t in SIMPLE_TYPES]
                         + [(t, t) for t in DOUBLED_TYPES],
                         ids=lambda ts: "+".join(map(str, ts)))
def test_twice_gram_and_cartan_match_euclidean_oracle(types):
    """The integer table against the Euclidean realisation (Bourbaki, Lie
    VI, Plates I-IX): twice_gram is 2(alpha_i|alpha_j) entry for entry, and
    cartan is 2(alpha_i|alpha_j)/(alpha_i|alpha_i), all plain ints."""
    rs = RootSystem(types)
    g = gram(rs)
    assert rs.twice_gram == tuple(tuple(2 * x for x in row) for row in g)
    assert rs.cartan == tuple(tuple(2 * x / row[i] for x in row)
                              for i, row in enumerate(g))
    assert all(type(x) is int for row in rs.twice_gram + rs.cartan
               for x in row)


@pytest.mark.parametrize("rs", RANK4_SYSTEMS,
                         ids=lambda rs: "+".join(map(str, rs.types)))
def test_sum_tables_match_tuple_addition(rs):
    rows = [{} for _ in rs.roots]
    pairs = [[] for _ in rs.roots]
    for ia, a in enumerate(rs.roots):
        for ib, b in enumerate(rs.roots):
            s = add(a, b)
            if is_root(rs, s):
                rows[ia][ib] = idx(rs, s)
                pairs[idx(rs, s)].append((ia, ib))
    assert rs.sum_row == rows
    assert all(list(row) == sorted(row) for row in rs.sum_row)
    assert rs.sum_pairs == pairs
    keys = {(ia, ib) for ia, row in enumerate(rs.sum_row) for ib in row}
    assert keys == set(build_chevalley(rs).ntable)
    assert rs.support_masks == [sum(1 << (j - 1) for j in support(r))
                                for r in rs.roots]


def _tuple_sum_rows(rs):
    """The tuple-sum build of `sum_row`: every pair added coordinatewise and
    looked up in the root index, in ascending index order."""
    rows = [{} for _ in rs.roots]
    for ia, ra in enumerate(rs.roots):
        for ib in range(ia + 1, len(rs.roots)):
            si = rs.index.get(tuple(x + y for x, y in zip(ra, rs.roots[ib])))
            if si is not None:
                rows[ia][ib] = si
                rows[ib][ia] = si
    return rows


@pytest.mark.parametrize("types", [(t,) for t in SIMPLE_TYPES]
                         + [(t, t) for t in DOUBLED_TYPES],
                         ids=lambda ts: "+".join(map(str, ts)))
def test_integer_key_sum_row_matches_tuple_sums(types):
    rs = RootSystem(types)
    want = _tuple_sum_rows(rs)
    assert [list(row.items()) for row in rs.sum_row] == \
        [list(row.items()) for row in want]


def test_sum_row_rejects_coefficients_past_the_digit_bound():
    rs = build_root_system("A", 2)
    rs.roots = [*rs.roots, (8, 0)]
    with pytest.raises(ArithmeticError):
        rs.sum_row
