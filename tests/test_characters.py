"""Character tables, Murnaghan-Nakayama values, induction and restriction.

Oracles: the Sym(3) table was derived by hand from permutation characters
(trivial, sign, natural minus trivial) in an independent brute-force pass;
degrees are checked against the hook length formula implemented here from
scratch; orthogonality is checked from the definition with exact integers.
"""

from collections import Counter
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globfun import characters, perms
from globfun.characters import (
    ClassFunction,
    block_structure,
    char_table_symmetric,
    character_table,
    cycle_type_class_size,
    decompose_into_irreducibles,
    induce_classfunction,
    inner_product,
    mn_character,
    partitions,
    restrict_classfunction,
)
from globfun.errors import NotASubgroupError, UnsupportedGroupError, UsageError
from globfun.perms import (
    GroupHom,
    Perm,
    alternating_group,
    conjugate_subgroup,
    product_group,
    restrict_to_block,
    standard_inclusion,
    symmetric_group,
    young_subgroup,
    young_two_block,
)
from globfun.repring import RepRingFunctor


def partition_count(n: int) -> int:
    return len(partitions(n))


def hook_length_degree(lam):
    """Independent degree oracle: n! over the product of hook lengths."""
    from math import factorial

    conj = [sum(1 for p in lam if p > c) for c in range(max(lam))] if lam else []
    prod = 1
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            prod *= (row_len - c) + (conj[c] - r) - 1
    return factorial(sum(lam)) // prod


def test_partitions_order():
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(0) == ((),)
    assert [partition_count(n) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_class_sizes_sum():
    for n in range(1, 8):
        from math import factorial

        assert sum(cycle_type_class_size(mu) for mu in partitions(n)) == factorial(n)


def test_mn_spot_values():
    assert mn_character((1, 1, 1), (2, 1)) == -1
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((3, 2), (1, 1, 1, 1, 1)) == 5
    assert mn_character((), ()) == 1
    # the trivial and sign characters, closed form
    for n in range(1, 7):
        for mu in partitions(n):
            assert mn_character((n,), mu) == 1
            assert mn_character(tuple([1] * n), mu) == (-1) ** (n - len(mu))


def test_s2_table():
    t = char_table_symmetric(2)
    assert t.labels == (((2,),), ((1, 1),))
    assert [list(r) for r in t.matrix] == [[1, 1], [1, -1]]
    assert t.class_types == (((1, 1),), ((2,),))
    assert t.class_sizes == (1, 1)


def test_s3_table_against_hand_oracle():
    t = char_table_symmetric(3)
    # frozen: rows (3), (2,1), (1,1,1); columns e, (1 2), (1 2 3)
    assert [list(r) for r in t.matrix] == [[1, 1, 1], [2, 0, -1], [1, -1, 1]]
    assert t.class_sizes == (1, 3, 2)


def test_degrees_match_hook_lengths():
    # an explicit range: the table cap (Sym(20)'s table takes seconds) is no test size
    for n in range(1, 13):
        t = char_table_symmetric(n)
        for lab, row in zip(t.labels, t.matrix):
            assert row[0] == hook_length_degree(lab[0])


def test_first_column_is_identity():
    for n in (2, 3, 4, 5):
        t = char_table_symmetric(n)
        assert t.class_reps[0] == tuple(range(1, n + 1))
        assert t.class_sizes[0] == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_orthogonality(n):
    t = char_table_symmetric(n)
    order = t.order
    assert order == symmetric_group(n).order
    k = t.rank
    for i in range(k):
        for j in range(k):
            s = sum(z * a * b for z, a, b in zip(t.class_sizes, t.matrix[i], t.matrix[j]))
            assert s == (order if i == j else 0)


def test_sum_of_squares_of_degrees():
    for n in range(1, 8):
        t = char_table_symmetric(n)
        from math import factorial

        assert sum(row[0] ** 2 for row in t.matrix) == factorial(n)


def test_product_table():
    t = character_table(product_group(symmetric_group(2), symmetric_group(3)))
    assert t.rank == 6
    assert sorted(row[0] for row in t.matrix) == [1, 1, 1, 1, 2, 2]
    assert t.order == 12


def test_product_table_degrees_exact():
    t = character_table(product_group(symmetric_group(2), symmetric_group(3)))
    # rows: ((2),(3)), ((2),(21)), ((2),(111)), ((11),(3)), ...
    assert [row[0] for row in t.matrix] == [1, 2, 1, 1, 2, 1]
    order = t.order
    for i in range(t.rank):
        for j in range(t.rank):
            s = sum(z * a * b for z, a, b in zip(t.class_sizes, t.matrix[i], t.matrix[j]))
            assert s == (order if i == j else 0)


def test_block_structure_detection():
    assert block_structure(young_two_block(5, 2)) == ((1, 2), (3, 4, 5))
    assert block_structure(symmetric_group(1)) == ((1,),)
    with pytest.raises(UnsupportedGroupError):
        block_structure(alternating_group(4))
    # a conjugated Young subgroup is still a block product
    from globfun.perms import conjugate_subgroup

    g = conjugate_subgroup(young_two_block(5, 2), Perm.parse("(2 4)", 5))
    assert block_structure(g) == ((1, 4), (2, 3, 5))
    assert character_table(g).rank == 6


def test_symmetric_table_builds_no_group(monkeypatch):
    # a fresh memo, so every table below is built from partitions
    monkeypatch.setattr(characters, "_table_memo", {})

    def refuse(*args):
        raise AssertionError("a group was closed")

    with monkeypatch.context() as m:
        m.setattr(perms, "close_generators", refuse)
        tables = [char_table_symmetric(n) for n in range(9)]
    # Sym(0) and Sym(1) are both the trivial group on one point
    assert tables[0] is tables[1] and len(characters._table_memo) == 8
    for n, t in enumerate(tables):
        g = symmetric_group(n)
        assert character_table(g) is t
        assert (t.degree, t.order) == (g.degree, g.order)
        if n <= 7:
            # independent oracle: count the cycle types of the closed group
            counts = Counter(Perm(images).cycle_type() for images in g.image_set)
            assert dict(counts) == {types[0]: s for types, s in zip(t.class_types, t.class_sizes)}


def _young_subgroups_and_conjugates(degree):
    """The Young subgroups of Sym(degree) on runs of consecutive points, one per
    composition of degree, and their conjugates by the long cycle."""
    groups = []
    for cuts in product((False, True), repeat=degree - 1):
        blocks, start = [], 1
        for point, cut in enumerate(cuts + (True,), start=1):
            if cut:
                blocks.append(range(start, point + 1))
                start = point + 1
        groups.append(young_subgroup(degree, blocks))
    if degree > 1:
        cycle = Perm.from_cycles(degree, [tuple(range(1, degree + 1))])
        groups += [conjugate_subgroup(y, cycle) for y in groups]
    return groups


def test_subgroup_test_from_blocks_matches_image_sets():
    groups = [g for d in range(1, 5) for g in _young_subgroups_and_conjugates(d)]
    assert len(groups) == 1 + 2 * (2 + 4 + 8)
    inside = 0
    for h, g in product(groups, repeat=2):
        triv = character_table(h).irreducible(0)
        if h <= g:
            inside += 1
            # the permutation character of G on G/H has degree [G:H]
            assert induce_classfunction(triv, g).values[0] == g.order // h.order
        else:
            with pytest.raises(NotASubgroupError):
                induce_classfunction(triv, g)
    assert 0 < inside < len(groups) ** 2


def test_tables_and_ru_maps_build_no_perm(monkeypatch):
    """Once the groups and homs are built, tables, restriction and induction,
    and so RU's restriction and transfer matrices, read class data and image
    tuples only: no Perm is constructed, not even for a table built afresh."""
    groups = [g for d in range(1, 6) for g in _young_subgroups_and_conjugates(d)]
    pairs = [(h, g) for h, g in product(groups, repeat=2) if h <= g]
    homs = [GroupHom.inclusion(h, g) for h, g in pairs]
    homs += [restrict_to_block(g, b) for g in groups for b in g.orbits()]
    homs += [standard_inclusion(d) for d in range(1, 6)]
    want = [RepRingFunctor()._res_matrix(a) for a in homs]
    want += [RepRingFunctor()._tr_matrix(h, g) for h, g in pairs]

    def refuse(*args):
        raise AssertionError("a Perm was constructed")

    monkeypatch.setattr(characters, "_table_memo", {})
    monkeypatch.setattr(characters, "_fusion_memo", {})
    monkeypatch.setattr(Perm, "__init__", refuse)
    monkeypatch.setattr(Perm, "_from_images", staticmethod(refuse))
    f = RepRingFunctor()
    got = [f._res_matrix(a) for a in homs] + [f._tr_matrix(h, g) for h, g in pairs]
    assert got == want
    assert len(characters._table_memo) > 20 and characters._fusion_memo


def test_restriction_refuses_a_hom_into_another_group():
    y = young_two_block(4, 2)
    chi = character_table(y).irreducible(1)
    assert restrict_classfunction(chi, GroupHom.identity(y)) == chi
    for target in [
        conjugate_subgroup(y, Perm.parse("(2 3)", 4)),  # same degree and order, other blocks
        young_two_block(5, 2),  # other degree
        young_subgroup(4, [(1, 2)]),  # a subgroup of y: other orbits and order
    ]:
        with pytest.raises(UsageError):
            restrict_classfunction(chi, GroupHom.identity(target))
    # same degree and orbits, order 12 against 24: Alt(4) is not Sym(4)
    sign = char_table_symmetric(4).irreducible(4)
    with pytest.raises(UsageError):
        restrict_classfunction(sign, GroupHom.identity(alternating_group(4)))


def test_class_index_of():
    t = char_table_symmetric(4)
    assert t.class_index_of((1, 2, 3, 4)) == 0
    for i, rep in enumerate(t.class_reps):
        assert t.class_index_of(rep) == i
        assert Perm(rep).cycle_type() == t.class_types[i][0]


def test_class_index_of_refuses_an_element_that_leaves_a_block():
    # (1 2 3) carries 2 from the block {1, 2} to 3, outside it
    t = character_table(young_subgroup(4, [[1, 2], [3, 4]]))
    assert t.class_index_of((2, 1, 4, 3)) == t.class_types.index(((2,), (2,)))
    with pytest.raises(UsageError, match=r"^element \(1 2 3\) does not preserve block \(1, 2\)$"):
        t.class_index_of((2, 3, 1, 4))


def test_class_index_of_refuses_an_element_of_another_degree():
    # a degree-4 element used to read Sym(3)'s transposition class, and a
    # degree-2 one ended in an IndexError
    t = char_table_symmetric(3)
    chi = t.irreducible(1)
    assert chi(Perm.parse("(1 2)", 3)) == 0
    for degree in (4, 2):
        with pytest.raises(UsageError, match=f"^element degree {degree} != 3$"):
            chi(Perm.parse("(1 2)", degree))
        with pytest.raises(UsageError, match=f"^element degree {degree} != 3$"):
            t.class_index_of(Perm.parse("(1 2)", degree).images)


def test_restriction_branching():
    # frozen example: the degree-2 irreducible of Sym(3) restricts along
    # i_3 to (2, 0) = trivial + sign
    t3 = char_table_symmetric(3)
    chi = t3.irreducible(1)
    assert t3.labels[1] == ((2, 1),)
    res = restrict_classfunction(chi, standard_inclusion(3))
    assert res.values == (2, 0)
    assert decompose_into_irreducibles(res) == (1, 1)


def test_branching_rule_symmetric():
    # restriction along i_n drops one box: multiplicities are 0/1 and the
    # partitions with a removable box each appear once
    for n in (3, 4, 5, 6):
        tn = char_table_symmetric(n)
        i_n = standard_inclusion(n)
        for lab, row in zip(tn.labels, tn.matrix):
            chi = ClassFunction(tn, row)
            mult = decompose_into_irreducibles(restrict_classfunction(chi, i_n))
            tprev = char_table_symmetric(n - 1)
            expect = []
            lam = lab[0]
            for mu_lab in tprev.labels:
                mu = mu_lab[0]
                expect.append(1 if _is_one_box_down(lam, mu) else 0)
            assert list(mult) == expect, (lam, mult)


def _is_one_box_down(lam, mu):
    lam = list(lam)
    mu = list(mu) + [0] * (len(lam) - len(mu))
    if len(mu) > len(lam):
        return False
    diffs = [a - b for a, b in zip(lam, mu)]
    return all(d in (0, 1) for d in diffs) and sum(diffs) == 1 and sorted(mu, reverse=True) == mu


def test_induction_permutation_character():
    # frozen example: inducing the trivial character of S(2)xS(1) up to
    # Sym(3) gives the natural permutation character (3, 1, 0)
    h = young_two_block(3, 2)
    th = character_table(h)
    triv = ClassFunction(th, [1] * len(th.class_types))
    ind = induce_classfunction(triv, symmetric_group(3))
    assert ind.values == (3, 1, 0)
    assert decompose_into_irreducibles(ind) == (1, 1, 0)


def test_induction_from_trivial_subgroup_is_regular():
    from globfun.perms import trivial_subgroup

    g = symmetric_group(3)
    e = trivial_subgroup(g)
    te = character_table(e)
    triv = ClassFunction(te, [1])
    reg = induce_classfunction(triv, g)
    assert reg.values == (6, 0, 0)
    assert decompose_into_irreducibles(reg) == (1, 2, 1)


def test_frobenius_reciprocity():
    # <ind phi, chi>_G = <phi, res chi>_H for Young subgroups of Sym(n)
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        g = symmetric_group(n)
        h = young_two_block(n, k)
        tg = character_table(g)
        th = character_table(h)
        inc = GroupHom.inclusion(h, g)
        for i in range(th.rank):
            phi = th.irreducible(i)
            ind = induce_classfunction(phi, g)
            for j in range(tg.rank):
                chi = tg.irreducible(j)
                lhs = inner_product(ind, chi)
                rhs = inner_product(phi, restrict_classfunction(chi, inc))
                assert lhs == rhs


@st.composite
def block_product_pair(draw):
    """(H, K, coefficients): K is the block product of a random set partition
    of {1..n}, n <= 6, and H that of a random refinement of it, so blocks
    need not be runs of consecutive points; the coefficients combine H's
    irreducibles into a virtual character."""
    n = draw(st.integers(1, 6))
    parts = draw(st.integers(1, 3))
    k_labels = draw(st.lists(st.integers(0, parts - 1), min_size=n, max_size=n))
    h_labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k_blocks, h_blocks = {}, {}
    for pt, a, b in zip(range(1, n + 1), k_labels, h_labels):
        k_blocks.setdefault(a, []).append(pt)
        h_blocks.setdefault((a, b), []).append(pt)
    h = young_subgroup(n, h_blocks.values())
    rank = character_table(h).rank
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).filter(any))
    return h, young_subgroup(n, k_blocks.values()), coeffs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(block_product_pair())
def test_induction_matches_definition(pair):
    # (ind phi)(y) = (1/|H|) sum over x in K of phi(x^-1 y x), summed by
    # brute force over K at every class representative y of K
    h, k, coeffs = pair
    th = character_table(h)
    phi = ClassFunction(th, [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*th.matrix)])
    ind = induce_classfunction(phi, k)
    for y, value in zip(map(Perm, ind.table.class_reps), ind.values):
        total = 0
        for x in k.elements:
            z = x.inverse() * y * x
            if z in h:
                total += phi(z)
        assert total == value * h.order


def test_restrict_along_inner_automorphism_is_identity():
    g = symmetric_group(4)
    t = character_table(g)
    for x in (Perm.parse("(1 2)", 4), Perm.parse("(1 2 3 4)", 4)):
        c = GroupHom.conjugation(g, g, x)
        for i in range(t.rank):
            chi = t.irreducible(i)
            assert restrict_classfunction(chi, c).values == chi.values


def test_inflation_along_projection():
    # pulling back along the first-factor projection gives a class function
    # that ignores the second coordinate
    y = young_two_block(4, 2)
    from globfun.perms import restrict_to_block

    p1 = restrict_to_block(y, [1, 2])
    t2 = character_table(p1.target)
    sign = t2.irreducible(1)
    inf = restrict_classfunction(sign, p1)
    ty = character_table(y)
    # classes of y: (e,e), (e,(34)), ((12),e), ((12),(34)) in row-major order
    assert inf.values == (1, 1, -1, -1)


def test_table_cap():
    with pytest.raises(UnsupportedGroupError):
        char_table_symmetric(21)
    # the same cap bounds the partitions that the tables and the RU tower read
    with pytest.raises(UnsupportedGroupError, match=r"^table for moved degree 21 exceeds cap 20$"):
        partitions(21)


def test_memoized_partitions_still_read_the_table_cap(monkeypatch):
    # a memo hit, in partitions or in the RU tower basis built from it, is
    # refused under a lowered cap exactly as a cold call is
    f = RepRingFunctor()
    assert len(partitions(6)) == f.tower_value(6).rank == 11
    monkeypatch.setattr(characters, "MAX_TABLE_N", 5)
    refusals = []
    for call in (lambda: partitions(6), lambda: f.tower_value(6)):
        with pytest.raises(UnsupportedGroupError) as hit:
            call()
        refusals.append(hit.value)
    monkeypatch.setattr(characters, "_partitions", cache(characters._partitions.__wrapped__))
    with pytest.raises(UnsupportedGroupError) as cold:
        partitions(6)
    assert {(type(e), str(e)) for e in refusals + [cold.value]} == {
        (UnsupportedGroupError, "table for moved degree 6 exceeds cap 5")}
    assert len(partitions(5)) == f.tower_value(5).rank == 7
