"""Subgroup lattice enumeration and the table of marks.

Class counts were frozen from an independent brute-force enumeration with
raw image tuples (2, 4, 11, 19 classes for Sym(2..5); 156 subgroups of
Sym(5) in total).  Alt(6) and Sym(6) are checked against the known counts
of subgroup classes and subgroups (OEIS A000638 and A005432), and the
smaller groups class by class against the all-subgroups enumeration below.
"""

import random

import pytest

from globfun.errors import CapExceededError, MathCheckError
from globfun.perms import (
    PermGroup,
    Perm,
    alternating_group,
    conjugate_subgroup,
    product_group,
    symmetric_group,
    weyl_order,
    young_two_block,
)
from globfun.subgroups import subgroup_classes, table_of_marks


def brute_force_classes(group):
    """Conjugacy classes of subgroups as (representative, orbit) pairs in
    lattice order, found by joining *every* subgroup with every cyclic
    subgroup, layer by layer, until nothing new appears."""

    def key(eset):
        return tuple(sorted(p.images for p in eset))

    degree = group.degree
    cyclics = {}
    for x in group.elements:
        cyclics.setdefault(frozenset(PermGroup(degree, [x]).elements), x)
    gens_of = {cset: [cgen] for cset, cgen in cyclics.items()}
    frontier = set(gens_of)
    while frontier:
        new = set()
        for hset in frontier:
            for cset, cgen in cyclics.items():
                if cset <= hset:
                    continue
                gens = gens_of[hset] + [cgen]
                j = frozenset(PermGroup(degree, gens).elements)
                if j not in gens_of:
                    gens_of[j] = gens
                    new.add(j)
        frontier = new
    seen = set()
    classes = []
    for hset in gens_of:
        if hset in seen:
            continue
        orbit = {frozenset(g * x * g.inverse() for x in hset) for g in group.elements}
        seen |= orbit
        classes.append((min(orbit, key=key), orbit))
    classes.sort(key=lambda t: (len(t[0]), key(t[0])))
    return classes


@pytest.mark.parametrize(
    "make",
    [
        lambda: symmetric_group(3),
        lambda: symmetric_group(4),
        lambda: alternating_group(4),
        lambda: young_two_block(5, 2),
        lambda: product_group(symmetric_group(4), symmetric_group(2)),
        lambda: alternating_group(5),
    ],
    ids=["S3", "S4", "A4", "Y5,2", "S4xS2", "A5"],
)
def test_lattice_matches_brute_force(make):
    group = make()
    lat = subgroup_classes(group)
    want = brute_force_classes(group)
    assert len(lat.classes) == len(want)
    class_of = {}
    for cls, (rep, orbit) in zip(lat.classes, want):
        expect = PermGroup.from_elements(group.degree, [p.images for p in rep])
        assert cls.representative.elements == expect.elements
        assert cls.representative.generators == expect.generators
        body = ",".join(str(g) for g in expect.generators) or "()"
        assert cls.label() == f"<{body}>"
        assert cls.class_size == len(orbit)
        class_of.update(dict.fromkeys(orbit, cls.index))
    # the lattice keys its subgroups by element sets of image tuples
    assert lat._class_of == {frozenset(p.images for p in m): i for m, i in class_of.items()}


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 19)])
def test_class_counts_symmetric(n, count):
    assert len(subgroup_classes(symmetric_group(n))) == count


def test_total_subgroup_count_s5():
    lat = subgroup_classes(symmetric_group(5))
    assert sum(c.class_size for c in lat.classes) == 156


def test_lattice_sorted_and_bounds():
    lat = subgroup_classes(symmetric_group(4))
    orders = [c.order for c in lat.classes]
    assert orders == sorted(orders)
    assert orders[0] == 1 and orders[-1] == 24
    for c in lat.classes:
        assert 24 % c.order == 0


def test_class_of_lookup():
    g = symmetric_group(4)
    lat = subgroup_classes(g)
    # every conjugate of every representative resolves to its own class
    for c in lat.classes:
        for t in g.elements[:6]:
            assert lat.class_of(conjugate_subgroup(c.representative, t).image_set) == c.index


def test_class_of_rejects_sets_that_are_not_subgroups():
    lat = subgroup_classes(symmetric_group(3))
    not_subgroups = [
        {(2, 1, 3)},  # no identity
        {(1, 2, 3), (2, 3, 1)},  # no inverse
        {(1, 2, 3), (2, 1, 3), (1, 3, 2)},  # not closed
    ]
    for eset in not_subgroups:
        with pytest.raises(MathCheckError, match="not found in the lattice"):
            lat.class_of(frozenset(eset))


def _check_random_subgroups(n, draws):
    rng = random.Random(0)
    g = symmetric_group(n)
    lat = subgroup_classes(g)
    for _ in range(draws):
        seeds = rng.sample(g.elements, rng.choice([1, 2]))
        h = PermGroup(n, seeds)
        idx = lat.class_of(h.image_set)
        assert lat.classes[idx].order == h.order


def test_random_generated_subgroups_are_found():
    _check_random_subgroups(5, 30)


def test_random_generated_subgroups_are_found_s6():
    _check_random_subgroups(6, 30)


def test_lattice_a6():
    lat = subgroup_classes(alternating_group(6))
    assert len(lat.classes) == 22
    assert sum(c.class_size for c in lat.classes) == 501
    assert len(lat._class_of) == 501


def test_lattice_s6():
    lat = subgroup_classes(symmetric_group(6))
    assert len(lat.classes) == 56
    assert sum(c.class_size for c in lat.classes) == 1455
    assert len(lat._class_of) == 1455
    orders = [c.order for c in lat.classes]
    assert orders == sorted(orders) and orders[0] == 1 and orders[-1] == 720


def test_alternating_lattice():
    lat = subgroup_classes(alternating_group(4))
    assert [c.order for c in lat.classes] == [1, 2, 3, 4, 12]
    assert len(subgroup_classes(alternating_group(5))) == 9


def test_lattice_cap(monkeypatch):
    with pytest.raises(CapExceededError) as exc:
        subgroup_classes(symmetric_group(7))
    assert exc.value.cap == 1000
    # read at each call, and checked before the memo: S4's lattice is built first
    subgroup_classes(symmetric_group(4))
    monkeypatch.setenv("GLOBFUN_MAX_LATTICE_ORDER", "23")
    with pytest.raises(CapExceededError) as exc:
        subgroup_classes(symmetric_group(4))
    assert exc.value.cap == 23


def test_table_of_marks_s3():
    lat, marks = table_of_marks(symmetric_group(3))
    # classes in order: e, C2, C3, Sym(3)
    assert [c.order for c in lat.classes] == [1, 2, 3, 6]
    assert marks == [
        [6, 0, 0, 0],
        [3, 1, 0, 0],
        [2, 0, 2, 0],
        [1, 1, 1, 1],
    ]


def test_table_of_marks_properties():
    g = symmetric_group(4)
    lat, marks = table_of_marks(g)
    n = len(lat.classes)
    for i in range(n):
        # leading column: full coset count; diagonal: the Weyl group order
        assert marks[i][0] == g.order // lat.classes[i].order
        assert marks[i][i] == weyl_order(g, lat.classes[i].representative)
        for j in range(i + 1, n):
            assert marks[i][j] == 0
    assert marks[-1] == [1] * n
