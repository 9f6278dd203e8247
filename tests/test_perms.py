"""Permutation, group and homomorphism basics.

Expected values were frozen from an independent brute-force pass over raw
image tuples (itertools.permutations, no package code): orders, class sizes,
double coset counts and fusion data all come from that run.
"""

import random
import re
from itertools import product
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globfun import perms
from globfun.errors import (
    CapExceededError,
    InvalidPermutationError,
    MathCheckError,
    NotAHomomorphismError,
    NotASubgroupError,
    UsageError,
)
from globfun.perms import (
    GroupHom,
    Perm,
    PermGroup,
    all_homs,
    alternating_group,
    centralizer,
    close_generators,
    conjugate_subgroup,
    double_cosets,
    fused_pairs,
    intersection,
    left_coset_reps,
    normalizer,
    product_group,
    parse_group_spec,
    restrict_to_block,
    standard_inclusion,
    symmetric_group,
    trivial_subgroup,
    weyl_order,
    young_subgroup,
    young_two_block,
    _orbits,
)
from globfun.repring import RepRingFunctor


def fixed_last_point_copy(n: int) -> PermGroup:
    """Sym(n-1) realized inside Sym(n) as the stabilizer of the point n."""
    return young_subgroup(n, [range(1, n)])


def test_perm_parse_roundtrip():
    p = Perm.parse("(1 2)(3 4)", 4)
    assert p.images == (2, 1, 4, 3)
    assert str(p) == "(1 2)(3 4)"
    assert Perm.parse("()", 3).is_identity()
    assert str(Perm.identity(5)) == "()"
    q = Perm.parse("(1 2 3)", 3)
    assert str(q * q) == "(1 3 2)"
    assert q * q.inverse() == Perm.identity(3)


def test_perm_validation():
    with pytest.raises(InvalidPermutationError):
        Perm((1, 1, 3))
    with pytest.raises(InvalidPermutationError):
        Perm.parse("(1 2", 3)
    with pytest.raises(InvalidPermutationError):
        Perm.parse("(1 9)", 3)


@pytest.mark.parametrize("text", ["(\u0661 2)", "(1 \uff12)", "(1_0 2)", "(+1 2)"])
def test_perm_parse_reads_points_as_ascii_digits(text):
    # int() alone reads the Arabic-Indic one, the fullwidth two, an
    # underscore and a sign; a cycle point is plain digits like any integer
    with pytest.raises(InvalidPermutationError, match="bad cycle notation"):
        Perm.parse(text, 10)


def test_perm_call_refuses_points_outside_its_degree():
    # a point below 1 used to be read from the end: (0) gave the last image
    p = Perm.parse("(1 2)", 3)
    assert [p(i) for i in (1, 2, 3)] == [2, 1, 3]
    for point in (0, -1, 4):
        with pytest.raises(UsageError, match=f"^point {point} outside 1..3$"):
            p(point)


def test_orbits_first_point_then_breadth_first():
    a = Perm.parse("(1 2 3 4 5)", 7)
    b = a.inverse()
    # from 1: a, b give 2, 5; from 2: 3; from 5: 4
    assert _orbits(range(1, 8), [a, b]) == [[1, 2, 5, 3, 4], [6], [7]]
    assert _orbits([7, 6, 3], [a, Perm.parse("(6 7)", 7)]) == [[7, 6], [3, 4, 5, 1, 2]]


def test_perm_parse_rejects_point_in_two_cycles():
    # (1 2)(1 2) is the identity as a product, not the transposition
    for text in ("(1 2)(1 2)", "(1 2)(2 3)", "(1 2)(3 1)"):
        with pytest.raises(InvalidPermutationError, match="in two cycles"):
            Perm.parse(text, 3)
    with pytest.raises(InvalidPermutationError, match="point 1 in two cycles"):
        Perm.from_cycles(2, [(1, 2), (1, 2)])


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
def test_symmetric_group_refuses_a_degree_that_is_no_int(n):
    with pytest.raises(UsageError, match="n must be an integer"):
        symmetric_group(n)


def test_perm_mul_rejects_degree_mismatch():
    p, q = Perm((1, 2, 3)), Perm((2, 1))
    with pytest.raises(UsageError):
        p * q
    with pytest.raises(UsageError):
        q * p


def test_perm_composition_order():
    # (p * q)(x) = p(q(x))
    p = Perm.parse("(1 2)", 3)
    q = Perm.parse("(2 3)", 3)
    assert (p * q)(2) == p(3) == 3
    assert (p * q).images == (2, 3, 1)


def test_cycle_type_and_parity():
    assert Perm.parse("(1 2)(3 4 5)", 6).cycle_type() == (3, 2, 1)
    assert Perm.identity(4).cycle_type() == (1, 1, 1, 1)
    assert Perm.parse("(1 2 3)", 3).is_even()
    assert not Perm.parse("(1 2)", 2).is_even()


def test_close_generators_orders():
    assert len(close_generators(2, [Perm.parse("(1 2)", 2)])) == 2
    gens = [Perm.parse("(1 2)", 4), Perm.parse("(1 2 3 4)", 4)]
    assert len(close_generators(4, gens)) == 24
    gens = [Perm.parse("(1 2 3)", 5), Perm.parse("(3 4 5)", 5)]
    assert len(close_generators(5, gens)) == 60


def test_close_generators_cap(monkeypatch):
    gens = [Perm.parse("(1 2)", 4), Perm.parse("(1 2 3 4)", 4)]
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "10")
    with pytest.raises(CapExceededError) as exc:
        close_generators(4, gens)
    assert exc.value.cap == 10


def test_groups_on_the_same_generators_share_one_image_set(monkeypatch):
    monkeypatch.setattr(perms, "_closure_memo", {})
    a, b = symmetric_group(6), symmetric_group(6)
    assert a is not b and a.image_set is b.image_set and a.order == 720
    gens = [Perm.parse("(1 2)", 4)]
    assert PermGroup(4, gens).image_set is close_generators(4, gens)
    # the degree is part of the key: no generators on 1 and on 2 points
    assert close_generators(1, []) != close_generators(2, [])


def test_closure_memo_hit_refuses_past_the_cap_like_a_cold_build(monkeypatch):
    monkeypatch.setattr(perms, "_closure_memo", {})
    gens = [Perm.parse("(1 2 3 4 5)", 5), Perm.parse("(1 2)", 5)]
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "100")
    with pytest.raises(CapExceededError) as cold:
        PermGroup(5, gens)
    assert perms._closure_memo == {}
    monkeypatch.delenv("GLOBFUN_MAX_GROUP_ORDER")
    assert PermGroup(5, gens).order == 120
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "100")
    with pytest.raises(CapExceededError) as hit:
        PermGroup(5, gens)
    assert str(hit.value) == str(cold.value)
    assert (hit.value.what, hit.value.cap) == (cold.value.what, cold.value.cap)
    assert cold.value.cap == 100


def test_closure_refused_at_the_cap_closes_once_the_cap_is_raised(monkeypatch):
    monkeypatch.setattr(perms, "_closure_memo", {})
    gens = [Perm.parse("(1 2 3 4)", 4), Perm.parse("(1 2)", 4)]
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "23")
    with pytest.raises(CapExceededError):
        close_generators(4, gens)
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "24")
    assert len(close_generators(4, gens)) == 24
    assert list(perms._closure_memo) == [(4, ((2, 3, 4, 1), (2, 1, 3, 4)))]


def test_closure_memo_keeps_the_degree_check(monkeypatch):
    monkeypatch.setattr(perms, "_closure_memo", {})
    g = Perm.parse("(1 2)", 4)
    PermGroup(4, [g])
    with pytest.raises(UsageError, match="^generator degree 4 != 5$"):
        close_generators(5, [g])
    with pytest.raises(UsageError, match="^generator degree 4 != 5$"):
        PermGroup(5, [g])
    assert list(perms._closure_memo) == [(4, ((2, 1, 3, 4),))]


def test_built_orders_sees_every_construction_on_a_memo_hit(built_orders):
    symmetric_group(5)
    symmetric_group(5)
    alternating_group(4)
    assert built_orders == [120, 120, 12]


def reference_close(degree, generators, cap):
    """Breadth-first closure, one layer at a time, on raw image tuples with
    its own product (x * g)(i) = x(g(i)) and no package code: the oracle for
    close_generators, which joins cosets instead."""
    gens = [g.images for g in generators]
    frontier = found = {tuple(range(1, degree + 1))}
    while frontier:
        new = {tuple(x[j - 1] for j in g) for x in frontier for g in gens} - found
        found = found | new
        if len(found) > cap:
            raise CapExceededError("group order", cap)
        frontier = new
    return frozenset(found)


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(min_value=0, max_value=7))
    images = st.permutations(range(1, degree + 1)).map(Perm)
    return degree, draw(st.lists(images, max_size=3))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(generator_sets())
def test_close_generators_matches_reference(case):
    degree, gens = case
    want = reference_close(degree, gens, cap=5040)
    got = close_generators(degree, gens)
    assert type(got) is frozenset and got == want
    # the group's elements are the closure's tuples as sorted Perms
    elements = PermGroup(degree, gens).elements
    assert [p.images for p in elements] == sorted(want)
    for p in elements:
        assert type(p) is Perm and type(p.images) is tuple
        assert p.degree == degree and p._hash == hash(p.images)
    # the cap is the largest order that passes; caps must be positive, so
    # |G| - 1 is tried only when |G| > 1
    with pytest.MonkeyPatch.context() as m:
        m.setenv("GLOBFUN_MAX_GROUP_ORDER", str(len(want)))
        assert len(close_generators(degree, gens)) == len(want)
        if len(want) > 1:
            m.setenv("GLOBFUN_MAX_GROUP_ORDER", str(len(want) - 1))
            with pytest.raises(CapExceededError):
                close_generators(degree, gens)


def seeded_generator_sets(seed=22):
    """Per degree 1..7: the empty list, the identity alone and among random
    generators, a repeated generator, and random sets of one to three."""
    rng = random.Random(seed)
    for degree in range(1, 8):
        e = Perm.identity(degree)
        draw = lambda: Perm(rng.sample(range(1, degree + 1), degree))
        g = draw()
        yield degree, []
        yield degree, [e]
        yield degree, [e, draw(), e]
        yield degree, [g, g, draw(), g]
        for size in (1, 2, 3):
            yield degree, [draw() for _ in range(size)]


def test_close_generators_matches_breadth_first_on_seeded_sets(monkeypatch):
    for degree, gens in seeded_generator_sets():
        want = reference_close(degree, gens, cap=5040)
        assert close_generators(degree, gens) == want
        # an order equal to the cap closes; one element more does not
        monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", str(len(want)))
        assert close_generators(degree, gens) == want
        if len(want) > 1:
            cap = len(want) - 1
            monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", str(cap))
            with pytest.raises(CapExceededError) as exc:
                close_generators(degree, gens)
            assert (exc.value.what, exc.value.cap) == ("group order", cap)
        monkeypatch.delenv("GLOBFUN_MAX_GROUP_ORDER")


def reference_classes(group):
    """Conjugacy classes by Perm multiplication, the oracle for
    PermGroup.conjugacy_classes, which runs the same orbits on image tuples."""
    assigned = set()
    classes = []
    for x in group.elements:
        if x in assigned:
            continue
        orb = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in group.generators:
                    z = g * y * g.inverse()
                    if z not in orb:
                        orb.add(z)
                        nxt.append(z)
            frontier = nxt
        assigned |= orb
        classes.append(tuple(sorted(orb)))
    return classes


def reference_hom(source, target, images):
    """Generator images extended over the edges x -> g x by Perm
    multiplication, the oracle for GroupHom, which walks the edges x -> x g
    on image tuples.  Returns the total map or raises NotAHomomorphismError."""
    for v in images:
        if v not in target:
            raise NotAHomomorphismError(f"image {v} outside target")
    mapping = dict.fromkeys(source.elements)
    ident = source.identity
    mapping[ident] = target.identity
    queue = [ident]
    for x in queue:
        fx = mapping[x]
        for g, fg in zip(source.generators, images):
            y = g * x
            fy = fg * fx
            if mapping[y] is None:
                mapping[y] = fy
                queue.append(y)
            elif mapping[y] != fy:
                raise NotAHomomorphismError(f"fails at {g} * {x}")
    return mapping


@settings(derandomize=True, max_examples=80, deadline=None)
@given(generator_sets())
def test_conjugacy_classes_match_reference(case):
    degree, gens = case
    group = PermGroup(degree, gens)
    want = reference_classes(group)
    got = group.conjugacy_classes()
    assert [[p.images for p in c] for c in got] == [[p.images for p in c] for c in want]
    # members are the group's own element objects
    own = {id(x) for x in group.elements}
    assert all(id(x) in own for c in got for x in c)
    index = group.class_index()
    assert len(index) == group.order
    assert all(index[x] == i for i, c in enumerate(want) for x in c)


@st.composite
def hom_cases(draw):
    """A random source group with generator images that are a conjugation
    into a group of the same degree, or drawn at random from Sym(1..4)."""
    degree, gens = draw(generator_sets())
    source = PermGroup(degree, gens)
    if draw(st.booleans()):
        t = draw(st.permutations(range(1, degree + 1)).map(Perm))
        target = PermGroup(degree, [t, *gens])
        return source, target, [t * g * t.inverse() for g in gens]
    target = symmetric_group(draw(st.integers(min_value=1, max_value=4)))
    images = [draw(st.sampled_from(target.elements)) for _ in gens]
    return source, target, images


@settings(derandomize=True, max_examples=120, deadline=None)
@given(hom_cases())
def test_group_hom_matches_reference(case):
    source, target, images = case
    try:
        want = reference_hom(source, target, images)
    except NotAHomomorphismError:
        with pytest.raises(NotAHomomorphismError):
            GroupHom(source, target, images)
        return
    hom = GroupHom(source, target, images)
    # keyed by the source elements' own image tuples
    assert len(hom.table) == source.order
    own = {x.images: x.images for x in source.elements}
    assert all(own[k] is k for k in hom.table)
    assert hom.table == {x.images: v.images for x, v in want.items()}
    assert all(hom(x) == v for x, v in want.items())
    for v in hom.table.values():
        assert type(v) is tuple and v in target.image_set
    # equal images are one shared value tuple
    assert len({id(v) for v in hom.table.values()}) == len(set(hom.table.values()))


def reference_left_coset_reps(g, h):
    """Left cosets by Perm multiplication, the oracle for left_coset_reps,
    which indexes them on image tuples: element -> least member of its coset
    xH, and the sorted list of those least members."""
    rep_of = {}
    reps = []
    for x in g.elements:
        if x in rep_of:
            continue
        reps.append(x)
        for t in h.elements:
            rep_of[x * t] = x
    return rep_of, reps


def reference_double_cosets(g, h, k):
    """H-orbits on the cosets xK by Perm multiplication, each given by its
    least element, the oracle for double_cosets."""
    rep_of, reps = reference_left_coset_reps(g, k)
    seen = set()
    out = []
    for r in reps:
        if r in seen:
            continue
        orbit = {r}
        frontier = [r]
        while frontier:
            c = frontier.pop()
            for t in h.generators:
                c2 = rep_of[t * c]
                if c2 not in orbit:
                    orbit.add(c2)
                    frontier.append(c2)
        seen |= orbit
        out.append(min(orbit))
    return sorted(out)


def reference_normalizer(g, h):
    """N_g(h) by Perm multiplication, the oracle for normalizer."""
    out = []
    for y in g.elements:
        yinv = y.inverse()
        if all(y * t * yinv in h for t in h.generators):
            out.append(y)
    return out


def reference_generating_set(degree, sorted_elems):
    """The greedy generating set of from_elements, each step closed again
    from the identity, the oracle for its Dimino joins."""
    gens = []
    have = {Perm.identity(degree).images}
    for x in sorted_elems:
        if x.images in have:
            continue
        gens.append(x)
        have = reference_close(degree, gens, cap=len(sorted_elems))
        if len(have) == len(sorted_elems):
            break
    return gens


@st.composite
def subgroup_cases(draw):
    """A random group of degree 0-7 and two subgroups, each generated by up
    to two of its elements."""
    degree, gens = draw(generator_sets())
    g = PermGroup(degree, gens)
    h, k = (PermGroup(degree, draw(st.lists(st.sampled_from(g.elements), max_size=2)))
            for _ in range(2))
    return g, h, k


@settings(derandomize=True, max_examples=80, deadline=None)
@given(subgroup_cases())
def test_cosets_and_normalizer_match_reference(case):
    g, h, k = case
    coset_of, reps = left_coset_reps(g, h)
    rep_of, want = reference_left_coset_reps(g, h)
    assert reps == [r.images for r in want]
    assert len(coset_of) == g.order
    assert all(reps[coset_of[x.images]] == rep_of[x].images for x in g.elements)
    # keyed by g's own tuples, so a kept coset map holds no copies of them
    assert all(key is x.images for key, x in zip(coset_of, g.elements))
    assert double_cosets(g, h, k) == reference_double_cosets(g, h, k)
    norm = normalizer(g, h)
    assert norm.elements == tuple(reference_normalizer(g, h))
    assert norm.image_set == frozenset(x.images for x in norm.elements)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(subgroup_cases())
def test_generating_set_matches_reference(case):
    g, h, _ = case
    for group in (g, h):
        built = PermGroup.from_elements(group.degree, [x.images for x in reversed(group.elements)])
        assert built.elements == group.elements and built.image_set == group.image_set
        assert built.generators == tuple(reference_generating_set(group.degree, group.elements))
        # the generators wrap the group's own image_set tuples
        own = {id(x) for x in built.image_set}
        assert all(id(x.images) in own for x in built.generators)


@pytest.mark.parametrize(
    "degree,elements",
    [
        (3, [(1, 2, 3), (2, 1)]),
        (2, [(1, 2), (2, 3, 1)]),
        (3, [(1, 2), (2, 1)]),
    ],
    ids=["one-smaller", "one-larger", "all-smaller"],
)
def test_from_elements_rejects_other_degrees(degree, elements):
    with pytest.raises(UsageError, match=r"^element degree \d+ != \d+$"):
        PermGroup.from_elements(degree, elements)


@pytest.mark.parametrize("bad", [(1, 1, 3), (0, 2, 3)])
def test_from_elements_rejects_non_bijections(bad):
    with pytest.raises(InvalidPermutationError, match=r"^not a bijection of 1\.\.3: "):
        PermGroup.from_elements(3, [(1, 2, 3), bad])


def test_from_elements_rejects_non_subgroups():
    with pytest.raises(NotASubgroupError, match="identity"):
        PermGroup.from_elements(3, [(2, 1, 3)])
    with pytest.raises(NotASubgroupError, match=r"^inverse of \(1 2 3\) missing$"):
        PermGroup.from_elements(3, [(1, 2, 3), (2, 3, 1)])
    # closed under inverses but not under products: the join passes the cap
    with pytest.raises(CapExceededError):
        PermGroup.from_elements(3, [(1, 2, 3), (2, 1, 3), (1, 3, 2)])


def test_from_elements_builds_only_its_generators(monkeypatch):
    """from_elements takes image tuples and wraps only its generators as
    Perms; like __init__, it leaves the sorted elements unbuilt until read."""
    groups = [symmetric_group(4), alternating_group(5), young_two_block(5, 2),
              trivial_subgroup(symmetric_group(3))]
    built = []
    init, wrap = Perm.__init__, Perm._from_images

    def counting_init(self, images):
        built.append(images)
        init(self, images)

    def counting_wrap(images):
        built.append(images)
        return wrap(images)

    monkeypatch.setattr(Perm, "__init__", counting_init)
    monkeypatch.setattr(Perm, "_from_images", staticmethod(counting_wrap))
    for group in groups:
        built.clear()
        sub = PermGroup.from_elements(group.degree, set(group.image_set), name="copy")
        assert len(built) == len(sub.generators) and sub._elements is None
        assert sub.image_set == group.image_set and sub.name == "copy"
        assert sub.elements == group.elements and len(sub._elements) == group.order


@pytest.mark.parametrize("degree", [0, 1])
def test_kernel_at_degree_zero_and_one(degree):
    e = Perm.identity(degree)
    assert close_generators(degree, []) == {e.images}
    assert close_generators(degree, [e, e]) == {e.images}
    group = PermGroup(degree, [e])
    assert group.conjugacy_classes() == ((e,),)
    assert group.conjugacy_classes()[0][0] is group.elements[0]
    s3 = symmetric_group(3)
    assert GroupHom(group, s3, [s3.identity]).table == {e.images: s3.identity.images}
    assert GroupHom.identity(group).table == {e.images: e.images}
    with pytest.raises(NotAHomomorphismError):
        GroupHom(group, s3, [Perm.parse("(1 2)", 3)])


@pytest.mark.parametrize("n", range(7))
def test_symmetric_group_orders(n):
    assert symmetric_group(n).order == factorial(max(n, 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_alternating_group_orders(n):
    expect = 1 if n <= 2 else factorial(n) // 2
    g = alternating_group(n)
    assert g.order == expect
    assert all(x.is_even() for x in g.elements)


def test_parse_group_spec_minilanguage():
    assert parse_group_spec("S4").order == 24
    assert parse_group_spec("A5").order == 60
    assert parse_group_spec("S2xS3").order == 12
    assert parse_group_spec("Y2,2").order == 4
    assert parse_group_spec("Y2,2") == parse_group_spec("S2xS2")
    assert parse_group_spec("S2xS3").name == "S2xS3"


def test_parse_group_spec_cap_stops_closure(monkeypatch):
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "100")
    with pytest.raises(CapExceededError):
        parse_group_spec("S5")
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "35")
    with pytest.raises(CapExceededError):
        parse_group_spec("S3xS3")
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "120")
    assert parse_group_spec("S5").order == 120


def test_young_subgroup():
    y = young_two_block(4, 2)
    assert y.order == 4
    assert y <= symmetric_group(4)
    # one-sided blocks degenerate to the full / trivial group
    assert young_two_block(3, 0) == symmetric_group(3)
    assert young_two_block(3, 3) == symmetric_group(3)
    assert young_subgroup(5, [[1, 3], [2, 5]]).order == 4


def test_product_group():
    g = product_group(symmetric_group(2), symmetric_group(3))
    assert g.degree == 5 and g.order == 12
    assert g == young_two_block(5, 2)


def test_conjugacy_class_sizes():
    # sizes frozen from the independent brute-force pass
    assert sorted(len(c) for c in symmetric_group(3).conjugacy_classes()) == [1, 2, 3]
    assert sorted(len(c) for c in alternating_group(4).conjugacy_classes()) == [1, 3, 4, 4]
    assert sorted(len(c) for c in alternating_group(5).conjugacy_classes()) == [1, 12, 12, 15, 20]
    assert len(symmetric_group(5).conjugacy_classes()) == 7


def test_class_representatives_are_least():
    g = symmetric_group(4)
    for cls in g.conjugacy_classes():
        assert cls[0] == min(cls)
    # identity class first
    assert g.class_representatives()[0].is_identity()


def test_conjugacy_classes_partition_group():
    g = alternating_group(5)
    seen = [x for cls in g.conjugacy_classes() for x in cls]
    assert len(seen) == g.order
    assert set(seen) == set(g.elements)


def test_symmetric_classes_match_cycle_types():
    # within Sym(n), conjugacy = same cycle type
    for n in (3, 4, 5):
        g = symmetric_group(n)
        for cls in g.conjugacy_classes():
            types = {x.cycle_type() for x in cls}
            assert len(types) == 1


def test_alternating_splitting_criterion():
    # a Sym(n)-class splits in Alt(n) iff its cycle type has all parts odd
    # and pairwise distinct
    for n in range(3, 8):
        a = alternating_group(n)
        by_type = {}
        for cls in a.conjugacy_classes():
            t = cls[0].cycle_type()
            by_type[t] = by_type.get(t, 0) + 1
        for t, count in by_type.items():
            splits = all(part % 2 == 1 for part in t) and len(set(t)) == len(t)
            assert count == (2 if splits else 1), (n, t, count)


def test_double_cosets_s4():
    g = symmetric_group(4)
    h = fixed_last_point_copy(4)  # Sym(3) fixing the point 4
    k = young_two_block(4, 2)
    reps = double_cosets(g, h, k)
    assert len(reps) == 2
    assert reps[0].is_identity()


def test_double_cosets_partition():
    g = symmetric_group(4)
    h = young_two_block(4, 1)
    k = young_two_block(4, 2)
    reps = double_cosets(g, h, k)
    cells = []
    for r in reps:
        cells.append({a * r * b for a in h.elements for b in k.elements})
    assert sum(len(c) for c in cells) == g.order
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            assert not cells[i] & cells[j]
        assert min(cells[i]) == reps[i]


def test_trivial_double_cosets():
    g = symmetric_group(3)
    e = trivial_subgroup(g)
    assert len(double_cosets(g, e, e)) == 6
    assert len(double_cosets(g, g, g)) == 1


def test_centralizer_normalizer_weyl():
    g = symmetric_group(4)
    x = Perm.parse("(1 2 3 4)", 4)
    c = centralizer(g, x)
    assert c.order == 4  # the cyclic group on x itself
    for y in g.elements:
        # against Perm multiplication, the reference for the tuple paths
        assert (y in centralizer(g, y)) and (y in c) == (y * x == x * y)
        want = sorted(y * z * y.inverse() for z in c.elements)
        assert conjugate_subgroup(c, y).elements == tuple(want)
    with pytest.raises(UsageError, match="cannot multiply degrees"):
        centralizer(g, Perm.identity(3))
    with pytest.raises(UsageError, match="cannot multiply degrees"):
        conjugate_subgroup(c, Perm.identity(5))
    v = PermGroup(4, [Perm.parse("(1 2)(3 4)", 4), Perm.parse("(1 3)(2 4)", 4)])
    assert normalizer(g, v) == g  # the Klein four group is normal in Sym(4)
    assert weyl_order(g, v) == 6
    assert weyl_order(g, g) == 1
    # |class of x| * |centralizer| = |G|
    for rep in g.class_representatives():
        cls = g.conjugacy_classes()[g.class_index()[rep]]
        assert len(cls) * centralizer(g, rep).order == g.order


def test_conjugate_and_intersection():
    g = symmetric_group(4)
    h = young_two_block(4, 2)
    t = Perm.parse("(2 3)", 4)
    hc = conjugate_subgroup(h, t)
    assert hc.order == h.order
    assert all(t * x * t.inverse() in hc for x in h.elements)
    both = intersection(h, hc)
    assert both <= h and both <= hc


def test_group_hom_validation():
    s2, s3 = symmetric_group(2), symmetric_group(3)
    inc = GroupHom(s2, s3, [Perm.parse("(1 2)", 3)])
    assert inc(Perm.parse("(1 2)", 2)) == Perm.parse("(1 2)", 3)
    assert inc.gen_images == (Perm.parse("(1 2)", 3),)
    assert len(inc.table) == s2.order
    # the table is keyed by the source elements' own image tuples
    assert all(any(k is x.images for x in s2.elements) for k in inc.table)


def _s2_to_s3_by_3_cycle():
    # (1 2 3) has order 3, no homomorphic image of an involution
    return GroupHom(symmetric_group(2), symmetric_group(3), [Perm.parse("(1 2 3)", 3)])


def _image_outside_target():
    s3 = symmetric_group(3)
    return GroupHom(s3, young_two_block(3, 2), list(s3.generators))


def _wrong_image_count():
    return GroupHom(symmetric_group(3), symmetric_group(3), [Perm.identity(3)])


@pytest.mark.parametrize(
    "build,error",
    [
        (_s2_to_s3_by_3_cycle, NotAHomomorphismError),
        (_image_outside_target, NotAHomomorphismError),
        (_wrong_image_count, UsageError),
    ],
    ids=["inconsistent-images", "image-outside-target", "wrong-image-count"],
)
def test_group_hom_rejects(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: GroupHom.conjugation(symmetric_group(3), symmetric_group(3),
                                      Perm.parse("(1 2)", 4)), "cannot multiply degrees 4 and 3"),
        (lambda: GroupHom.conjugation(symmetric_group(4), symmetric_group(4),
                                      Perm.parse("(1 2)", 3)), "cannot multiply degrees 3 and 4"),
        (lambda: restrict_to_block(young_subgroup(4, [[1, 2], [3, 4]]), [5]),
         "point 5 outside 1..4"),
        (lambda: restrict_to_block(young_subgroup(4, [[1, 2], [3, 4]]), [3, 4, 5]),
         "point 5 outside 1..4"),
        # x(0) would read the last point
        (lambda: restrict_to_block(young_subgroup(4, [[1, 2]]), [0, 4]), "point 0 outside 1..4"),
        (lambda: restrict_to_block(young_subgroup(4, [[1, 2]]), []), "empty block"),
    ],
    ids=["conj-higher-degree", "conj-lower-degree", "block-past-degree", "block-partly-past",
         "block-point-zero", "empty-block"],
)
def test_inputs_of_the_wrong_degree_are_refused(build, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        build()


def test_restrict_to_block_refuses_a_block_the_group_leaves():
    # (1 2) in Sym({1, 2}) x Sym({3, 4}) moves 2 off the block {2, 3}
    with pytest.raises(UsageError, match=r"^group does not preserve block \(2, 3\)$"):
        restrict_to_block(young_two_block(4, 2), [2, 3])


def test_elements_built_only_when_read():
    inc = standard_inclusion(7)
    RepRingFunctor().res(inc)
    assert inc.source._elements is None and inc.target._elements is None
    # the Perms wrap image_set's own tuple objects
    g = inc.target
    assert {id(x.images) for x in g.elements} == {id(t) for t in g.image_set}
    assert g.elements is g.elements


def test_standard_inclusion():
    i4 = standard_inclusion(4)
    assert i4.source.order == 6 and i4.target.order == 24
    assert all(i4(x)(4) == 4 for x in i4.source.elements)
    i1 = standard_inclusion(1)
    assert i1.source.order == 1 and i1.target.order == 1


def test_a_checked_hom_key_skips_the_cayley_pass(monkeypatch):
    monkeypatch.setattr(perms, "_checked_homs", set())
    passes = []
    hom_table = perms._hom_table

    def counting(*args, strict=False):
        passes.append(strict)
        return hom_table(*args, strict=strict)

    monkeypatch.setattr(perms, "_hom_table", counting)
    first = standard_inclusion(5)
    assert passes == [True] and perms._checked_homs == {first.key()}
    second = standard_inclusion(5)
    assert second is not first and second.key() == first.key()
    assert passes == [True]
    # the second table is built when first read, by a pass that is not the check
    assert second.table == first.table and passes == [True, False]
    assert second.table is second.table and passes == [True, False]


def test_a_failed_hom_check_raises_each_time_and_stores_nothing(monkeypatch):
    monkeypatch.setattr(perms, "_checked_homs", set())
    for _ in range(2):
        with pytest.raises(NotAHomomorphismError, match="^fails at "):
            _s2_to_s3_by_3_cycle()
    assert perms._checked_homs == set()


def test_a_checked_key_keeps_the_image_checks(monkeypatch):
    s3, y = symmetric_group(3), young_two_block(3, 2)
    gens = tuple(g.images for g in s3.generators)
    # even a key marked as checked is refused before the table is consulted
    monkeypatch.setattr(perms, "_checked_homs", {(s3.image_set, y.image_set, gens, gens)})
    with pytest.raises(NotAHomomorphismError, match="outside target"):
        _image_outside_target()
    with pytest.raises(UsageError, match="^one image per generator required$"):
        GroupHom(s3, y, [])


def test_a_checked_key_whose_table_fails_raises_a_math_check(monkeypatch):
    s2, s3 = symmetric_group(2), symmetric_group(3)
    key = (s2.image_set, s3.image_set, ((2, 1),), ((2, 3, 1),))
    monkeypatch.setattr(perms, "_checked_homs", {key})
    hom = _s2_to_s3_by_3_cycle()
    with pytest.raises(MathCheckError, match="passed its homomorphism check once"):
        hom.table


@pytest.mark.parametrize("n", range(10))
def test_symmetric_group_generators_are_the_long_cycle_and_a_transposition(monkeypatch, n):
    # the generators alone: no group up to Sym(9) is closed here
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", str(factorial(9)))
    monkeypatch.setattr(perms, "PermGroup", lambda degree, gens, name: SimpleNamespace(
        degree=degree, generators=tuple(gens)))
    group = symmetric_group(n)
    want = [] if n < 2 else [Perm.from_cycles(n, [range(1, n + 1)]),
                             Perm.from_cycles(n, [(1, 2)])][: n - 1]
    assert group.degree == max(n, 1) and group.generators == tuple(want)


def test_hom_compose_image_preimage():
    s4 = symmetric_group(4)
    y = young_two_block(4, 2)
    p1 = restrict_to_block(y, [1, 2])
    assert p1.target.order == 2
    assert p1.is_surjective_onto_target()
    pre = p1.preimage(trivial_subgroup(p1.target))
    assert pre.order == 2  # e x Sym(2)
    inc = GroupHom.inclusion(y, s4)
    assert inc.image() == y
    comp = p1.compose(GroupHom.identity(y))
    assert comp.table == p1.table


def test_all_homs_counts():
    s2, s3 = symmetric_group(2), symmetric_group(3)
    # Sym(2) -> Sym(3): trivial plus one per transposition
    assert len(all_homs_count(s2, s3)) == 4
    # Sym(3) -> Sym(2): trivial and the sign map
    assert len(all_homs_count(s3, s2)) == 2
    c3 = PermGroup(3, [Perm.parse("(1 2 3)", 3)])
    assert len(all_homs_count(c3, s3)) == 3


def test_all_homs_skips_candidates_without_formatting_them(monkeypatch):
    # every candidate the constructor accepts, and no rejection message
    # built on the way; the constructor alone still names the failing edge
    s3, s4 = symmetric_group(3), symmetric_group(4)
    want = []
    for images in product(s4.elements, repeat=len(s3.generators)):
        try:
            want.append(GroupHom(s3, s4, images))
        except NotAHomomorphismError:
            pass
    want.sort(key=lambda h: [v.images for v in h.gen_images])

    def refuse(self):
        raise AssertionError("a Perm was formatted")

    monkeypatch.setattr(Perm, "__str__", refuse)
    got = all_homs(s3, s4)
    monkeypatch.undo()
    assert [(h.gen_images, h.table) for h in got] == [(h.gen_images, h.table) for h in want]
    # the trivial map, one through the sign per involution of Sym(4), and
    # |Aut(Sym(3))| = 6 onto each of its 4 subgroups Sym(3)
    assert len(got) == 1 + 9 + 4 * 6
    with pytest.raises(NotAHomomorphismError, match=r"^fails at \(1 2\) \* \(1 2\)$"):
        GroupHom(s3, s4, [Perm.parse("(1 2 3)", 4)] * len(s3.generators))


def all_homs_count(a, b):
    from globfun.perms import all_homs

    return all_homs(a, b)


def test_fused_pairs_alternating():
    # frozen from the brute-force pass: exactly one fused pair for
    # Alt(4) <= Alt(5), namely the two classes of 3-cycles
    a4 = fixed_point_alt(5)
    a5 = alternating_group(5)
    pairs = fused_pairs(a4, a5)
    assert len(pairs) == 1
    a, b = pairs[0]
    assert a.cycle_type() == (3, 1, 1) and b.cycle_type() == (3, 1, 1)
    # and none for Alt(5) <= Alt(6)
    assert fused_pairs(fixed_point_alt(6), alternating_group(6)) == []
    # symmetric groups never fuse: Sym(3) <= Sym(4)
    assert fused_pairs(fixed_last_point_copy(4), symmetric_group(4)) == []


def fixed_point_alt(n):
    """Alt(n-1) inside Alt(n), fixing the last point."""
    a = alternating_group(n)
    return PermGroup.from_elements(n, [x for x in a.image_set if x[n - 1] == n])


def test_random_subgroup_conjugation_closure():
    rng = random.Random(0)
    g = symmetric_group(4)
    for _ in range(20):
        seeds = rng.sample(g.elements, 2)
        h = PermGroup(4, seeds)
        t = rng.choice(g.elements)
        hc = conjugate_subgroup(h, t)
        assert hc.order == h.order
        assert hc <= g


def test_orbits():
    y = young_subgroup(6, [[1, 2, 3], [5, 6]])
    assert y.orbits() == ((1, 2, 3), (4,), (5, 6))
