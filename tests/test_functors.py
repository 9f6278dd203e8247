"""Functor values, restrictions, transfers, and the five-relation checker.

The small Burnside matrices are frozen from orbit counting done by hand:
Sym(2) has two subgroup classes, the two-element set Sym(2)/e restricts to
two free points, and the projection example's stabilizer is e x Sym(2).
"""

import hashlib
import random
from itertools import product
from types import SimpleNamespace

import pytest

from globfun.burnside import BurnsideFunctor
from globfun.errors import CapExceededError, MathCheckError, NotASubgroupError, UsageError
from globfun.functors import (
    AxiomProbe,
    CorruptedTransfer,
    FreeAbelian,
    ZMap,
    mackey_sum,
    standard_probe,
    terminal_hom,
    verify_axioms,
)
from globfun.linalg import zeros
from globfun.perms import (
    GroupHom,
    Perm,
    PermGroup,
    alternating_group,
    conjugate_subgroup,
    restrict_to_block,
    standard_inclusion,
    symmetric_group,
    trivial_subgroup,
    young_subgroup,
    young_two_block,
)
from globfun import subgroups
from globfun.repring import RepRingFunctor
from globfun.subgroups import subgroup_classes


def fixed_last_point_copy(n: int) -> PermGroup:
    """Sym(n-1) realized inside Sym(n) as the stabilizer of the point n."""
    return young_subgroup(n, [range(1, n)])


def test_free_abelian_labels_distinct():
    fa = FreeAbelian(("a", "b"))
    assert fa.rank == 2 and fa.index("b") == 1
    with pytest.raises(UsageError):
        FreeAbelian(("a", "a"))


def test_zmap_shapes_and_algebra():
    a = FreeAbelian(("x",))
    b = FreeAbelian(("u", "v"))
    f = ZMap(a, b, [[1], [2]])
    g = ZMap(b, a, [[3, 4]])
    assert g.compose(f).matrix == ((11,),)
    assert f.apply((2,)) == (2, 4)
    assert (f + f).matrix == ((2,), (4,))
    assert ZMap.identity(b).is_identity()
    with pytest.raises(UsageError):
        ZMap(a, b, [[1, 2]])
    with pytest.raises(UsageError):
        f.compose(f)


def test_burnside_sym2_maps():
    A = BurnsideFunctor()
    s2 = symmetric_group(2)
    e = trivial_subgroup(s2)
    assert A.value(s2).rank == 2
    # basis order: trivial subgroup first, then the full group
    assert A.tr(e, s2).matrix == ((1,), (0,))
    assert A.res(GroupHom.inclusion(e, s2)).matrix == ((2, 1),)


def test_burnside_projection_example():
    A = BurnsideFunctor()
    y = young_two_block(4, 2)
    p1 = restrict_to_block(y, [1, 2])
    m = A.res(p1)
    # [S2/e] pulls back to the 2-element set with stabilizer e x S2, which
    # is the class generated by (3 4)
    col = [row[0] for row in m.matrix]
    lab = m.target.labels[col.index(1)]
    assert col.count(1) == 1 and sum(col) == 1
    assert lab == "[G/<(3 4)>]"


def reference_res_matrix(alpha):
    """The Burnside restriction matrix by Perm multiplication, with each
    stabilizer built by from_elements, the oracle for
    BurnsideFunctor._res_matrix, which works on image tuples."""
    k, g = alpha.source, alpha.target
    lat_g, lat_k = subgroup_classes(g), subgroup_classes(k)
    matrix = zeros(len(lat_k), len(lat_g))
    for j, cls in enumerate(lat_g.classes):
        rep_of, reps = {}, []
        for x in g.elements:
            if x not in rep_of:
                reps.append(x)
                rep_of.update((x * t, x) for t in cls.representative.elements)
        todo = dict.fromkeys(reps)
        while todo:
            start, _ = todo.popitem()
            orbit = {start}
            frontier = [start]
            while frontier:
                r = frontier.pop()
                for x in k.generators:
                    nxt = rep_of[alpha(x) * r]
                    if nxt not in orbit:
                        orbit.add(nxt)
                        todo.pop(nxt, None)
                        frontier.append(nxt)
            stab = PermGroup.from_elements(
                k.degree, [x.images for x in k.elements if rep_of[alpha(x) * start] == start]
            )
            assert stab.order * len(orbit) == k.order
            matrix[lat_k.class_of(stab.image_set)][j] += 1
    return matrix


def test_burnside_res_matches_reference_on_probe():
    probe = standard_probe(4)
    assert len(probe.homs) > 40
    for alpha in probe.homs:
        assert BurnsideFunctor()._res_matrix(alpha) == reference_res_matrix(alpha)


def test_burnside_res_matches_reference_on_conjugations():
    # x |-> t x t^-1 from a random subgroup H of Sym(n) onto tHt^-1, and
    # into Sym(n) itself
    rng = random.Random(5)
    for _ in range(30):
        n = rng.choice([3, 4, 5])
        g = symmetric_group(n)
        h = rng.choice(subgroup_classes(g).classes).representative
        h = conjugate_subgroup(h, rng.choice(g.elements))
        t = rng.choice(g.elements)
        for target in (conjugate_subgroup(h, t), g):
            alpha = GroupHom.conjugation(h, target, t)
            assert BurnsideFunctor()._res_matrix(alpha) == reference_res_matrix(alpha)


def test_burnside_res_checks_orbits_against_stabilizers():
    # generator images of the trivial map with the table of the identity:
    # the cosets of e in Sym(2) fall into orbits of one, but each stabilizer
    # read from the table is e, of index 2
    s2 = symmetric_group(2)
    lying = SimpleNamespace(source=s2, target=s2, table=GroupHom.identity(s2).table,
                            gen_images=[s2.identity])
    with pytest.raises(MathCheckError, match="orbit size does not match stabilizer index"):
        BurnsideFunctor()._res_matrix(lying)


def test_burnside_cosets_built_once_per_class(monkeypatch):
    """Restriction and marks share one coset map per (G, subgroup class):
    the axiom probe at n = 4 used to rebuild one 884 times for 44 pairs."""
    calls = []
    original = subgroups.left_coset_reps

    def counting(g, h):
        calls.append((g.image_set, h.image_set))
        return original(g, h)

    monkeypatch.setattr(subgroups, "_lattice_memo", {})
    monkeypatch.setattr(subgroups, "left_coset_reps", counting)
    assert verify_axioms(BurnsideFunctor(), standard_probe(4)).all_passed
    assert len(calls) == len(set(calls)) == 44
    # restriction into Sym(4) already built a coset map for each of its classes
    subgroups.table_of_marks(symmetric_group(4))
    assert len(calls) == 44


def test_burnside_value_ranks():
    A = BurnsideFunctor()
    assert A.value(symmetric_group(4)).rank == 11
    assert A.value(symmetric_group(3)).rank == 4


def test_burnside_lattices_meet_the_environment_cap(monkeypatch):
    monkeypatch.setenv("GLOBFUN_MAX_LATTICE_ORDER", "10")
    with pytest.raises(CapExceededError) as exc:
        BurnsideFunctor().value(symmetric_group(4))
    assert exc.value.cap == 10


def test_repring_value_ranks():
    R = RepRingFunctor()
    assert [R.value(symmetric_group(n)).rank for n in (3, 4, 5, 6)] == [3, 5, 7, 11]


def test_repring_res_and_tr_examples():
    R = RepRingFunctor()
    s3 = symmetric_group(3)
    assert R.res(standard_inclusion(3)).matrix == ((1, 1, 0), (0, 1, 1))
    assert R.tr(young_two_block(3, 2), s3).matrix == ((1, 0), (1, 1), (0, 1))
    assert R.res(GroupHom.identity(s3)).is_identity()


def test_res_along_isomorphism_is_permutation_matrix():
    A = BurnsideFunctor()
    for n in (3, 4):
        h = fixed_last_point_copy(n)
        m = A.res(restrict_to_block(h, range(1, n))).matrix
        assert sorted(sum(row) for row in m) == [1] * len(m)
        assert sorted(sum(col) for col in zip(*m)) == [1] * len(m)


def test_transfer_requires_subgroup():
    A = BurnsideFunctor()
    with pytest.raises(NotASubgroupError):
        A.tr(symmetric_group(3), young_two_block(3, 2))


def test_memoization_returns_same_object():
    R = RepRingFunctor()
    s3 = symmetric_group(3)
    assert R.value(s3) is R.value(s3)
    assert R.res(standard_inclusion(3)) is R.res(standard_inclusion(3))
    assert R.tr(young_two_block(3, 2), s3) is R.tr(young_two_block(3, 2), s3)


def test_mackey_sum_hand_check():
    # (Sym(2); e, e): res o tr on A(e) is multiplication by 2, matching the
    # two double cosets each contributing the identity
    A = BurnsideFunctor()
    s2 = symmetric_group(2)
    e = trivial_subgroup(s2)
    lhs = A.res(GroupHom.inclusion(e, s2)).compose(A.tr(e, s2))
    assert lhs.matrix == ((2,),)
    assert mackey_sum(A, e, e, s2).matrix == ((2,),)


def test_standard_probe_structure():
    probe = standard_probe(4)
    assert len(probe.groups) == 1 + 2 + 4 + 8
    degrees = {g.degree for g in probe.groups}
    assert degrees == {1, 2, 3, 4}
    for low, mid, top in probe.chains:
        assert low <= mid and mid <= top and low.order < mid.order < top.order
    for q, b in probe.surjections:
        assert q.is_surjective_onto_target() and b <= q.target
    for k, h, g in probe.mackey_triples:
        assert k <= g and h <= g


def _plain(x):
    """x with every list and tuple a tuple and every frozenset its sorted
    tuple, so that repr does not depend on set iteration order."""
    if isinstance(x, frozenset):
        return tuple(sorted(x))
    if isinstance(x, (tuple, list)):
        return tuple(map(_plain, x))
    return x


def test_standard_probe_order_is_pinned():
    # groups by image set, homs by key, then chains, surjections and Mackey
    # triples, each in the order verify_axioms reads it
    probe = standard_probe(5)
    lists = (
        [g.image_set for g in probe.groups],
        [a.key() for a in probe.homs],
        [tuple(g.image_set for g in c) for c in probe.chains],
        [(q.key(), b.image_set) for q, b in probe.surjections],
        [tuple(g.image_set for g in t) for t in probe.mackey_triples],
    )
    assert [len(v) for v in lists] == [31, 208, 130, 133, 341]
    digest = "97c9bf24075245990cd4417ebf473a4428e17d0144bde2672a6ac92eb05a822e"
    assert hashlib.sha256(repr(_plain(lists)).encode()).hexdigest() == digest


def test_standard_probe_shares_its_groups():
    # every hom starts at one of the probe's own group objects, block
    # projections included, and the standard inclusions also end at one
    probe = standard_probe(4)
    own = {id(g) for g in probe.groups}
    assert all(id(a.source) in own for a in probe.homs)
    inclusions = [a for a in probe.homs if a.source.degree < a.target.degree]
    assert len(inclusions) == 3
    assert all(id(a.target) in own for a in inclusions)


def test_axioms_pass_small_probe():
    probe = standard_probe(3)
    for F in (BurnsideFunctor(), RepRingFunctor()):
        report = verify_axioms(F, probe)
        assert report.all_passed, report.failures()[:3]
        assert {c.relation for c in report.checks} == {"R1", "R2", "R3", "R4", "R5"}


def test_corrupted_transfer_fails_mackey():
    s2 = symmetric_group(2)
    bad = CorruptedTransfer(BurnsideFunctor(), trivial_subgroup(s2), s2)
    report = verify_axioms(bad, standard_probe(3))
    assert not report.all_passed
    assert any(c.relation == "R5" and not c.passed for c in report.checks)
    first = next(c for c in report.checks if c.relation == "R5" and not c.passed)
    assert "entry" in first.detail


class TwistedConjugation(BurnsideFunctor):
    """Burnside, with the corner of every restriction along a hom that moves
    a generator bumped, so conjugation by a noncentral element breaks R3."""

    def _res_matrix(self, alpha):
        m = super()._res_matrix(alpha)
        if [v.images for v in alpha.gen_images] != [x.images for x in alpha.source.generators]:
            m[0][0] += 1
        return m


def test_r3_failure_names_its_first_differing_entry():
    s3 = symmetric_group(3)
    report = verify_axioms(TwistedConjugation(), AxiomProbe([s3], [], [], [], []))
    assert [c.relation for c in report.failures()] == ["R3"] * 5
    assert {c.detail for c in report.failures()} == {"entry (0,0): left 2, right 1"}


def conjugate_young_probe(seed=9, count=3):
    """A probe on Sym(4) and its Young subgroups Y conjugated by seeded
    random elements t, so that tYt^-1 has blocks that are not runs of
    consecutive points: inclusions, conjugation isomorphisms between the
    conjugates of one Y, block projections, chains L <= Y < Sym(4)
    conjugated by one t, and Mackey triples of two conjugates."""
    rng = random.Random(seed)
    g = symmetric_group(4)
    ts = [rng.choice(g.elements) for _ in range(count)]
    blocks = ([range(1, 4)], [range(1, 3), range(3, 5)], [range(1, 3)], [])
    youngs = [young_subgroup(4, b) for b in blocks]
    conj = {(y, t): conjugate_subgroup(y, t) for y in youngs for t in ts}
    groups = [g] + list({h.image_set: h for h in conj.values()}.values())

    homs = [GroupHom.identity(h) for h in groups]
    homs += [GroupHom.inclusion(h, g) for h in groups[1:]]
    for y in youngs:
        for s, t in product(ts, repeat=2):
            homs.append(GroupHom.conjugation(conj[y, s], conj[y, t], t * s.inverse()))
    for h in groups[1:]:
        if len(h.orbits()) > 1:
            homs += [restrict_to_block(h, orbit) for orbit in h.orbits()]

    chains = [(conj[low, t], conj[high, t], g) for low, high in product(youngs, repeat=2)
              if low.order < high.order and low <= high for t in ts]
    surjections = [(q, b) for q in homs if q.source != q.target and q.is_surjective_onto_target()
                   for b in groups if b.degree == q.target.degree and b <= q.target]
    mackey_triples = [(k, h, g) for k, h in product(groups[1:], repeat=2)]
    return AxiomProbe(groups, homs, chains, surjections, mackey_triples)


def test_axioms_pass_on_random_conjugate_young_subgroups():
    probe = conjugate_young_probe()
    # some block is not a run of consecutive points
    assert any(max(b) - min(b) >= len(b) for h in probe.groups for b in h.orbits())
    assert probe.chains and probe.surjections
    for F in (BurnsideFunctor(), RepRingFunctor()):
        report = verify_axioms(F, probe)
        assert report.all_passed, report.failures()[:3]
        assert {c.relation for c in report.checks} == {"R1", "R2", "R3", "R4", "R5"}
    # the transfer into Sym(4) from a conjugate of S2 x e x e, corrupted
    s2 = next(h for h in probe.groups if h.order == 2 and h.orbits()[0] != (1, 2))
    bad = verify_axioms(CorruptedTransfer(BurnsideFunctor(), s2, probe.groups[0]), probe)
    assert any(c.relation == "R5" and not c.passed for c in bad.checks)


_PAIRINGS = [frozenset([frozenset([1, j]), frozenset({2, 3, 4} - {j})]) for j in (2, 3, 4)]


def on_pairings(x):
    """The permutation an element of Alt(4), as an image tuple, induces on
    the three ways to split {1, 2, 3, 4} into pairs."""
    return tuple(1 + _PAIRINGS.index(frozenset(frozenset(x[i - 1] for i in pair) for pair in p))
                 for p in _PAIRINGS)


def alternating_probe():
    """A probe on Alt(4): its subgroups up to conjugacy (e, C2, C3, V4 and
    A4), the inclusions among them, conjugation by (1 2 3) on each one it
    normalizes, the quotient A4 -> A4/V4 = C3 given by `on_pairings` on the
    generators, and the Mackey triples inside A4."""
    a4 = alternating_group(4)
    subs = [trivial_subgroup(a4)] + [
        PermGroup(4, [Perm.parse(c, 4) for c in cycles])
        for cycles in (["(1 2)(3 4)"], ["(1 2 3)"], ["(1 2)(3 4)", "(1 3)(2 4)"])
    ] + [a4]
    t = Perm.parse("(1 2 3)", 4)
    inclusions = [(a, b) for a in subs for b in subs if a.order < b.order and a <= b]
    c3 = alternating_group(3)
    q = GroupHom(a4, c3, [Perm(on_pairings(x.images)) for x in a4.generators])
    homs = [GroupHom.identity(h) for h in subs]
    homs += [GroupHom.inclusion(a, b) for a, b in inclusions]
    homs += [GroupHom.conjugation(h, h, t) for h in subs if conjugate_subgroup(h, t) == h]
    homs.append(q)
    chains = [(a, b, c) for a, b in inclusions for mid, c in inclusions if mid is b]
    surjections = [(q, trivial_subgroup(c3)), (q, c3)]
    return AxiomProbe(subs, homs, chains, surjections, [(k, h, a4) for k in subs for h in subs])


def test_burnside_axioms_on_alternating_probe():
    probe = alternating_probe()
    assert [h.order for h in probe.groups] == [1, 2, 3, 4, 12]
    assert len(probe.chains) == 5 and probe.surjections[0][0].is_surjective_onto_target()
    q = probe.surjections[0][0]
    assert len(q.table) == 12 and q.table == {x: on_pairings(x) for x in q.source.image_set}
    report = verify_axioms(BurnsideFunctor(), probe)
    assert report.all_passed, report.failures()[:3]
    assert {c.relation for c in report.checks} == {"R1", "R2", "R3", "R4", "R5"}
    c3, a4 = probe.groups[2], probe.groups[-1]
    bad = verify_axioms(CorruptedTransfer(BurnsideFunctor(), c3, a4), probe)
    assert any(c.relation == "R5" and not c.passed for c in bad.checks)


def test_report_serialization():
    report = verify_axioms(BurnsideFunctor(), standard_probe(2))
    d = report.to_dict()
    assert d["all_passed"] is True
    assert set(d["relations"]) == {"R1", "R2", "R3", "R4", "R5"}
    assert all(len(v["failed"]) == 0 for v in d["relations"].values())
    assert any("pass" in line for line in report.summary_lines())


def test_terminal_hom_res_is_inflation():
    A = BurnsideFunctor()
    s2 = symmetric_group(2)
    m = A.res(terminal_hom(s2))
    # the one-point set inflates to the one-point set: [e/e] to [S2/S2]
    assert m.matrix == ((0,), (1,))


@pytest.mark.parametrize("n", range(1, 7))
def test_structural_maps_match_their_formulas(n):
    """Each structural homomorphism is built from its generators' images; on
    every element its table must equal the tuple formula it stands for."""

    def agrees(hom, formula):
        return hom.table == {x: formula(x) for x in hom.source.image_set}

    assert agrees(standard_inclusion(n), lambda x: x + tuple(range(len(x) + 1, n + 1)))
    for k in range(n + 1):
        y = young_two_block(n, k)
        for block in (range(1, k + 1), range(k + 1, n + 1)):
            if block:  # the blocks are runs of points, relabelled from 1
                proj = restrict_to_block(y, block)
                assert agrees(proj, lambda x: tuple(x[p - 1] - block[0] + 1 for p in block))
    assert agrees(terminal_hom(symmetric_group(n)), lambda x: (1,))
    steps = [h for h in standard_probe(n).homs if h.target.degree == h.source.degree + 1]
    assert len(steps) == n - 1
    for step in steps:
        assert agrees(step, lambda x: x + (len(x) + 1,))


def test_probe_rejects_bad_bound():
    with pytest.raises(UsageError):
        standard_probe(0)
