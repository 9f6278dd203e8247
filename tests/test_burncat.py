"""Category of spans tests: canonical pairs, composition, sections.

Basis counts below were computed by an explicit orbit partition of raw
pairs (H, alpha) under subgroup conjugation and post-conjugation, run
separately from the min-key canonicalization the module uses.
"""

import json
import random

import pytest

from globfun import burncat, burnside, subgroups
from globfun.burncat import (
    BurnsideCatMorphism,
    CanonicalPair,
    RepresentedFunctor,
    SectionReport,
    canonical_pair,
    morphism_basis,
    product_section,
    section_of_restriction,
)
from globfun.burnside import BurnsideFunctor
from globfun.errors import CapExceededError, MathCheckError, UsageError
from globfun.functors import standard_probe, verify_axioms
from globfun.splitting import decompose, kernel_basis, reassemble
from globfun.perms import (
    GroupHom,
    Perm,
    PermGroup,
    all_homs,
    conjugate_subgroup,
    product_group,
    standard_inclusion,
    symmetric_group,
    trivial_subgroup,
    young_two_block,
)
from globfun.subgroups import subgroup_classes

S = {n: symmetric_group(n) for n in range(5)}

# orbit-partition counts, (source, target) -> number of pair classes
BASIS_COUNTS = {
    (1, 1): 1,
    (1, 2): 2,
    (2, 1): 1,
    (2, 2): 3,
    (1, 3): 4,
    (3, 1): 1,
    (2, 3): 6,
    (3, 2): 3,
    (3, 3): 8,
    (1, 4): 11,
    (2, 4): 22,
    (3, 4): 26,
}


def test_basis_counts():
    for (k, g), want in BASIS_COUNTS.items():
        assert len(morphism_basis(S[k], S[g])) == want


def test_basis_from_trivial_source_is_subgroup_classes():
    for n in (2, 3, 4):
        basis = morphism_basis(S[1], S[n])
        lat = subgroup_classes(S[n])
        assert len(basis) == len(lat.classes)
        # each pair's action on the Burnside functor sends 1 to the basis
        # vector of its subgroup's class
        a = BurnsideFunctor()
        for p in basis:
            m = BurnsideCatMorphism(S[1], S[n], [(p, 1)])
            col = [row[0] for row in m.action_on(a).matrix]
            want = [0] * len(lat.classes)
            want[lat.class_of(p.subgroup.image_set)] = 1
            assert col == want


def test_frozen_basis_sym2_sym2():
    labels = [p.label() for p in morphism_basis(S[2], S[2])]
    assert labels == ["(<()> -> ())", "(<(1 2)> -> ())", "(<(1 2)> -> (1 2))"]


def test_basis_to_trivial_target():
    basis = morphism_basis(S[3], S[1])
    assert len(basis) == 1
    assert basis[0].subgroup.order == 1


def test_canonical_pair_invariance():
    rng = random.Random(0)
    big = S[4]
    for pair in morphism_basis(S[2], big):
        # idempotence
        again = canonical_pair(pair.subgroup, pair.hom, big)
        assert again.key == pair.key
        for _ in range(4):
            g = rng.choice(big.elements)
            k = rng.choice(S[2].elements)
            moved, beta = _moved(pair.subgroup, pair.hom, g, k)
            assert canonical_pair(moved, beta, big).key == pair.key


def reference_canonical_pair(h, alpha, target):
    """The brute-force minimum over every (g, k) in target x source, the
    oracle for canonical_pair, which searches cosets of the normalizer and
    distinct generator images instead."""
    source = alpha.target
    best = None
    for g in target.elements:
        ginv = g.inverse()
        moved = sorted((g * x * ginv) for x in h.elements)
        skey = tuple(p.images for p in moved)
        if best is not None and skey > best[0][0]:
            continue
        values = [alpha(ginv * y * g) for y in moved]
        for k in source.elements:
            kinv = k.inverse()
            hkey = tuple((k * v * kinv).images for v in values)
            cand = (skey, hkey)
            if best is None or cand < best[0]:
                best = (cand, g, k)
    (skey, hkey), g, k = best
    ginv, kinv = g.inverse(), k.inverse()
    sub = conjugate_subgroup(h, g)
    images = [k * alpha(ginv * y * g) * kinv for y in sub.generators]
    return CanonicalPair(sub, GroupHom(sub, source, images), (skey, hkey))


def _assert_same_pair(h, alpha, target):
    got = canonical_pair(h, alpha, target)
    want = reference_canonical_pair(h, alpha, target)
    assert got.key == want.key
    assert got.label() == want.label()
    assert got.hom.gen_images == want.hom.gen_images


def _moved(h, alpha, g, k):
    """(gHg^-1, y |-> k alpha(g^-1 y g) k^-1), a pair in the same class."""
    moved = conjugate_subgroup(h, g)
    ginv, kinv = g.inverse(), k.inverse()
    images = [k * alpha(ginv * x * g) * kinv for x in moved.generators]
    return moved, GroupHom(moved, alpha.target, images)


def test_canonical_pair_matches_reference():
    rng = random.Random(2)
    for k, g in BASIS_COUNTS:
        src, tgt = S[k], S[g]
        for cls in subgroup_classes(tgt).classes:
            h = cls.representative
            for alpha in all_homs(h, src):
                _assert_same_pair(h, alpha, tgt)
                for _ in range(2):
                    _assert_same_pair(
                        *_moved(h, alpha, rng.choice(tgt.elements), rng.choice(src.elements)),
                        tgt,
                    )


def test_canonical_pair_matches_reference_on_products():
    # pairs (S2 x H, S2 x alpha) as product_section builds them for S2 x i_4,
    # over the whole S3 -> S4 basis
    big_prev = product_group(S[2], S[3])
    big_cur = product_group(S[2], S[4])
    left = [Perm(x.images + (3, 4, 5)) for x in S[2].generators]
    for pair in morphism_basis(S[3], S[4]):
        sub = product_group(S[2], pair.subgroup)
        right = [
            Perm((1, 2) + tuple(v + 2 for v in pair.hom(x).images))
            for x in pair.subgroup.generators
        ]
        alpha = GroupHom(sub, big_prev, left + right)
        _assert_same_pair(sub, alpha, big_cur)


def _fresh_pair(h, alpha, target, monkeypatch):
    """canonical_pair computed from an empty subgroup-half memo, which is
    put back afterwards."""
    memo = burncat._least_conjugate_memo
    monkeypatch.setattr(burncat, "_least_conjugate_memo", {})
    pair = canonical_pair(h, alpha, target)
    monkeypatch.setattr(burncat, "_least_conjugate_memo", memo)
    return pair


def _counting_normalizer(monkeypatch):
    """Empty the subgroup-half memo and count the halves computed behind it,
    as (target, H) image-set pairs: each computation takes one normalizer."""
    calls = []
    normalizer = burncat.normalizer

    def counting(g, h):
        calls.append((g.image_set, h.image_set))
        return normalizer(g, h)

    monkeypatch.setattr(burncat, "_least_conjugate_memo", {})
    monkeypatch.setattr(burncat, "normalizer", counting)
    return calls


def test_morphism_basis_finds_each_normalizer_once(monkeypatch):
    # the subgroup half of canonical_pair is computed once per class, and the
    # pairs the basis holds are the ones a fresh computation finds
    calls = _counting_normalizer(monkeypatch)
    basis = morphism_basis(S[3], S[4])
    assert len(calls) == len(set(calls)) == len(subgroup_classes(S[4]).classes)
    for pair in basis:
        alone = _fresh_pair(pair.subgroup, pair.hom, S[4], monkeypatch)
        assert alone.key == pair.key and alone.label() == pair.label()


def test_subgroup_half_memo_tells_targets_apart(monkeypatch):
    # one H = <(1 2)> and one alpha inside Sym(3) x Sym(1) and inside Sym(4):
    # its least conjugate is <(2 3)> in the first and <(3 4)> in the second,
    # so a memo keyed on H alone would hand the second call the first's half
    small, big = young_two_block(4, 3), S[4]
    h = PermGroup.from_elements(4, [(1, 2, 3, 4), (2, 1, 3, 4)])
    alpha = GroupHom(h, S[2], S[2].generators)
    for targets in ((small, big), (big, small)):
        monkeypatch.setattr(burncat, "_least_conjugate_memo", {})
        for target in targets:
            got = canonical_pair(h, alpha, target)
            assert got.key == reference_canonical_pair(h, alpha, target).key
            assert got.key == _fresh_pair(h, alpha, target, monkeypatch).key
    assert canonical_pair(h, alpha, small).key != canonical_pair(h, alpha, big).key


def _composites_and_product_section():
    """A function that forms the composites behind one restriction matrix
    of the functor Sym(2) represents, and one product section; the bases
    and the section it reads are built first."""
    rep = RepresentedFunctor(S[2])
    rep.basis(S[2]), rep.basis(S[3])
    star = BurnsideCatMorphism.restriction(standard_inclusion(3))
    section = section_of_restriction(3)

    def run():
        rep._composition_matrix(star, S[3], S[2])
        product_section(S[2], section)

    return run


def test_memoized_subgroup_halves_match_fresh_ones(monkeypatch):
    # compose and product_section meet the same subgroups many times and
    # read their halves from the memo; each pair is the one a fresh
    # computation finds
    hits = []
    canonical = burncat.canonical_pair

    def checked(h, alpha, target):
        if (target.image_set, h.image_set) in burncat._least_conjugate_memo:
            hits.append(h.image_set)
        pair = canonical(h, alpha, target)
        alone = _fresh_pair(h, alpha, target, monkeypatch)
        assert alone.key == pair.key and alone.label() == pair.label()
        return pair

    run = _composites_and_product_section()
    monkeypatch.setattr(burncat, "_least_conjugate_memo", {})
    monkeypatch.setattr(burncat, "canonical_pair", checked)
    run()
    assert hits


def test_composites_find_each_subgroup_half_once(monkeypatch):
    run = _composites_and_product_section()
    calls = _counting_normalizer(monkeypatch)
    run()
    assert calls and len(calls) == len(set(calls))


def test_identity_law():
    for k, g in ((2, 3), (3, 2), (1, 4)):
        ident_g = BurnsideCatMorphism.identity(S[g])
        ident_k = BurnsideCatMorphism.identity(S[k])
        for p in morphism_basis(S[k], S[g]):
            m = BurnsideCatMorphism(S[k], S[g], [(p, 1)])
            assert ident_g.compose(m) == m
            assert m.compose(ident_k) == m


def _random_morphism(rng, src, tgt):
    basis = morphism_basis(src, tgt)
    terms = []
    for p in rng.sample(basis, min(2, len(basis))):
        terms.append((p, rng.choice([-2, -1, 1, 2])))
    return BurnsideCatMorphism(src, tgt, terms)


def test_associativity_seeded():
    rng = random.Random(0)
    pool = [S[1], S[2], young_two_block(3, 2), S[3]]
    for _ in range(20):
        w, x, y, z = (rng.choice(pool) for _ in range(4))
        f = _random_morphism(rng, w, x)
        g = _random_morphism(rng, x, y)
        h = _random_morphism(rng, y, z)
        assert h.compose(g.compose(f)) == h.compose(g).compose(f)


def test_associativity_with_sym4():
    rng = random.Random(1)
    f = _random_morphism(rng, S[2], S[4])
    g = _random_morphism(rng, S[4], S[3])
    h = _random_morphism(rng, S[3], S[2])
    assert h.compose(g.compose(f)) == h.compose(g).compose(f)


def test_action_functoriality_on_burnside():
    rng = random.Random(0)
    a = BurnsideFunctor()
    pool = [S[1], S[2], S[3]]
    for _ in range(10):
        x, y, z = (rng.choice(pool) for _ in range(3))
        f = _random_morphism(rng, x, y)
        g = _random_morphism(rng, y, z)
        assert g.compose(f).action_on(a) == g.action_on(a).compose(f.action_on(a))


def test_restriction_and_transfer_actions_match_functor():
    a = BurnsideFunctor()
    inc = standard_inclusion(3)
    assert BurnsideCatMorphism.restriction(inc).action_on(a) == a.res(inc)
    h = young_two_block(3, 2)
    assert BurnsideCatMorphism.transfer(h, S[3]).action_on(a) == a.tr(h, S[3])


def test_restriction_after_transfer_doubles_identity():
    # over e\S2/e there are two cosets, so i* after transfer-from-e is twice
    # the unique class from the trivial group
    istar = BurnsideCatMorphism.restriction(standard_inclusion(2))
    up = BurnsideCatMorphism.transfer(trivial_subgroup(S[2]), S[2])
    composite = istar.compose(up)
    (pair, coeff), = composite.terms.values()
    assert coeff == 2
    assert pair.subgroup.order == 1


def test_morphism_algebra():
    m = BurnsideCatMorphism.identity(S[2])
    (pair, coeff), = m.terms.values()
    assert (m + BurnsideCatMorphism(S[2], S[2], [(pair, -coeff)])).terms == {}
    with pytest.raises(UsageError):
        m.compose(BurnsideCatMorphism.identity(S[3]))
    with pytest.raises(UsageError):
        m + BurnsideCatMorphism.identity(S[3])


def test_represented_functor_is_burnside_at_trivial_group():
    rep = RepresentedFunctor(S[1])
    a = BurnsideFunctor()
    for n in (2, 3):
        g = S[n]
        lat = subgroup_classes(g)
        assert rep.value(g).rank == a.value(g).rank
        # match the two basis orders through the subgroup classes
        to_class = [lat.class_of(p.subgroup.image_set) for p in rep.basis(g)]
        assert sorted(to_class) == list(range(len(lat.classes)))
        inc = standard_inclusion(n)
        got = rep.res(inc).matrix
        want = a.res(inc).matrix
        lat_prev = subgroup_classes(S[n - 1])
        src_map = [lat_prev.class_of(p.subgroup.image_set) for p in rep.basis(S[n - 1])]
        for i, ci in enumerate(src_map):
            for j, cj in enumerate(to_class):
                assert got[i][j] == want[ci][cj]


def test_represented_functor_satisfies_axioms():
    rep = RepresentedFunctor(S[2])
    report = verify_axioms(rep, standard_probe(3))
    assert report.all_passed, report.failures()[:3]


SECTION_BASIS_SIZES = {1: 1, 2: 2, 3: 6, 4: 26}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_section_of_restriction(n):
    rep = section_of_restriction(n)
    assert rep.basis_size == SECTION_BASIS_SIZES[n]
    istar = BurnsideCatMorphism.restriction(standard_inclusion(n))
    ident = BurnsideCatMorphism.identity(S[n - 1] if n > 1 else S[1])
    assert istar.compose(rep.sigma) == ident
    assert istar.compose(rep.sigma_from_splitting) == ident


def test_section_values_small():
    two = section_of_restriction(2)
    assert [p.label() for p, _ in two.sigma.terms.values()] == ["(<(1 2)> -> ())"]
    assert two.sigma == two.sigma_from_splitting
    three = section_of_restriction(3)
    (pair, coeff), = three.sigma.terms.values()
    assert coeff == 1
    assert pair.subgroup.order == 6  # the full group, mapped by the sign
    assert pair.hom.image().order == 2
    assert three.sigma != three.sigma_from_splitting


def test_section_n4_is_exceptional_quotient():
    rep = section_of_restriction(4)
    (pair, coeff), = rep.sigma.terms.values()
    assert coeff == 1
    assert pair.subgroup.order == 24
    assert pair.hom.is_surjective_onto_target()
    kernel = pair.hom.preimage(trivial_subgroup(S[3]))
    assert kernel.order == 4


def test_section_deterministic_and_serializable():
    a = section_of_restriction(3)
    b = section_of_restriction(3)
    assert a.sigma == b.sigma
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    text = "\n".join(a.summary_lines())
    assert "differ" in text and "identity" in text


def test_section_reports_pair_missing_from_basis(monkeypatch):
    # a composite outside a (here truncated) basis is a failed check, not a KeyError
    full = burncat.morphism_basis

    def truncated(source, target):
        basis = full(source, target)
        return basis[:1] if target.degree == 2 else basis

    monkeypatch.setattr(burncat, "morphism_basis", truncated)
    with pytest.raises(MathCheckError, match="missing from the enumerated basis"):
        section_of_restriction(3)


def test_section_honours_lattice_cap(monkeypatch):
    # every lattice the section builds stops at the environment's cap
    monkeypatch.setenv("GLOBFUN_MAX_LATTICE_ORDER", "10")
    with pytest.raises(CapExceededError) as exc:
        section_of_restriction(4)
    assert exc.value.cap == 10


@pytest.mark.parametrize("name,wrong,message", [
    ("solve_exact", lambda matrix, rhs: [None], "not onto the identity"),
    ("reduce_mod_lattice", lambda x, kernel: [2 * v for v in x], "solver produced a non-section"),
    ("_section_from_splitting", lambda n: BurnsideCatMorphism(S[n - 1], S[n]),
     "splitting route produced a non-section"),
])
def test_section_rejects_a_wrong_answer(monkeypatch, name, wrong, message):
    # no solution, the solver's section doubled, the splitting's section zero
    monkeypatch.setattr(burncat, name, wrong)
    with pytest.raises(MathCheckError, match=message):
        section_of_restriction(2)


def test_product_section_rejects_a_non_section():
    good = section_of_restriction(2)
    doubled = SectionReport(2, good.sigma + good.sigma, good.sigma_from_splitting, good.basis_size)
    with pytest.raises(MathCheckError, match="paired section is not a right inverse"):
        product_section(S[2], doubled)


@pytest.mark.parametrize("n", [2, 3])
def test_product_section_sym2(n):
    rep = product_section(S[2], section_of_restriction(n))
    assert rep.verified
    assert rep.to_dict()["n"] == n


def test_product_section_trivial_factor():
    rep = product_section(S[1], section_of_restriction(2))
    assert rep.verified


def test_section_rejects_bad_n():
    with pytest.raises(UsageError):
        section_of_restriction(0)


# The splitting section from the formula of the module docstring, against the
# route globfun first took, and against two wrong formulas.


def _section_through_the_represented_functor(n):
    """S_n the long way: decompose the identity of Sym(n-1) one level down in
    the functor Sym(n-1) represents, and reassemble at Sym(n) with a zero top
    slot."""
    prev, cur = symmetric_group(n - 1), symmetric_group(n)
    rep = RepresentedFunctor(prev)
    ident = BurnsideCatMorphism.identity(prev).terms
    parts = decompose(rep, n - 1, [int(p.key in ident) for p in rep.basis(prev)])
    vec = reassemble(rep, n, parts + ((0,) * len(kernel_basis(rep, n)),))
    return BurnsideCatMorphism(prev, cur, list(zip(rep.basis(cur), vec)))


def _restriction_undoes(n, sigma):
    inc = standard_inclusion(n)
    return BurnsideCatMorphism.restriction(inc).compose(sigma) == \
        BurnsideCatMorphism.identity(inc.source)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_section_formula_equals_the_represented_functor_route(n):
    got = burncat._section_from_splitting(n)
    want = _section_through_the_represented_functor(n)
    assert got == want
    assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_section_formula_is_a_section(n):
    assert _restriction_undoes(n, burncat._section_from_splitting(n))


def test_section_formula_builds_no_basis_and_no_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("the formula built a basis or a lattice")

    monkeypatch.setattr(burncat, "_projection_memo", {})
    monkeypatch.setattr(burncat, "morphism_basis", refuse)
    for module in (burncat, subgroups, burnside):
        monkeypatch.setattr(module, "subgroup_classes", refuse)
    for n in range(1, 6):
        assert _restriction_undoes(n, burncat._section_from_splitting(n))
    assert set(burncat._projection_memo) == {(k, m) for m in range(5) for k in range(m + 1)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_section_formula_with_one_coefficient_bumped_is_no_section(n):
    good = burncat._section_from_splitting(n)
    for pair, _ in good.terms.values():
        bumped = good + BurnsideCatMorphism(good.source, good.target, [(pair, 1)])
        assert not _restriction_undoes(n, bumped), pair


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_section_formula_without_the_top_correction_is_no_section(monkeypatch, n):
    # E_m^{(m)} taken as the plain identity instead of id - sum Psi o E
    plain = {(m, m): BurnsideCatMorphism.identity(symmetric_group(m)) for m in range(n)}
    monkeypatch.setattr(burncat, "_projection_memo", plain)
    assert not _restriction_undoes(n, burncat._section_from_splitting(n))
