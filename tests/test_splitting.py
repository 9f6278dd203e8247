"""Kernel lattices, psi maps, the double coset identity, and decompose.

Component-rank oracles: for the Burnside instance the value ranks are the
independently frozen subgroup-class counts 1, 2, 4, 11, 19 (test_subgroups),
so the kernel ranks must be their successive differences 1, 0, 1, 2, 7, 8;
for the representation ring they are partition-count differences.
"""

import gc
import hashlib
import json
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globfun.burnside import BurnsideFunctor
from globfun.errors import CapExceededError, MathCheckError, UnsupportedGroupError, UsageError
from globfun.functors import CorruptedTransfer, FreeAbelian, GlobalFunctor
from globfun.repring import RepRingFunctor
from globfun import splitting
from globfun.splitting import (
    _alternating_class_key,
    _certify_fusion,
    alternating_retractions,
    decompose,
    kernel_basis,
    non_splitting_witness_alternating,
    psi,
    reassemble,
    splitting_report,
    verify_dcf_symmetric,
)
from globfun import characters, perms, repring, subgroups
from globfun.characters import partitions
from globfun.linalg import hermite_normal_form, mat_vec
from globfun.perms import (
    PermGroup,
    _pairs_sharing_key,
    alternating_group,
    fused_pairs,
    standard_inclusion,
    symmetric_group,
    young_two_block,
)


def partition_count(n: int) -> int:
    return len(partitions(n))


def test_library_groups_meet_the_environment_cap(monkeypatch):
    # Sym(5) is built by the library itself, and closes under the same cap
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "100")
    with pytest.raises(CapExceededError) as exc:
        verify_dcf_symmetric(RepRingFunctor(), 2, 5)
    assert exc.value.cap == 100


def test_ru_tower_meets_the_table_cap(monkeypatch):
    # past the table cap the RU splitting is refused in process, with the
    # message the CLI prints, before any Pieri matrix is built
    def refuse(*args):
        raise AssertionError("a Pieri matrix was built")

    monkeypatch.setattr(repring, "pieri_matrix", refuse)
    with pytest.raises(UnsupportedGroupError, match=r"^table for moved degree 21 exceeds cap 20$"):
        splitting_report(RepRingFunctor(), 21)


def test_kernel_basis_low_burnside():
    A = BurnsideFunctor()
    assert kernel_basis(A, 0) == [[1]]
    assert kernel_basis(A, 1) == []
    assert kernel_basis(A, 2) == [[1, -2]]


def test_kernel_rank_repring_is_partition_difference():
    R = RepRingFunctor()
    for k in range(1, 6):
        assert len(kernel_basis(R, k)) == partition_count(k) - partition_count(k - 1)


def test_psi_edge_cases_burnside():
    A = BurnsideFunctor()
    # inflation sends the point to the point: [e/e] to [S2/S2]
    assert psi(A, 0, 2).matrix == ((0,), (1,))
    # top inclusion returns the kernel vector itself
    assert psi(A, 2, 2).matrix == ((1,), (-2,))
    with pytest.raises(UsageError):
        psi(A, 3, 2)


def test_dcf_small_hand_check():
    A = BurnsideFunctor()
    check = verify_dcf_symmetric(A, 1, 2)
    assert check.passed
    # res o tr on [Y(1,1)/e] gives 2 [S1/e]: each summand contributes 1
    assert check.lhs.matrix == ((2,),)


@pytest.mark.parametrize("n", range(2, 5))
def test_dcf_all_k_both_functors(n):
    for F in (BurnsideFunctor(), RepRingFunctor()):
        for k in range(1, n):
            check = verify_dcf_symmetric(F, k, n)
            assert check.passed, check.summary()


def test_dcf_rejects_bad_indices():
    with pytest.raises(UsageError):
        verify_dcf_symmetric(BurnsideFunctor(), 0, 3)
    with pytest.raises(UsageError):
        verify_dcf_symmetric(BurnsideFunctor(), 3, 3)


def test_dcf_catches_corrupted_transfer():
    s2 = symmetric_group(2)
    bad = CorruptedTransfer(BurnsideFunctor(), young_two_block(2, 1), s2)
    check = verify_dcf_symmetric(bad, 1, 2)
    assert not check.passed
    assert "first differing column" in check.detail


def test_splitting_report_burnside():
    A = BurnsideFunctor()
    for n, ranks in [(0, (1,)), (1, (1, 0)), (2, (1, 0, 1)), (3, (1, 0, 1, 2)),
                     (4, (1, 0, 1, 2, 7))]:
        rep = splitting_report(A, n)
        assert rep.component_ranks == ranks
        assert abs(rep.determinant) == 1
        assert sum(ranks) == A.value(symmetric_group(n)).rank


def test_splitting_report_burnside_s6():
    # component ranks are c(S_k) - c(S_{k-1}) for the numbers c of subgroup
    # classes of Sym(0..6) (OEIS A000638): [1, 0, 1, 2, 7, 8, 37]
    c = [1, 1, 2, 4, 11, 19, 56]
    rep = splitting_report(BurnsideFunctor(), 6)
    assert abs(rep.determinant) == 1
    assert list(rep.component_ranks) == [1] + [b - a for a, b in zip(c, c[1:])]
    # the bytes of `globfun --output json split --functor burnside --n 6`
    text = json.dumps(rep.to_dict(), sort_keys=True) + "\n"
    digest = "dc252c9ed458a9887a729ccfb76da3b350636b0aa5153b3888f9f49da259de3f"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_splitting_report_repring():
    R = RepRingFunctor()
    for n in range(6):
        rep = splitting_report(R, n)
        expect = tuple(
            partition_count(k) - (partition_count(k - 1) if k else 0)
            for k in range(n + 1)
        )
        assert rep.component_ranks == expect
        assert abs(rep.determinant) == 1
        assert "determinant" in rep.summary_lines()[2]
        d = rep.to_dict()
        assert d["component_ranks"] == list(expect)


class TowerToy(GlobalFunctor):
    """A functor known by hand-written 1 x 1 tower maps, [[1]] where none is
    given, so that F(Sym(n)) = Z splits with no kernel above level 0.  The
    group path that decompose restricts along reads `tower_res` at the
    target's degree, which is right up to n = 1."""

    name = "toy"

    def __init__(self, res=None, psi_maps=None):
        super().__init__()
        self.res_at, self.psi_at = res or {}, psi_maps or {}

    def tower_value(self, n):
        return FreeAbelian(("x",))

    def _value(self, g):
        return self.tower_value(g.degree)

    def tower_res(self, n):
        return self.res_at.get(n, [[1]])

    def tower_psi(self, k, n):
        return self.psi_at.get((k, n), [[1]])

    def _res_matrix(self, alpha):
        return self.tower_res(alpha.target.degree)


class LowerPsiAdded(RepRingFunctor):
    """RU with psi(2, 3) added into psi(0, 3).  A column operation keeps the
    assembled matrix unimodular, but down o psi(0, 3) is no longer psi(0, 2)."""

    def tower_psi(self, k, n):
        m = super().tower_psi(k, n)
        if (k, n) == (0, 3):
            m = [[a + b for a, b in zip(r, t)] for r, t in zip(m, psi(self, 2, 3).matrix)]
        return m


@pytest.mark.parametrize("res,psi_maps,message", [
    ({1: [[0]]}, {}, r"kernel ranks \[1, 1\] do not add up to 1"),
    ({}, {(0, 1): [[2]]}, "assembled splitting matrix has determinant 2"),
    ({1: [[2]]}, {(0, 0): [[2]]}, "basis vector 0 of the lower level has no integer preimage"),
])
def test_splitting_report_rejects_a_broken_tower(res, psi_maps, message):
    assert splitting_report(TowerToy(), 1).determinant == 1
    with pytest.raises(MathCheckError, match=message):
        splitting_report(TowerToy(res, psi_maps), 1)


def test_splitting_report_rejects_a_perturbed_psi_column():
    assert abs(splitting_report(RepRingFunctor(), 3).determinant) == 1
    with pytest.raises(MathCheckError, match="ladder relation fails at k=0, n=3"):
        splitting_report(LowerPsiAdded(), 3)


def test_doubled_kernel_basis_fails_the_certificate_and_decompose():
    f = RepRingFunctor()
    top = psi(RepRingFunctor(), 3, 3).apply((1,))
    f._kernel_memo[3] = tuple(tuple(2 * v for v in row) for row in kernel_basis(f, 3))
    with pytest.raises(MathCheckError, match="determinant -?2$"):
        splitting_report(f, 3)
    # the true kernel vector is half of the doubled basis vector
    with pytest.raises(MathCheckError, match="residue does not lie in the top kernel lattice"):
        decompose(f, 3, top)


def test_decompose_rejects_a_residue_with_no_kernel_to_hold_it():
    assert decompose(TowerToy(), 1, (1,)) == ((1,), ())
    # psi(0, 1) doubles, so x - psi(0, 1)(res x) = -x, and ker F(i_1) is zero
    with pytest.raises(MathCheckError, match="nonzero residue left for an empty kernel"):
        decompose(TowerToy(psi_maps={(0, 1): [[2]]}), 1, (1,))


# one instance per functor, so the group path's memos stay warm across examples
TOWER_RU = RepRingFunctor()
ROUND_TRIP = [(TOWER_RU, 6), (BurnsideFunctor(), 4)]  # (functor, largest n)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_ru_tower_equals_group_path(kn):
    """Partitions, branching and Pieri against values, restriction and
    transfer computed on the groups by the GlobalFunctor defaults."""
    k, n = kn
    f = TOWER_RU
    assert f.tower_value(n) == GlobalFunctor.tower_value(f, n) == f.value(symmetric_group(n))
    if n >= 1:
        assert list(map(list, f.tower_res(n))) == list(map(list, GlobalFunctor.tower_res(f, n)))
    assert list(map(list, f.tower_psi(k, n))) == list(map(list, GlobalFunctor.tower_psi(f, k, n)))


@st.composite
def tower_vectors(draw):
    f, n_max = draw(st.sampled_from(ROUND_TRIP))
    n = draw(st.integers(0, n_max))
    rank = f.value(symmetric_group(n)).rank
    return f, n, tuple(draw(st.lists(st.integers(-50, 50), min_size=rank, max_size=rank)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(tower_vectors())
def test_decompose_reassemble_round_trip_property(case):
    f, n, x = case
    parts = decompose(f, n, x)
    assert [len(p) for p in parts] == [len(kernel_basis(f, k)) for k in range(n + 1)]
    assert reassemble(f, n, parts) == x


def test_ru_certificate_at_n12_builds_no_group(built_orders):
    rep = splitting_report(RepRingFunctor(), 12)
    assert list(rep.component_ranks) == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12, 14, 21]
    assert sum(rep.component_ranks) == partition_count(12)
    assert abs(rep.determinant) == 1
    assert built_orders == []


def test_dcf_closes_each_symmetric_group_once(built_orders):
    # Sym(6) and Sym(5) are taken from the inclusion between them
    assert verify_dcf_symmetric(RepRingFunctor(), 3, 6).passed
    assert built_orders.count(factorial(6)) == built_orders.count(factorial(5)) == 1


def test_decompose_hand_example():
    # x = [S2/e]: two points restrict to 2 [e/e], and the correction lands
    # on the kernel vector [S2/e] - 2 [S2/S2]
    A = BurnsideFunctor()
    comps = decompose(A, 2, (1, 0))
    assert comps == ((2,), (), (1,))
    assert reassemble(A, 2, comps) == (1, 0)


def test_decompose_zero_and_psi_slots():
    A = BurnsideFunctor()
    assert decompose(A, 3, (0, 0, 0, 0)) == ((0,), (), (0,), (0, 0))
    # a psi image decomposes into its own slot
    for k in (0, 2, 3):
        p = psi(A, k, 3)
        for i in range(p.source.rank):
            v = tuple(1 if j == i else 0 for j in range(p.source.rank))
            comps = decompose(A, 3, p.apply(v))
            for kk, part in enumerate(comps):
                assert part == (v if kk == k else tuple([0] * len(part)))


@pytest.mark.parametrize("name,maker,n_max", [
    ("burnside", BurnsideFunctor, 4),
    ("ru", RepRingFunctor, 5),
])
def test_decompose_round_trip_random(name, maker, n_max):
    F = maker()
    rng = random.Random(0)
    for n in range(n_max + 1):
        rank = F.value(symmetric_group(n)).rank
        for _ in range(10):
            x = tuple(rng.randrange(-9, 10) for _ in range(rank))
            comps = decompose(F, n, x)
            assert reassemble(F, n, comps) == x


def test_decompose_validates_length():
    with pytest.raises(UsageError):
        decompose(BurnsideFunctor(), 2, (1, 2, 3))
    with pytest.raises(UsageError):
        reassemble(BurnsideFunctor(), 2, [(1,), (2,)])
    # every component must have its kernel's rank, (1,), () and (1,) here
    for bad in ([(1,), (), (1, 2)], [(1,), (1,), (1,)], [(), (), (1,)]):
        with pytest.raises(UsageError, match="does not match source rank"):
            reassemble(BurnsideFunctor(), 2, bad)


# The reference route: decompose and reassemble as first written, with each
# psi map applied on its own and each top kernel solved through a Hermite
# form computed for that call, so no stacked matrix and no solve memo.


def _fresh_solve(rows, b):
    """Integer c with sum_i c_i rows[i] = b, or None: U rows = H, solve z H = b
    down the pivots, then c = z U."""
    h, u = hermite_normal_form(rows)
    z, rem = [0] * len(rows), list(b)
    for r, row in enumerate(h):
        c = next((j for j, v in enumerate(row) if v), None)
        if c is None:
            break
        z[r], left = divmod(rem[c], row[c])
        if left:
            return None
        rem = [x - z[r] * v for x, v in zip(rem, row)]
    if any(rem):
        return None
    return [sum(zi * urow[j] for zi, urow in zip(z, u)) for j in range(len(rows))]


def _reference_psi_sum(f, n, parts):
    total = (0,) * f.tower_value(n).rank
    for k, part in enumerate(parts):
        total = tuple(t + v for t, v in zip(total, psi(f, k, n).apply(part)))
    return total


def _reference_decompose(f, n, x):
    if n == 0:
        return (tuple(x),)
    below = _reference_decompose(f, n - 1, mat_vec(f.tower_res(n), x))
    residual = [a - b for a, b in zip(x, _reference_psi_sum(f, n, below))]
    top = _fresh_solve(kernel_basis(f, n), residual)
    assert top is not None
    return below + (tuple(top),)


@pytest.mark.parametrize("maker,n_max", [(RepRingFunctor, 7), (BurnsideFunctor, 4)])
def test_decompose_and_reassemble_equal_the_reference_route(maker, n_max):
    f = maker()
    rng = random.Random(30)
    for n in range(n_max + 1):
        rank = f.tower_value(n).rank
        widths = [len(kernel_basis(f, k)) for k in range(n + 1)]
        for _ in range(6):
            x = tuple(rng.randrange(-20, 21) for _ in range(rank))
            assert decompose(f, n, x) == _reference_decompose(f, n, x)
            parts = tuple(tuple(rng.randrange(-20, 21) for _ in range(w)) for w in widths)
            assert reassemble(f, n, parts) == _reference_psi_sum(f, n, parts)
            assert decompose(f, n, _reference_psi_sum(f, n, parts)) == parts


def test_psi_sum_below_the_top_builds_no_top_slot():
    # the section route passes the n slots below the top, k < n: the stacked
    # matrix it reads holds no psi(n, n) and asks for no top kernel
    f = RepRingFunctor()
    parts = [tuple(range(1, len(kernel_basis(f, k)) + 1)) for k in range(5)]
    got = splitting._psi_sum(f, 5, parts)
    assert (5, 5) not in f._psi_memo and 5 not in f._kernel_memo
    assert tuple(got) == _reference_psi_sum(f, 5, parts)
    # reassemble widens the level's one matrix, and the lower slots then read
    # its leading columns
    full = parts + [(1, -1)]
    assert reassemble(f, 5, full) == _reference_psi_sum(f, 5, full)
    assert list(f._stack_memo) == [5] and len(f._stack_memo[5][1]) == 6
    assert tuple(splitting._psi_sum(f, 5, parts)) == tuple(got)


@pytest.mark.parametrize("maker,n_max", [(RepRingFunctor, 6), (BurnsideFunctor, 4)])
def test_memo_warm_matches_cold(maker, n_max):
    warm = maker()
    x = (1,) * warm.value(symmetric_group(n_max)).rank
    assert reassemble(warm, n_max, decompose(warm, n_max, x)) == x
    # decompose fills psi(k, m) for every k < m <= n_max
    assert {(k, m) for m in range(1, n_max + 1) for k in range(m)} <= set(warm._psi_memo)
    assert len(warm._kernel_memo) == n_max + 1
    for n in range(n_max + 1):
        for k in range(n + 1):
            assert psi(warm, k, n).matrix == psi(maker(), k, n).matrix, (k, n)
        assert kernel_basis(warm, n) == kernel_basis(maker(), n), n


def test_memo_not_shared_with_corrupted_functor():
    A = BurnsideFunctor()
    decompose(A, 3, (1, 0, 0, 0))
    before = psi(A, 2, 3)
    bad = CorruptedTransfer(A, young_two_block(3, 2), symmetric_group(3))
    assert bad._psi_memo is not A._psi_memo and not bad._psi_memo
    assert bad._kernel_memo is not A._kernel_memo and not bad._kernel_memo
    assert psi(bad, 2, 3) != before
    assert psi(A, 2, 3) == before


def _holds_group(key):
    if isinstance(key, PermGroup):
        return True
    return isinstance(key, (tuple, frozenset)) and any(map(_holds_group, key))


def _reaches_group(obj):
    """Whether a PermGroup can be reached from obj by following references,
    types aside (every instance refers to its class)."""
    seen, todo = set(), [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, type) or id(x) in seen:
            continue
        if isinstance(x, PermGroup):
            return True
        seen.add(id(x))
        todo += gc.get_referents(x)
    return False


def test_memo_keys_hold_no_group():
    # memos key on image sets and block structures: a PermGroup key would
    # keep its Perm elements alive
    functors = [RepRingFunctor(), BurnsideFunctor()]
    splitting_report(functors[0], 5)
    # the RU split reads only the tower maps; the dcf check fills its group memos
    verify_dcf_symmetric(functors[0], 2, 5)
    splitting_report(functors[1], 4)
    memos = [characters._table_memo, characters._fusion_memo, subgroups._lattice_memo]
    for f in functors:
        memos += [f._value_memo, f._res_memo, f._tr_memo, f._kernel_memo, f._psi_memo,
                  f._stack_memo]
    memos.append(functors[0]._tower_memo)
    for memo in memos:
        assert memo
        assert not any(map(_holds_group, memo))
    # a table or fusion memo value reaches no group either, down to its
    # class representatives
    assert _reaches_group([0, (standard_inclusion(2),)])
    for memo in (characters._table_memo, characters._fusion_memo):
        assert not any(map(_reaches_group, memo.values()))


def test_kernel_basis_rows_are_fresh():
    A = BurnsideFunctor()
    rows = kernel_basis(A, 2)
    rows[0][0] = 99
    rows.append([5, 5])
    assert kernel_basis(A, 2) == [[1, -2]]


def test_decompose_round_trip_burnside_s6():
    F = BurnsideFunctor()
    rng = random.Random(6)
    rank = F.value(symmetric_group(6)).rank
    for _ in range(50):
        x = tuple(rng.randrange(-9, 10) for _ in range(rank))
        assert reassemble(F, 6, decompose(F, 6, x)) == x
    # a psi(k, 6) image decomposes into slot k alone
    for k in range(7):
        p = psi(F, k, 6)
        v = tuple(rng.randrange(-9, 10) for _ in range(p.source.rank))
        comps = decompose(F, 6, p.apply(v))
        for kk, part in enumerate(comps):
            assert part == (v if kk == k else (0,) * len(part)), (k, kk)


def test_fusion_witness_n5():
    rep = non_splitting_witness_alternating(5)
    assert not rep.restriction_surjective
    assert len(rep.pairs) == 1
    a, b = rep.pairs[0]
    assert a.cycle_type() == (3, 1, 1) and b.cycle_type() == (3, 1, 1)
    assert rep.merged_rank == rep.class_count - 1
    assert any("fuse" in line for line in rep.summary_lines())


def embedded_alternating(n: int) -> PermGroup:
    """Alt(n-1) inside Alt(n), fixing the last point: the group search that
    the fusion report is checked against."""
    inner = alternating_group(n - 1)
    tail = tuple(range(inner.degree + 1, n + 1))
    return PermGroup.from_elements(n, [x + tail for x in inner.image_set], name=f"A{n - 1}")


def test_fusion_matches_fused_pairs_without_building_alt_n(built_orders):
    # the report reads partitions and builds no group; the oracle builds
    # Alt(n-1) and Alt(n) and compares classes element by element
    reports = {n: non_splitting_witness_alternating(n) for n in range(5, 9)}
    assert built_orders == []
    for n, rep in reports.items():
        h = embedded_alternating(n)
        assert rep.pairs == fused_pairs(h, alternating_group(n))
        assert rep.pairs == _pairs_sharing_key(h.class_representatives(), _alternating_class_key)
        assert rep.class_count == len(h.conjugacy_classes())
    assert [len(reports[n].pairs) for n in range(5, 9)] == [1, 0, 1, 0]


def test_fusion_n9_matches_the_group_search(monkeypatch):
    # Alt(8) is past the default group cap; its classes are paired by the
    # parity key, which the test above checks against Alt(n) for n <= 8
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", str(factorial(8) // 2))
    rep = non_splitting_witness_alternating(9)
    h = embedded_alternating(9)
    assert rep.pairs == _pairs_sharing_key(h.class_representatives(), _alternating_class_key)
    assert rep.class_count == len(h.conjugacy_classes()) == 14
    assert [a.cycle_type() for a, _ in rep.pairs] == [(7, 1, 1)]


def test_fusion_n10_pair():
    rep = non_splitting_witness_alternating(10)
    [(a, b)] = rep.pairs
    assert (str(a), str(b)) == ("(2 3 4)(5 6 7 8 9)", "(2 3 4)(5 6 7 9 8)")
    assert a.cycle_type() == b.cycle_type() == (5, 3, 1, 1)
    assert rep.class_count == 18 and rep.merged_rank == 17


def test_fusion_to_the_table_cap_builds_no_group(monkeypatch, built_orders):
    def refuse(*args):
        raise AssertionError("a group was closed")

    monkeypatch.setattr(perms, "close_generators", refuse)
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "1")
    reports = [non_splitting_witness_alternating(n) for n in range(5, 21)]
    assert built_orders == []
    # class numbers of Alt(4) .. Alt(19), OEIS A000702
    assert [r.class_count for r in reports] == [
        4, 5, 7, 9, 14, 18, 24, 31, 43, 55, 72, 94, 123, 156, 200, 254
    ]
    # fusion at n = 5, 7 and every n >= 9
    assert [len(r.pairs) for r in reports] == [1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 2, 3, 2, 3]
    for r in reports:
        for a, b in r.pairs:
            assert a < b and a(r.n) == b(r.n) == r.n
            assert a.is_even() and a.cycle_type() == b.cycle_type()
            assert a.cycle_type()[-2:] == (1, 1)


def test_fusion_certificate_rejects_tampering(monkeypatch):
    [(a, b)] = non_splitting_witness_alternating(5).pairs
    x, y, mu = a.images, b.images, (3, 1)
    s = (5, 2, 4, 3, 1)  # (3 4)(1 5), even, carries x to y
    _certify_fusion(mu, x, y, s)
    bad = [
        (x, y, (1, 2, 4, 3, 5)),  # the odd (3 4) alone
        (x, y, (1, 2, 3, 4, 5)),  # even, but does not carry x to y
        (x, x, (1, 2, 3, 4, 5)),  # one half twice
        (x, y, (2, 1, 4, 3, 5)),  # even, carries x elsewhere
    ]
    for xx, yy, ss in bad:
        with pytest.raises(MathCheckError):
            _certify_fusion(mu, xx, yy, ss)
    # a parity key that no longer separates the halves fails the report
    monkeypatch.setattr(splitting, "_alternating_class_key", lambda p: p.cycle_type())
    with pytest.raises(MathCheckError):
        non_splitting_witness_alternating(5)


def test_fusion_witness_range_rejected():
    with pytest.raises(UsageError):
        non_splitting_witness_alternating(4)
    with pytest.raises(UnsupportedGroupError):
        non_splitting_witness_alternating(21)


def test_embedded_alternating_structure():
    h = embedded_alternating(5)
    assert h.order == 12 and h.degree == 5
    assert all(p(5) == 5 for p in h.elements)


def test_alternating_retractions_counts():
    assert len(alternating_retractions(3)) == 1
    assert len(alternating_retractions(4)) == 1
    assert len(alternating_retractions(5)) == 0
