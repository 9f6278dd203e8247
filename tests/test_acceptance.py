"""Acceptance checks, one test per criterion, one printed line each.

Each test computes a verdict, prints `acceptance NN <name>: PASS|FAIL`
straight to the terminal (bypassing capture), and then asserts.  The
functor instances are session scoped on purpose: the checks share the
memoized restriction and transfer matrices, which keeps the whole file in
the minutes range.
"""

import hashlib
import json
import random

import pytest

from globfun.burncat import (
    BurnsideCatMorphism,
    product_section,
    section_of_restriction,
)
from globfun.burnside import BurnsideFunctor
from globfun.characters import char_table_symmetric, inner_product, induce_classfunction, restrict_classfunction
from globfun.functors import CorruptedTransfer, standard_probe, verify_axioms
from globfun.perms import (
    GroupHom,
    double_cosets,
    standard_inclusion,
    symmetric_group,
    trivial_subgroup,
    young_two_block,
)
from globfun.repring import RepRingFunctor
from globfun.splitting import (
    decompose,
    kernel_basis,
    non_splitting_witness_alternating,
    psi,
    reassemble,
    splitting_report,
    verify_dcf_symmetric,
)
from globfun.linalg import identity_matrix, solve_exact

DCF_CAP = {"burnside": 5, "ru": 6}
SPLIT_CAP = {"burnside": 5, "ru": 7}


@pytest.fixture(scope="session")
def burnside():
    return BurnsideFunctor()


@pytest.fixture(scope="session")
def repring():
    return RepRingFunctor()


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
              + (f" [{detail}]" if detail and not ok else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_symmetric_double_coset_identity(capsys, burnside, repring):
    bad = []
    for f in (burnside, repring):
        for n in range(2, DCF_CAP[f.name] + 1):
            for k in range(1, n):
                check = verify_dcf_symmetric(f, k, n)
                if not check.passed:
                    bad.append(check.summary())
    report(capsys, 1, "symmetric double coset identity", not bad, "; ".join(bad))


def _partition_count(n, largest=None):
    # independent partition counter for the rank oracle
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(_partition_count(n - p, p) for p in range(min(n, largest), 0, -1))


def test_criterion_02_splitting_unimodular(capsys, burnside, repring):
    bad = []
    for f in (burnside, repring):
        for n in range(1, SPLIT_CAP[f.name] + 1):
            rep = splitting_report(f, n)
            if abs(rep.determinant) != 1:
                bad.append(f"{f.name} n={n}: det {rep.determinant}")
            if f.name == "ru":
                want = [
                    _partition_count(k) - (_partition_count(k - 1) if k else 0)
                    for k in range(n + 1)
                ]
                if list(rep.component_ranks) != want:
                    bad.append(f"ru n={n}: ranks {rep.component_ranks} != {want}")
    report(capsys, 2, "splitting is unimodular with partition ranks", not bad, "; ".join(bad))


def test_criterion_03_two_double_cosets(capsys):
    bad = []
    for n in range(2, 8):
        g = symmetric_group(n)
        stab = standard_inclusion(n).image()
        for k in range(1, n):
            count = len(double_cosets(g, stab, young_two_block(n, k)))
            if count != 2:
                bad.append(f"n={n} k={k}: {count}")
    report(capsys, 3, "point stabilizer vs block subgroup has two double cosets",
           not bad, "; ".join(bad))


def test_criterion_04_ladder_relation(capsys, burnside, repring):
    bad = []
    for f in (burnside, repring):
        for n in range(1, SPLIT_CAP[f.name] + 1):
            down = f.res(standard_inclusion(n))
            for k in range(n):
                if down.compose(psi(f, k, n)) != psi(f, k, n - 1):
                    bad.append(f"{f.name} n={n} k={k}")
    report(capsys, 4, "restriction lowers the splitting maps by one level",
           not bad, "; ".join(bad))


def test_criterion_05_restriction_surjective(capsys, burnside, repring):
    bad = []
    for f in (burnside, repring):
        for n in range(1, SPLIT_CAP[f.name] + 1):
            matrix = f.res(standard_inclusion(n)).matrix
            rank = f.value(symmetric_group(n - 1)).rank
            for i, x in enumerate(solve_exact(matrix, identity_matrix(rank))):
                if x is None:
                    bad.append(f"{f.name} n={n} basis {i}")
    report(capsys, 5, "restriction to one level down is onto", not bad, "; ".join(bad))


def test_criterion_06_decompose_round_trip(capsys, burnside, repring):
    rng = random.Random(0)
    bad = []
    for f in (burnside, repring):
        for n in range(SPLIT_CAP[f.name] + 1):
            rank = f.value(symmetric_group(n)).rank
            for _ in range(50):
                x = [rng.randint(-9, 9) for _ in range(rank)]
                parts = decompose(f, n, x)
                if list(reassemble(f, n, parts)) != x:
                    bad.append(f"{f.name} n={n} round trip on {x}")
                    break
            for k in range(n + 1):
                width = len(kernel_basis(f, k))
                v = [rng.randint(-9, 9) for _ in range(width)]
                parts = decompose(f, n, psi(f, k, n).apply(v))
                others = any(any(p) for j, p in enumerate(parts) if j != k)
                if list(parts[k]) != v or others:
                    bad.append(f"{f.name} n={n} slot {k} not concentrated")
    report(capsys, 6, "decomposition round trips and concentrates", not bad, "; ".join(bad[:4]))


def test_criterion_07_category_sections(capsys):
    bad = []
    reports = {}
    for n in (1, 2, 3, 4, 5):
        rep = reports[n] = section_of_restriction(n)
        istar = BurnsideCatMorphism.restriction(standard_inclusion(n))
        ident = BurnsideCatMorphism.identity(symmetric_group(n - 1))
        for tag, sigma in (("solver", rep.sigma), ("splitting", rep.sigma_from_splitting)):
            if not istar.compose(sigma) == ident:
                bad.append(f"n={n} {tag} route")
    for n in (2, 3):
        if not product_section(symmetric_group(2), reports[n]).verified:
            bad.append(f"product n={n}")
    # the bytes of `globfun --output json section --n 5`
    text = json.dumps(reports[5].to_dict(), sort_keys=True) + "\n"
    if hashlib.sha256(text.encode()).hexdigest() != (
        "9d506af607e8dae58a1ac90f1f5ec8d8801f2836448ecde55ed6a486e9931a02"
    ):
        bad.append("n=5 report digest")
    report(capsys, 7, "sections of the restriction morphism", not bad, "; ".join(bad))


def test_criterion_08_alternating_fusion_witnesses(capsys):
    bad = []
    for n, expect in ((5, True), (6, False), (7, True), (8, False)):
        rep = non_splitting_witness_alternating(n)
        if bool(rep.pairs) != expect:
            bad.append(f"n={n}: {len(rep.pairs)} pairs")
        if expect and rep.restriction_surjective:
            bad.append(f"n={n}: fusion should obstruct surjectivity")
    report(capsys, 8, "alternating fusion exactly at n=5 and n=7", not bad, "; ".join(bad))


def test_criterion_09_functor_axioms(capsys, burnside, repring):
    bad = []
    probe = standard_probe(4)
    for f in (burnside, repring):
        result = verify_axioms(f, probe)
        if not result.all_passed:
            bad.append(f"{f.name}: {len(result.failures())} failures")
    corrupted = CorruptedTransfer(
        BurnsideFunctor(), trivial_subgroup(symmetric_group(2)), symmetric_group(2)
    )
    if verify_axioms(corrupted, standard_probe(3)).all_passed:
        bad.append("fault injection went undetected")
    report(capsys, 9, "relation axioms on the probe set", not bad, "; ".join(bad))


def _hook_degree(lam):
    conj = []
    for i in range(lam[0] if lam else 0):
        conj.append(sum(1 for part in lam if part > i))
    total = sum(lam)
    fact = 1
    for i in range(2, total + 1):
        fact *= i
    hooks = 1
    for r, part in enumerate(lam):
        for c in range(part):
            hooks *= part - c + conj[c] - r - 1
    return fact // hooks


def test_criterion_10_character_cross_checks(capsys):
    bad = []
    for n in range(2, 9):
        table = char_table_symmetric(n)
        order = sum(table.class_sizes)
        for i in range(table.rank):
            if table.matrix[i][0] != _hook_degree(table.labels[i][0]):
                bad.append(f"S{n} degree of row {i}")
            for j in range(i, table.rank):
                dot = sum(
                    s * a * b
                    for s, a, b in zip(table.class_sizes, table.matrix[i], table.matrix[j])
                )
                if dot != (order if i == j else 0):
                    bad.append(f"S{n} orthogonality ({i},{j})")
    for n in range(2, 7):
        g = symmetric_group(n)
        big = char_table_symmetric(n)
        for k in range(1, n):
            h = young_two_block(n, k)
            alpha = GroupHom.inclusion(h, g)
            small = None
            for i in range(big.rank):
                chi = big.irreducible(i)
                down = restrict_classfunction(chi, alpha)
                small = down.table
                for j in range(small.rank):
                    phi = small.irreducible(j)
                    up = induce_classfunction(phi, g)
                    if inner_product(down, phi) != inner_product(chi, up):
                        bad.append(f"S{n} k={k} ({i},{j})")
    report(capsys, 10, "character table cross checks", not bad, "; ".join(bad[:4]))
