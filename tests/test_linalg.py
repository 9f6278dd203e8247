"""Exact integer linear algebra.

Property tests use seeded random matrices; every identity is checked with
exact integer arithmetic against the definitions, so no expected value here
depends on the code under test.
"""

import random
from fractions import Fraction

import pytest

from globfun import linalg
from globfun.linalg import (
    det_exact,
    hermite_normal_form,
    identity_matrix,
    integer_kernel,
    mat_eq,
    mat_mul,
    mat_vec,
    reduce_mod_lattice,
    solve_exact,
    transpose,
)


def is_unimodular(a) -> bool:
    return len(a) == (len(a[0]) if a else 0) and abs(det_exact(a)) == 1


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def fraction_det(a):
    """Independent determinant oracle: fraction-based Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    assert det.denominator == 1
    return int(det)


def test_hnf_small():
    h, u = hermite_normal_form([[2, 1]])
    assert h == [[2, 1]]  # a single row is already echelon
    assert is_unimodular(u)
    h2, u2 = hermite_normal_form([[2, 1], [1, 1]])
    assert h2 == [[1, 0], [0, 1]]
    assert mat_eq(mat_mul(u2, [[2, 1], [1, 1]]), h2)


def test_hnf_properties_random():
    rng = random.Random(0)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        h, u = hermite_normal_form(a)
        assert is_unimodular(u)
        assert mat_eq(mat_mul(u, a), h)
        # echelon: pivot columns strictly increase, pivots positive,
        # entries above a pivot lie in [0, pivot)
        last = -1
        for row in h:
            nz = [c for c, x in enumerate(row) if x]
            if not nz:
                continue
            assert nz[0] > last
            last = nz[0]
            assert row[nz[0]] > 0
        for r, row in enumerate(h):
            nz = [c for c, x in enumerate(row) if x]
            if nz:
                p = row[nz[0]]
                for rr in range(r):
                    assert 0 <= h[rr][nz[0]] < p


def test_kernel_small():
    k = integer_kernel([[2, 1]])
    assert len(k) == 1
    assert mat_vec([[2, 1]], k[0]) == [0]
    # primitive: the gcd of the entries is 1
    from math import gcd

    assert gcd(*[abs(v) for v in k[0]]) == 1


def test_kernel_random():
    rng = random.Random(1)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols)
        basis = integer_kernel(a)
        for v in basis:
            assert mat_vec(a, v) == [0] * rows
        # saturated: any integer kernel vector is an integer combination;
        # spot-check with random combinations re-solved against the basis
        if basis:
            coeffs = [rng.randint(-3, 3) for _ in basis]
            v = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(cols)]
            assert solve_exact(transpose(basis), [v]) != [None]


def test_kernel_rank_nullity():
    rng = random.Random(2)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols)
        h, _ = hermite_normal_form(a)
        rank = sum(1 for row in h if any(row))
        assert len(integer_kernel(a)) == cols - rank


def test_solve_exact():
    a = [[2, 0], [0, 3]]
    # one answer per right-hand side, each on its own: 2x = 1 has no integer solution
    assert solve_exact(a, [[4, 9], [1, 0]]) == [[2, 3], None]
    assert solve_exact(a, [[1, 0], [4, 9]]) == [None, [2, 3]]
    assert solve_exact(a, []) == []
    assert solve_exact([[1, 1]], [[5]]) != [None]
    assert solve_exact([[0, 0]], [[1]]) == [None]
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_exact(a, [[4, 9], [1]])


def test_solve_memo_hit_matches_a_cold_solve(monkeypatch):
    # a repeat solve reads the memoized Hermite form and factors nothing, and
    # gives the cold answers, None for a right-hand side off the lattice
    factored = []
    hnf = linalg.hermite_normal_form
    monkeypatch.setattr(linalg, "hermite_normal_form", lambda a: factored.append(a) or hnf(a))
    rng = random.Random(12)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        bs = [mat_vec(a, [rng.randint(-5, 5) for _ in range(cols)]) for _ in range(2)]
        bs.append([rng.randint(-9, 9) for _ in range(rows)])
        monkeypatch.setattr(linalg, "_solve_memo", {})
        cold = solve_exact(a, bs)
        assert len(factored) == 1
        assert solve_exact(a, bs) == cold
        assert solve_exact([list(r) for r in a], bs[::-1]) == cold[::-1]
        assert len(factored) == 1
        factored.clear()
    a = [[2, 0], [0, 3]]
    assert solve_exact(a, [[1, 0], [4, 9]]) == solve_exact(a, [[1, 0], [4, 9]]) == [None, [2, 3]]


def test_solve_ignores_later_changes_to_a_solved_matrix():
    a = [[2, 0], [0, 3]]
    assert solve_exact(a, [[1, 0]]) == [None]
    a[0][0] = 1
    assert solve_exact(a, [[1, 0]]) == [[1, 0]]
    a[0][0] = 2
    assert solve_exact(a, [[1, 0], [4, 9]]) == [None, [2, 3]]
    # each answer is a fresh list: changing one changes no later answer
    [x] = solve_exact(a, [[4, 9]])
    x[0] = 99
    assert solve_exact(a, [[4, 9]]) == [[2, 3]]


def test_solve_random_consistency():
    rng = random.Random(3)
    for _ in range(50):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        bs = [mat_vec(a, [rng.randint(-5, 5) for _ in range(cols)]) for _ in range(3)]
        solutions = solve_exact(a, bs)
        assert len(solutions) == len(bs)
        for b, got in zip(bs, solutions):
            assert got is not None
            assert mat_vec(a, got) == b


def test_det_against_fraction_oracle():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert det_exact(a) == fraction_det(a)
    assert det_exact([]) == 1


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, 4)
        b = random_matrix(rng, n, n, 4)
        assert det_exact(mat_mul(a, b)) == det_exact(a) * det_exact(b)


def test_reduce_mod_lattice():
    basis = [[1, -2]]
    assert reduce_mod_lattice([0, 1], basis) == [0, 1]
    # (1, -1) = (0, 1) + (1, -2): same coset, same canonical form
    assert reduce_mod_lattice([1, -1], basis) == [0, 1]
    assert reduce_mod_lattice([5, 0], []) == [5, 0]
    rng = random.Random(7)
    for _ in range(30):
        b = random_matrix(rng, 2, 4, 3)
        x = [rng.randint(-9, 9) for _ in range(4)]
        shift = [rng.randint(-3, 3) for _ in range(2)]
        y = [xv + shift[0] * b[0][j] + shift[1] * b[1][j] for j, xv in enumerate(x)]
        assert reduce_mod_lattice(x, b) == reduce_mod_lattice(y, b)


def test_empty_shapes():
    assert integer_kernel([[0, 0], [0, 0]]) == identity_matrix(2)
    assert mat_mul([], []) == []
    assert solve_exact([], [[]]) == [[]]
