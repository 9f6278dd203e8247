"""Exact linear algebra over the integers.

Plain lists of Python ints throughout; intermediate growth is harmless and
nothing here ever touches floating point.  Matrices are row-major, and the
row space / kernel conventions are spelled out per function.
"""

from __future__ import annotations

from operator import mul

from .errors import UsageError


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity_matrix(n: int) -> list[list[int]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a, b) -> list[list[int]]:
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        if ra == 0 or cb == 0 or (ca == 0 and rb == 0):
            return [[0] * cb for _ in range(ra)]
        raise ValueError(f"shape mismatch {ra}x{ca} * {rb}x{cb}")
    out = []
    for row in a:
        acc = [0] * cb
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cb):
                    acc[j] += x * brow[j]
        out.append(acc)
    return out


def mat_vec(a, v) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


def mat_add(a, b) -> list[list[int]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)] if a else []


def hermite_normal_form(a):
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = [list(r) for r in a]
    u = identity_matrix(rows)
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # euclidean elimination below pivot_row in this column
        while True:
            nonzero = [r for r in range(pivot_row, rows) if h[r][col]]
            if not nonzero:
                break
            r0 = min(nonzero, key=lambda r: abs(h[r][col]))
            if r0 != pivot_row:
                h[pivot_row], h[r0] = h[r0], h[pivot_row]
                u[pivot_row], u[r0] = u[r0], u[pivot_row]
            p = h[pivot_row][col]
            done = True
            for r in range(pivot_row + 1, rows):
                if h[r][col]:
                    q = h[r][col] // p
                    if q:
                        h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                        u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
                    if h[r][col]:
                        done = False
            if done:
                break
        if h[pivot_row][col]:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            p = h[pivot_row][col]
            for r in range(pivot_row):
                q = h[r][col] // p
                if q:
                    h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
            pivot_row += 1
    return h, u


def _pivot_columns(h):
    pivots = []
    for r, row in enumerate(h):
        for c, x in enumerate(row):
            if x:
                pivots.append((r, c))
                break
    return pivots


def integer_kernel(a) -> list[list[int]]:
    """Basis of the lattice {x : A x = 0}, one vector per row.

    Computed from the HNF of the transpose: rows of the transform whose image
    row vanishes form a basis of the kernel (they are part of a unimodular
    matrix, so the basis is primitive).
    """
    cols = len(a[0]) if a else 0
    if cols == 0:
        return []
    if not a:
        return identity_matrix(cols)
    h, u = hermite_normal_form(transpose(a))
    out = []
    for row_h, row_u in zip(h, u):
        if not any(row_h):
            out.append(list(row_u))
    return out


# the entries of a matrix solve_exact factored -> (H, U, pivots) of its transpose
_solve_memo: dict = {}


def solve_exact(a, bs):
    """For each right-hand side b in `bs`, an integer solution x of A x = b,
    or None when there is none; one Hermite form serves every b.

    The Hermite form, transform and pivots are memoized on the entries of A,
    copied into tuples, so a later solve against an equal matrix factors
    nothing and changing `a` afterwards changes no later answer.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(b) != rows for b in bs):
        raise UsageError("dimension mismatch")
    if cols == 0 and not any(a):
        return [None if any(b) else [] for b in bs]
    # x A^T = b as row vectors; with U A^T = H write x = z U, solve z H = b.
    key = tuple(map(tuple, a))
    got = _solve_memo.get(key)
    if got is None:
        if any(len(row) != cols for row in key):
            raise UsageError("matrix rows differ in length")
        h, u = hermite_normal_form(transpose(a))
        got = _solve_memo[key] = (h, u, _pivot_columns(h))
    h, u, pivots = got
    return [_solve_hermite(h, u, pivots, b) for b in bs]


def _solve_hermite(h, u, pivots, b):
    z = [0] * len(u)
    rem = list(b)
    for r, c in pivots:
        if rem[c] % h[r][c]:
            return None
        z[r] = rem[c] // h[r][c]
        if z[r]:
            rem = [x - z[r] * y for x, y in zip(rem, h[r])]
    if any(rem):
        return None
    x = [0] * len(u)
    for zi, urow in zip(z, u):
        if zi:
            x = [xv + zi * uv for xv, uv in zip(x, urow)]
    return x


def reduce_mod_lattice(x, basis):
    """Canonical representative of x modulo the lattice spanned by basis rows.

    Reduction against the HNF of the basis: at every pivot column the result
    lies in [0, pivot).  With a fixed basis this is a well-defined canonical
    form on cosets.
    """
    if not basis:
        return list(x)
    h, _ = hermite_normal_form(basis)
    out = list(x)
    for r, c in _pivot_columns(h):
        q = out[c] // h[r][c]
        if q:
            out = [v - q * w for v, w in zip(out, h[r])]
    return out


def det_exact(a) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise UsageError("determinant needs a square matrix")
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
