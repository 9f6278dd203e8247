"""Character tables of symmetric groups and their block products, exactly.

A "block product" is a group of permutations that is the full symmetric
group on each of its orbits; Young subgroups, their conjugates, and the
concrete products built by `product_group` are all of this shape.  Character
values come from the Murnaghan-Nakayama recursion, so no table ever needs a
group larger than the one it describes.

Fixed orders, used by every value vector in this module:

* irreducibles (rows): partitions in reverse lexicographic order, largest
  part first, so (n) labels the trivial character and comes first;
* conjugacy classes (columns): cycle types in increasing lexicographic
  order, so the identity class (1,...,1) comes first and degrees sit in
  column 0;
* for block products, rows and columns are the row-major products of the
  per-block orders, blocks ordered by least point.

Induction needs only class data.  Each H-class lies inside one G-class,
and x^-1 g x runs over the G-class of g exactly |C_G(g)| = |G| / |g^G|
times as x runs over G.  So the sum of phi(x^-1 g x) over G reduces to
per-class fusion counts built from the class sizes both tables already
hold (Sagan, The Symmetric Group, section 1.12), and no element of G is
enumerated.

Along the tower Sym(0) <= Sym(1) <= ... the splitting needs even less: on
irreducibles, restriction to Sym(n-1) removes one box (the branching rule)
and inflate-then-induce from Sym(k) x Sym(n-k) adds a horizontal strip of
n-k boxes (Pieri's rule), so `pieri_matrix` reads both off partitions with
no table and no group.

One cap, MAX_TABLE_N, bounds all of this partition work, and no group
order enters it: a table may move at most that many points, and
`partitions`, which every table and every tower map reads, refuses a larger
n before it enumerates anything.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from math import factorial, prod

from .errors import NonIntegralError, NotASubgroupError, UnsupportedGroupError, UsageError
from .perms import GroupHom, Perm, PermGroup, _cycles

Partition = tuple[int, ...]

MAX_TABLE_N = 20


def partitions(n: int) -> tuple[Partition, ...]:
    """Partitions of n, reverse lexicographic: (n) first, (1,...,1) last.

    The table cap is checked on every call, so a memoized n is refused as
    soon as the cap is lowered below it."""
    if n < 0:
        raise UsageError("n must be >= 0")
    _check_moved_degree(n)
    return _partitions(n)


@cache
def _partitions(n: int) -> tuple[Partition, ...]:
    def gen(remaining, biggest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, biggest), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return tuple(gen(n, n))


def cycle_type_class_size(mu: Partition) -> int:
    """Number of permutations of Sym(sum mu) with cycle type mu: n!/z_mu."""
    n = sum(mu)
    z = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for length, m in mult.items():
        z *= length**m * factorial(m)
    return factorial(n) // z


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character of Sym(n) for the partition lam at cycle type mu.

    Murnaghan-Nakayama on beta-numbers: removing a border strip of length l
    means moving one beta-number down by l, with sign (-1)^(number of
    beta-numbers jumped over).
    """
    if sum(lam) != sum(mu):
        raise UsageError(f"partition sizes differ: {lam} vs {mu}")
    if not mu:
        return 1
    length = mu[0]
    rest = mu[1:]
    pad = len(lam) + length
    beta = [lam[i] + (pad - 1 - i) if i < len(lam) else (pad - 1 - i) for i in range(pad)]
    bset = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - length
        if nb < 0 or nb in bset:
            continue
        jumped = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = tuple(x - (pad - 1 - j) for j, x in enumerate(newbeta))
        newlam = tuple(x for x in newlam if x > 0)
        total += (-1) ** jumped * mn_character(newlam, rest)
    return total


def _horizontal_strip(lam: Partition, mu: Partition) -> bool:
    """mu / lam is a horizontal strip: mu_1 >= lam_1 >= mu_2 >= lam_2 >= ..."""
    if len(lam) > len(mu):
        return False
    lam = lam + (0,) * (len(mu) - len(lam))
    return all(m >= l for m, l in zip(mu, lam)) and all(l >= m for l, m in zip(lam, mu[1:]))


def pieri_matrix(k: int, n: int) -> list[list[int]]:
    """Inflation along Sym(k) x Sym(n-k) -> Sym(k) followed by induction to
    Sym(n), on irreducibles: column lam (a partition of k) is the sum of the
    mu of n with mu / lam a horizontal (n-k)-strip (Pieri's rule; Macdonald
    I.5, Sagan 4.9).  Rows and columns follow `partitions`.

    Its transpose at k = n - 1 is restriction Sym(n) -> Sym(n-1), the
    branching rule: remove one box (Sagan 2.8).  No group is built.
    """
    if not 0 <= k <= n:
        raise UsageError(f"need 0 <= k <= n, got k={k}, n={n}")
    return [[int(_horizontal_strip(lam, mu)) for lam in partitions(k)] for mu in partitions(n)]


# ---------------------------------------------------------------------------
# block structures


def block_structure(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group, verified to carry full symmetric action.

    Raises UnsupportedGroupError when the group is not a block product, e.g.
    for alternating groups.
    """
    blocks = group.orbits()
    if prod(factorial(len(b)) for b in blocks) != group.order:
        raise UnsupportedGroupError(
            f"group of order {group.order} is not the full symmetric product on its orbits"
        )
    return blocks


class CharacterTable:
    """Integer character table of the block product on `blocks`; it keeps no
    group, and its class representatives are image tuples."""

    __slots__ = (
        "degree",
        "order",
        "blocks",
        "labels",
        "class_types",
        "class_reps",
        "class_sizes",
        "matrix",
        "_type_index",
    )

    def __init__(self, degree, blocks, labels, class_types, class_reps, class_sizes, matrix):
        self.degree = degree
        self.order = prod(factorial(len(b)) for b in blocks)
        self.blocks = blocks
        self.labels = labels
        self.class_types = class_types
        self.class_reps = class_reps
        self.class_sizes = class_sizes
        self.matrix = matrix
        self._type_index = {t: i for i, t in enumerate(class_types)}

    @property
    def rank(self) -> int:
        return len(self.labels)

    def class_index_of(self, p: tuple) -> int:
        """Class index of any element of the group, given by its image tuple,
        via per-block cycle types.  The cycles through a block stay in it
        exactly when their lengths sum to its size."""
        if len(p) != self.degree:
            raise UsageError(f"element degree {len(p)} != {self.degree}")
        types = []
        for b in self.blocks:
            lens = sorted(map(len, _cycles(p, b)), reverse=True)
            if sum(lens) != len(b):
                raise UsageError(f"element {Perm._from_images(p)} does not preserve block {b}")
            types.append(tuple(lens))
        return self._type_index[tuple(types)]

    def irreducible(self, i: int) -> "ClassFunction":
        return ClassFunction(self, self.matrix[i])

    def __repr__(self) -> str:
        return f"CharacterTable(deg {self.degree}, blocks {self.blocks}, {self.rank} irreducibles)"


class ClassFunction:
    """Integer class function, values in the table's fixed class order."""

    __slots__ = ("table", "values")

    def __init__(self, table: CharacterTable, values):
        values = tuple(values)
        if len(values) != len(table.class_types):
            raise UsageError("one value per conjugacy class required")
        self.table = table
        self.values = values

    def __call__(self, p: Perm) -> int:
        return self.values[self.table.class_index_of(p.images)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.table is other.table
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"ClassFunction{self.values}"


_table_memo: dict = {}


def _build_table(degree: int, blocks) -> CharacterTable:
    labels = tuple(product(*(partitions(len(b)) for b in blocks)))
    class_types = tuple(product(*(reversed(partitions(len(b))) for b in blocks)))

    reps = []
    sizes = []
    for types in class_types:
        images = list(range(1, degree + 1))
        size = 1
        for b, mu in zip(blocks, types):
            pos = 0
            for part in mu:
                cyc = b[pos : pos + part]
                for a, c in zip(cyc, cyc[1:] + cyc[:1]):
                    images[a - 1] = c
                pos += part
            size *= cycle_type_class_size(mu)
        reps.append(tuple(images))
        sizes.append(size)

    matrix = []
    for lab in labels:
        row = []
        for types in class_types:
            v = 1
            for lam, mu in zip(lab, types):
                v *= mn_character(lam, mu)
            row.append(v)
        matrix.append(tuple(row))

    return CharacterTable(
        degree, blocks, labels, class_types, tuple(reps), tuple(sizes), tuple(matrix)
    )


def character_table(group: PermGroup) -> CharacterTable:
    """The table of any block product group, memoized by (degree, blocks)."""
    return _table_for(group.degree, block_structure(group))


def _table_for(degree: int, blocks) -> CharacterTable:
    table = _table_memo.get((degree, blocks))
    if table is None:
        _check_moved_degree(sum(len(b) for b in blocks if len(b) > 1))
        table = _table_memo[degree, blocks] = _build_table(degree, blocks)
    return table


def _check_moved_degree(moved: int):
    """Refuse partition work on more than MAX_TABLE_N points: a table whose
    blocks of size > 1 move more, or the partitions of a larger n."""
    if moved > MAX_TABLE_N:
        raise UnsupportedGroupError(f"table for moved degree {moved} exceeds cap {MAX_TABLE_N}")


def char_table_symmetric(n: int) -> CharacterTable:
    """Sym(n)'s table from partitions alone, Sym(0) on one point as in `symmetric_group`."""
    if n < 0:
        raise UsageError("n must be >= 0")
    _check_moved_degree(n)  # before any of the n points is built
    degree = max(n, 1)
    return _table_for(degree, (tuple(range(1, degree + 1)),))


# ---------------------------------------------------------------------------
# restriction, induction, decomposition


def restrict_classfunction(phi: ClassFunction, alpha: GroupHom) -> ClassFunction:
    """phi o alpha along any homomorphism into phi's group."""
    table, target = phi.table, alpha.target
    # a group with the table's orbits lies in its block product: all of it at equal order
    if (target.degree, target.order, target.orbits()) != (table.degree, table.order, table.blocks):
        raise UsageError("hom target must be the class function's group")
    src_table = character_table(alpha.source)
    values = [phi.values[table.class_index_of(alpha.table[rep])] for rep in src_table.class_reps]
    return ClassFunction(src_table, values)


_fusion_memo: dict = {}


def _fusion_counts(h_table: CharacterTable, g: PermGroup):
    """G's table and counts[i][j] = #{x in G : x^-1 g_i x in H-class j} for
    the class representatives g_i of G, where H is h_table's block product.

    That is (|G| / |G-class i|) * |H-class j| when H-class j lies in G-class
    i, and 0 otherwise.
    """
    g_blocks = block_structure(g)
    key = (h_table.degree, h_table.blocks, g.degree, g_blocks)
    hit = _fusion_memo.get(key)
    if hit is not None:
        return hit
    # between block products, H <= G exactly when every H-block lies in one G-block
    where = {p: i for i, b in enumerate(g_blocks) for p in b}
    if h_table.degree != g.degree or any(len(set(map(where.get, b))) > 1 for b in h_table.blocks):
        raise NotASubgroupError("induction needs h <= g")
    g_table = _table_for(g.degree, g_blocks)
    counts = [[0] * len(h_table.class_types) for _ in g_table.class_types]
    for j, (rep, size) in enumerate(zip(h_table.class_reps, h_table.class_sizes)):
        i = g_table.class_index_of(rep)
        counts[i][j] = g_table.order // g_table.class_sizes[i] * size
    _fusion_memo[key] = (g_table, counts)
    return g_table, counts


def induce_classfunction(phi: ClassFunction, g: PermGroup) -> ClassFunction:
    """(ind phi)(y) = (1/|H|) sum over x in G of phi(x^-1 y x), summed where
    the conjugate lands in H."""
    g_table, counts = _fusion_counts(phi.table, g)
    values = []
    for row in counts:
        total = sum(c * v for c, v in zip(row, phi.values))
        if total % phi.table.order:
            raise NonIntegralError("induced character value is not integral")
        values.append(total // phi.table.order)
    return ClassFunction(g_table, values)


def decompose_into_irreducibles(phi: ClassFunction) -> tuple[int, ...]:
    """Multiplicities <phi, chi_i> in row order; exact, rejects non-integers."""
    table = phi.table
    return tuple(inner_product(phi, table.irreducible(i)) for i in range(table.rank))


def inner_product(phi: ClassFunction, psi: ClassFunction) -> int:
    """<phi, psi> over a shared table; exact."""
    if phi.table is not psi.table:
        raise UsageError("class functions live on different tables")
    table = phi.table
    total = sum(s * a * b for s, a, b in zip(table.class_sizes, phi.values, psi.values))
    if total % table.order:
        raise NonIntegralError("inner product is not an integer")
    return total // table.order
