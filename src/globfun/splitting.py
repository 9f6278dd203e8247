"""Splitting the value of a global functor at a symmetric group.

Write i_n for the embedding Sym(n-1) -> Sym(n) and F(i_n) for restriction
along it.  The k-th kernel lattice is ker(F(i_k)) inside F(Sym(k)), with the
k = 0 slot read as all of F(e).  The map psi(k, n) sends that lattice into
F(Sym(n)) by restricting along the block projection Sym(k) x Sym(n-k) ->
Sym(k) and transferring up; psi(0, n) is inflation from the trivial group
and psi(n, n) the plain inclusion.  Stacking the psi columns gives a square
matrix, and the splitting statement is that it is unimodular: F(Sym(n)) is
the direct sum of the kernel lattices.  decompose inverts this sum level by
level, and verify_dcf_symmetric checks the double coset identity that makes
the induction step work (`burncat` runs the same recursion on morphisms).
kernel_basis, psi and the n + 1 psi maps of level n side by side are
memoized on the functor instance, keyed by level, and `linalg.solve_exact`
keeps the Hermite form of each kernel basis it solves against, so a repeated
decomposition builds and factors nothing: it restricts, applies one stacked
matrix per level and solves.

Kernels, psi maps and splitting_report read the functor only through its
tower maps (`GlobalFunctor.tower_value`, `tower_res`, `tower_psi`).  For
the representation ring these are the branching and Pieri rules, so its
certificate builds no group; the Burnside functor builds the groups.

The alternating story is the opposite: for n >= 5 restriction out of A_n
need not be surjective, witnessed by conjugacy fusion, and the low cases
n = 3, 4 still split because a unique group-homomorphism retraction exists.
Fusion is read from the partitions of n - 1 and builds no group: an even
type splits into two A_{n-1}-classes when its parts are distinct and odd,
and the two fuse in A_n when one part is 1.  So fusion happens at n = 5, 7
and every n >= 9, up to the table cap.  Each fused pair comes with an even
conjugator and the parity key that separates its halves, checked in O(n).
"""

from itertools import chain

from .characters import _check_moved_degree, partitions
from .errors import MathCheckError, UsageError
from .functors import FreeAbelian, GlobalFunctor, ZMap
from .linalg import (
    det_exact,
    identity_matrix,
    integer_kernel,
    mat_eq,
    mat_mul,
    mat_vec,
    solve_exact,
    transpose,
)
from .perms import (
    GroupHom,
    Perm,
    _conjugator,
    all_homs,
    alternating_group,
    standard_inclusion,
    young_two_block,
)


def kernel_basis(f: GlobalFunctor, k: int):
    """Rows spanning ker(F(i_k)) in F(Sym(k)) coordinates; all of F(e) at k = 0.

    The rows are fresh lists on every call, so a caller may change them.
    """
    if k < 0:
        raise UsageError("kernel index must be >= 0")
    got = f._kernel_memo.get(k)
    if got is None:
        got = f._kernel_memo[k] = tuple(map(tuple, _kernel_basis(f, k)))
    return [list(r) for r in got]


def _kernel_basis(f: GlobalFunctor, k: int):
    if k == 0:
        return identity_matrix(f.tower_value(0).rank)
    return integer_kernel([list(r) for r in f.tower_res(k)])


def _kernel_space(k: int, rank: int) -> FreeAbelian:
    return FreeAbelian(tuple(f"ker({k})#{i}" for i in range(rank)))


def psi(f: GlobalFunctor, k: int, n: int) -> ZMap:
    """The summand inclusion of the k-th kernel lattice into F(Sym(n))."""
    if not 0 <= k <= n:
        raise UsageError(f"need 0 <= k <= n, got k={k}, n={n}")
    got = f._psi_memo.get((k, n))
    if got is None:
        got = f._psi_memo[(k, n)] = _psi(f, k, n)
    return got


def _psi(f: GlobalFunctor, k: int, n: int) -> ZMap:
    basis = kernel_basis(f, k)
    m = mat_mul(f.tower_psi(k, n), transpose(basis))
    return ZMap(_kernel_space(k, len(basis)), f.tower_value(n), m)


class DcfCheck:
    """Outcome of the symmetric-group double coset identity at one (k, n)."""

    __slots__ = ("functor", "n", "k", "passed", "detail", "lhs")

    def __init__(self, functor, n, k, passed, detail, lhs):
        self.functor = functor
        self.n = n
        self.k = k
        self.passed = passed
        self.detail = detail
        self.lhs = lhs

    def summary(self) -> str:
        body = "EQUAL" if self.passed else f"DIFFER ({self.detail})"
        return f"dcf {self.functor} n={self.n} k={self.k}: {body}"

    def to_dict(self):
        return {
            "functor": self.functor,
            "n": self.n,
            "k": self.k,
            "passed": self.passed,
            "detail": self.detail,
        }


def verify_dcf_symmetric(f: GlobalFunctor, k: int, n: int) -> DcfCheck:
    """Check, for this functor, that restricting a transfer off the two-block
    subgroup of Sym(n) to Sym(n-1) equals the displayed two-summand formula.

    Both sides are maps F(Sym(k) x Sym(n-k)) -> F(Sym(n-1)).  The second
    summand restricts along conjugation by the transposition (k n), which
    carries the (k-1, n-k) block subgroup of Sym(n-1) into the two-block
    subgroup of Sym(n).
    """
    if not 1 <= k <= n - 1:
        raise UsageError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    inc = standard_inclusion(n)
    sym_n, sym_prev = inc.target, inc.source
    h = young_two_block(n, k)

    lhs = f.res(inc).compose(f.tr(h, sym_n))

    low1 = young_two_block(n - 1, k)
    into1 = GroupHom(low1, h, [Perm(x.images + (n,)) for x in low1.generators])
    term1 = f.tr(low1, sym_prev).compose(f.res(into1))

    low2 = young_two_block(n - 1, k - 1)
    conj = _conjugator(Perm.from_cycles(n, [(k, n)]).images)
    into2 = GroupHom(low2, h, [Perm(conj(x.images + (n,))) for x in low2.generators])
    term2 = f.tr(low2, sym_prev).compose(f.res(into2))

    rhs = term1 + term2
    passed = lhs == rhs
    detail = ""
    if not passed:
        for j in range(lhs.source.rank):
            a = tuple(row[j] for row in lhs.matrix)
            b = tuple(row[j] for row in rhs.matrix)
            if a != b:
                detail = f"first differing column {j}: left {a}, right {b}"
                break
    return DcfCheck(f.name, n, k, passed, detail, lhs)


class SplittingReport:
    """The assembled splitting data for one functor at one symmetric group."""

    __slots__ = (
        "functor",
        "n",
        "kernel_bases",
        "assembled",
        "determinant",
        "component_ranks",
    )

    def __init__(self, functor, n, kernel_bases, assembled, determinant):
        self.functor = functor
        self.n = n
        self.kernel_bases = kernel_bases
        self.assembled = assembled
        self.determinant = determinant
        self.component_ranks = tuple(len(b) for b in kernel_bases)

    def summary_lines(self):
        return [
            f"splitting of {self.functor} at Sym({self.n})",
            f"component ranks: {list(self.component_ranks)}"
            f" (total {sum(self.component_ranks)})",
            f"determinant of the assembled map: {self.determinant}",
        ]

    def to_dict(self):
        return {
            "functor": self.functor,
            "n": self.n,
            "component_ranks": list(self.component_ranks),
            "determinant": self.determinant,
            "kernel_bases": [[list(r) for r in b] for b in self.kernel_bases],
            "assembled": [list(r) for r in self.assembled],
        }


def splitting_report(f: GlobalFunctor, n: int) -> SplittingReport:
    """Build all psi maps at level n, assemble them, and certify the split.

    Everything the splitting asserts is re-checked here: the ranks add up, the
    assembled square matrix is unimodular, each psi commutes with one more
    restriction (the ladder), and restriction to level n-1 is onto.  Any
    failure raises MathCheckError since it cannot be a data condition.
    """
    if n < 0:
        raise UsageError("n must be >= 0")
    value_rank = f.tower_value(n).rank
    bases = [kernel_basis(f, k) for k in range(n + 1)]
    psis = [psi(f, k, n) for k in range(n + 1)]
    if sum(len(b) for b in bases) != value_rank:
        raise MathCheckError(
            f"kernel ranks {[len(b) for b in bases]} do not add up to {value_rank}"
        )
    assembled = _psi_stack(f, n)[0]
    det = det_exact(assembled)
    if abs(det) != 1:
        raise MathCheckError(f"assembled splitting matrix has determinant {det}")
    if n >= 1:
        down = [list(r) for r in f.tower_res(n)]
        for k in range(n):
            lifted = mat_mul(down, [list(r) for r in psis[k].matrix])
            lower = [list(r) for r in psi(f, k, n - 1).matrix]
            if not mat_eq(lifted, lower):
                raise MathCheckError(f"ladder relation fails at k={k}, n={n}")
        preimages = solve_exact(down, identity_matrix(f.tower_value(n - 1).rank))
        for j, x in enumerate(preimages):
            if x is None:
                raise MathCheckError(
                    f"basis vector {j} of the lower level has no integer preimage"
                )
    return SplittingReport(f.name, n, bases, assembled, det)


def decompose(f: GlobalFunctor, n: int, x):
    """The unique kernel-lattice components of x, one coordinate tuple per k.

    Recurses over levels: restrict, decompose below, and put what is left in
    the top kernel.  The top residue failing the lattice membership test
    would contradict the splitting, so it raises.
    """
    x = _int_vector(x)
    if len(x) != f.tower_value(n).rank:
        raise UsageError("vector length does not match the functor value rank")
    if n == 0:
        return (x,)
    below = decompose(f, n - 1, f.res(standard_inclusion(n)).apply(x))
    residual = [a - b for a, b in zip(x, _psi_sum(f, n, below))]
    basis = kernel_basis(f, n)
    if not basis:
        if any(residual):
            raise MathCheckError("nonzero residue left for an empty kernel")
        top = ()
    else:
        [coords] = solve_exact(transpose(basis), [residual])
        if coords is None:
            raise MathCheckError("residue does not lie in the top kernel lattice")
        top = tuple(coords)
    return below + (top,)


def reassemble(f: GlobalFunctor, n: int, components):
    """Inverse of decompose: sum the psi images of the components."""
    components = tuple(map(_int_vector, components))
    if len(components) != n + 1:
        raise UsageError(f"expected {n + 1} components, got {len(components)}")
    return tuple(_psi_sum(f, n, components))


def _int_vector(x):
    """x as a tuple; UsageError unless each entry's type is int, as for --element."""
    x = tuple(x)
    if any(type(v) is not int for v in x):
        raise UsageError("vector entries must be integers")
    return x


def _psi_sum(f: GlobalFunctor, n: int, parts):
    """The sum over k of psi(k, n) applied to parts[k], a vector of F(Sym(n));
    parts holds at least the k = 0 slot."""
    matrix, widths = _psi_stack(f, n)
    if any(len(part) != w for part, w in zip(parts, widths)):
        raise UsageError("vector length does not match source rank")
    # mat_vec stops at the end of the vector: the columns of these slots
    return mat_vec(matrix, [v for part in parts for v in part])


def _psi_stack(f: GlobalFunctor, n: int):
    """The matrices of psi(k, n) for k = 0..n side by side, with the width of
    each block.  Built once per level and memoized on the functor; decompose
    passes the slots below the top and reads the leading columns."""
    got = f._stack_memo.get(n)
    if got is None:
        maps = [psi(f, k, n) for k in range(n + 1)]
        rows = tuple(tuple(chain.from_iterable(r)) for r in zip(*(p.matrix for p in maps)))
        got = f._stack_memo[n] = (rows, tuple(p.source.rank for p in maps))
    return got


# ---------------------------------------------------------------------------
# the alternating family


class AlternatingFusionReport:
    """Fusion of conjugacy classes along Alt(n-1) <= Alt(n), and what it
    says about restriction out of the representation ring value."""

    __slots__ = ("n", "pairs", "class_count", "merged_rank")

    def __init__(self, n, pairs, class_count):
        self.n = n
        self.pairs = list(pairs)
        self.class_count = class_count
        # rank of the constant-on-fused-classes sublattice: one generator per
        # group of classes glued together by the pairs.  fused_pairs lists
        # every pair inside each fused group, so each group of m classes
        # shows exactly its m - 1 non-least members as second entries.
        self.merged_rank = class_count - len({b for _, b in self.pairs})

    @property
    def restriction_surjective(self) -> bool:
        return not self.pairs

    def summary_lines(self):
        head = f"fusion in A{self.n - 1} <= A{self.n}:"
        if not self.pairs:
            return [head, "  no fusion witness at this n"]
        lines = [head]
        for a, b in self.pairs:
            lines.append(f"  classes of {a} and {b} fuse")
        lines.append(
            f"  restricted class functions are constant on each fused pair, so the"
            f" image of restriction has rank at most {self.merged_rank} of"
            f" {self.class_count}; restriction is not surjective"
        )
        return lines

    def to_dict(self):
        return {
            "n": self.n,
            "witnesses": [[str(a), str(b)] for a, b in self.pairs],
            "class_count": self.class_count,
            "restriction_surjective": self.restriction_surjective,
        }


def non_splitting_witness_alternating(n: int) -> AlternatingFusionReport:
    """The classes of Alt(n-1) <= Alt(n) that fuse, read from the partitions
    of n - 1 with no group built.

    A fused pair means every restricted class function takes equal values on
    the two classes, so restriction out of the representation ring value at
    Alt(n) cannot be surjective, and a natural splitting is impossible.

    An even type mu of n - 1 is one Alt(n-1)-class, or two halves when mu
    has distinct odd parts (James and Kerber, The Representation Theory of
    the Symmetric Group, 1981, section 1.2).  The halves fuse in Alt(n)
    exactly when mu also has a part 1, since mu plus the fixed point n then
    no longer has distinct parts.  Each pair is certified by
    `_fusion_witness`.
    """
    if n < 5:
        raise UsageError("the fusion search needs n >= 5")
    _check_moved_degree(n)
    class_count = 0
    pairs = []
    for mu in partitions(n - 1):
        if (n - 1 - len(mu)) % 2:
            continue  # an odd type
        splits = len(set(mu)) == len(mu) and all(part % 2 for part in mu)
        class_count += 2 if splits else 1
        if splits and mu[-1] == 1:
            pairs.append(_fusion_witness(n, mu))
    return AlternatingFusionReport(n, sorted(pairs), class_count)


def _fusion_witness(n: int, mu) -> tuple[Perm, Perm]:
    """The least member of each Alt(n-1)-half of the class of type mu, with
    an O(n) certificate that the two are conjugate in Alt(n).

    The least permutation of a type puts its cycles on consecutive points,
    shortest first, each as (a a+1 ... b); so x fixes 1 and ends in the
    longest cycle, of length at least 3.  Its conjugate y by t = (n-2 n-1)
    swaps the last two points of that cycle.  A permutation of type mu
    between x and y agrees with both before that cycle's third-last point,
    sends that point where x or y does, and is then x or y.  As t is odd, y
    lies in the other half, and the even s = t (1 n) carries x to y since x
    fixes both 1 and n.
    """
    images = []
    for part in reversed(mu):
        start = len(images) + 1
        images += range(start + 1, start + part)
        images.append(start)
    x = tuple(images) + (n,)
    t = tuple(range(1, n - 2)) + (n - 1, n - 2, n)
    y = _conjugator(t)(x)
    s = tuple(t[j - 1] for j in (n,) + tuple(range(2, n)) + (1,))
    _certify_fusion(mu, x, y, s)
    return Perm._from_images(x), Perm._from_images(y)


def _certify_fusion(mu, x: tuple, y: tuple, s: tuple):
    """Check that the even s carries x to y, and that x and y, both fixing
    the last point, lie in the two Alt(n-1)-halves of the type mu."""
    n = len(x)
    if not Perm(s).is_even() or _conjugator(s)(x) != y:
        raise MathCheckError(f"no even conjugator carries {mu} witness {x} to {y}")
    if x[-1] != n or y[-1] != n:
        raise MathCheckError(f"fusion witnesses {x}, {y} move the point {n}")
    keys = {_alternating_class_key(Perm._from_images(z[:-1])) for z in (x, y)}
    if keys != {(mu, False), (mu, True)}:
        raise MathCheckError(f"fusion witnesses {x}, {y} are not the two halves of {mu}")


def _alternating_class_key(p: Perm):
    """A key that two even permutations of one degree share exactly when
    they are conjugate in Alt(n), computed from p alone.

    A Sym(n)-class of even permutations splits in Alt(n) exactly when its
    cycle type has distinct odd parts.  Then the centralizer in Sym(n) is
    generated by the cycles themselves, all even, so every conjugator from
    a fixed element of that type onto p has the same parity, and that
    parity names the Alt(n)-class.  The conjugator used reads p's cycles,
    longest first, then its fixed point, as one word; with distinct parts
    the word is unique up to rotating odd cycles, which keeps its parity.
    """
    mu = p.cycle_type()
    if len(set(mu)) < len(mu) or any(part % 2 == 0 for part in mu):
        return mu
    word = [x for c in sorted(p.cycles(), key=len, reverse=True) for x in c]
    word += [x for x in range(1, p.degree + 1) if p(x) == x]
    return mu, Perm(word).is_even()


def alternating_retractions(n: int):
    """All group homomorphisms r: Alt(n) -> Alt(n-1) with r o i = id.

    Exactly one exists for n = 3 and n = 4, which is why the low alternating
    restrictions do split; none exists from n = 5 on.
    """
    if n < 3:
        raise UsageError("n must be >= 3")
    big = alternating_group(n)
    small = alternating_group(n - 1)
    found = []
    for r in all_homs(big, small):
        if all(r.table[x + (n,)] == x for x in small.image_set):
            found.append(r)
    return found
