"""Global functors on finite groups, stored as exact integer matrices.

A global functor F assigns a finitely generated free abelian group F(G) to
every finite group G, a restriction map F(alpha): F(G) -> F(K) to every
homomorphism alpha: K -> G (note the direction reversal), and a transfer
tr: F(H) -> F(G) to every subgroup inclusion H <= G.  This data obeys five
relations:

  R1  restriction is functorial: F(beta o alpha) = F(alpha) o F(beta),
      and F(id) = id;
  R2  transfers compose: tr(H<=G) o tr(L<=H) = tr(L<=G);
  R3  restriction along an inner automorphism is the identity;
  R4  for surjective q: G -> Q and a subgroup B <= Q,
      F(q) o tr(B<=Q) = tr(q^-1(B)<=G) o F(q restricted to q^-1(B));
  R5  the double coset formula: for H, K <= G,
      F(incl K) o tr(H<=G) = sum over [g] in K\\G/H of
      tr(K n gHg^-1 <= K) o F(x |-> g^-1 x g into H).

verify_axioms checks all five on a finite probe of groups, homomorphisms and
subgroup chains, and treats them as the definition.  Everything is a matrix
over the integers acting on column vectors, so every check is exact.
"""

from .errors import NotASubgroupError, UsageError
from .linalg import identity_matrix, mat_add, mat_eq, mat_mul, mat_vec, zeros
from .perms import (
    GroupHom,
    Perm,
    PermGroup,
    conjugate_subgroup,
    double_cosets,
    intersection,
    restrict_to_block,
    standard_inclusion,
    symmetric_group,
    young_subgroup,
    young_two_block,
)


class FreeAbelian:
    """A free abelian group with an ordered basis of distinct opaque labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise UsageError("basis labels must be distinct")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeAbelian) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"FreeAbelian(rank {self.rank})"


class ZMap:
    """An integer matrix map between two FreeAbelian groups.

    The matrix has target.rank rows and source.rank columns and acts on
    column vectors; column j is the image of the j-th source basis vector.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FreeAbelian, target: FreeAbelian, matrix):
        rows = [tuple(int(x) for x in row) for row in matrix]
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise UsageError(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not"
                f" match ranks {target.rank}x{source.rank}"
            )
        self.source = source
        self.target = target
        self.matrix = tuple(rows)

    @staticmethod
    def identity(fa: FreeAbelian) -> "ZMap":
        return ZMap(fa, fa, identity_matrix(fa.rank))

    @staticmethod
    def zero(source: FreeAbelian, target: FreeAbelian) -> "ZMap":
        return ZMap(source, target, zeros(target.rank, source.rank))

    def compose(self, inner: "ZMap") -> "ZMap":
        """self o inner."""
        if inner.target != self.source:
            raise UsageError("maps not composable")
        return ZMap(inner.source, self.target, mat_mul(self.matrix, inner.matrix))

    def apply(self, vec) -> tuple[int, ...]:
        if len(vec) != self.source.rank:
            raise UsageError("vector length does not match source rank")
        return tuple(mat_vec(self.matrix, list(vec)))

    def __add__(self, other: "ZMap") -> "ZMap":
        if self.source != other.source or self.target != other.target:
            raise UsageError("map sum needs equal source and target")
        return ZMap(self.source, self.target, mat_add(self.matrix, other.matrix))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def is_identity(self) -> bool:
        return self.source.rank == self.target.rank and mat_eq(
            list(map(list, self.matrix)), identity_matrix(self.source.rank)
        )

    def __repr__(self) -> str:
        return f"ZMap({self.target.rank}x{self.source.rank})"


class GlobalFunctor:
    """Base class for concrete functor instances.

    Subclasses provide _value(G) -> FreeAbelian, _res_matrix(alpha) and
    _tr_matrix(H, G) returning raw integer matrices.  This class owns the
    memo tables (keyed by group image sets and by `GroupHom.key`, and for
    the splitting layer's kernel bases, psi maps and stacked psi matrices
    by level), shape checks, and the subgroup precondition on transfers.

    The splitting layer reads F along the tower Sym(0) <= Sym(1) <= ...
    only through `tower_value`, `tower_res` and `tower_psi`.  The defaults
    here build the groups and go through `value`, `res` and `tr`; an
    instance that knows these maps in closed form overrides all three.
    """

    name = "functor"

    def __init__(self):
        self._value_memo = {}
        self._res_memo = {}
        self._tr_memo = {}
        # filled by splitting.kernel_basis, splitting.psi and the stacked
        # psi matrices of splitting._psi_stack
        self._kernel_memo = {}
        self._psi_memo = {}
        self._stack_memo = {}

    def value(self, g: PermGroup) -> FreeAbelian:
        got = self._value_memo.get(g.image_set)
        if got is None:
            got = self._value_memo[g.image_set] = self._value(g)
        return got

    def res(self, alpha: GroupHom) -> ZMap:
        """The map F(alpha.target) -> F(alpha.source)."""
        k = alpha.key()
        got = self._res_memo.get(k)
        if got is None:
            got = ZMap(self.value(alpha.target), self.value(alpha.source), self._res_matrix(alpha))
            self._res_memo[k] = got
        return got

    def tr(self, h: PermGroup, g: PermGroup) -> ZMap:
        """The transfer F(H) -> F(G) along a subgroup inclusion."""
        if not h <= g:
            raise NotASubgroupError("transfer needs an actual subgroup")
        k = (g.image_set, h.image_set)
        got = self._tr_memo.get(k)
        if got is None:
            got = ZMap(self.value(h), self.value(g), self._tr_matrix(h, g))
            self._tr_memo[k] = got
        return got

    def tower_value(self, n: int) -> FreeAbelian:
        """F(Sym(n))."""
        return self.value(symmetric_group(n))

    def tower_res(self, n: int):
        """The matrix of F(i_n): F(Sym(n)) -> F(Sym(n-1)), for n >= 1."""
        return self.res(standard_inclusion(n)).matrix

    def tower_psi(self, k: int, n: int):
        """The matrix of F(Sym(k)) -> F(Sym(n)) that restricts along the block
        projection Sym(k) x Sym(n-k) -> Sym(k) and transfers up; at k = 0,
        restriction along Sym(n) -> e."""
        if k == 0:
            return self.res(terminal_hom(symmetric_group(n))).matrix
        y = young_two_block(n, k)
        inflate = self.res(restrict_to_block(y, range(1, k + 1))).matrix
        return mat_mul(self.tr(y, symmetric_group(n)).matrix, inflate)

    def _value(self, g: PermGroup) -> FreeAbelian:
        raise NotImplementedError

    def _res_matrix(self, alpha: GroupHom):
        raise NotImplementedError

    def _tr_matrix(self, h: PermGroup, g: PermGroup):
        raise NotImplementedError


class CorruptedTransfer(GlobalFunctor):
    """Fault-injection wrapper: one transfer matrix gets its corner bumped.

    Exists so the axiom checker can be shown to catch a wrong instance; it
    must never be used outside tests and demos.
    """

    def __init__(self, inner: GlobalFunctor, h: PermGroup, g: PermGroup):
        super().__init__()
        self.name = inner.name + "-corrupted"
        self._inner = inner
        self._bad = (g.image_set, h.image_set)

    def _value(self, g):
        return self._inner.value(g)

    def _res_matrix(self, alpha):
        return self._inner.res(alpha).matrix

    def _tr_matrix(self, h, g):
        m = [list(row) for row in self._inner.tr(h, g).matrix]
        if (g.image_set, h.image_set) == self._bad:
            m[0][0] += 1
        return m


def terminal_hom(g: PermGroup) -> GroupHom:
    """The unique homomorphism onto the trivial group (degree-1 model)."""
    e = symmetric_group(1)
    return GroupHom(g, e, [e.identity] * len(g.generators))


# ---------------------------------------------------------------------------
# axiom checking


class RelationCheck:
    """Outcome of one relation instance: R1..R5, a subject line, pass/fail."""

    __slots__ = ("relation", "subject", "passed", "detail")

    def __init__(self, relation, subject, passed, detail=""):
        self.relation = relation
        self.subject = subject
        self.passed = passed
        self.detail = detail

    def __repr__(self) -> str:
        flag = "ok" if self.passed else "FAIL"
        return f"[{self.relation} {flag}] {self.subject}"


class AxiomReport:
    __slots__ = ("functor", "degree", "checks")

    def __init__(self, functor: str, degree: int, checks):
        self.functor = functor
        self.degree = degree  # the largest degree of a probe group
        self.checks = list(checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def summary_lines(self):
        lines = [f"axioms of the {self.functor} functor on the probe up to degree {self.degree}"]
        for rel in ("R1", "R2", "R3", "R4", "R5"):
            sub = [c for c in self.checks if c.relation == rel]
            bad = [c for c in sub if not c.passed]
            status = "pass" if not bad else f"{len(bad)} FAILED"
            lines.append(f"{rel}: {len(sub)} instances, {status}")
            if bad:
                first = bad[0]
                lines.append(f"  first failure: {first.subject}")
                if first.detail:
                    lines.append(f"  {first.detail}")
        return lines

    def to_dict(self):
        return {
            "functor": self.functor,
            "all_passed": self.all_passed,
            "relations": {
                rel: {
                    "checked": sum(1 for c in self.checks if c.relation == rel),
                    "failed": [
                        {"subject": c.subject, "detail": c.detail}
                        for c in self.checks
                        if c.relation == rel and not c.passed
                    ],
                }
                for rel in ("R1", "R2", "R3", "R4", "R5")
            },
        }


class AxiomProbe:
    """A finite supply of inputs to check the relations on.

    groups        -- for F(id) = id and for inner automorphisms (R1, R3)
    homs          -- composable pairs are found by matching endpoints (R1)
    chains        -- (L, H, G) with L <= H <= G (R2)
    surjections   -- (q, B) with q surjective and B <= q.target (R4)
    mackey_triples-- (K, H, G) with K, H <= G (R5)
    """

    __slots__ = ("groups", "homs", "chains", "surjections", "mackey_triples")

    def __init__(self, groups, homs, chains, surjections, mackey_triples):
        self.groups = list(groups)
        self.homs = list(homs)
        self.chains = list(chains)
        self.surjections = list(surjections)
        self.mackey_triples = list(mackey_triples)


def _block_splits(n: int, start: int = 1):
    """Every split of start..n into runs of consecutive points, as tuples of
    ranges; the first run grows from one point, so the single run comes last.
    Distinct splits give distinct Young subgroups."""
    if start > n:
        yield ()
        return
    for stop in range(start + 1, n + 2):
        for rest in _block_splits(n, stop):
            yield (range(start, stop),) + rest


def standard_probe(max_n: int) -> AxiomProbe:
    """Symmetric groups up to Sym(max_n) and all their parabolic subgroups.

    Each degree n contributes the Young subgroups of consecutive blocks, one
    per split of 1..n, with Sym(n) itself for the single block.  One list of
    the strict inclusions among them gives both the inclusion homs and the
    chains L < H < G.  The other homs are the identities, conjugation by
    (1 2) and the map onto the trivial group on Sym(n), the projection of
    each Young subgroup onto each of its blocks, and i_n on the probe's own
    Sym(n-1) and Sym(n).  The terminal maps and the block projections are
    onto a full symmetric group, so each pairs with every subgroup of that
    degree as an R4 surjection.  Every pair of subgroups of one degree forms
    a Mackey triple inside Sym(n).

    Every group here is a product of symmetric groups on blocks, so the same
    probe works for instances that only support such groups.  Intersections
    and conjugates formed inside the R5 check stay within that family.
    """
    if max_n < 1:
        raise UsageError("max_n must be >= 1")
    groups, maps, chains, surjections, mackey_triples = [], [], [], [], []
    subs_of = {}
    for n in range(1, max_n + 1):
        full = symmetric_group(n)
        splits = list(_block_splits(n))
        subs = subs_of[n] = [young_subgroup(n, split) for split in splits[:-1]] + [full]
        groups += [full] + subs[:-1]
        inclusions = [(a, b) for a in subs for b in subs if a.order < b.order and a <= b]
        maps += [GroupHom.inclusion(a, b) for a, b in inclusions]
        chains += [(a, b, c) for a, b in inclusions for mid, c in inclusions if mid is b]
        onto = [restrict_to_block(y, block)
                for y, split in zip(subs, splits) if len(split) > 1 for block in split]
        if n >= 2:
            onto = [terminal_hom(full)] + onto
            maps.append(GroupHom.conjugation(full, full, Perm.from_cycles(n, [(1, 2)])))
        maps += onto
        surjections += [(q, b) for q in onto for b in subs_of[q.target.degree]]
        mackey_triples += [(k, h, full) for k in subs for h in subs]
    # i_n as standard_inclusion(n) builds it, on the probe's own groups
    fulls = [subs[-1] for subs in subs_of.values()]
    steps = [GroupHom(low, high, [Perm(x.images + (high.degree,)) for x in low.generators])
             for low, high in zip(fulls, fulls[1:])]
    homs = [GroupHom.identity(g) for g in groups] + maps + steps
    return AxiomProbe(groups, homs, chains, surjections, mackey_triples)


def _first_difference(lhs, rhs) -> str:
    for i, (rl, rr) in enumerate(zip(lhs, rhs)):
        for j, (a, b) in enumerate(zip(rl, rr)):
            if a != b:
                return f"entry ({i},{j}): left {a}, right {b}"
    return "shape mismatch"


def mackey_sum(f: GlobalFunctor, k: PermGroup, h: PermGroup, g: PermGroup) -> ZMap:
    """The right side of R5: the double coset sum, as a map F(H) -> F(K)."""
    total = ZMap.zero(f.value(h), f.value(k))
    for rep in double_cosets(g, k, h):
        hg = conjugate_subgroup(h, rep)
        l = intersection(k, hg)
        back = GroupHom.conjugation(l, h, rep.inverse())
        total = total + f.tr(l, k).compose(f.res(back))
    return total


def verify_axioms(f: GlobalFunctor, probe: AxiomProbe) -> AxiomReport:
    """Check R1-R5 on every instance the probe supplies.

    Each instance is one equality of two maps, F(id) and conjugation by an
    element (R3) against the identity map included.  A failure becomes a
    report entry naming the first differing entry, never an exception.
    """
    checks = []

    def record(relation, subject, lhs, rhs):
        ok = lhs == rhs
        detail = "" if ok else _first_difference(lhs.matrix, rhs.matrix)
        checks.append(RelationCheck(relation, subject, ok, detail))

    for g in probe.groups:
        record("R1", f"res(id) on {g!r}", f.res(GroupHom.identity(g)), ZMap.identity(f.value(g)))
    for outer in probe.homs:
        for inner in probe.homs:
            if inner.target != outer.source:
                continue
            lhs = f.res(outer.compose(inner))
            rhs = f.res(inner).compose(f.res(outer))
            record("R1", f"res of {outer!r} o {inner!r}", lhs, rhs)

    for low, mid, top in probe.chains:
        lhs = f.tr(mid, top).compose(f.tr(low, mid))
        rhs = f.tr(low, top)
        record("R2", f"tr through {mid!r} inside {top!r}", lhs, rhs)

    for g in probe.groups:
        ident = ZMap.identity(f.value(g))
        for x in g.elements:
            record("R3", f"conjugation by {x} on {g!r}", f.res(GroupHom.conjugation(g, g, x)), ident)

    for q, b in probe.surjections:
        pre = q.preimage(b)
        restricted = GroupHom(pre, b, list(map(q, pre.generators)))
        lhs = f.res(q).compose(f.tr(b, q.target))
        rhs = f.tr(pre, q.source).compose(f.res(restricted))
        record("R4", f"surjection {q!r} with subgroup {b!r}", lhs, rhs)

    for k, h, g in probe.mackey_triples:
        lhs = f.res(GroupHom.inclusion(k, g)).compose(f.tr(h, g))
        rhs = mackey_sum(f, k, h, g)
        record("R5", f"K={k!r}, H={h!r} inside {g!r}", lhs, rhs)

    return AxiomReport(f.name, max((g.degree for g in probe.groups), default=0), checks)
