"""The Burnside category on finite groups, in its algebraic description.

A morphism from X to Y acts on every global functor as a map F(X) -> F(Y)
and is an integer combination of pair classes (H, alpha) with H a subgroup
of Y and alpha: H -> X a homomorphism; the pair acts as the transfer off H
composed with restriction along alpha.  Two pairs name the same class when
they differ by conjugating H inside Y (rewriting alpha accordingly) or by
post-conjugating alpha inside X, so a class is canonicalized by minimizing
over both group actions.  The minimum is the least (sorted conjugate of H,
value table of the rewritten alpha) over all of Y x X, but canonical_pair
reaches it without visiting every pair: the subgroup part runs over the left
cosets of N_Y(H), and the homomorphism part over the distinct tuples of
generator images, so the key is the one the full search gives.  The
subgroup part is computed once per (Y, H), memoized on their image sets.  The
restriction morphism along i_n goes from Sym(n) to Sym(n-1), matching the
direction of its action.

Composition pushes restrictions past transfers with the double coset
formula and pulls surjections through preimages, which on single pairs
collapses to one sum: composing (J <= Z, beta: J -> Y) after
(H <= Y, alpha: H -> X) gives, over representatives y of beta(J)\\Y/H,
the pairs (beta^{-1}(yHy^{-1}) <= Z, x |-> alpha(y^{-1} beta(x) y)).

section_of_restriction inverts composition-with-i_n^* on the identity; any
preimage is a section, and the kernel-reduced solution plus a second one
assembled from the splitting machinery are returned and verified.
"""

from .errors import MathCheckError, UsageError
from .functors import GlobalFunctor, FreeAbelian, ZMap
from .linalg import identity_matrix, integer_kernel, reduce_mod_lattice, solve_exact
from .perms import (
    GroupHom,
    Perm,
    PermGroup,
    conjugate_subgroup,
    double_cosets,
    _conjugator,
    _inverse,
    _right_mul,
    left_coset_reps,
    normalizer,
    product_group,
    standard_inclusion,
    all_homs,
)
from .subgroups import subgroup_classes

# (target.image_set, H.image_set) -> the subgroup half of canonical_pair
_least_conjugate_memo: dict = {}
# source.image_set -> y |-> k y k^-1 for k over the sorted source elements
_source_conjugators_memo: dict = {}


class CanonicalPair:
    """A canonical representative (H <= target, alpha: H -> source)."""

    __slots__ = ("subgroup", "hom", "key")

    def __init__(self, subgroup: PermGroup, hom: GroupHom, key):
        self.subgroup = subgroup
        self.hom = hom
        self.key = key

    def label(self) -> str:
        gens = self.subgroup.generators
        body = ",".join(str(g) for g in gens) if gens else "()"
        imgs = ",".join(str(v) for v in self.hom.gen_images) if gens else "()"
        return f"(<{body}> -> {imgs})"

    def __repr__(self) -> str:
        return f"CanonicalPair{self.label()}"


def canonical_pair(h: PermGroup, alpha: GroupHom, target: PermGroup) -> CanonicalPair:
    """Minimize (H, alpha) over conjugation in the target and the source.

    The key is the sorted element tuple of the conjugated subgroup together
    with the full value table of the rewritten homomorphism, so it does not
    depend on any generating-set choice.  It is the least such key over all
    (g, k) in target x source, found without visiting every pair:

    * gHg^-1 depends only on the left coset gN of N = N_target(H), so one
      representative per coset gives the least conjugate H0 = g0 H g0^-1;
      the g reaching H0 are exactly g0 N.
    * A rewritten homomorphism y |-> k alpha(g^-1 y g) k^-1 with g in g0 N
      is fixed by its images of H0's generators.  Those image tuples are
      collected one source-conjugation orbit at a time (orbits are disjoint,
      so a tuple already seen means its whole orbit is in).  Only the
      distinct ones are compared, on their value tables one entry at a time,
      and only the least table is built in full.

    The subgroup half depends on (target, H) alone and is computed once per
    such pair (`_least_conjugate`); the source conjugators are built once per
    source.
    """
    source = alpha.target
    sub, skey, conjs = _least_conjugate(h, target)
    subgens = [s.images for s in sub.generators]
    table = alpha.table
    kconj = _source_conjugators_memo.get(source.image_set)
    if kconj is None:
        kconj = [_conjugator(k) for k in sorted(source.image_set)]
        _source_conjugators_memo[source.image_set] = kconj
    found = {}  # generator image tuple -> (pulled-back values on skey, k's conjugator)
    for conj in conjs:
        vals = tuple([table[conj(s)] for s in subgens])
        if vals in found:
            continue
        base = [table[conj(y)] for y in skey]
        for kc in kconj:
            imgs = tuple(map(kc, vals))
            if imgs not in found:
                found[imgs] = (base, kc)
    # the least value table, compared one entry at a time: distinct image
    # tuples have distinct tables, so one candidate is left at the end
    cands = [(imgs, *rest) for imgs, rest in found.items()]
    for i in range(1, len(skey)):
        if len(cands) == 1:
            break
        col = [kc(base[i]) for _, base, kc in cands]
        least = min(col)
        cands = [c for c, v in zip(cands, col) if v == least]
    images, base, kc = cands[0]
    hkey = tuple(map(kc, base))
    hom = GroupHom(sub, source, [Perm._from_images(v) for v in images])
    return CanonicalPair(sub, hom, (skey, hkey))


def _least_conjugate(h: PermGroup, target: PermGroup):
    """The subgroup half of canonical_pair: the least conjugate H0 of H, as a
    group and as its sorted element tuple, and, as m runs over the sorted
    elements of N = N_target(H), the maps y |-> g^-1 y g for g = g0 m^-1,
    where g0 H g0^-1 = H0.  Memoized on the image sets of target and H:
    bases, composites and products meet the same subgroups many times."""
    key = (target.image_set, h.image_set)
    hit = _least_conjugate_memo.get(key)
    if hit is not None:
        return hit
    norm = normalizer(target, h)
    best = None
    for g in left_coset_reps(target, norm)[1]:
        skey = tuple(sorted(map(_conjugator(g), h.image_set)))
        if best is None or skey < best[0]:
            best = (skey, g)
    skey, g0 = best
    to_ginv = _right_mul(_inverse(g0))  # m -> m g0^-1
    conjs = [_conjugator(to_ginv(m)) for m in sorted(norm.image_set)]
    half = (PermGroup.from_elements(target.degree, skey), skey, conjs)
    _least_conjugate_memo[key] = half
    return half


def morphism_basis(source: PermGroup, target: PermGroup):
    """All pair classes (H <= target, alpha: H -> source), sorted by key."""
    lat = subgroup_classes(target)
    found = {}
    for cls in lat.classes:
        h = cls.representative
        for alpha in all_homs(h, source):
            pair = canonical_pair(h, alpha, target)
            found.setdefault(pair.key, pair)
    return [found[k] for k in sorted(found)]


class BurnsideCatMorphism:
    """An integer combination of canonical pairs, acting F(source) -> F(target)."""

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: PermGroup, target: PermGroup, terms=()):
        self.source = source
        self.target = target
        # terms maps pair.key -> (CanonicalPair, coefficient), zeros dropped
        self.terms = {}
        for pair, coeff in terms:
            self._add(pair, coeff)

    def _add(self, pair: CanonicalPair, coeff: int):
        if not coeff:
            return
        old = self.terms.get(pair.key)
        total = coeff + (old[1] if old else 0)
        if total:
            self.terms[pair.key] = (pair, total)
        else:
            self.terms.pop(pair.key, None)

    @staticmethod
    def identity(g: PermGroup) -> "BurnsideCatMorphism":
        pair = canonical_pair(g, GroupHom.identity(g), g)
        return BurnsideCatMorphism(g, g, [(pair, 1)])

    @staticmethod
    def restriction(alpha: GroupHom) -> "BurnsideCatMorphism":
        """The morphism from alpha.target to alpha.source acting as F(alpha)."""
        pair = canonical_pair(alpha.source, alpha, alpha.source)
        return BurnsideCatMorphism(alpha.target, alpha.source, [(pair, 1)])

    @staticmethod
    def transfer(h: PermGroup, g: PermGroup) -> "BurnsideCatMorphism":
        pair = canonical_pair(h, GroupHom.identity(h), g)
        return BurnsideCatMorphism(h, g, [(pair, 1)])

    def __add__(self, other: "BurnsideCatMorphism") -> "BurnsideCatMorphism":
        if (self.source, self.target) != (other.source, other.target):
            raise UsageError("morphism sum needs equal endpoints")
        out = BurnsideCatMorphism(self.source, self.target, list(self.terms.values()))
        for pair, coeff in other.terms.values():
            out._add(pair, coeff)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BurnsideCatMorphism)
            and self.source == other.source
            and self.target == other.target
            and {k: v for k, (_, v) in self.terms.items()}
            == {k: v for k, (_, v) in other.terms.items()}
        )

    def compose(self, first: "BurnsideCatMorphism") -> "BurnsideCatMorphism":
        """self o first, rewriting restriction-past-transfer double cosets."""
        if first.target != self.source:
            raise UsageError("morphisms not composable")
        mid = self.source
        out = BurnsideCatMorphism(first.source, self.target)
        for key_j in sorted(self.terms):
            jpair, jcoeff = self.terms[key_j]
            beta = jpair.hom
            image = beta.image()
            for key_h in sorted(first.terms):
                hpair, hcoeff = first.terms[key_h]
                h, alpha = hpair.subgroup, hpair.hom
                for y in double_cosets(mid, image, h):
                    low = beta.preimage(conjugate_subgroup(h, y))
                    # x |-> alpha(y^-1 beta(x) y), on image tuples
                    back = _conjugator(_inverse(y.images))
                    images = [alpha.table[back(beta.table[x.images])] for x in low.generators]
                    gamma = GroupHom(low, first.source, [Perm._from_images(v) for v in images])
                    out._add(canonical_pair(low, gamma, self.target), jcoeff * hcoeff)
        return out

    def action_on(self, f: GlobalFunctor) -> ZMap:
        """The matrix of this morphism on a functor instance."""
        total = ZMap.zero(f.value(self.source), f.value(self.target))
        for key in sorted(self.terms):
            pair, coeff = self.terms[key]
            term = f.tr(pair.subgroup, self.target).compose(f.res(pair.hom))
            total = total + ZMap(term.source, term.target,
                                 [[coeff * x for x in row] for row in term.matrix])
        return total

    def to_json_obj(self):
        out = []
        for key in sorted(self.terms):
            pair, coeff = self.terms[key]
            gens = [str(g) for g in pair.subgroup.generators]
            out.append(
                {
                    "subgroup_generators": gens,
                    "hom_images": [str(v) for v in pair.hom.gen_images],
                    "coefficient": coeff,
                }
            )
        return out

    def __repr__(self) -> str:
        body = " + ".join(
            f"{v}*{p.label()}" for p, v in (self.terms[k] for k in sorted(self.terms))
        )
        return f"Morphism({body or '0'})"


class RepresentedFunctor(GlobalFunctor):
    """The functor a group represents: value(G) = morphisms from L to G.

    Restriction and transfer act by composing with the corresponding
    category morphisms, so this instance routes everything through compose
    and gives the splitting machinery a hold on morphism groups themselves.
    """

    def __init__(self, l_group: PermGroup):
        super().__init__()
        self.l_group = l_group
        self.name = f"represented({l_group.name or l_group.degree})"
        self._bases = {}

    def basis(self, g: PermGroup):
        k = g.image_set
        if k not in self._bases:
            self._bases[k] = morphism_basis(self.l_group, g)
        return self._bases[k]

    def _coords(self, m: BurnsideCatMorphism, g: PermGroup):
        basis = self.basis(g)
        index = {p.key: i for i, p in enumerate(basis)}
        vec = [0] * len(basis)
        for key in m.terms:
            if key not in index:
                raise MathCheckError("composite pair missing from the enumerated basis")
            vec[index[key]] = m.terms[key][1]
        return vec

    def _as_morphism(self, g: PermGroup, vec) -> BurnsideCatMorphism:
        basis = self.basis(g)
        return BurnsideCatMorphism(
            self.l_group, g, [(p, c) for p, c in zip(basis, vec)]
        )

    def _value(self, g):
        return FreeAbelian(tuple(p.label() for p in self.basis(g)))

    def _composition_matrix(self, m: BurnsideCatMorphism, src, dst):
        """The matrix of composing with m, from the basis at src to the one at dst."""
        cols = [
            self._coords(m.compose(self._as_morphism(src, unit)), dst)
            for unit in identity_matrix(len(self.basis(src)))
        ]
        return [list(row) for row in zip(*cols)] if cols else [[] for _ in self.basis(dst)]

    def _res_matrix(self, alpha):
        star = BurnsideCatMorphism.restriction(alpha)
        return self._composition_matrix(star, alpha.target, alpha.source)

    def _tr_matrix(self, h, g):
        return self._composition_matrix(BurnsideCatMorphism.transfer(h, g), h, g)


class SectionReport:
    """A verified section of composition with the point-forgetting restriction."""

    __slots__ = ("n", "sigma", "sigma_from_splitting", "basis_size")

    def __init__(self, n, sigma, sigma_from_splitting, basis_size):
        self.n = n
        self.sigma = sigma
        self.sigma_from_splitting = sigma_from_splitting
        self.basis_size = basis_size

    def summary_lines(self):
        agree = self.sigma == self.sigma_from_splitting
        return [
            f"section of restriction at n={self.n}"
            f" (morphism basis size {self.basis_size})",
            f"solver section: {self.sigma!r}",
            f"splitting section: {self.sigma_from_splitting!r}",
            f"the two sections {'agree' if agree else 'differ'};"
            " both compose to the identity",
        ]

    def to_dict(self):
        return {
            "n": self.n,
            "basis_size": self.basis_size,
            "section": self.sigma.to_json_obj(),
            "section_from_splitting": self.sigma_from_splitting.to_json_obj(),
        }


def section_of_restriction(n: int) -> SectionReport:
    """A right inverse of i_n^* in the category, certified by composition.

    Solves the integer system over the basis of morphisms from Sym(n-1) to
    Sym(n) and reduces the solution modulo the kernel lattice so the answer
    is deterministic.  A second section is assembled from the level-by-level
    decomposition of the identity in the represented functor, which shares
    its morphism bases with the solver; both composites are checked against
    the identity morphism, exactly.  Every group it builds meets the group
    cap, and every subgroup lattice the lattice cap (`errors._cap`).
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    inc = standard_inclusion(n)
    prev, cur = inc.source, inc.target
    rep = RepresentedFunctor(prev)
    istar = BurnsideCatMorphism.restriction(inc)
    basis = rep.basis(cur)
    matrix = rep.res(inc).matrix
    ident = BurnsideCatMorphism.identity(prev)
    [x] = solve_exact(matrix, [rep._coords(ident, prev)])
    if x is None:
        raise MathCheckError("composition with the restriction morphism is not onto"
                             " the identity; this contradicts the splitting")
    x = reduce_mod_lattice(x, integer_kernel(matrix))
    sigma = BurnsideCatMorphism(prev, cur, [(p, c) for p, c in zip(basis, x)])
    if not istar.compose(sigma) == ident:
        raise MathCheckError("solver produced a non-section")

    sigma_split = _section_from_splitting(rep, cur)
    if not istar.compose(sigma_split) == ident:
        raise MathCheckError("splitting route produced a non-section")
    return SectionReport(n, sigma, sigma_split, len(basis))


def _section_from_splitting(rep: RepresentedFunctor, cur: PermGroup) -> BurnsideCatMorphism:
    """Decompose the identity one level down and push the slots back up to
    cur = Sym(n)."""
    from .splitting import _psi_sum, decompose

    prev = rep.l_group
    parts = decompose(rep, cur.degree - 1, rep._coords(BurnsideCatMorphism.identity(prev), prev))
    return rep._as_morphism(cur, _psi_sum(rep, cur.degree, parts))


def _on_second_factor(source: PermGroup, target: PermGroup, d: int, f: GroupHom) -> GroupHom:
    """id x f from source into target, products whose first factor has degree d."""
    images = []
    for x in source.generators:
        right = f.table[tuple(v - d for v in x.images[d:])]
        images.append(Perm(x.images[:d] + tuple(v + d for v in right)))
    return GroupHom(source, target, images)


def product_section(g: PermGroup, section: SectionReport) -> "ProductSectionReport":
    """Pair every term of a section with the extra factor and verify it.

    Takes the solver's sigma for i_n from `section`, forms the morphism from
    G x Sym(n-1) to G x Sym(n) with basis pairs (G x H, G x alpha), and
    checks on the Burnside functor that it is a right inverse of restriction
    along G x i_n.
    """
    from .burnside import BurnsideFunctor

    n = section.n
    inc = standard_inclusion(n)
    big_prev = product_group(g, inc.source)
    big_cur = product_group(g, inc.target)
    d = g.degree

    big_inc = _on_second_factor(big_prev, big_cur, d, inc)

    paired = BurnsideCatMorphism(big_prev, big_cur)
    for key in sorted(section.sigma.terms):
        pair, coeff = section.sigma.terms[key]
        sub = product_group(g, pair.subgroup)
        alpha = _on_second_factor(sub, big_prev, d, pair.hom)
        paired._add(canonical_pair(sub, alpha, big_cur), coeff)

    burnside = BurnsideFunctor()
    act = paired.action_on(burnside)
    composite = burnside.res(big_inc).compose(act)
    ok = composite.is_identity()
    if not ok:
        raise MathCheckError("paired section is not a right inverse of restriction")
    return ProductSectionReport(g, n, paired, True)


class ProductSectionReport:
    __slots__ = ("group", "n", "paired", "verified")

    def __init__(self, group, n, paired, verified):
        self.group = group
        self.n = n
        self.paired = paired
        self.verified = verified

    def summary_lines(self):
        name = self.group.name or f"degree-{self.group.degree} group"
        return [
            f"product section for {name} x i_{self.n}:"
            f" right inverse on the Burnside values: {'yes' if self.verified else 'NO'}",
        ]

    def to_dict(self):
        return {
            "group": self.group.name or f"degree {self.group.degree}",
            "n": self.n,
            "verified": self.verified,
            "section": self.paired.to_json_obj(),
        }
