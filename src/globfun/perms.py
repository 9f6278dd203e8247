"""Permutations of {1..n}, finite permutation groups, and group homomorphisms.

Everything downstream (Burnside rings, character tables, the Burnside
category) sits on the three classes here.  A group is enumerated in full,
as the set of its elements' image tuples: the groups in scope are small
symmetric/alternating groups and their subgroups, and total enumeration
keeps every later computation exact and deterministic.  Its sorted `Perm`
elements are built from that set only when first read.

Conventions, fixed once and used everywhere:

* permutations act on the left, (p * q)(x) = p(q(x));
* conjugation is conj(p, g) = g p g^-1, and H^g means g H g^-1;
* "least" always means lexicographically least image tuple.

Kernel convention: plain 1-based image tuples are the only element type
that passes between modules.  `from_elements` takes them, a homomorphism's
`table` maps them, and closure, the homomorphism pass, conjugacy classes,
cosets, normalizers and centralizers run on them.  `Perm` objects are built
only at the API edge: parsing and printing, `generators`, `gen_images`, the
`elements` view, `conjugacy_classes` and `double_cosets`.  x -> x * p is one
cached getter, `_right_mul(p)`, as (x * p)(i) = x(p(i)); y -> g y g^-1 is
one callable, `_conjugator(g)`.  Every orbit of a group action (points,
conjugacy classes, double cosets, the conjugates of a subgroup, Burnside
restriction) is one call of `_orbits` with one map per generator; left
cosets are acted on through their least member (`_coset_moves`).  The
cycles of a permutation are the orbits of the group it generates, so
`_cycles` is `_orbits` with one map too.

Closure is one algorithm, Dimino's coset join `_join` (Butler, Fundamental
Algorithms for Permutation Groups, ch. 7): `close_generators`, the
generating set of `from_elements` and the subgroup lattice's joins all
grow a group one right coset at a time.

Identity: a group is its `image_set`, the frozenset of its elements' image
tuples, which equality, hashing and every memo key read.  One `image_set`
is shared per generating set: `close_generators` memoizes its result on the
degree and the generators' image tuples, so each generating set is closed
once per process, and a memo key holding that set hashes it once and is
matched by identity.  A homomorphism is its `table`, image tuple -> image
tuple.  It has one constructor, `GroupHom(source, target, images)` on the
images of the source's generators, and its Cayley pass is the one
homomorphism check; structural maps (i_n, block projections, the terminal
map) are built the same way.  That pass runs once per `key()` and process:
a key that passed it is remembered, not its table, and a later hom on the
same key builds its table only when something first reads it.
"""

from __future__ import annotations

import re
from itertools import combinations, product
from math import lcm
from operator import itemgetter

from .errors import (
    CapExceededError,
    InvalidPermutationError,
    MathCheckError,
    NotAHomomorphismError,
    NotASubgroupError,
    UsageError,
    _cap,
    _read_int,
)

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Perm:
    """A permutation of {1..degree}, stored as the tuple of images."""

    __slots__ = ("degree", "images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InvalidPermutationError(f"not a bijection of 1..{n}: {images}")
        self.degree = n
        self.images = images
        self._hash = hash(images)

    @staticmethod
    def _from_images(images: tuple) -> "Perm":
        """A Perm on an image tuple already known to be a bijection."""
        out = Perm.__new__(Perm)
        out.degree = len(images)
        out.images = images
        out._hash = hash(images)
        return out

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(range(1, degree + 1))

    @staticmethod
    def from_cycles(degree: int, cycles) -> "Perm":
        images = list(range(1, degree + 1))
        used = set()
        for cyc in cycles:
            cyc = list(cyc)
            if len(set(cyc)) != len(cyc):
                raise InvalidPermutationError(f"repeated point in cycle {cyc}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= degree:
                    raise InvalidPermutationError(f"point {a} outside 1..{degree}")
                if a in used:
                    raise InvalidPermutationError(f"point {a} in two cycles")
                used.add(a)
                images[a - 1] = b
        return Perm(images)

    @staticmethod
    def parse(text: str, degree: int) -> "Perm":
        """Parse cycle notation like "(1 2)(3 4)"; "()" is the identity."""
        text = text.strip()
        if text in ("()", ""):
            return Perm.identity(degree)
        body = text.replace(",", " ")
        chunks = _CYCLE_RE.findall(body)
        if not chunks or _CYCLE_RE.sub("", body).strip():
            raise InvalidPermutationError(f"bad cycle notation: {text!r}")
        cycles = []
        for chunk in chunks:
            if not chunk.strip():
                continue
            try:
                cycles.append([_read_int(tok) for tok in chunk.split()])
            except ValueError:
                raise InvalidPermutationError(f"bad cycle notation: {text!r}")
        return Perm.from_cycles(degree, cycles)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise UsageError(f"point {point} outside 1..{self.degree}")
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(x) = p(q(x)); inlined for speed
        if other.degree != self.degree:
            raise UsageError(f"cannot multiply degrees {self.degree} and {other.degree}")
        imgs = self.images
        out = Perm.__new__(Perm)
        out.degree = self.degree
        out.images = tuple(imgs[j - 1] for j in other.images)
        out._hash = hash(out.images)
        return out

    def inverse(self) -> "Perm":
        return Perm._from_images(_inverse(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        return [tuple(c) for c in _cycles(self.images) if len(c) > 1]

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, descending; a partition of degree."""
        return tuple(sorted(map(len, _cycles(self.images)), reverse=True))

    def is_even(self) -> bool:
        return (self.degree - len(_cycles(self.images))) % 2 == 0

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(self.degree))

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Perm[{self}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return self._hash


def _right_mul(p: tuple):
    """x -> x * p on image tuples, as (x * p)(i) = x(p(i)).  Below degree 2,
    p is the identity, and itemgetter needs two indices to return a tuple."""
    if len(p) < 2:
        return tuple
    return itemgetter(*[j - 1 for j in p])


def _inverse(p: tuple) -> tuple:
    """The inverse image tuple: i -> the 1-based position of i in p."""
    return tuple(map(((0,) + p).index, range(1, len(p) + 1)))


def _conjugator(g: tuple):
    """y -> g y g^-1 on image tuples: y g^-1 by one getter, then g on each value."""
    lift, mul = ((0,) + g).__getitem__, _right_mul(_inverse(g))
    return lambda y: tuple(map(lift, mul(y)))


def _orbits(points, moves):
    """The orbits of the maps `moves` (one per generator of a finite group)
    on `points`, ordered by first point; each lists its first point first
    and the rest breadth-first."""
    seen = set()
    out = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:  # grows while it is read: breadth-first order
            for move in moves:
                y = move(x)
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        out.append(orbit)
    return out


def _cycles(p: tuple, points=None) -> list[list[int]]:
    """The cycles of the image tuple p through `points` (all of 1..len(p) by
    default), ordered by first point, each read from that point on: the
    orbits of <p>."""
    if points is None:
        points = range(1, len(p) + 1)
    return _orbits(points, [((0,) + p).__getitem__])


def _join(hset, gens, bound):
    """Element set of <gens> from that of H = <gens[:-1]>, one right coset
    H y at a time (Dimino): a coset representative times a generator outside
    the known elements brings in a whole new coset.  Stops past `bound`."""
    found = set(hset)
    muls = [_right_mul(s) for s in gens]
    reps = [tuple(range(1, len(gens[0]) + 1))]
    for x in reps:  # reps grows while it is read
        for mul in muls:
            y = mul(x)
            if y not in found:
                found.update(map(_right_mul(y), hset))
                if len(found) > bound:
                    raise CapExceededError("group order", bound)
                reps.append(y)
    return frozenset(found)


# (degree, generator image tuples) -> the frozenset close_generators built
_closure_memo: dict = {}


def close_generators(degree, generators):
    """The frozenset of image tuples of the group the generators generate.

    Folds `_join` over the generators, skipping any already in the group,
    so the group grows one coset at a time.  Raises CapExceededError once
    more elements are found than the group cap allows.  The set is memoized
    on the degree and the generators' image tuples, so every group on the
    same generators shares one `image_set`; a hit checks the cap read now,
    so a refusal never depends on what was closed before.
    """
    gens = list(generators)
    for g in gens:
        if g.degree != degree:
            raise UsageError(f"generator degree {g.degree} != {degree}")
    cap = _cap("group order")
    key = (degree, tuple(g.images for g in gens))
    found = _closure_memo.get(key)
    if found is None:
        found, joined = frozenset([tuple(range(1, degree + 1))]), []
        for g in gens:
            if g.images not in found:
                joined.append(g.images)
                found = _join(found, joined, cap)
        _closure_memo[key] = found
    elif len(found) > cap:
        raise CapExceededError("group order", cap)
    return found


class PermGroup:
    """A permutation group on {1..degree}, kept as the set of its elements'
    image tuples; `elements` wraps them as sorted `Perm`s on first read."""

    __slots__ = (
        "degree",
        "generators",
        "_elements",
        "image_set",
        "order",
        "name",
        "_classes",
        "_class_index",
        "_orbits",
    )

    def __init__(self, degree, generators, name=""):
        self.degree = degree
        self.generators = tuple(generators)
        self.image_set = close_generators(degree, self.generators)
        self.order = len(self.image_set)
        self.name = name
        self._elements = self._classes = self._class_index = self._orbits = None

    @staticmethod
    def from_elements(degree, images, name="") -> "PermGroup":
        """Build a group from the image tuples of a set already known to be closed.

        Closure is the caller's responsibility (intersections, preimages and
        point stabilizers of subgroups are closed by construction); degrees,
        bijections, inverses and the identity are cheap to check, so they
        are.  As with `__init__`, the `Perm` elements are built only when
        first read.
        """
        tset = frozenset(images)
        elems = sorted(tset)
        for x in elems:
            if len(x) != degree:
                raise UsageError(f"element degree {len(x)} != {degree}")
        for x in elems:
            try:
                inv = _inverse(x)  # finds each of 1..degree in x, or fails
            except ValueError:
                raise InvalidPermutationError(f"not a bijection of 1..{degree}: {x}")
            if inv not in tset:
                raise NotASubgroupError(f"inverse of {Perm._from_images(x)} missing")
        if tuple(range(1, degree + 1)) not in tset:
            raise NotASubgroupError("identity missing")
        g = PermGroup.__new__(PermGroup)
        g.degree = degree
        g.image_set = tset
        g.order = len(tset)
        g.name = name
        g.generators = tuple(map(Perm._from_images, _small_generating_set(degree, elems)))
        g._elements = g._classes = g._class_index = g._orbits = None
        return g

    @property
    def elements(self) -> tuple[Perm, ...]:
        """The elements, sorted, each wrapping one tuple of `image_set`."""
        if self._elements is None:
            self._elements = tuple(map(Perm._from_images, sorted(self.image_set)))
        return self._elements

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def __contains__(self, p: Perm) -> bool:
        return p.images in self.image_set

    def __le__(self, other: "PermGroup") -> bool:
        """Subgroup test; image tuples carry the degree."""
        return self.image_set <= other.image_set

    def __eq__(self, other) -> bool:
        return isinstance(other, PermGroup) and self.image_set == other.image_set

    def __hash__(self) -> int:
        return hash(self.image_set)

    def __repr__(self) -> str:
        label = self.name or f"order {self.order}"
        return f"PermGroup(deg {self.degree}, {label})"

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits on {1..degree}, each sorted, ordered by least point."""
        if self._orbits is None:
            orbs = _orbits(range(1, self.degree + 1), self.generators)
            self._orbits = tuple(tuple(sorted(orb)) for orb in orbs)
        return self._orbits

    def conjugacy_classes(self) -> tuple[tuple[Perm, ...], ...]:
        """Conjugacy classes, each sorted; classes ordered by least member.

        The least member of each class is its representative.
        """
        if self._classes is not None:
            return self._classes
        own = {x.images: x for x in self.elements}  # sorted, so reps come out least-first
        orbs = _orbits(own, [_conjugator(g.images) for g in self.generators])
        classes = [tuple(own[z] for z in sorted(orb)) for orb in orbs]
        self._classes = tuple(classes)
        self._class_index = {x: i for i, cls in enumerate(classes) for x in cls}
        return self._classes

    def class_index(self) -> dict[Perm, int]:
        """Element -> index into conjugacy_classes()."""
        if self._class_index is None:
            self.conjugacy_classes()
        return self._class_index

    def class_representatives(self) -> tuple[Perm, ...]:
        return tuple(cls[0] for cls in self.conjugacy_classes())


def _small_generating_set(degree, sorted_elems):
    """Greedy generating set of sorted image tuples: adjoin the least one not
    yet generated, by Dimino joins."""
    gens = []
    have = {tuple(range(1, degree + 1))}
    for x in sorted_elems:
        if x in have:
            continue
        gens.append(x)
        have = _join(have, gens, len(sorted_elems))
        if len(have) == len(sorted_elems):
            break
    return gens


# ---------------------------------------------------------------------------
# standard groups


def _check_order_factors(factors, *whats):
    """Raise CapExceededError for the first cap on `whats` that the running
    product of `factors` passes, one factor at a time, so that a huge order
    is refused after a few steps and before any element is built."""
    caps = {what: _cap(what) for what in whats}
    order = 1
    for k in factors:
        order *= k
        for what, cap in caps.items():
            if order > cap:
                raise CapExceededError(what, cap)


def symmetric_group(n: int) -> PermGroup:
    """Sym(n) on {1..n}, once n! meets the group cap; n = 0 and n = 1 are
    both the trivial group on one point."""
    if n < 0:
        raise UsageError("n must be >= 0")
    _check_order_factors(range(2, n + 1), "group order")
    if n <= 1:
        return PermGroup(1, [], name=f"S{max(n, 1)}")
    # the long cycle (1 2 ... n) first, as the join is cheapest when its first
    # subgroup is largest, then (1 2); both are bijections by construction
    gens = [Perm._from_images(tuple(range(2, n + 1)) + (1,))]
    if n > 2:
        gens.append(Perm._from_images((2, 1) + tuple(range(3, n + 1))))
    return PermGroup(n, gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    """Alt(n) on {1..n}, once n!/2 meets the group cap; trivial for n <= 2."""
    if n < 0:
        raise UsageError("n must be >= 0")
    _check_order_factors(range(3, n + 1), "group order")
    if n <= 2:
        return PermGroup(max(n, 1), [], name=f"A{max(n, 1)}")
    # the longest odd cycle first, as in symmetric_group: on 1..n or on 2..n
    gens = [Perm.from_cycles(n, [tuple(range(2 - n % 2, n + 1))])]
    if n > 3:
        gens.append(Perm.from_cycles(n, [(1, 2, 3)]))
    return PermGroup(n, gens, name=f"A{n}")


def young_subgroup(degree: int, blocks, name: str | None = None) -> PermGroup:
    """Product of full symmetric groups on disjoint blocks; other points fixed.

    Without a name, the group is named after its nontrivial blocks.  The
    order, the product of the block factorials, meets the group cap first.
    """
    blocks = list(blocks)
    _check_order_factors((k for b in blocks for k in range(2, len(b) + 1)), "group order")
    blocks = [tuple(sorted(b)) for b in blocks if len(b) > 0]
    used = set()
    for b in blocks:
        for pt in b:
            if not 1 <= pt <= degree:
                raise UsageError(f"point {pt} outside 1..{degree}")
            if pt in used:
                raise UsageError(f"point {pt} in two blocks")
            used.add(pt)
    gens = []
    for b in blocks:
        for a, c in zip(b, b[1:]):
            gens.append(Perm.from_cycles(degree, [(a, c)]))
    if name is None:
        name = "x".join(f"S({','.join(map(str, b))})" for b in blocks if len(b) > 1) or "e"
    return PermGroup(degree, gens, name=name)


def young_two_block(n: int, k: int, name: str | None = None) -> PermGroup:
    """The subgroup of Sym(n) preserving {1..k} and {k+1..n}."""
    if not 0 <= k <= n:
        raise UsageError(f"need 0 <= k <= n, got k={k}, n={n}")
    return young_subgroup(n, [range(1, k + 1), range(k + 1, n + 1)], name)


def product_group(a: PermGroup, b: PermGroup) -> PermGroup:
    """A x B on degree a.degree + b.degree, B shifted past A."""
    d = a.degree + b.degree
    shift = a.degree
    gens = [Perm(g.images + tuple(range(shift + 1, d + 1))) for g in a.generators]
    gens += [
        Perm(tuple(range(1, shift + 1)) + tuple(i + shift for i in g.images))
        for g in b.generators
    ]
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return PermGroup(d, gens, name=name)


# sizes are ASCII digits: \d would also match the digits of other scripts
_GROUP_SPEC_RE = re.compile(
    r"^(?:S(?P<sn>[0-9]+)|A(?P<an>[0-9]+)|S(?P<pk>[0-9]+)xS(?P<pl>[0-9]+)"
    r"|Y(?P<yk>[0-9]+),(?P<yl>[0-9]+))$"
)


def _read_group_spec(spec: str):
    """The family ("S", "A", or "Y" for both S<k>xS<l> and Y<k>,<l>) and the
    sizes of a group spec.  A size with more digits than the group cap is
    past it, as is the order the spec names; it is refused before int()."""
    m = _GROUP_SPEC_RE.match(spec.strip())
    if not m:
        raise UsageError(f"cannot parse group spec {spec!r}")
    sizes = [v for v in m.groups() if v is not None]
    cap = _cap("group order")
    if any(len(v.lstrip("0")) > len(str(cap)) for v in sizes):
        raise CapExceededError("group order", cap)
    return ("S" if m["sn"] else "A" if m["an"] else "Y"), [int(v) for v in sizes]


def parse_group_spec(spec: str) -> PermGroup:
    """Build a group from the mini-language: S<n>, A<n>, S<k>xS<l>, Y<k>,<l>.

    S<k>xS<l> and Y<k>,<l> both give the block subgroup of Sym(k+l)
    preserving {1..k} and {k+1..k+l}; that subgroup is the concrete
    realization of the product used throughout.  Each constructor checks
    the order the spec names (n!, n!/2 or k!l!) against the group cap
    before it builds any element.
    """
    family, sizes = _read_group_spec(spec)
    if family == "Y":
        k, l = sizes
        return young_two_block(k + l, k, name=f"S{k}xS{l}")
    return (symmetric_group if family == "S" else alternating_group)(sizes[0])


def trivial_subgroup(g: PermGroup) -> PermGroup:
    return PermGroup.from_elements(g.degree, [tuple(range(1, g.degree + 1))], name="e")


# ---------------------------------------------------------------------------
# homomorphisms


# GroupHom.key() tuples whose Cayley pass succeeded in this process
_checked_homs: set = set()


class GroupHom:
    """A homomorphism between enumerated groups, given by generator images.

    Its total map is `table`, built and checked by `_hom_table` (`all_homs`
    passes in one it built): restriction matrices, images and preimages all
    read it.  The Cayley pass runs once per `key()` and process; a hom on a
    key that already passed builds its table when `table` is first read.
    """

    __slots__ = ("source", "target", "gen_images", "_table")

    def __init__(self, source: PermGroup, target: PermGroup, images, _table=None):
        if _table is None:
            if len(images) != len(source.generators):
                raise UsageError("one image per generator required")
            for v in images:
                if v not in target:
                    raise NotAHomomorphismError(f"image {v} outside target")
        self.source = source
        self.target = target
        self.gen_images = tuple(images)
        if _table is None:
            key = self.key()
            if key not in _checked_homs:
                _table = _hom_table(source, target, images, strict=True)
                _checked_homs.add(key)
        self._table = _table

    @property
    def table(self) -> dict:
        """Source image tuple -> target image tuple, built on first read."""
        if self._table is None:
            self._table = _hom_table(self.source, self.target, self.gen_images)
            if self._table is None:
                raise MathCheckError(f"{self!r} passed its homomorphism check once, not now")
        return self._table

    @staticmethod
    def identity(g: PermGroup) -> "GroupHom":
        return GroupHom(g, g, g.generators)

    @staticmethod
    def inclusion(h: PermGroup, g: PermGroup) -> "GroupHom":
        if not h <= g:
            raise NotASubgroupError(f"{h} is not a subgroup of {g}")
        return GroupHom(h, g, h.generators)

    @staticmethod
    def conjugation(source, target, g: Perm) -> "GroupHom":
        """x |-> g x g^-1 from source into target."""
        if g.degree != source.degree:
            raise UsageError(f"cannot multiply degrees {g.degree} and {source.degree}")
        conj = _conjugator(g.images)
        images = [Perm._from_images(conj(x.images)) for x in source.generators]
        return GroupHom(source, target, images)

    def __call__(self, x: Perm) -> Perm:
        return Perm._from_images(self.table[x.images])

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.target != self.source:
            raise UsageError("homs not composable")
        return GroupHom(inner.source, self.target, [self(y) for y in inner.gen_images])

    def image(self) -> PermGroup:
        return PermGroup.from_elements(self.target.degree, self.table.values())

    def preimage(self, hbar: PermGroup) -> PermGroup:
        """Preimage of a subgroup of the target."""
        if not hbar <= self.target:
            raise NotASubgroupError("preimage target is not a subgroup")
        want = hbar.image_set
        return PermGroup.from_elements(
            self.source.degree, [x for x, v in self.table.items() if v in want]
        )

    def is_surjective_onto_target(self) -> bool:
        return len(set(self.table.values())) == self.target.order

    def key(self):
        """Memoization key: a hom is determined by its generator images."""
        return (
            self.source.image_set,
            self.target.image_set,
            tuple(g.images for g in self.source.generators),
            tuple(v.images for v in self.gen_images),
        )

    def __repr__(self) -> str:
        return f"GroupHom({self.source!r} -> {self.target!r})"


def restrict_to_block(g: PermGroup, block) -> GroupHom:
    """Projection of a block-preserving group onto its action on one block.

    The block is relabelled 1..len(block) in increasing order, so the target
    is a group of degree len(block).
    """
    block = tuple(sorted(block))
    if not block:
        raise UsageError("empty block")
    for pt in block:
        if not 1 <= pt <= g.degree:
            raise UsageError(f"point {pt} outside 1..{g.degree}")
    pos = {pt: i + 1 for i, pt in enumerate(block)}
    if any(x(pt) not in pos for x in g.generators for pt in block):
        raise UsageError(f"group does not preserve block {block}")
    # the target's generators are the images of g's, so they are the hom's images
    target = PermGroup(len(block), [Perm([pos[x(pt)] for pt in block]) for x in g.generators])
    return GroupHom(g, target, target.generators)


def standard_inclusion(n: int) -> GroupHom:
    """i_n: Sym(n-1) -> Sym(n), adjoining n as a fixed point.

    For n = 1 this is the identity of the trivial group (degree-1 groups on
    both sides).
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    src, tgt = symmetric_group(n - 1), symmetric_group(n)
    tail = tuple(range(src.degree + 1, n + 1))
    return GroupHom(src, tgt, [Perm._from_images(x.images + tail) for x in src.generators])


def all_homs(source: PermGroup, target: PermGroup) -> list[GroupHom]:
    """Every homomorphism source -> target, by brute force over generator images.

    A generator's candidates are the target elements whose order divides its
    order.  Each candidate list is sorted, so their product, and the result,
    is sorted by the tuple of generator images.
    """
    orders = [(v, _element_order(v)) for v in target.elements]
    cands = [[v for v, k in orders if m % k == 0] for m in map(_element_order, source.generators)]
    out = []
    for images in product(*cands):
        table = _hom_table(source, target, images)
        if table is not None:
            out.append(GroupHom(source, target, images, table))
    return out


def _hom_table(source: PermGroup, target: PermGroup, images, strict=False):
    """The map from the source's `image_set` tuples (no source `Perm` is
    built) to one shared value tuple per distinct image, of the
    homomorphism sending the generators to `images`; None when there is
    none, or with `strict` NotAHomomorphismError naming the failing edge.

    The images are extended over the Cayley graph in one breadth-first pass
    on image tuples.  Every edge x -> x g is checked against
    f(x g) = f(x) f(g), which forces full multiplicativity by induction on
    word length, so that pass is also the homomorphism check.
    """
    edges = [(g, _right_mul(g.images), _right_mul(fg.images))
             for g, fg in zip(source.generators, images)]
    ident = tuple(range(1, source.degree + 1))
    tmap = {ident: tuple(range(1, target.degree + 1))}
    queue = [ident]
    for x in queue:  # grows while it is read: breadth-first order
        fx = tmap[x]
        for g, mul, fmul in edges:
            y = mul(x)
            fy = fmul(fx)
            old = tmap.get(y)
            if old is None:
                tmap[y] = fy
                queue.append(y)
            elif old != fy:
                if strict:
                    raise NotAHomomorphismError(f"fails at {Perm._from_images(x)} * {g}")
                return None
    values = {t: t for t in tmap.values()}  # one shared tuple per distinct image
    return {x: values[tmap[x]] for x in source.image_set}


def _element_order(p: Perm) -> int:
    return lcm(*map(len, _cycles(p.images)))


# ---------------------------------------------------------------------------
# conjugacy, cosets, fusion


def centralizer(g: PermGroup, x: Perm) -> PermGroup:
    if x.degree != g.degree:
        raise UsageError(f"cannot multiply degrees {g.degree} and {x.degree}")
    xi = x.images
    return PermGroup.from_elements(g.degree, [y for y in g.image_set if _conjugator(y)(xi) == xi])


def normalizer(g: PermGroup, h: PermGroup) -> PermGroup:
    if not h <= g:
        raise NotASubgroupError("normalizer needs h <= g")
    hset, gens = h.image_set, [t.images for t in h.generators]
    out = [y for y in g.image_set if hset.issuperset(map(_conjugator(y), gens))]
    return PermGroup.from_elements(g.degree, out)


def weyl_order(g: PermGroup, h: PermGroup) -> int:
    """|N_G(H) / H|."""
    return normalizer(g, h).order // h.order


def conjugate_subgroup(h: PermGroup, g: Perm) -> PermGroup:
    if g.degree != h.degree:
        raise UsageError(f"cannot multiply degrees {g.degree} and {h.degree}")
    return PermGroup.from_elements(h.degree, map(_conjugator(g.images), h.image_set))


def intersection(a: PermGroup, b: PermGroup) -> PermGroup:
    if a.degree != b.degree:
        raise UsageError("intersection needs equal degrees")
    return PermGroup.from_elements(a.degree, a.image_set & b.image_set)


def left_coset_reps(g: PermGroup, h: PermGroup) -> tuple[dict, list[tuple]]:
    """The left cosets xH on image tuples: a map from each element of g to the
    index of its coset, and the sorted list of each coset's least member."""
    if not h <= g:
        raise NotASubgroupError("cosets need h <= g")
    muls = [_right_mul(t) for t in h.image_set]
    elements = sorted(g.image_set)
    # keyed by g's own tuples: an update keeps the key already present, so
    # the products below are dropped and a kept map holds no copies
    coset_of = dict.fromkeys(elements)
    reps = []
    for x in elements:  # so an unseen x is least in xH
        if coset_of[x] is None:
            coset_of.update(dict.fromkeys([mul(x) for mul in muls], len(reps)))
            reps.append(x)
    return coset_of, reps


def _coset_moves(coset_of, reps, gens):
    """For each t in gens, the map r -> least member of the coset t r H, on
    the least members r of the left cosets `left_coset_reps` returns."""
    return [
        lambda r, lift=((0,) + t).__getitem__: reps[coset_of[tuple(map(lift, r))]]
        for t in gens
    ]


def double_cosets(g: PermGroup, h: PermGroup, k: PermGroup) -> list[Perm]:
    """Representatives of H\\G/K, each the least element of its double coset.

    Sorted; the number of returned reps is the number of double cosets.
    """
    if not (h <= g and k <= g):
        raise NotASubgroupError("double cosets need h, k <= g")
    coset_of, reps = left_coset_reps(g, k)
    # H acts on the left cosets xK; each H-orbit is one double coset, and
    # reps are sorted, so an orbit's first point is its least element.
    moves = _coset_moves(coset_of, reps, [t.images for t in h.generators])
    return [Perm._from_images(orbit[0]) for orbit in _orbits(reps, moves)]


def fused_pairs(h: PermGroup, g: PermGroup) -> list[tuple[Perm, Perm]]:
    """Pairs of H-class representatives that are not H-conjugate but are G-conjugate.

    Each pair is (a, b) with a < b; the list is sorted.
    """
    if not h <= g:
        raise NotASubgroupError("fusion needs h <= g")
    return _pairs_sharing_key(h.class_representatives(), g.class_index().__getitem__)


def _pairs_sharing_key(reps, key) -> list[tuple[Perm, Perm]]:
    """The sorted pairs (a, b), a < b, of members of `reps` with equal `key`."""
    by_key: dict = {}
    for rep in reps:
        by_key.setdefault(key(rep), []).append(rep)
    return sorted(pair for group in by_key.values() for pair in combinations(sorted(group), 2))
