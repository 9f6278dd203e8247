"""Subgroup lattices of small groups, up to conjugacy.

Enumeration is by cyclic extension of class representatives (Neubüser
1960; Pfeiffer, Exp. Math. 6, 1997).  It starts from the conjugacy classes
of cyclic subgroups and extends one member H of each class found: for each
orbit of the normalizer N_G(H) on the cyclic subgroups not in H, one <c>
from that orbit gives the join <H, c>.  That suffices because
<H, c^n> = <H, c>^n for n in N_G(H), and every non-cyclic subgroup K is
<M, c> for a maximal subgroup M of K and any c in K outside M.  A join is
built one coset of H at a time from H's element list (Dimino), not closed
again from the identity.

A join whose element set is new starts a class; its conjugacy orbit is
computed once, then, by conjugating with the generators of the group.  The
lattice keeps *every* subgroup of every orbit, indexed by element set, so
that stabilizers, intersections and preimages arising later can be matched
to their conjugacy class by a dictionary lookup.  A failed lookup is a bug,
not a condition to handle.
"""

from __future__ import annotations

from .errors import CapExceededError, MathCheckError, NotASubgroupError
from .perms import Perm, PermGroup, left_coset_reps

DEFAULT_MAX_LATTICE_ORDER = 1000

_lattice_memo: dict = {}


class SubgroupClass:
    """One conjugacy class of subgroups of an ambient group."""

    __slots__ = ("ambient", "representative", "index", "class_size")

    def __init__(self, ambient, representative, index, class_size):
        self.ambient = ambient
        self.representative = representative
        self.index = index
        self.class_size = class_size

    @property
    def order(self) -> int:
        return self.representative.order

    def label(self) -> str:
        gens = self.representative.generators
        body = ",".join(str(g) for g in gens) if gens else "()"
        return f"<{body}>"

    def __repr__(self) -> str:
        return f"SubgroupClass(#{self.index}, order {self.order})"


class SubgroupLattice:
    """All subgroups of a group, grouped into conjugacy classes."""

    __slots__ = ("group", "classes", "_class_of")

    def __init__(self, group, classes, class_of):
        self.group = group
        self.classes = classes
        self._class_of = class_of

    def class_of(self, h: PermGroup) -> int:
        """Index of the class containing the subgroup h."""
        try:
            return self._class_of[h.element_set]
        except KeyError:
            raise MathCheckError(
                f"subgroup of order {h.order} not found in the lattice of {self.group!r};"
                " the enumeration would have to be incomplete"
            )

    def __len__(self) -> int:
        return len(self.classes)


def _canonical_subgroup_key(eset):
    return tuple(sorted(p.images for p in eset))


def _cyclic_subgroups(group):
    """Cyclic subgroups as (element set, least generator) pairs, and a map
    from each element to the index of the subgroup it generates."""
    cyclics = []
    index_of = {}
    cyclic_of = {}
    for x in group.elements:
        powers = [x]
        y = x
        while not y.is_identity():
            y = y * x
            powers.append(y)
        eset = frozenset(powers)
        if eset not in index_of:
            index_of[eset] = len(cyclics)
            cyclics.append((eset, x))
        cyclic_of[x] = index_of[eset]
    return cyclics, cyclic_of


def _extend(hset, gens):
    """Element set of <gens>, given the element set of the subgroup H
    generated by all of `gens` but the last (Dimino's algorithm).

    The join is built one right coset H x at a time: a coset representative
    times a generator that lands outside the known elements brings in a
    whole new coset.
    """
    found = set(hset)
    reps = [Perm.identity(gens[0].degree)]
    for x in reps:  # reps grows while it is read
        for s in gens:
            y = x * s
            if y not in found:
                found.update(h * y for h in hset)
                reps.append(y)
    return frozenset(found)


def _conjugacy_orbit(eset, gens):
    """All conjugates of a subgroup, by conjugation with (g, g^-1) pairs."""
    orbit = {eset}
    stack = [eset]
    while stack:
        cur = stack.pop()
        for g, ginv in gens:
            img = frozenset(g * x * ginv for x in cur)
            if img not in orbit:
                orbit.add(img)
                stack.append(img)
    return orbit


def subgroup_classes(group: PermGroup, cap: int = DEFAULT_MAX_LATTICE_ORDER) -> SubgroupLattice:
    """The subgroup lattice of `group`, conjugacy classes sorted by order
    then by a canonical key of the representative."""
    if group.order > cap:
        raise CapExceededError("subgroup lattice order", cap)
    memo_key = group.key()
    hit = _lattice_memo.get(memo_key)
    if hit is not None:
        return hit

    degree = group.degree
    gens = [(g, g.inverse()) for g in group.generators]
    known = set()  # every subgroup found so far, as an element set
    orbits = []  # each class found, as the set of its members, in discovery order
    queue = []  # (element set, generator list) of one member per class

    def add_class(eset, sgens):
        orbit = _conjugacy_orbit(eset, gens)
        known.update(orbit)
        orbits.append(orbit)
        queue.append((eset, sgens))

    cyclics, cyclic_of = _cyclic_subgroups(group)
    for eset, c in cyclics:
        if eset not in known:
            add_class(eset, [c])

    inverse = {x: x.inverse() for x in group.elements}
    for hset, hgens in queue:  # the queue grows while it is read
        normalizer = [
            (g, inverse[g])
            for g in group.elements
            if all(g * h * inverse[g] in hset for h in hgens)
        ]
        done = set()
        for k, (_, c) in enumerate(cyclics):
            if k in done or c in hset:
                continue
            # one cyclic subgroup per N(H)-orbit: <H, c^n> = <H, c>^n
            done.update(cyclic_of[n * c * ninv] for n, ninv in normalizer)
            jgens = hgens + [c]
            jset = _extend(hset, jgens)
            if jset not in known:
                add_class(jset, jgens)

    raw_classes = [(min(orbit, key=_canonical_subgroup_key), orbit) for orbit in orbits]
    raw_classes.sort(key=lambda t: (len(t[0]), _canonical_subgroup_key(t[0])))
    classes = []
    class_of = {}
    for idx, (rep, orbit) in enumerate(raw_classes):
        sub = PermGroup.from_elements(degree, rep)
        classes.append(SubgroupClass(group, sub, idx, len(orbit)))
        for member in orbit:
            class_of[member] = idx

    lattice = SubgroupLattice(group, tuple(classes), class_of)
    _lattice_memo[memo_key] = lattice
    return lattice


def table_of_marks(group: PermGroup, cap: int = DEFAULT_MAX_LATTICE_ORDER):
    """Rows/columns over subgroup classes (lattice order): entry [i][j] is the
    number of cosets of classes[i] fixed by classes[j] acting on the left.

    Lower triangular because a fixed coset forces classes[j] to be
    subconjugate to classes[i].
    """
    lat = subgroup_classes(group, cap)
    marks = []
    for ci in lat.classes:
        rep_of, reps = left_coset_reps(group, ci.representative)
        row = []
        for cj in lat.classes:
            fixed = 0
            for r in reps:
                if all(rep_of[t * r] == r for t in cj.representative.generators):
                    fixed += 1
            row.append(fixed)
        marks.append(row)
    return lat, marks
