"""Subgroup lattices of small groups, up to conjugacy.

Enumeration is by cyclic extension of class representatives (Neubüser
1960; Pfeiffer, Exp. Math. 6, 1997).  It starts from the conjugacy classes
of cyclic subgroups and extends one member H of each class found: for each
orbit of the normalizer N_G(H) on the cyclic subgroups not in H, one <c>
from that orbit gives the join <H, c>.  That suffices because
<H, c^n> = <H, c>^n for n in N_G(H), and every non-cyclic subgroup K is
<M, c> for a maximal subgroup M of K and any c in K outside M.  A join is
built one coset of H at a time (Dimino, `perms._join`), not closed again
from the identity.  Element sets are frozensets of image tuples, as in
`PermGroup.image_set`, and each class representative is built from its
set by `PermGroup.from_elements`, which wraps only its generators as `Perm`s.

A join whose element set is new starts a class; its conjugacy orbit is
computed once, then, by `perms._orbits` under conjugation by the generators
of the group.  The lattice keeps *every* subgroup of every orbit, indexed
by element set, so that stabilizers, intersections and preimages arising
later can be matched to their conjugacy class by a dictionary lookup.  A
failed lookup is a bug, not a condition to handle.
"""

from __future__ import annotations

from .errors import CapExceededError, MathCheckError, _cap
from .perms import PermGroup, _conjugator, _join, _orbits, _right_mul, left_coset_reps

_lattice_memo: dict = {}


class SubgroupClass:
    """One conjugacy class of subgroups of an ambient group."""

    __slots__ = ("representative", "index", "class_size")

    def __init__(self, representative, index, class_size):
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

    __slots__ = ("group", "classes", "_class_of", "_cosets")

    def __init__(self, group, classes, class_of):
        self.group = group
        self.classes = classes
        self._class_of = class_of
        self._cosets = [None] * len(classes)

    def cosets(self, i: int):
        """`left_coset_reps` of the group by the representative of class i,
        built once per class and shared by Burnside restriction and marks."""
        got = self._cosets[i]
        if got is None:
            got = self._cosets[i] = left_coset_reps(self.group, self.classes[i].representative)
        return got

    def class_of(self, eset: frozenset) -> int:
        """Index of the class of the subgroup whose image_set is eset."""
        try:
            return self._class_of[eset]
        except KeyError:
            raise MathCheckError(
                f"subgroup of order {len(eset)} not found in the lattice of {self.group!r};"
                " the enumeration would have to be incomplete"
            )

    def __len__(self) -> int:
        return len(self.classes)


def _cyclic_subgroups(elements):
    """Cyclic subgroups as (element set, least generator) pairs, and a map
    from each element to the index of the subgroup it generates."""
    cyclics = []
    index_of = {}
    cyclic_of = {}
    for x in elements:
        mul = _right_mul(x)
        powers = [x]
        while powers[-1] != elements[0]:  # sorted: the identity first
            powers.append(mul(powers[-1]))
        eset = frozenset(powers)
        if eset not in index_of:
            index_of[eset] = len(cyclics)
            cyclics.append((eset, x))
        cyclic_of[x] = index_of[eset]
    return cyclics, cyclic_of


def subgroup_classes(group: PermGroup) -> SubgroupLattice:
    """The subgroup lattice of `group`, conjugacy classes sorted by order
    then by a canonical key of the representative.  A group of order above
    the lattice cap (`errors._cap`) is refused, memoized or not."""
    cap = _cap("subgroup lattice order")
    if group.order > cap:
        raise CapExceededError("subgroup lattice order", cap)
    hit = _lattice_memo.get(group.image_set)
    if hit is not None:
        return hit

    degree = group.degree
    elements = sorted(group.image_set)  # the identity first
    # H -> g H g^-1 on element sets, one map per generator g
    steps = [lambda s, c=_conjugator(g.images): frozenset(map(c, s)) for g in group.generators]
    known = set()  # every subgroup found so far, as an element set
    orbits = []  # each class found, as the list of its members, in discovery order
    queue = []  # (element set, generator list) of one member per class

    def add_class(eset, sgens):
        orbit = _orbits([eset], steps)[0]
        known.update(orbit)
        orbits.append(orbit)
        queue.append((eset, sgens))

    cyclics, cyclic_of = _cyclic_subgroups(elements)
    for eset, c in cyclics:
        if eset not in known:
            add_class(eset, [c])

    conjugators = [_conjugator(g) for g in elements]
    for hset, hgens in queue:  # the queue grows while it is read
        normalizer = [conj for conj in conjugators if all(conj(h) in hset for h in hgens)]
        done = set()
        for k, (_, c) in enumerate(cyclics):
            if k in done or c in hset:
                continue
            # one cyclic subgroup per N(H)-orbit: <H, c^n> = <H, c>^n
            done.update(cyclic_of[conj(c)] for conj in normalizer)
            jgens = hgens + [c]
            jset = _join(hset, jgens, group.order)
            if jset not in known:
                add_class(jset, jgens)

    raw_classes = [(min(orbit, key=sorted), orbit) for orbit in orbits]
    raw_classes.sort(key=lambda t: (len(t[0]), sorted(t[0])))
    classes = []
    class_of = {}
    for idx, (rep, orbit) in enumerate(raw_classes):
        sub = PermGroup.from_elements(degree, rep)
        classes.append(SubgroupClass(sub, idx, len(orbit)))
        for member in orbit:
            class_of[member] = idx

    lattice = SubgroupLattice(group, tuple(classes), class_of)
    _lattice_memo[group.image_set] = lattice
    return lattice


def table_of_marks(group: PermGroup):
    """Rows/columns over subgroup classes (lattice order): entry [i][j] is the
    number of cosets of classes[i] fixed by classes[j] acting on the left.

    Lower triangular because a fixed coset forces classes[j] to be
    subconjugate to classes[i].
    """
    lat = subgroup_classes(group)
    marks = []
    for ci in lat.classes:
        coset_of, reps = lat.cosets(ci.index)
        muls = [_right_mul(r) for r in reps]  # t -> t r, t acting on the coset r H
        row = []
        for cj in lat.classes:
            gens = [t.images for t in cj.representative.generators]
            row.append(sum(all(coset_of[mul(t)] == i for t in gens) for i, mul in enumerate(muls)))
        marks.append(row)
    return lat, marks
