"""Subgroup lattices of small groups, up to conjugacy.

Enumeration is by layered closure: every cyclic subgroup, then joins of
already-found subgroups with cyclic ones until nothing new appears.  Every
subgroup is generated by finitely many cyclic subgroups, so adjoining one
cyclic generator at a time reaches all of them.  Each subgroup found keeps
the generator list it was reached by, so a join is one closure of that list
plus the new generator.

The lattice keeps *every* subgroup it saw, indexed by element set, so that
stabilizers, intersections and preimages arising later can be matched to
their conjugacy class by a dictionary lookup.  A failed lookup is a bug, not
a condition to handle.
"""

from __future__ import annotations

from .errors import CapExceededError, MathCheckError, NotASubgroupError
from .perms import PermGroup, close_generators, left_coset_reps

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

    # layer 0: cyclic subgroups (deduplicated by element set)
    cyclics = {}
    for x in group.elements:
        powers = [x]
        y = x
        while not y.is_identity():
            y = y * x
            powers.append(y)
        eset = frozenset(powers)
        if eset not in cyclics:
            cyclics[eset] = x
    # every subgroup found, mapped to a generating list
    gens_of = {cset: [cgen] for cset, cgen in cyclics.items()}

    # layers: join each known subgroup with each cyclic subgroup
    frontier = set(gens_of)
    full = group.element_set
    while frontier:
        new = set()
        for hset in frontier:
            if hset == full:
                continue
            for cset, cgen in cyclics.items():
                if cset <= hset:
                    continue
                gens = gens_of[hset] + [cgen]
                j = frozenset(close_generators(degree, gens, group.order))
                if j not in gens_of:
                    gens_of[j] = gens
                    new.add(j)
        frontier = new

    # conjugacy classes of subgroups, orbit by generator conjugation
    gens = group.generators
    seen = set()
    raw_classes = []
    for hset in sorted(gens_of, key=lambda s: (len(s), _canonical_subgroup_key(s))):
        if hset in seen:
            continue
        orbit = {hset}
        stack = [hset]
        while stack:
            cur = stack.pop()
            for g in gens:
                ginv = g.inverse()
                img = frozenset(g * x * ginv for x in cur)
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
        seen |= orbit
        rep = min(orbit, key=_canonical_subgroup_key)
        raw_classes.append((rep, orbit))

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
