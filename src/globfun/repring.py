"""The complex representation ring functor on symmetric-type groups.

Values are free abelian on irreducible characters, labelled by tuples of
partitions (one per block of the group).  Restriction pulls a character back
along the homomorphism and rewrites it in the target's irreducible basis;
transfer is character induction.  Both decompositions are exact and their
failure to be integral would signal a bug, not a data condition.

Along the tower Sym(0) <= Sym(1) <= ... all three maps the splitting reads
are partition combinatorics (`characters.pieri_matrix`), so they need
neither a group nor a character table.  They read `partitions`, so the
table cap `characters.MAX_TABLE_N` bounds them: the tower past
Sym(MAX_TABLE_N) is refused before any Pieri matrix is built.
"""

from .characters import (
    _check_moved_degree,
    character_table,
    decompose_into_irreducibles,
    induce_classfunction,
    partitions,
    pieri_matrix,
    restrict_classfunction,
)
from .errors import UsageError
from .functors import FreeAbelian, GlobalFunctor
from .linalg import transpose


class RepRingFunctor(GlobalFunctor):
    name = "ru"

    def __init__(self):
        super().__init__()
        self._tower_memo = {}

    def _value(self, g) -> FreeAbelian:
        return FreeAbelian(character_table(g).labels)

    def _res_matrix(self, alpha):
        tg = character_table(alpha.target)
        cols = [
            decompose_into_irreducibles(restrict_classfunction(tg.irreducible(j), alpha))
            for j in range(tg.rank)
        ]
        return list(map(list, zip(*cols)))

    def _tr_matrix(self, h, g):
        th = character_table(h)
        cols = [
            decompose_into_irreducibles(induce_classfunction(th.irreducible(j), g))
            for j in range(th.rank)
        ]
        return list(map(list, zip(*cols)))

    def tower_value(self, n):
        # one block, so one partition per label; Sym(0) is realised on one
        # point, like Sym(1), so its label is the partition (1).  Each level
        # is built once, and the table cap is read on every call
        _check_moved_degree(n)
        got = self._tower_memo.get(n)
        if got is None:
            got = self._tower_memo[n] = FreeAbelian((lam,) for lam in partitions(n or 1))
        return got

    def tower_res(self, n):
        if n < 1:
            raise UsageError("n must be >= 1")  # as standard_inclusion says it
        return transpose(pieri_matrix(n - 1, n))

    def tower_psi(self, k, n):
        return pieri_matrix(k, n)
