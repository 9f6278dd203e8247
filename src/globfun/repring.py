"""The complex representation ring functor on symmetric-type groups.

Values are free abelian on irreducible characters, labelled by tuples of
partitions (one per block of the group).  Restriction pulls a character back
along the homomorphism and rewrites it in the target's irreducible basis;
transfer is character induction.  Both decompositions are exact and their
failure to be integral would signal a bug, not a data condition.
"""

from .characters import (
    character_table,
    decompose_into_irreducibles,
    induce_classfunction,
    restrict_classfunction,
)
from .functors import FreeAbelian, GlobalFunctor


class RepRingFunctor(GlobalFunctor):
    name = "ru"

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
