"""The Burnside functor: isomorphism classes of finite G-sets.

The value at G is free abelian on the transitive G-sets [G/H], one basis
vector per conjugacy class of subgroups.  Restriction along alpha: K -> G
regards G/H as a K-set through alpha and decomposes it into orbits
(`perms._orbits` on the least members of the cosets, which the lattice of
G keeps per class), each identified by the conjugacy class of its
stabilizer.  Transfer along H <= G just re-reads an H-set as a G-set on
the same cosets: [H/L] goes to [G/L].
"""

from .errors import MathCheckError
from .functors import FreeAbelian, GlobalFunctor
from .linalg import zeros
from .perms import PermGroup, _coset_moves, _orbits, _right_mul
from .subgroups import subgroup_classes


class BurnsideFunctor(GlobalFunctor):
    name = "burnside"

    def _value(self, g: PermGroup) -> FreeAbelian:
        lat = subgroup_classes(g)
        return FreeAbelian(tuple(f"[G/{cls.label()}]" for cls in lat.classes))

    def _res_matrix(self, alpha):
        k, g = alpha.source, alpha.target
        lat_g = subgroup_classes(g)
        lat_k = subgroup_classes(k)
        values = set(alpha.table.values())
        gen_images = [v.images for v in alpha.gen_images]
        matrix = zeros(len(lat_k), len(lat_g))
        for j in range(len(lat_g)):
            coset_of, reps = lat_g.cosets(j)
            for orbit in _orbits(reps, _coset_moves(coset_of, reps, gen_images)):
                # x fixes the coset r H when alpha(x) r lies in it
                start = coset_of[orbit[0]]
                mul = _right_mul(orbit[0])
                fixing = {v for v in values if coset_of[mul(v)] == start}
                stab = frozenset([x for x, fx in alpha.table.items() if fx in fixing])
                if len(stab) * len(orbit) != k.order:
                    raise MathCheckError("orbit size does not match stabilizer index")
                matrix[lat_k.class_of(stab)][j] += 1
        return matrix

    def _tr_matrix(self, h, g):
        lat_h = subgroup_classes(h)
        lat_g = subgroup_classes(g)
        matrix = zeros(len(lat_g), len(lat_h))
        for j, cls in enumerate(lat_h.classes):
            matrix[lat_g.class_of(cls.representative.image_set)][j] = 1
        return matrix
