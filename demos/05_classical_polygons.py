"""The group-action battery on the bundled classical polygons.

The Fano plane PG(2,2), PG(2,3) and PG(2,5) (thick generalized 3-gons)
and GQ(2,2) (a thick generalized 4-gon) carry strongly transitive,
Moufang automorphism groups.  A point stabilizer of PG(2,q) acts on the
q+1 lines through the point as PGL(2,q) on the projective line, sharply
3-transitively; for q = 3 that is all of S_4, so 4-transitively.  That of
GQ(2,2) acts 3-transitively.  All are nowhere near the 6-transitivity the
infinite construction rules out.
"""

from ngons import (automorphism_group, check_remark_2_2, fano_graph,
                   gq22_graph, is_generalized_ngon, is_moufang,
                   is_strongly_transitive, projective_plane,
                   stabilizer_transitivity_degree)


def battery(name, g):
    print("== %s ==" % name)
    ok, _ = is_generalized_ngon(g, thick=True)
    print("  thick generalized %d-gon: %s" % (g.n, ok))
    grp = automorphism_group(g, type_preserving=True)
    full = automorphism_group(g, type_preserving=False)
    print("  automorphism group: order %d type-preserving, %d full"
          % (grp.order, full.order))
    print("  strongly transitive: %s" % is_strongly_transitive(g, grp)[0])
    print("  Moufang: %s" % is_moufang(g, grp)[0])
    holds, left, right = check_remark_2_2(g, grp)
    print("  ordered-cycle equivalence: L=%s R=%s (iff holds: %s)"
          % (left, right, holds))
    x = min(g.part_vertices(0))
    print("  point stabilizer acts %d-transitively on D_1(point)"
          % stabilizer_transitivity_degree(g, grp, x))
    print()


def main():
    battery("Fano plane PG(2,2)", fano_graph())
    battery("generalized quadrangle GQ(2,2)", gq22_graph())
    battery("projective plane PG(2,3)", projective_plane(3))
    battery("projective plane PG(2,5)", projective_plane(5))


if __name__ == "__main__":
    main()
