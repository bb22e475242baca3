"""Bundled classical polygons, generated from their standard constructions.

* The Fano plane PG(2,2): 7 points, 7 lines, a thick generalized 3-gon.
* The generalized quadrangle GQ(2,2) = W(3,2) via duads and synthemes of
  six symbols: 15 points, 15 lines, a thick generalized 4-gon.
* The Desarguesian plane PG(2,p) for a prime p, from GF(p)^3:
  p^2+p+1 points and as many lines, a thick generalized 3-gon.

Points get part 0, lines part 1.
"""

from itertools import combinations, product

from .graph import BipartiteGraph, GraphError


def fano_graph():
    """Incidence graph of PG(2,2).

    Points are the nonzero vectors of GF(2)^3 encoded as 1..7; a line is a
    triple with zero XOR.  Point p has vertex id p-1, lines get ids 7..13.
    """
    points = list(range(1, 8))
    lines = [frozenset(t) for t in combinations(points, 3)
             if t[0] ^ t[1] ^ t[2] == 0]
    lines.sort(key=sorted)
    verts = {p - 1: 0 for p in points}
    edges = []
    for i, line in enumerate(lines):
        lid = 7 + i
        verts[lid] = 1
        edges.extend((p - 1, lid) for p in line)
    return BipartiteGraph(3, verts, edges, {
        "points": frozenset(range(7)),
        "lines": frozenset(range(7, 14)),
    })


def gq22_graph():
    """Incidence graph of the generalized quadrangle GQ(2,2).

    Points are the 15 unordered pairs (duads) of {0..5}, lines the 15
    perfect matchings (synthemes); a duad lies on a syntheme containing
    it.  Duads get ids 0..14, synthemes 15..29.
    """
    duads = [frozenset(p) for p in combinations(range(6), 2)]
    # three duads covering all six symbols, in the order of their duads
    synthemes = [syn for syn in combinations(duads, 3)
                 if len(frozenset().union(*syn)) == 6]
    verts = {i: 0 for i in range(15)}
    edges = []
    for j, syn in enumerate(synthemes):
        lid = 15 + j
        verts[lid] = 1
        edges.extend((duads.index(d), lid) for d in syn)
    return BipartiteGraph(4, verts, edges, {
        "points": frozenset(range(15)),
        "lines": frozenset(range(15, 30)),
    })


def projective_plane(p):
    """Incidence graph of PG(2,p) for a prime p.

    Points and lines are the one-dimensional subspaces of GF(p)^3, each
    written with its first nonzero coordinate equal to 1, in
    lexicographic order; point i lies on line j when their dot product is
    0 mod p.  Points get ids 0..p^2+p, lines the next p^2+p+1.
    """
    if (not isinstance(p, int) or p < 2
            or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1))):
        raise GraphError("PG(2,p) is built for a prime p, got %r" % (p,))
    reps = [v for v in product(range(p), repeat=3)
            if any(v) and next(c for c in v if c) == 1]
    k = len(reps)
    verts = {i: i // k for i in range(2 * k)}
    edges = [(i, k + j) for i, point in enumerate(reps)
             for j, line in enumerate(reps)
             if sum(a * b for a, b in zip(point, line)) % p == 0]
    return BipartiteGraph(3, verts, edges, {
        "points": frozenset(range(k)),
        "lines": frozenset(range(k, 2 * k)),
    })
