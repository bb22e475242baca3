"""Constructors for the explicit configurations the theory names: paths,
cycles, the forked path gamma with its prefixes, and the cycle-with-spokes
witnesses over a four-point base, plus the search for base sets.

All witnesses are standalone graphs on fresh vertices; the delta
arithmetic they are used for depends only on their own edges.
"""

from dataclasses import dataclass

from .graph import BipartiteGraph, GraphError, _balls, _bits


def make_path(n, length):
    """A simple path with `length` edges on vertices 0..length, with
    subsets `endpoints` and `interior`."""
    if length < 0:
        raise GraphError("path length must be nonnegative")
    verts = {i: i % 2 for i in range(length + 1)}
    edges = [(i, i + 1) for i in range(length)]
    subsets = {
        "endpoints": frozenset({0, length}),
        "interior": frozenset(range(1, length)),
    }
    return BipartiteGraph(n, verts, edges, subsets)


def make_cycle(n, length):
    """A simple cycle of the given even length on vertices 0..length-1."""
    if length % 2 != 0 or length < 4:
        raise GraphError("cycle length must be even and >= 4, got %r" % (length,))
    verts = {i: i % 2 for i in range(length)}
    edges = [(i, (i + 1) % length) for i in range(length)]
    return BipartiteGraph(n, verts, edges, {"cycle": frozenset(verts)})


def make_gamma(n):
    """The forked path: a path x_0 ... x_n plus one extra neighbour
    x_{n+1} of x_{n-1}.  Subsets: `gamma` (everything) and the prefixes
    `gamma_0` ... `gamma_{n+1}`."""
    verts = {i: i % 2 for i in range(n + 1)}
    verts[n + 1] = n % 2  # same part as x_n, adjacent to x_{n-1}
    edges = [(i, i + 1) for i in range(n)] + [(n - 1, n + 1)]
    subsets = {"gamma": frozenset(verts)}
    for i in range(n + 2):
        subsets["gamma_%d" % i] = frozenset(range(i + 1))
    return BipartiteGraph(n, verts, edges, subsets)


def make_cl_witness(n, l, with_b=False):
    """The cycle-with-spokes witness: a simple cycle of length 4l(n-2)
    whose vertices c_{i(n-2)} are joined to fresh base vertices s_{i mod 4}.

    With `with_b` one spoke is redirected to an extra fresh vertex b, the
    variant whose body is 0-minimally algebraic over base + b.  Subsets:
    `A0` (the four base vertices), `C` (the cycle), and `b`/`A0b` for the
    variant.
    """
    if l < 2:
        raise GraphError("the cycle-with-spokes witness needs l >= 2")
    if n < 3:
        raise GraphError("n must be at least 3")
    length = 4 * l * (n - 2)
    verts = {i: i % 2 for i in range(length)}
    edges = [(i, (i + 1) % length) for i in range(length)]
    s = {j: length + j for j in range(4)}
    for j in range(4):
        # opposite part to the cycle vertices it will be joined to
        verts[s[j]] = 1 - ((j * (n - 2)) % 2)
    spokes = [(i * (n - 2) % length, s[i % 4]) for i in range(4 * l)]
    subsets = {
        "A0": frozenset(s.values()),
        "C": frozenset(range(length)),
    }
    if with_b:
        b = length + 4
        verts[b] = verts[s[0]]
        spokes[0] = (0, b)
        subsets["b"] = frozenset({b})
        subsets["A0b"] = subsets["A0"] | {b}
    return BipartiteGraph(n, verts, edges + spokes, subsets)


@dataclass(frozen=True)
class BaseSetSpec:
    """Four vertices s0..s3 with consecutive distances n and both diagonal
    distances n-1 (n odd) or n (n even)."""
    vertices: tuple  # (s0, s1, s2, s3)
    mode: str        # odd_n | even_n_type0 | even_n_type1


def find_base_set(g):
    """All base sets in g, one canonical ordering per 4-point set, in the
    order of the sorted 4-sets.  The least ordering starts at the least
    point s0; s1 < s3 lie on its n-sphere, s3 on the diag-sphere of s1,
    and s2 > s0 on the diag-sphere of s0 and the n-spheres of s1 and s3."""
    n, idx = g.n, g._index
    diag = n - 1 if n % 2 else n
    balls = [_balls(idx.adj, 1 << p, n) for p in range(len(idx.verts))]
    side = [b[n] & ~b[n - 1] for b in balls]  # positions sort as the vertices do
    cross = [b[diag] & ~b[diag - 1] for b in balls]
    best = {}
    for s0 in range(len(balls)):
        above = ~((2 << s0) - 1)
        for s1 in _bits(side[s0] & above):
            for s2 in _bits(cross[s0] & side[s1] & above):
                # ascending s1, s2, s3: the first ordering of a 4-set is its least
                for s3 in _bits(side[s0] & cross[s1] & side[s2] & ~((2 << s1) - 1)):
                    best.setdefault(tuple(sorted((s0, s1, s2, s3))), (s0, s1, s2, s3))
    out = []
    for key in sorted(best):
        s = tuple(map(idx.verts.__getitem__, best[key]))
        out.append(BaseSetSpec(s, "odd_n" if n % 2 else "even_n_type%d" % g.part(s[0])))
    return out
