"""The predimension calculus.

For a finite subset A of a bipartite graph with gonality n,

    delta(A) = (n-1)|A| - (n-2) e(A),

where e(A) counts edges with both endpoints in A.  On top of delta this
module provides the relative version, strong embeddings, the minimum
d(A) = min { delta(A') : A <= A' <= ambient }, the smallest strong
superset (closure) and algebraic closure relative to the finite ambient
graph.

All minimisation -- ``d_min``, ``closure``, ``is_strong``, ``acl_relative``
and the 0-algebraicity test of ``zeroalg`` -- goes through one minimum cut
on a network with a node per vertex and an arc pair per edge
(Picard-Queyranne), built by ``_cut_network`` on masks over the graph's
bitset index: ``_min_superset`` reads the smallest minimiser off it,
``acl_relative`` the largest, ``zeroalg`` the strong connectivity of its
residual network (all three by ``_Network.reach``).  Brute force over
subsets cross-checks all in the tests.  The cuts over the whole graph
peel only near A: see ``_near``.

A cut reports delta relative to its set: min delta(S/A) = min delta(S) -
delta(A) over A <= S <= ground, which its flow gives without summing
delta(A) (see ``_min_superset``).  So ``is_strong`` compares it with 0;
only ``d_min`` and condition 2 of ``kmu.in_class``, which need an
absolute value, add delta(A) themselves.
"""

import math

from .graph import GraphError, _bits, _components, _peel, _union


def delta(g, a):
    """(n-1)|A| - (n-2) e(A)."""
    return _delta(g, g._index.mask(g.check_subset(a)))


def _delta(g, m):
    """delta of the vertex set with the mask m over the graph's index."""
    return (g.n - 1) * m.bit_count() - (g.n - 2) * g._index.edges(m)


def delta_rel(g, a, b):
    """delta(A/B) = delta(A union B) - delta(B)."""
    a, b = g.check_subset(a), g.check_subset(b)
    return delta(g, a | b) - delta(g, b)


def is_strong(g, a, b=None):
    """Is A strongly embedded in B (default: the whole ambient graph)?

    True iff delta(B') >= delta(A) for every A <= B' <= B.  Returns
    (ok, witness); on failure the witness is an inclusion-minimal
    violating set B'.

    Minimising delta(S/A) over A <= S <= B (see the module docstring)
    decides the question: it is negative iff A is not strong.  The
    smallest minimiser W then violates; it is shrunk by re-solving inside
    W - v for each v in W - A, replacing W whenever a violator remains.
    W only shrinks, so a vertex kept once stays necessary, and one pass
    leaves no violating proper subset.
    """
    a = g.check_subset(a)
    b = g.vertices if b is None else g.check_subset(b)
    if not a <= b:
        raise GraphError("is_strong requires A to be a subset of B")
    value, w = _min_superset(g, a, b, 0)
    if value >= 0:
        return True, None
    for v in sorted(w - a):
        if v in w:
            value, smaller = _min_superset(g, a, w - {v})
            if value < 0:
                w = smaller
    return False, w


class _Network:
    """Max-flow on arc arrays, residual capacities kept in place, by
    shortest augmenting paths (Edmonds and Karp, J. ACM 1972).  One
    breadth-first residual search, `reach`, finds the augmenting paths,
    the sides of the cut and strong connectivity."""

    def __init__(self, size):
        self.to, self.cap, self.adj = [], [], [[] for _ in range(size)]

    def add_edge(self, u, v, capacity, reverse=0):
        self.adj[u].append(len(self.to))
        self.adj[v].append(len(self.to) + 1)
        self.to += (v, u)
        self.cap += (capacity, reverse)

    def reach(self, start, back=0, first=0):
        """The nodes from `first` on that `start` reaches along residual
        arcs (against them when back=1), each mapped to the arc that
        reached it first (`start` to None)."""
        to, cap, adj = self.to, self.cap, self.adj
        side, queue = {start: None}, [start]
        for u in queue:
            for e in adj[u]:
                v = to[e]
                # arc e runs u -> v, its partner e ^ 1 runs v -> u
                if v >= first and v not in side and cap[e ^ back] > 0:
                    side[v] = e
                    queue.append(v)
        return side

    def max_flow(self, source, sink):
        """The flow value and the last `reach(source)`, which misses the
        sink: exactly the nodes reachable from the source in the residual
        network, the source side of the smallest minimum cut."""
        to, cap, total = self.to, self.cap, 0
        while sink in (side := self.reach(source)):
            path, v = [], sink
            while v != source:
                path.append(side[v])
                v = to[side[v] ^ 1]
            pushed = min(cap[e] for e in path)
            for e in path:
                cap[e] -= pushed
                cap[e ^ 1] += pushed
            total += pushed
        return total, side


def _cut_network(n, weights, edges):
    """The cut network of `_min_superset`: node 0 is the source, 1 the sink,
    2 + i free vertex i, of weight w(i); `edges` lists joined free pairs."""
    net = _Network(2 + len(weights))
    for j, i in edges:
        net.add_edge(2 + j, 2 + i, n - 2, n - 2)
    for i, w in enumerate(weights):
        if w < 0:
            net.add_edge(0, 2 + i, -w)
        elif w > 0:
            net.add_edge(2 + i, 1, w)
    return net


def _hull_cut(g, amask, gmask, enough=math.inf, threshold=None):
    """The max flow of `_min_superset` for A <= S <= ground (masks) on
    the hull F, ground - A peeled by `threshold` (default ceil(n/(n-2))):
    (min delta(S/A), relative as in the module docstring, a mask of the
    smallest minimiser's vertices outside A, network, F's positions; node
    2 + k stands for F[k]).  Ground None, with the default threshold, is
    the whole graph peeled from the region of `_near` only: the value and
    the smallest minimiser stay, the largest does not.

    The weights bound the minimum before any arc is built: by the identity
    of `_min_superset`, whose edge term (n-2) e(X, F - X) is not negative,
    2 delta(A + X) - 2 delta(A) >= sum_X w(v) >= -offered, the total of
    -w(v) over w(v) < 0.  As delta is an integer, the minimum is
    >= -floor(offered / 2), 0 on an empty hull.  There, and whenever the
    bound reaches `enough`, it is returned as the value, with no vertex
    outside A and no network.
    """
    n, idx = g.n, g._index
    adj, t = idx.adj, threshold or math.ceil(n / (n - 2))
    if gmask is None:
        gmask = _near(g, amask, t)
    free = _peel(idx, gmask & ~amask, amask, t)
    hull = _bits(free)
    weights = [2 * (n - 1) - (n - 2) * (2 * (adj[p] & amask).bit_count()
                                        + (adj[p] & free).bit_count()) for p in hull]
    offered = -sum(w for w in weights if w < 0)
    if not hull or -(offered // 2) >= enough:
        return -(offered // 2), 0, None, hull
    node = {p: k for k, p in enumerate(hull)}
    net = _cut_network(n, weights, ((node[q], k) for k, p in enumerate(hull)
                                    for q in _bits(adj[p] & free & ((1 << p) - 1))))
    cut, side = net.max_flow(0, 1)
    return ((cut - offered) // 2,
            sum(1 << p for k, p in enumerate(hull) if 2 + k in side), net, hull)


def _near(g, amask, t):
    """A mask of the whole graph that holds every vertex of the smallest
    minimiser W of delta over supersets of A, t = ceil(n/(n-2)), for the
    cuts over the whole graph.

    Zero floor: when no vertex set has negative delta, every component X
    of W - A (in the subgraph W induces) has an edge to A.  Else X has no
    edge to W - X, so delta(W - X) = delta(W) - delta(X) <= delta(W), and
    W - X would be a smaller minimiser.  Each v in W - A has at least t
    edges into W (see `_min_superset`), so X lies in one component of the
    vertices of degree >= t, one holding a neighbour of A.  The region is
    the union of those components, read off a table built once per graph.

    A negative floor, as in PG(2,5) or any graph holding K_{4,5} at n = 3,
    leaves the whole graph.  So does a graph's first cut: the floor costs
    a cut over its t-core and the table a pass over its vertices, which
    a graph cut once (a fresh cycle's one query) would never repay.
    """
    idx = g._index
    idx.cuts += 1
    if idx.cuts < 2:
        return idx.full
    if idx.zero_floor is None:
        idx.zero_floor = _hull_cut(g, 0, idx.full, 0)[0] >= 0
        if idx.zero_floor:
            idx.parts = _components(idx.adj, idx.full & ~idx.below[t])
    if not idx.zero_floor:
        return idx.full
    near, region = _union(idx.adj, amask) & ~idx.below[t], 0
    while near:
        comp = idx.parts[(near & -near).bit_length() - 1]
        region |= comp
        near &= ~comp
    return region


def _min_superset(g, a, ground, enough=math.inf):
    """(min delta(S/A) over A <= S <= ground, relative as in the module
    docstring, inclusion-smallest minimiser); a value that the bound of
    `_hull_cut` puts at `enough` or above comes with A alone.

    delta is submodular, so the minimisers are closed under union and
    intersection, and the smallest one, W, lies in all of them.  Dropping
    any v in W - A therefore raises delta: v has at least ceil(n/(n-2))
    edges into W and survives the peel of ground - A anchored at A.  The
    network is built on that peeled hull F only, which leaves the value
    and the smallest minimiser unchanged.  On the whole ground the peel
    starts from the region of `_near` (zero floor).

    Vertex-only cut network (Picard and Queyranne, Networks 1982;
    Goldberg, UCB/CSD-84-171, 1984), `_cut_network`: for X <= F, with
    e(X) = (sum_X e(v, F) - e(X, F - X)) / 2,

        2 delta(A + X) - 2 delta(A) = sum_X w(v) + (n-2) e(X, F - X),
        w(v) = 2(n-1) - 2(n-2) e(v, A) - (n-2) e(v, F).

    X is the source side of a cut with arcs source -> v of capacity -w(v)
    (w < 0), v -> sink of capacity w(v) (w > 0) and capacity n-2 both
    ways along each edge inside F; that cut costs the right-hand side
    plus the offered total of -w(v) over w < 0.  The vertices reachable
    from the source in the residual network of a maximum flow form the
    smallest minimum cut, so the smallest minimiser.
    """
    idx = g._index
    value, x, _, _ = _hull_cut(g, idx.mask(a), None if len(ground) == len(idx.verts)
                               else idx.mask(ground), enough)
    return value, frozenset(a).union(map(idx.verts.__getitem__, _bits(x)))


def d_min(g, a, within=None):
    """d(A): the minimum of delta over all supersets of A inside the ambient
    graph (or inside `within`)."""
    a = g.check_subset(a)
    ground = g.vertices if within is None else g.check_subset(within)
    if not a <= ground:
        raise GraphError("d_min requires A to be contained in the ground set")
    return _delta(g, g._index.mask(a)) + _min_superset(g, a, ground)[0]


def d_rel(g, b, a):
    """d(B/A) = d(B union A) - d(A)."""
    a, b = g.check_subset(a), g.check_subset(b)
    return d_min(g, a | b) - d_min(g, a)


def closure(g, a):
    """The smallest strong subset of the ambient graph containing A.

    This is the inclusion-smallest minimiser of delta over supersets of A:
    every minimiser is strong, and the closure is itself a minimiser, so
    the lattice bottom is exactly cl(A).
    """
    return _min_superset(g, g.check_subset(a), g.vertices)[1]


def acl_relative(g, a):
    """All x in the ambient graph with d(A + x) = d(A).

    This relativizes the paper-style algebraic closure to the finite
    ambient graph; it contains closure(A).  It is the largest minimiser
    W of delta over supersets of A: a minimiser over A + x is one over A
    when d(A + x) = d(A), and x in W gives d(A + x) <= delta(W) = d(A).
    Dropping v in W - A does not lower delta, so v has at least
    ceil((n-1)/(n-2)) edges into W and survives that peel; W - A is then
    the free nodes that cannot reach the sink after the max flow.
    """
    a, idx = g.check_subset(a), g._index
    _, _, net, hull = _hull_cut(g, idx.mask(a), idx.full,
                                threshold=math.ceil((g.n - 1) / (g.n - 2)))
    to_sink = net.reach(1, back=1) if net else ()
    return a.union(idx.verts[p] for k, p in enumerate(hull) if 2 + k not in to_sink)
