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
residual network.  One breadth-first residual search (``_Network.reach``)
finds the shortest augmenting paths, both sides of the cut and strong
connectivity.  Brute force over subsets cross-checks all in the tests.
"""

import math

from .graph import GraphError, _bits, _union


def delta(g, a):
    """(n-1)|A| - (n-2) e(A)."""
    a = g.check_subset(a)
    return (g.n - 1) * len(a) - (g.n - 2) * g.edge_count(a)


def delta_rel(g, a, b):
    """delta(A/B) = delta(A union B) - delta(B)."""
    a, b = g.check_subset(a), g.check_subset(b)
    return delta(g, a | b) - delta(g, b)


def _peel(idx, candidates, anchor, threshold):
    """The largest subset of the candidates (a mask over the graph's index
    `idx`, disjoint from the anchor) in which every vertex has at least
    `threshold` edges into it plus the anchor: a k-core that drops lower
    degrees at once and then rechecks only neighbours of dropped ones."""
    adj = idx.adj
    alive = check = candidates & ~idx.below[threshold]
    while check:
        keep = alive | anchor
        doomed = 0
        while check:
            low = check & -check
            check ^= low
            if (adj[low.bit_length() - 1] & keep).bit_count() < threshold:
                doomed |= low
        alive &= ~doomed
        check = _union(adj, doomed) & alive
    return alive


def is_strong(g, a, b=None):
    """Is A strongly embedded in B (default: the whole ambient graph)?

    True iff delta(B') >= delta(A) for every A <= B' <= B.  Returns
    (ok, witness); on failure the witness is an inclusion-minimal
    violating set B'.

    Minimising delta over A <= S <= B decides the question.  The
    smallest minimiser W then violates; it is shrunk by re-solving inside
    W - v for each v in W - A, replacing W whenever a violator remains.
    W only shrinks, so a vertex kept once stays necessary, and one pass
    leaves no violating proper subset.
    """
    a = g.check_subset(a)
    b = g.vertices if b is None else g.check_subset(b)
    if not a <= b:
        raise GraphError("is_strong requires A to be a subset of B")
    base = delta(g, a)
    value, w = _min_superset(g, a, b)
    if value >= base:
        return True, None
    for v in sorted(w - a):
        if v in w:
            value, smaller = _min_superset(g, a, w - {v})
            if value < base:
                w = smaller
    return False, w


class _Network:
    """Max-flow on arc arrays, residual capacities kept in place, by
    shortest augmenting paths (Edmonds and Karp, J. ACM 1972).  One
    breadth-first residual search, `reach`, finds the augmenting paths,
    the sides of the cut and strong connectivity."""

    def __init__(self, size):
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(size)]

    def add_edge(self, u, v, capacity, reverse=0):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(reverse)

    def reach(self, start, back=0, first=0):
        """The nodes from `first` on that `start` reaches along residual
        arcs (against them when back=1), each mapped to the arc that
        reached it first (`start` to None)."""
        to, cap, adj = self.to, self.cap, self.adj
        side = {start: None}
        queue = [start]
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
        to, cap = self.to, self.cap
        total = 0
        while sink in (side := self.reach(source)):
            path = []
            v = sink
            while v != source:
                e = side[v]
                path.append(e)
                v = to[e ^ 1]
            pushed = min(cap[e] for e in path)
            for e in path:
                cap[e] -= pushed
                cap[e ^ 1] += pushed
            total += pushed
        return total, side


def _cut_network(n, size, rows):
    """The vertex-only cut network of `_min_superset` on free vertices
    0 .. size-1, given rows (i, e(i, A), mask of i's free neighbours):
    node 0 is the source, node 1 the sink and node 2 + i free vertex i.
    Returns the network and the offered total of -w(v) over w(v) < 0."""
    net = _Network(2 + size)
    offered = 0
    for i, base_edges, free_nbrs in rows:
        w = 2 * (n - 1) - 2 * (n - 2) * base_edges - (n - 2) * free_nbrs.bit_count()
        for j in _bits(free_nbrs & ((1 << i) - 1)):
            net.add_edge(2 + j, 2 + i, n - 2, n - 2)
        if w < 0:
            net.add_edge(0, 2 + i, -w)
            offered -= w
        elif w > 0:
            net.add_edge(2 + i, 1, w)
    return net, offered


def _hull_cut(g, a, ground, threshold):
    """The max flow of `_min_superset` on ground - A peeled by `threshold`:
    (min delta over A <= S <= ground, network, source side, hull vertex
    of each free node)."""
    idx = g._index
    adj, amask = idx.adj, idx.mask(a)
    gmask = idx.full if len(ground) == len(idx.verts) else idx.mask(ground)
    free = _peel(idx, gmask & ~amask, amask, threshold)
    if not free:
        return delta(g, a), None, None, {}
    net, offered = _cut_network(g.n, free.bit_length(), (
        (i, (adj[i] & amask).bit_count(), adj[i] & free) for i in _bits(free)))
    cut, side = net.max_flow(0, 1)
    return (delta(g, a) - (offered - cut) // 2, net, side,
            {2 + i: idx.verts[i] for i in _bits(free)})


def _min_superset(g, a, ground):
    """(min delta over A <= S <= ground, inclusion-smallest minimiser).

    delta is submodular, so the minimisers are closed under union and
    intersection, and the smallest one, W, lies in all of them.  Dropping
    any v in W - A therefore raises delta: v has at least ceil(n/(n-2))
    edges into W and survives the peel of ground - A anchored at A.  The
    network is built on that peeled hull F only, which leaves the value
    and the smallest minimiser unchanged.

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
    a = frozenset(a)
    value, _, side, hull = _hull_cut(g, a, ground, math.ceil(g.n / (g.n - 2)))
    return value, a.union([v for node, v in hull.items() if node in side])


def d_min(g, a, within=None):
    """d(A): the minimum of delta over all supersets of A inside the ambient
    graph (or inside `within`)."""
    a = g.check_subset(a)
    ground = g.vertices if within is None else g.check_subset(within)
    if not a <= ground:
        raise GraphError("d_min requires A to be contained in the ground set")
    return _min_superset(g, a, ground)[0]


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
    a = g.check_subset(a)
    _, net, _, hull = _hull_cut(g, a, g.vertices,
                                math.ceil((g.n - 1) / (g.n - 2)))
    to_sink = hull and net.reach(1, back=1)
    return a.union([v for node, v in hull.items() if node not in to_sink])
