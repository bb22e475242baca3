"""The predimension calculus.

For a finite subset A of a bipartite graph with gonality n,

    delta(A) = (n-1)|A| - (n-2) e(A),

where e(A) counts edges with both endpoints in A.  On top of delta this
module provides the relative version, strong embeddings, the minimum
d(A) = min { delta(A') : A <= A' <= ambient }, the smallest strong
superset (closure) and algebraic closure relative to the finite ambient
graph.

All minimisation -- ``d_min``, ``closure``, ``is_strong`` and the
0-algebraicity test of ``zeroalg`` -- goes through one minimum cut on a
network with a node per vertex and an arc pair per edge
(Picard-Queyranne), built by ``_cut_network``: ``_min_superset`` reads
the smallest minimiser off it, ``zeroalg`` the strong connectivity of its
residual network.  The max flow takes shortest augmenting paths, and one
breadth-first residual search (``_Network.reach``) finds the augmenting
paths, the source side of the cut and strong connectivity.  Brute force
over subsets cross-checks both in the test suite.
"""

import math

from .graph import GraphError


def delta(g, a):
    """(n-1)|A| - (n-2) e(A)."""
    a = g.check_subset(a)
    return (g.n - 1) * len(a) - (g.n - 2) * g.edge_count(a)


def delta_rel(g, a, b):
    """delta(A/B) = delta(A union B) - delta(B)."""
    a = g.check_subset(a)
    b = g.check_subset(b)
    return delta(g, a | b) - delta(g, b)


def _violator_threshold(n):
    # A vertex v whose removal from a set W raises delta has
    # (n-2) e(v, W) > n-1, that is e(v, W) >= ceil(n/(n-2)).
    return math.ceil(n / (n - 2))


def _peel(g, candidates, anchor, threshold):
    """The largest subset of the candidates (disjoint from the anchor) in
    which every vertex has at least `threshold` edges into it plus the
    anchor."""
    alive = {v for v in candidates if len(g.neighbors(v)) >= threshold}
    keep = frozenset(anchor)
    support = {v: sum(1 for w in g.neighbors(v) if w in alive or w in keep)
               for v in alive}
    doomed = [v for v in alive if support[v] < threshold]
    alive.difference_update(doomed)
    for v in doomed:
        for w in g.neighbors(v):
            if w in alive:
                support[w] -= 1
                if support[w] < threshold:
                    alive.discard(w)
                    doomed.append(w)
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
    shortest augmenting paths (Edmonds and Karp, J. ACM 1972).

    One breadth-first residual search, `reach`, finds the augmenting
    paths, the source side of the cut and strong connectivity."""

    def __init__(self, size):
        self.size = size
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

    def strongly_connected(self, first):
        """Is the residual network restricted to the nodes from `first` on
        strongly connected?  One search along residual arcs and one
        against them, both from `first`."""
        return all(len(self.reach(first, back, first)) == self.size - first
                   for back in (0, 1))


def _cut_network(n, rows):
    """The vertex-only cut network of `_min_superset` on free vertices
    0, 1, ...: rows[i] = (e(i, A), the free neighbours of i).  Node 0 is
    the source, node 1 the sink and node 2 + i free vertex i.  Returns the
    network and the offered total of -w(v) over w(v) < 0."""
    net = _Network(2 + len(rows))
    offered = 0
    for i, (base_edges, free_nbrs) in enumerate(rows):
        w = 2 * (n - 1) - 2 * (n - 2) * base_edges - (n - 2) * len(free_nbrs)
        for j in free_nbrs:
            if j < i:
                net.add_edge(2 + j, 2 + i, n - 2, n - 2)
        if w < 0:
            net.add_edge(0, 2 + i, -w)
            offered -= w
        elif w > 0:
            net.add_edge(2 + i, 1, w)
    return net, offered


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
    free = sorted(_peel(g, frozenset(ground) - a, a, _violator_threshold(g.n)))
    base = delta(g, a)
    if not free:
        return base, a
    index = {v: i for i, v in enumerate(free)}
    rows = []
    for v in free:
        base_edges, free_nbrs = 0, []
        for u in g.neighbors(v):
            if u in a:
                base_edges += 1
            elif u in index:
                free_nbrs.append(index[u])
        rows.append((base_edges, free_nbrs))
    net, offered = _cut_network(g.n, rows)
    cut, side = net.max_flow(0, 1)
    return (base - (offered - cut) // 2,
            a | {v for i, v in enumerate(free) if 2 + i in side})


def d_min(g, a, within=None):
    """d(A): the minimum of delta over all supersets of A inside the ambient
    graph (or inside `within`)."""
    a = g.check_subset(a)
    ground = g.vertices if within is None else g.check_subset(within)
    if not a <= ground:
        raise GraphError("d_min requires A to be contained in the ground set")
    value, _ = _min_superset(g, a, ground)
    return value


def d_rel(g, b, a):
    """d(B/A) = d(B union A) - d(A)."""
    a = g.check_subset(a)
    b = g.check_subset(b)
    return d_min(g, a | b) - d_min(g, a)


def closure(g, a):
    """The smallest strong subset of the ambient graph containing A.

    This is the inclusion-smallest minimiser of delta over supersets of A:
    every minimiser is strong, and the closure is itself a minimiser, so
    the lattice bottom is exactly cl(A).
    """
    a = g.check_subset(a)
    _, minimiser = _min_superset(g, a, g.vertices)
    return minimiser


def acl_relative(g, a):
    """All x in the ambient graph with d(A + x) = d(A).

    This relativizes the paper-style algebraic closure to the finite
    ambient graph; it contains closure(A).
    """
    a = g.check_subset(a)
    da = d_min(g, a)
    out = set(a)
    for x in sorted(g.vertices - a):
        if d_min(g, a | {x}) == da:
            out.add(x)
    return frozenset(out)
