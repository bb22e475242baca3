"""The predimension calculus.

For a finite subset A of a bipartite graph with gonality n,

    delta(A) = (n-1)|A| - (n-2) e(A),

where e(A) counts edges with both endpoints in A.  On top of delta this
module provides the relative version, strong embeddings, the minimum
d(A) = min { delta(A') : A <= A' <= ambient }, the smallest strong
superset (closure) and algebraic closure relative to the finite ambient
graph.

All minimisation -- ``d_min``, ``closure`` and ``is_strong`` -- goes
through one minimum-cut (project selection) reduction; brute force over
subsets cross-checks it in the test suite.
"""

import math
from collections import deque

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


class _Dinic:
    """Plain max-flow on arc arrays; residual capacities are kept in
    place, so the source side of the minimal minimum cut is just what
    stays reachable afterwards."""

    def __init__(self, size):
        self.size = size
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(size)]

    def add_edge(self, u, v, capacity):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, source, sink):
        to, cap, adj = self.to, self.cap, self.adj
        total = 0
        while True:
            level = [-1] * self.size
            level[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for e in adj[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[sink] < 0:
                return total
            it = [0] * self.size

            def augment(u, limit):
                if u == sink:
                    return limit
                while it[u] < len(adj[u]):
                    e = adj[u][it[u]]
                    v = to[e]
                    if cap[e] > 0 and level[v] == level[u] + 1:
                        pushed = augment(v, min(limit, cap[e]))
                        if pushed:
                            cap[e] -= pushed
                            cap[e ^ 1] += pushed
                            return pushed
                    it[u] += 1
                return 0

            while True:
                pushed = augment(source, float("inf"))
                if not pushed:
                    break
                total += pushed

    def reachable(self, source):
        seen = [False] * self.size
        seen[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def _min_superset(g, a, ground):
    """(min delta over A <= S <= ground, inclusion-smallest minimiser).

    delta is submodular, so the minimisers are closed under union and
    intersection, and the smallest one, W, lies in all of them.  Dropping
    any v in W - A therefore raises delta: v has at least ceil(n/(n-2))
    edges into W and survives the peel of ground - A anchored at A.  The
    network is built on A plus that peeled hull only, which leaves the
    value and the smallest minimiser unchanged.

    Project-selection reduction: choosing S amounts to choosing
    S' = S - A; each chosen vertex costs n-1, each edge inside S' or from
    S' into A pays n-2.  Maximum profit = min cut; the vertices reachable
    from the source in the residual network of a maximum flow form the
    unique smallest maximiser.
    """
    a = frozenset(a)
    free = sorted(_peel(g, frozenset(ground) - a, a, _violator_threshold(g.n)))
    base = delta(g, a)
    if not free:
        return base, a
    n = g.n
    # node ids: 0 = source, 1 = sink, then one per free vertex, then one
    # per edge between free vertices
    node = {v: 2 + i for i, v in enumerate(free)}
    internal = [(u, v) for u in free for v in g.neighbors(u)
                if u < v and v in node]
    net = _Dinic(2 + len(free) + len(internal))
    inf = (n - 2) * len(internal) + (n - 1) * len(free) + 1
    offered = 0
    for v in free:
        profit = (n - 2) * sum(1 for w in g.neighbors(v) if w in a)
        cost = n - 1
        if profit > cost:
            net.add_edge(0, node[v], profit - cost)
            offered += profit - cost
        elif cost > profit:
            net.add_edge(node[v], 1, cost - profit)
    for j, (u, v) in enumerate(internal):
        enode = 2 + len(free) + j
        net.add_edge(0, enode, n - 2)
        net.add_edge(enode, node[u], inf)
        net.add_edge(enode, node[v], inf)
        offered += n - 2
    cut_value = net.max_flow(0, 1)
    best_gain = offered - cut_value
    seen = net.reachable(0)
    minimiser = a | {v for v in free if seen[node[v]]}
    return base - best_gain, frozenset(minimiser)


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
