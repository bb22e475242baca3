"""Finite bipartite graphs with a gonality parameter, plus the basic metric
machinery: distances, girth, diameter, cycle enumeration by half-length
paths, the generalized n-gon axioms, and the one backtracking matcher
behind copies, configuration isomorphism and automorphisms (`_matches`).

Vertices are opaque integers carrying a part label in {0, 1}.  All graphs
are simple and every edge joins part 0 to part 1.  A graph stores them
once, in the bitset index (`_index`, with the 2-core), extended from the
parent's for an amalgam; the `vertices` and `edges` views, the accessors,
BFS by balls, min-cuts, the cycle walk, the matcher and the searches read it.
"""

import math
from functools import cached_property
from itertools import combinations
from types import MappingProxyType

INFINITY = math.inf


class GraphError(ValueError):
    """Raised on malformed graph data (bad parts, unknown ids, loops...)."""


class _View(cached_property):
    """A view read off the index once and kept; it cannot be assigned."""

    def __set__(self, obj, value):
        raise AttributeError("%s is read off the graph's index" % self.attrname)


class BipartiteGraph:
    """A finite simple bipartite graph together with the gonality n >= 3.

    Parameters
    ----------
    n : int
        The gonality parameter; predimension and polygon checks use it.
    parts : mapping vertex id -> part (0 or 1)
    edges : iterable of (u, v) pairs
    subsets : optional mapping name -> iterable of vertex ids

    Edges come in either order, repeats allowed.  == and hash compare n,
    the vertices, their parts and the edges, not the subsets.
    """

    def __init__(self, n, parts, edges, subsets=None):
        if not isinstance(n, int) or n < 3:
            raise GraphError("gonality n must be an integer >= 3, got %r" % (n,))
        self.n, part = n, {}
        for v, p in dict(parts).items():
            if not isinstance(v, int):
                raise GraphError("vertex ids must be integers, got %r" % (v,))
            if p not in (0, 1):
                raise GraphError("part of vertex %r must be 0 or 1, got %r" % (v, p))
            part[v] = p
        for u, v in (edges := list(edges)):
            if u not in part or v not in part:
                raise GraphError("edge (%r, %r) has an unknown endpoint" % (u, v))
            if part[u] == part[v]:  # loops included
                raise GraphError(
                    "edge (%r, %r) joins two vertices of part %d" % (u, v, part[u]))
        self.subsets = {}
        for name, ids in dict(subsets or {}).items():
            members = frozenset(ids)
            if not part.keys() >= members:
                raise GraphError("subset %r mentions unknown vertices %s"  # ids of any type
                                 % (name, sorted(members - part.keys(), key=repr)))
            self.subsets[name] = members
        self._index = _Index().extended(part, edges)

    def _extended(self, parts, edges):
        """This graph plus the vertices `parts` and the `edges`, as
        `_Index.extended` takes them; the caller vouches for them."""
        g = object.__new__(BipartiteGraph)
        g.n, g.subsets = self.n, dict(self.subsets)
        g._index = self._index.extended(parts, edges)
        return g

    vertices = _View(lambda g: frozenset(g._index.verts))

    @_View
    def edges(self):
        """The edges (u, v), u < v: positions follow the ids."""
        verts, adj = self._index.verts, self._index.adj
        return frozenset((verts[p], verts[q]) for p, m in enumerate(adj)
                         for q in _bits(m & ~((2 << p) - 1)))

    def part(self, v):
        return self._index.sides[1] >> self._position(v) & 1

    def _position(self, v):
        try:
            return self._index.pos[v]
        except KeyError:
            raise GraphError("unknown vertex id %r" % (v,)) from None

    def neighbors(self, v):
        return self._index.members(self._index.adj[self._position(v)])

    def degree(self, v):
        return self._index.deg[self._position(v)]

    def has_edge(self, u, v):
        row, q = self._index.adj[self._position(u)], self._index.pos.get(v)
        return q is not None and row >> q & 1 == 1

    def edge_count(self, a, b=None):
        """The number of edges inside a; with b, of edges with one end in a
        and the other in b, each once (also those inside a & b).  Ids that
        are not vertices are ignored."""
        idx = self._index
        a = idx.mask(idx.pos.keys() & a)
        b = a if b is None else idx.mask(idx.pos.keys() & b)
        # pairs (u, v) with u in a and v in b count an edge inside a & b
        # twice
        return sum((idx.adj[p] & b).bit_count() for p in _bits(a)) - idx.edges(a & b)

    def check_subset(self, members):
        members = frozenset(members)
        if not self._index.pos.keys() >= members:
            raise GraphError("unknown vertex ids %s" % sorted(members - self._index.pos.keys()))
        return members

    def part_vertices(self, p):
        return self._index.members(self._index.sides[p] if p in (0, 1) else 0)

    def __len__(self):
        return len(self._index.verts)

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    _key = _View(lambda g: (g.n, g._index.verts, g._index.sides[0], tuple(g._index.adj)))

    def __repr__(self):
        return "BipartiteGraph(n=%d, |V|=%d, |E|=%d)" % (
            self.n, len(self), sum(self._index.deg) // 2)


class _Index:
    """Sorted vertices, their positions, and per position the adjacency
    bitmask (bit j for a neighbour at position j) and the degree; below[t]
    masks the vertices of degree below t (t <= 3), `sides` the two parts,
    `core` the 2-core.  A vertex set is a mask over these positions.
    `cuts`, `zero_floor` and `parts` hold the state of `predimension._near`.
    `_Index()` is empty, and `extended` builds every index from it; its
    fields are immutable, so no index can write into the shared empties."""

    verts, adj, deg, full, below, sides, core = (), (), (), 0, (0,) * 4, (0, 0), 0
    pos = MappingProxyType({})
    cuts, zero_floor, parts = 0, None, None

    def extended(self, parts, edges):
        """This index plus the vertices `parts` (id -> part, ids above the
        old ones) at new positions and the `edges`, pairs in either order,
        possibly repeated, each with a new end or already joined: only the
        new positions and their old neighbours change.  The 2-core grows
        from the old one through the new vertices and the old pendant trees
        they touch; an untouched tree still hangs by one edge."""
        idx, old = _Index(), len(self.verts)
        idx.verts = verts = self.verts + tuple(sorted(parts))
        idx.pos = pos = dict(self.pos)
        pos.update(zip(verts[old:], new := range(old, len(verts))))
        idx.adj = adj = [*self.adj, *[0] * len(parts)]
        idx.full = (1 << len(adj)) - 1
        for u, v in edges:
            p, q = pos[u], pos[v]
            adj[p] |= 1 << q
            adj[q] |= 1 << p
        glued = _union(adj, grown := idx.full & ~self.full) & self.full
        idx.deg = deg = [*self.deg, *[m.bit_count() for m in adj[old:]]]
        for p in (bits := _bits(glued)):
            deg[p] = adj[p].bit_count()
        bits += new
        idx.below = [0] + [self.below[t] & ~glued | sum(1 << p for p in bits if deg[p] < t)
                           for t in (1, 2, 3)]
        part0 = self.sides[0] | sum(1 << p for p in new if parts[verts[p]] == 0)
        idx.sides, rest = (part0, idx.full & ~part0), self.full & ~self.core
        rim = glued & rest
        while rim:
            grown |= rim
            rim = _union(adj, rim) & rest & ~grown
        idx.core = self.core | _peel(idx, grown, self.core, 2, _union(adj, grown & idx.below[2]))
        return idx

    def mask(self, vertices):
        return sum(1 << self.pos[v] for v in vertices)

    def members(self, m):
        """The vertex ids of the mask m."""
        return frozenset(map(self.verts.__getitem__, _bits(m)))

    def edges(self, m):
        """The number of edges inside the mask m."""
        return sum((self.adj[p] & m).bit_count() for p in _bits(m)) // 2


def _bits(m):
    """The positions of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _union(masks, m):
    """The union of masks[i] over the bits i of m."""
    out = 0
    while m:
        out |= masks[(m & -m).bit_length() - 1]
        m &= m - 1
    return out


def _components(adj, within):
    """Per position, the mask of its connected component in the subgraph
    induced on the mask `within` (0 outside it)."""
    part, left = [0] * len(adj), within
    while left:
        comp = rim = left & -left
        while rim:
            rim = _union(adj, rim) & within & ~comp
            comp |= rim
        left &= ~comp
        for p in _bits(comp):
            part[p] = comp
    return part


def _balls(adj, start, radius, within=-1):
    """[B_0, ..., B_radius]: B_k masks the vertices within distance k of
    the mask `start` along paths whose later vertices lie in `within`."""
    balls = [rim := start]
    while rim and len(balls) <= radius:  # past an empty rim the ball stays
        rim = _union(adj, rim) & within & ~balls[-1]
        balls.append(balls[-1] | rim)
    return balls + balls[-1:] * (radius + 1 - len(balls))


def _peel(idx, candidates, anchor, threshold, first=-1):
    """The largest subset of the candidates (a mask over the graph's index
    `idx`, disjoint from the anchor) in which every vertex has at least
    `threshold` edges into it plus the anchor: a k-core that drops lower
    degrees at once and then rechecks only neighbours of dropped ones.
    A caller may narrow the first check to `first`, which must hold each
    candidate of degree >= threshold with a neighbour outside the anchor
    and those candidates: the others keep their degree."""
    adj = idx.adj
    alive = candidates & ~idx.below[threshold]
    check = alive & first
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


def bfs_distances(g, source):
    """Dict of BFS distances from source to every reachable vertex, read
    off the balls around it up to its eccentricity."""
    g.part(source)
    idx = g._index
    balls = _balls(idx.adj, 1 << idx.pos[source], len(idx.adj))
    balls = balls[:balls.index(balls[-1]) + 1]
    return {idx.verts[p]: d for d, (inner, ball) in enumerate(zip([0] + balls, balls))
            for p in _bits(ball & ~inner)}


def distance(g, u, v):
    """Graph distance between u and v; INFINITY if disconnected."""
    g.part(v)
    g.part(u)
    idx = g._index
    balls = _balls(idx.adj, 1 << idx.pos[u], len(idx.adj))
    return next((d for d, ball in enumerate(balls) if ball >> idx.pos[v] & 1), INFINITY)


def diameter(g):
    """Largest distance between any two vertices; INFINITY if disconnected."""
    idx, worst = g._index, 0
    for p in range(len(idx.verts)):  # eccentricity: the least radius of a full ball
        balls = _balls(idx.adj, 1 << p, len(idx.adj))
        if balls[-1] != idx.full:
            return INFINITY
        worst = max(worst, balls.index(idx.full))
    return worst


def girth(g, roots=None):
    """Length of a shortest cycle; INFINITY if the graph is a forest.

    One BFS per root, read off its balls.  A vertex at distance d with
    two neighbours in the ball of radius d-1 ends two shortest paths from
    the root, whose union holds a cycle of length at most 2d.  Conversely,
    seen from a vertex of a shortest cycle (length 2d, the graph being
    bipartite), the antipode lies at distance d with both its cycle
    neighbours at distance d-1.  Every cycle meets both parts, so the
    roots of the smaller part do; `roots` that meet every orbit of a group
    of automorphisms meet an image of every cycle.
    """
    idx, best = g._index, INFINITY
    adj = idx.adj
    for root in roots or min(g.part_vertices(0), g.part_vertices(1), key=len):
        # only shorter cycles are looked for; one through the root, of at
        # most |V| edges, closes by depth |V| / 2
        balls = _balls(adj, 1 << idx.pos[root],
                       len(adj) // 2 if best == INFINITY else best // 2 - 1)
        for d in range(1, len(balls)):
            if any((adj[w] & balls[d - 1]).bit_count() >= 2
                   for w in _bits(balls[d] & ~balls[d - 1])):
                best = 2 * d
                break
    return best


def is_generalized_ngon(g, thick=False, roots=None):
    """Check the generalized n-gon axioms: diameter n and girth 2n.

    Returns (ok, reason); reason is None on success and otherwise names
    the first failing condition with a witness.  Girth 2n already forces
    diameter >= n (a shorter path between two antipodes of a 2n-cycle
    would close a shorter cycle), so one sweep for a pair at distance
    > n decides the diameter.  Given `roots`, the least vertex of each
    orbit of a group of automorphisms, BFS starts there only: girth and
    eccentricity are invariant, so each witness, which starts at the
    least vertex that has one, starts at a root.
    """
    n = g.n
    gi = girth(g, roots)
    if gi != 2 * n:
        witness = enumerate_cycles(g, gi, roots)[0] if gi != INFINITY else None
        return False, "girth is %s, expected %d (witness cycle %s)" % (gi, 2 * n, witness)
    idx = g._index
    for v in sorted(roots or idx.verts):
        if _balls(idx.adj, 1 << idx.pos[v], n)[-1] != idx.full:
            # the least vertex v never reaches, or else the least farthest one
            balls = _balls(idx.adj, 1 << idx.pos[v], len(idx.adj))
            far = idx.full & ~balls[-1] or balls[-1] & ~balls[balls.index(balls[-1]) - 1]
            return False, "diameter is %s, expected %d (witness pair %s)" % (
                diameter(g), n, (v, idx.verts[(far & -far).bit_length() - 1]))
    if thick and idx.below[3]:  # the least vertex of valency < 3
        p = (idx.below[3] & -idx.below[3]).bit_length() - 1
        return False, "vertex %d has valency %d < 3" % (idx.verts[p], idx.deg[p])
    return True, None


def enumerate_cycles(g, length, through=None):
    """All simple cycles of exactly the given (even) length, sorted, each
    once as a vertex tuple starting at its smallest vertex and oriented so
    the second vertex is smaller than the last.  With `through` (a vertex
    set), only those meeting it: the full list filtered by `set(c) & S`.
    The sorted, single-length view of `_cycles`."""
    if length % 2 != 0 or length < 4:
        raise GraphError("cycle length must be even and >= 4, got %r" % (length,))
    through = -1 if through is None else g._index.mask(g.check_subset(through))
    return sorted(tuple(map(g._index.verts.__getitem__, _canonical(cyc)))
                  for cyc, _ in _cycles(g, (length,), through))


def _canonical(cycle):
    """A `_cycles` cycle in `enumerate_cycles` order, on sorted positions."""
    i = cycle.index(min(cycle))
    cyc = cycle[i:] + cycle[:i]
    return cyc if cyc[1] < cyc[-1] else cyc[:1] + cyc[:0:-1]


def _cycles(g, lengths, through=-1):
    """Yield each simple cycle whose length is in `lengths` (even, >= 4)
    and that meets the checked mask `through` (by default every vertex)
    once, as (its positions in cycle order, their mask), in no fixed order.

    A cycle of length L has one root r, its smallest vertex in `through`,
    and one antipode v.  From r the walk lists the simple paths of length
    L/2 over vertices above r or outside `through`, by their end: two to
    one v whose masks meet only in {r, v} close a cycle, and each cycle is
    exactly one such unordered pair (its halves), so it comes out once.
    Two halves that leave r by one first step share it and close none, so
    only halves from different first steps have their masks compared.
    Every cycle lies in the 2-core (`_Index.core`), each of its vertices
    having two neighbours on it: no walk leaves it, and a pendant path
    added last roots none."""
    idx, halves = g._index, frozenset(length // 2 for length in lengths)
    adj, core, top = idx.adj, idx.core, max(halves)
    roots = core & through
    for r in _bits(roots):
        keep = core & ~(roots & ((2 << r) - 1))
        ends, stack = {}, [((r,), 1 << r)]
        while stack:
            path, seen = stack.pop()
            p = len(path)  # the edges of a path one step longer
            m, record, push = adj[path[-1]] & keep & ~seen, p in halves, p < top
            while m:
                low = m & -m
                m ^= low
                step = path + (w := low.bit_length() - 1,), seen | low
                if record:
                    ends.setdefault((p, w), []).append(step)
                if push:
                    stack.append(step)
        for (_, v), half in ends.items():
            for (one, mask), (other, more) in combinations(half, 2):
                # two ifs, so that a line count sees the mask tests alone
                if one[1] != other[1]:
                    if mask & more == 1 << r | 1 << v:
                        yield one + other[-2:0:-1], mask | more


def ordered_cycles(g, length, start_part=None):
    """All ordered simple cycles (x_0, ..., x_{L-1}) of the given length.

    Every rotation and both orientations of each cycle are reported; with
    start_part given, only those whose starting vertex lies in that part.
    """
    return sorted({rolled for cyc in enumerate_cycles(g, length)
                   for turn in (cyc, cyc[:1] + cyc[:0:-1])
                   for rolled in (turn[k:] + turn[:k] for k in range(length))
                   if start_part is None or g.part(rolled[0]) == start_part})


def simple_paths(g, length, start=None):
    """All ordered simple paths (x_0, ..., x_length) in g, in lexicographic
    order; with `start` (a vertex set), only those with x_0 in it."""
    if length < 0:
        raise GraphError("path length must be nonnegative, got %r" % (length,))
    idx, out = g._index, []
    adj, verts = idx.adj, idx.verts
    for v in _bits(idx.full if start is None else idx.mask(g.check_subset(start))):
        stack = [((verts[v],), 1 << v)]
        while stack:
            path, seen = stack.pop()
            if len(path) == length + 1:
                out.append(path)
                continue
            m = adj[idx.pos[path[-1]]] & ~seen
            while m:  # the highest first, so that the stack pops the least
                w = m.bit_length() - 1
                stack.append((path + (verts[w],), seen | 1 << w))
                m ^= 1 << w
    return out


def _matches(g1, g2, dom, allowed=None, fixed=0):
    """Yield every injective map f of the positions in the mask `dom` into
    those of g2 that fixes the mask `fixed` (g1 being g2), keeps adjacency
    and non-adjacency between any two mapped positions and sends each p
    into the mask allowed(p) (default: anywhere), as a dict of positions.

    The order is connected where it can be: next comes the smallest
    position with a mapped neighbour, else the smallest one left, and a
    position with a mapped neighbour u only tries the neighbours of f(u).
    The yielded dict is reused by the search; copy what you keep.
    """
    adj, full, plan = g1._index.adj, g2._index.full, []
    placed, reach = fixed, _union(adj, fixed)
    while left := dom & ~placed:
        pick = left & reach or left
        p = (pick & -pick).bit_length() - 1
        plan.append((p, _bits(adj[p] & placed), allowed(p) if allowed else full))
        placed |= 1 << p
        reach |= adj[p]
    return _extend_match(g2._index.adj, plan, {p: p for p in _bits(fixed)}, fixed, 0)


def _extend_match(adj, plan, f, images, i):
    """The search of `_matches` from plan[i] on, given the target's masks
    `adj` and per step (position, earlier neighbours, allowed images):
    `f` maps the positions placed before it and `images` masks their
    images.  (A recursive closure would leave a reference cycle behind.)"""
    if i == len(plan):
        yield f
        return
    v, links, pool = plan[i]
    want = 0
    for u in links:
        want |= 1 << f[u]
        pool &= adj[f[u]]
    pool &= ~images
    while pool:
        low = pool & -pool
        pool ^= low
        c = low.bit_length() - 1
        if adj[c] & images == want:
            f[v] = c
            yield from _extend_match(adj, plan, f, images | low, i + 1)
            del f[v]


def connected_components(g, within=None):
    """Connected components of the subgraph induced on `within` (default all)."""
    idx = g._index
    within = idx.full if within is None else idx.mask(g.check_subset(within))
    # in order of least vertex: a component first shows at its least position
    return [idx.members(comp) for comp in dict.fromkeys(_components(idx.adj, within)) if comp]


def is_connected(g, within=None):
    return len(connected_components(g, within)) <= 1
