"""Detection and enumeration of 0-algebraic and 0-minimally algebraic pairs.

A disjoint body B is 0-algebraic over a base A if delta(B/A) = 0 while
every proper nonempty sub-body has strictly positive relative delta; it is
0-minimally algebraic if additionally no proper sub-base works, which
happens exactly when every base vertex sends an edge into the body.

Both the pair test and the enumeration decide positivity by one max flow
per base on a network with a node per body vertex, memoised per body
shape and per-vertex base-edge counts (`_zero_algebraic`): the body is
0-algebraic exactly when the residual network on it is strongly
connected.  The body search runs over bitmasks, is cut by a vertex-weight
bound that every connected piece of a body meets, and only bodies whose
base-edge count the boundary can supply reach the base search, one walk
over the body's vertices per body (`_pairs_for_body`).  For n >= 4 that
walk keeps the touched body vertices at body distance n - 2 or more.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graph import GraphError, _ball
from .predimension import _cut_network, _peel, _violator_threshold, delta_rel


@dataclass(frozen=True)
class ZeroAlgebraicPair:
    base: frozenset
    body: frozenset
    kind: str  # "algebraic" or "minimally_algebraic"


def _require_disjoint(g, base, body):
    base = g.check_subset(base)
    body = g.check_subset(body)
    if base & body:
        raise GraphError("base and body must be disjoint, share %s"
                         % sorted(base & body))
    return base, body


def _mask(pos, vertices):
    """The bitmask of those `vertices` that `pos` indexes."""
    m = 0
    for w in vertices:
        if w in pos:
            m |= 1 << pos[w]
    return m


def _union(masks, m):
    """The union of masks[i] over the bits i of m."""
    out = 0
    while m:
        out |= masks[(m & -m).bit_length() - 1]
        m &= m - 1
    return out


def _index(g, body):
    """Positions in the sorted body, and each vertex's body-neighbour mask."""
    bpos = {v: i for i, v in enumerate(sorted(body))}
    return bpos, tuple(_mask(bpos, g.neighbors(v)) for v in bpos)


def _touched_base(g, base, body):
    """The base vertices with an edge into `body`, over which the body is
    then 0-minimally algebraic, if it is 0-algebraic over `base`; else None.
    """
    base, body = _require_disjoint(g, base, body)
    if not body or delta_rel(g, body, base) != 0:
        return None
    touched = frozenset(a for a in base if g.neighbors(a) & body)
    bpos, adj = _index(g, body)
    counts = [len(g.neighbors(v) & base) for v in bpos]
    levels = tuple(sum(1 << i for i, c in enumerate(counts) if c > j)
                   for j in range(max(counts)))
    return touched if _zero_algebraic(g.n, adj, levels) else None


def is_zero_algebraic(g, base, body):
    """delta(body/base) = 0 and every proper nonempty sub-body has
    positive relative delta."""
    return _touched_base(g, base, body) is not None


def minimal_base(g, base, body):
    """The unique sub-base over which the body is 0-minimally algebraic:
    exactly the base vertices with at least one edge into the body."""
    touched = _touched_base(g, base, body)
    if touched is None:
        raise GraphError("body is not 0-algebraic over the given base")
    return touched


def is_zero_minimally_algebraic(g, base, body):
    return _touched_base(g, base, body) == g.check_subset(base)


def degree_identity_check(g, base, body):
    """The edge-count identity |B|(n-1) = (n-2)(e(B) + e(B,A)) that every
    0-algebraic pair satisfies."""
    base, body = _require_disjoint(g, base, body)
    n = g.n
    return len(body) * (n - 1) == (n - 2) * (g.edge_count(body) + g.edge_count(body, base))


def default_body_cap(n):
    # Large enough for the cycle-with-spokes witnesses up to l = 3.
    return 12 * (n - 2)


def enumerate_zero_min_pairs(g, max_body=None, around=None):
    """All pairs (A, B) with B 0-minimally algebraic over A and
    |B| <= max_body (default: large enough for the standard witnesses).

    Only connected bodies are searched: a disconnected body has a
    component with nonpositive relative delta, contradicting minimality.

    With `around` (a vertex set, default: every vertex), only pairs whose
    base or body meets it are returned; the search is pruned accordingly.
    """
    n = g.n
    cap = default_body_cap(n) if max_body is None else max_body
    around = g.vertices if around is None else g.check_subset(around)
    pairs = []
    # Singleton bodies: delta(b/A) = 0 forces (n-2) | n-1, i.e. n = 3 with
    # exactly two base neighbours.
    if n == 3 and cap >= 1:
        for b in sorted(g.vertices):
            for ends in combinations(sorted(g.neighbors(b)), 2):
                pairs.append(ZeroAlgebraicPair(frozenset(ends), frozenset((b,)),
                                               "minimally_algebraic"))
    if cap >= 2:
        # In a body of size >= 2 every vertex v has (n-2) e(v, rest of body
        # + base) >= n with at most one edge into the base, so it needs
        # degree >= t and internal degree >= t-1; peeling by the latter
        # cuts n = 3 graphs at every plain path.
        t = _violator_threshold(n)
        ground = _peel(g, {v for v in g.vertices if len(g.neighbors(v)) >= t},
                       (), t - 1)
        # a relevant pair has base or body meeting `around`, so its body
        # meets `around` or the neighbourhood of `around`, the touch set;
        # a connected body then stays within the cap-ball around that
        touch = set(around).union(*(g.neighbors(v) for v in around))
        dist = _ball(g, touch & ground, cap - 1, ground.__contains__)
        for body, target in _candidate_bodies(g, set(dist), cap, dist):
            pairs.extend(_pairs_for_body(g, body, target))
    pairs = [p for p in pairs if (p.base | p.body) & around]
    return sorted(pairs, key=lambda p: (sorted(p.body), sorted(p.base)))


def _pairs_for_body(g, body, target):
    """The pairs (A, body) with `body` 0-minimally algebraic over A, for a
    body that `_candidate_bodies` yielded with target = delta(B)/(n-2).

    Such an A lies in the boundary, has e(B, A) = target and sends at most
    one edge to each body vertex (the sub-body {v} has positive relative
    delta), so its vertices have disjoint body neighbourhoods; a required
    vertex, at the minimum internal degree, must take a base edge.  One
    stack branches on the lowest undecided body vertex v: a boundary
    vertex whose lowest body neighbour is v and whose body neighbourhood
    avoids every decided vertex takes v and decides that neighbourhood,
    or, if v is not required, v gets no base edge.  Each admissible A is
    reached exactly once: by disjointness at most one vertex of A covers
    v, and none of the decided vertices below v is its neighbour.

    For n >= 4 and |B| > n - 2, taking v also decides the body vertices
    within body distance n - 3 of the new neighbourhood, without a base
    edge, and is refused if a required vertex is among them: two touched
    vertices at body distance d <= n - 3 lie on a shortest path P in B of
    k = d + 1 < |B| vertices, induced, with e(P, A) >= 2, so delta(P/A)
    <= (n-1)k - (n-2)(k+1) = k - (n-2) <= 0.  n = 3 takes no new work.

    The verdict for A depends only on n, the body's internal adjacency
    and the mask of the body vertices A touches (`_zero_algebraic`), so
    it is memoised on exactly those: a body shape met again in a later
    growth step costs one lookup per base.
    """
    n = g.n
    need = 2 if n == 3 else 1
    bpos, adj = _index(g, body)
    required = sum(1 << i for i, m in enumerate(adj) if m.bit_count() == need)
    radius = n - 3 if len(adj) > n - 2 else 0
    ball = [m | 1 << i for i, m in enumerate(adj)] if radius else ()
    for _ in range(radius - 1):  # ball[i]: the body vertices within radius of i
        ball = [_union(ball, m | 1 << i) for i, m in enumerate(adj)]
    by_low = {}
    for a in sorted(set().union(*(g.neighbors(v) for v in body)) - body):
        m = _mask(bpos, g.neighbors(a))
        near = _union(ball, m) if radius else m
        if m.bit_count() <= target and not near & ~m & required:
            by_low.setdefault((m & -m).bit_length() - 1, []).append((a, m, near))
    full = (1 << len(adj)) - 1
    pairs = []
    # (decided, used = the body vertices that `chosen` touches, chosen,
    # e(B, chosen))
    stack = [(0, 0, (), 0)]
    while stack:
        decided, used, chosen, weight = stack.pop()
        if weight == target:
            if not required & ~used and _zero_algebraic(n, adj, (used,)):
                pairs.append(ZeroAlgebraicPair(frozenset(chosen), body,
                                               "minimally_algebraic"))
            continue
        # each open vertex takes at most one base edge, a required one
        # exactly one
        open_ = full & ~decided
        if weight + open_.bit_count() < target \
                or weight + (open_ & required).bit_count() > target:
            continue
        low = open_ & -open_
        if not low & required:
            stack.append((decided | low, used, chosen, weight))
        for a, m, near in by_low.get(low.bit_length() - 1, ()):
            if not m & decided and weight + m.bit_count() <= target:
                stack.append((decided | near, used | m, chosen + (a,),
                              weight + m.bit_count()))
    return pairs


@lru_cache(maxsize=4096)
def _zero_algebraic(n, adj, levels):
    """Is the body with internal adjacency `adj` 0-algebraic over a base A
    that sends e(v, A) = #{c : v in levels[c]} edges to each body vertex
    v, given delta(B/A) = 0?

    Min-cut over the body (`_cut_network` with F = B and no peel): the
    cut of X <= B costs 2 delta(X/A) plus a constant, so X = {} and X = B
    are both cuts of equal cost.  After a maximum flow, the minimum cuts
    are exactly the source sides closed under residual arcs (Picard and
    Queyranne, Math. Prog. Study 13, 1980).  If the residual network on B
    is strongly connected, no proper nonempty X is closed, so the minimum
    is reached at {} and B only, and every proper sub-body has positive
    relative delta.  Conversely, if B is 0-algebraic, the minimum is 0,
    so {} and B are minimum cuts: every source and sink arc is saturated,
    and any X <= B closed under the residual arcs inside B is a minimum
    cut, hence {} or B.  A negative minimum thus always shows up as a
    broken strong connectivity.
    """
    k = len(adj)
    net, _ = _cut_network(n, [(sum(level >> i & 1 for level in levels),
                               [j for j in range(k) if m >> j & 1])
                              for i, m in enumerate(adj)])
    net.max_flow(0, 1)
    return net.strongly_connected(2)


def _candidate_bodies(g, ground, cap, dist):
    """Yield (B, delta(B)/(n-2)) for each connected B inside `ground` with
    2 <= |B| <= cap that meets the touch set and passes the tests
    `_pairs_for_body` relies on: (n-2) | delta(B) > 0, and #required <=
    delta(B)/(n-2) <= supply(B) with every required vertex having an
    outside neighbour.  A body
    vertex needs internal degree >= 2 for n = 3 and >= 1 otherwise, since
    (n-2) e(v, rest + A) >= n, and the required ones, at exactly that
    degree, must take a base edge; supply(B) counts the vertices with a
    neighbour outside B, each of which takes at most one base edge (the
    sub-body {v} has positive relative delta).

    The search runs over bitmasks and reaches B through connected subsets
    of B.  A branch dies as soon as some chosen vertex cannot reach its
    internal degree from chosen plus undecided neighbours, or by weight.
    For connected S inside B, delta(S / (B - S) + A) is delta(B/A) = 0
    minus delta((B - S)/A) > 0 unless S = B, so (n-1)|S| <= (n-2)(e(S) +
    e(S, B - S + A)) <= (n-2)(sum_S deg(v) - e(S)), degrees taken in the
    whole graph.  With e(S) >= |S| - 1: sum_S w(v) >= -(n-2) for
    w(v) = (n-2) deg(v) - (2n-3), strictly unless S = B.  A branch below
    -(n-2) thus holds no body, and one at -(n-2) is not extended.  (For
    n = 4: a connected piece of a body has at most 2 + sum (2 deg(v) - 5)
    over its vertices of degree >= 3 vertices of degree 2.)  For n = 3
    the ground peel leaves degree >= 3 only, so the cut never fires.
    `dist` holds the BFS distance inside the ground graph from each ground
    vertex to the touch set (the vertices at distance 0); only subsets
    meeting it are produced, and branches that cannot reach it within the
    size cap are cut.  Bodies are yielded as the search finds them, so
    memory follows the search depth, not the number of bodies.
    """
    n = g.n
    need = 2 if n == 3 else 1
    floor = -(n - 2)
    verts = sorted(ground)
    pos = {v: i for i, v in enumerate(verts)}
    adj = [_mask(pos, g.neighbors(v)) for v in verts]
    deg = [len(g.neighbors(v)) for v in verts]
    weight = [(n - 2) * d - (2 * n - 3) for d in deg]
    full = (1 << len(verts)) - 1

    # near[k]: the ground vertices within distance k of the touch set
    near = [_mask(pos, [v for v in verts if dist[v] <= k]) for k in range(cap)]

    def target(current, size):
        # delta(B)/(n-2) if B passes the tests above, else 0
        twice_edges = supply = required = 0
        m = current
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            inner = (adj[i] & current).bit_count()
            if inner < need or inner == need == deg[i]:
                return 0
            supply += inner < deg[i]
            required += inner == need
            twice_edges += inner
        dlt = (n - 1) * size - (n - 2) * (twice_edges // 2)
        if dlt > 0 and dlt % (n - 2) == 0 and required <= dlt // (n - 2) <= supply:
            return dlt // (n - 2)
        return 0

    for r in range(len(verts)):
        gt_root = full & ~((1 << (r + 1)) - 1)
        # depth first over the connected subsets with least vertex r.  The
        # children of a subset take the vertices u of its extension `ext`
        # in turn; each one adds u, its new neighbours to `ext`, and the
        # earlier u's to `dead`.
        stack = [(1 << r, 1, weight[r], adj[r] & gt_root, 0)]
        while stack:
            current, size, wsum, ext, dead = stack.pop()
            found = size >= 2 and current & near[0] and target(current, size)
            if found:
                yield frozenset(v for i, v in enumerate(verts)
                                if current >> i & 1), found
            if size >= cap or wsum == floor:
                continue
            # room left for reaching the touch set after one more vertex
            room = cap - size - 1
            while ext:
                low = ext & -ext
                ext ^= low
                u = low.bit_length() - 1
                cur2 = current | low
                bad = wsum + weight[u] < floor
                feasible = cur2 | (gt_root & ~dead)
                m = cur2
                while m and not bad:
                    i = (m & -m).bit_length() - 1
                    m &= m - 1
                    bad = (adj[i] & feasible).bit_count() < need
                if not bad and not cur2 & near[0]:
                    bad = not room or not feasible & ~cur2 & near[room - 1]
                if not bad:
                    stack.append((cur2, size + 1, wsum + weight[u],
                                  ext | (adj[u] & gt_root & ~cur2 & ~dead),
                                  dead))
                dead |= low
