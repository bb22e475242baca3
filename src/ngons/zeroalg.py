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
base-edge count the boundary can supply reach the exact-cover base search
(`_candidate_bodies`).
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


def _touched_base(g, base, body):
    """The base vertices with an edge into `body`, over which the body is
    then 0-minimally algebraic, if it is 0-algebraic over `base`; else None.
    """
    base, body = _require_disjoint(g, base, body)
    if not body or delta_rel(g, body, base) != 0:
        return None
    touched = frozenset(a for a in base if g.neighbors(a) & body)
    counts = [len(g.neighbors(v) & base) for v in sorted(body)]
    levels = tuple(sum(1 << i for i, c in enumerate(counts) if c > j)
                   for j in range(max(counts)))
    return touched if _pairs_for_body(g, body, [(touched, levels)]) else None


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

    With `around` (a vertex set), only pairs whose base or body meets it
    are returned; the search is pruned accordingly.
    """
    n = g.n
    cap = default_body_cap(n) if max_body is None else max_body
    around = None if around is None else g.check_subset(around)
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
        dist = None
        if around is not None:
            # a relevant pair has base or body meeting `around`, so its
            # body meets `around` or the neighbourhood of `around`, the
            # touch set; a connected body then stays within the cap-ball
            # around that
            touch = set(around).union(*(g.neighbors(v) for v in around))
            dist = _ball(g, touch & ground, cap - 1, ground.__contains__)
            ground = set(dist)
        for body, target in _candidate_bodies(g, ground, cap, dist):
            pairs.extend(_pairs_for_body(g, body,
                                         _candidate_bases(g, body, target)))
    if around is not None:
        pairs = [p for p in pairs if (p.base | p.body) & around]
    return sorted(pairs, key=lambda p: (sorted(p.body), sorted(p.base)))


def _pairs_for_body(g, body, bases):
    """The pairs (A, body) with `body` 0-minimally algebraic over A, for
    (A, L) in `bases`, in their order, given delta(body/A) = 0: L[c] is
    the mask, over the sorted body, of the body vertices with more than c
    edges into A.

    The verdict for A is a pure function of n, the body's internal
    adjacency (masks over its sorted vertices) and L (`_zero_algebraic`),
    so memoising it on exactly those is exact, and a body shape met again
    in a later growth step costs one lookup per base.
    """
    bverts = sorted(body)
    bpos = {v: i for i, v in enumerate(bverts)}
    adj = tuple(_mask(bpos, g.neighbors(v)) for v in bverts)
    return [ZeroAlgebraicPair(base, body, "minimally_algebraic")
            for base, levels in bases if _zero_algebraic(g.n, adj, levels)]


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


def _candidate_bodies(g, ground, cap, dist=None):
    """Yield (B, delta(B)/(n-2)) for each connected B inside `ground` with
    2 <= |B| <= cap that passes the tests `_candidate_bases` relies on:
    (n-2) | delta(B) > 0, and #required <= delta(B)/(n-2) <= supply(B)
    with every required vertex having an outside neighbour.  A body
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
    With `dist`, the BFS distance inside the ground graph from each
    ground vertex to a touch set, only subsets meeting the touch set (at
    distance 0) are produced, and branches that cannot reach it within
    the size cap are cut.  Bodies are yielded as the search finds them,
    so memory follows the search depth, not the number of bodies.
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

    near = None
    if dist is not None:
        # near[k]: the ground vertices within distance k of the touch set
        near = [_mask(pos, [v for v in verts if dist[v] <= k])
                for k in range(cap)]
        if not near[0]:
            return

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
            found = size >= 2 and (near is None or current & near[0]) \
                and target(current, size)
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
                if not bad and near is not None and not cur2 & near[0]:
                    bad = not room or not feasible & ~cur2 & near[room - 1]
                if not bad:
                    stack.append((cur2, size + 1, wsum + weight[u],
                                  ext | (adj[u] & gt_root & ~cur2 & ~dead),
                                  dead))
                dead |= low


def _candidate_bases(g, body, target):
    """Yield (A, (M,)) for the subsets A of the outside neighbourhood
    with e(B,A) = target = delta(B)/(n-2) and at most one edge per body
    vertex into A (forced for |B| >= 2), where M is the mask, over the
    sorted body, of the vertices A touches (so (M,) are the levels of
    `_pairs_for_body`); `_candidate_bodies` has checked the body's
    degrees.

    Two structural facts shape the search.  Since each body vertex takes
    at most one base edge, the chosen base vertices have pairwise disjoint
    neighbourhoods inside the body.  And a body vertex at the minimum
    internal degree must receive a base edge (removing it from the body
    would otherwise leave a sub-body with nonpositive relative delta), so
    those vertices pose an exact-cover problem: branching on the lowest
    uncovered one at each step visits every admissible base exactly once.
    """
    need = 2 if g.n == 3 else 1
    bverts = sorted(body)
    bpos = {v: i for i, v in enumerate(bverts)}
    required = _mask(bpos, [v for v in bverts
                            if len(g.neighbors(v) & body) == need])
    boundary = sorted(set().union(*(g.neighbors(v) for v in body)) - body)
    masks, weights, names = [], [], []
    for a in boundary:
        m = _mask(bpos, g.neighbors(a))
        if m.bit_count() <= target:
            masks.append(m)
            weights.append(m.bit_count())
            names.append(a)
    covering = {}
    for j, m in enumerate(masks):
        mm = m & required
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            covering.setdefault(i, []).append(j)
    suffix = [0] * (len(masks) + 1)
    for j in range(len(masks) - 1, -1, -1):
        suffix[j] = suffix[j + 1] + weights[j]

    def extend(idx, used, chosen, weight):
        # all required bits covered; add further disjoint base vertices in
        # index order until the edge count reaches the target
        if weight == target:
            yield frozenset(names[j] for j in chosen), (used,)
            return
        if weight + suffix[idx] < target:
            return
        for j in range(idx, len(masks)):
            if weight + weights[j] <= target and not masks[j] & used:
                yield from extend(j + 1, used | masks[j], chosen + [j],
                                  weight + weights[j])

    def cover(used, chosen, weight):
        missing = required & ~used
        if not missing:
            yield from extend(0, used, chosen, weight)
            return
        if weight + missing.bit_count() > target:
            return
        i = (missing & -missing).bit_length() - 1
        for j in covering.get(i, ()):
            if not masks[j] & used and weight + weights[j] <= target:
                yield from cover(used | masks[j], chosen + [j],
                                 weight + weights[j])

    yield from cover(0, [], 0)
