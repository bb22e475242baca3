"""Detection and enumeration of 0-algebraic and 0-minimally algebraic pairs.

A disjoint body B is 0-algebraic over a base A if delta(B/A) = 0 while
every proper nonempty sub-body has strictly positive relative delta; it is
0-minimally algebraic if additionally no proper sub-base works, which
happens exactly when every base vertex sends an edge into the body.

Both the pair test and the enumeration decide positivity by one max flow
per base on a network with a node per body vertex, memoised per body
shape and the body vertices that take a base edge (`_zero_algebraic`):
the body is 0-algebraic exactly when the residual network on it is
strongly connected.  The enumeration, `_zero_min_pairs`, yields each pair
as two masks over the graph's bitset index, from one body search and one
base walk per body; `enumerate_zero_min_pairs` is its sorted view.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

from .graph import GraphError, _balls, _bits, _peel, _union
from .predimension import _cut_network, _delta


@dataclass(frozen=True)
class ZeroAlgebraicPair:
    base: frozenset
    body: frozenset


def _require_disjoint(g, base, body):
    """The masks of base and body, disjoint vertex sets of g."""
    base, body = g.check_subset(base), g.check_subset(body)
    if base & body:
        raise GraphError("base and body must be disjoint, share %s" % sorted(base & body))
    return g._index.mask(base), g._index.mask(body)


def _shape(adj, body):
    """For a body (a mask): the `_union` table from each body vertex's
    index position to its bit in the sorted body, and the body's shape,
    each body vertex's body-neighbour mask in those bits."""
    local = {p: 1 << k for k, p in enumerate(_bits(body))}
    return local, tuple(_union(local, adj[p] & body) for p in local)


def _touched_base(g, base, body):
    """If the body is 0-algebraic over `base`, the base vertices with an
    edge into it, over which it is 0-minimally algebraic; else None."""
    base, body = _require_disjoint(g, base, body)
    if not body or _delta(g, base | body) != _delta(g, base):
        return None
    idx = g._index
    touched = idx.members(base & _union(idx.adj, body))
    counts = [(idx.adj[p] & base).bit_count() for p in _bits(body)]
    # a vertex v with two base edges has delta({v}/A) <= 3 - n <= 0, so
    # the body is 0-algebraic only if it is {v}
    if max(counts) > 1:
        return touched if body.bit_count() == 1 else None
    _, adj = _shape(idx.adj, body)
    used = sum(1 << i for i, c in enumerate(counts) if c)
    return touched if _zero_algebraic(g.n, adj, used) else None


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
    0-algebraic pair satisfies: delta(B/A) = 0, as e(A + B) = e(A) + e(B)
    + e(B,A) for disjoint A and B."""
    base, body = _require_disjoint(g, base, body)
    return _delta(g, base | body) == _delta(g, base)


def default_body_cap(n):
    # Large enough for the cycle-with-spokes witnesses up to l = 3.
    return 12 * (n - 2)


def enumerate_zero_min_pairs(g, max_body=None, around=None):
    """All pairs (A, B) with B 0-minimally algebraic over A and |B| <=
    max_body (default: large enough for the standard witnesses), sorted
    by body, then base: the sorted view of `_zero_min_pairs`.  With
    `around` (a vertex set, default: every vertex), only pairs whose base
    or body meets it are returned; the search is pruned accordingly."""
    idx, cap = g._index, default_body_cap(g.n) if max_body is None else max_body
    amask = idx.full if around is None else idx.mask(g.check_subset(around))
    return [ZeroAlgebraicPair(idx.members(a), idx.members(b)) for a, b in sorted(
        _zero_min_pairs(g, cap, amask), key=lambda pair: (_bits(pair[1]), _bits(pair[0])))]


def _zero_min_pairs(g, cap, amask, shared=False):
    """Each pair (A, B) once with B 0-minimally algebraic over A, |B| <=
    cap and A or B meeting `amask`, as masks over the graph's index in no
    fixed order.  B is connected: delta(B/A) = 0 sums over its parts.
    With `shared`, only the bodies that `_shared_bodies` keeps are walked.
    A body of >= 2 vertices meets the touch set (`amask` and its
    neighbours) and has degrees >= t = ceil(n/(n-2)) and internal degrees
    >= t-1 (each v has (n-2) e(v, B - v + A) >= n, one edge into A at
    most): it lies in the ball of radius cap - 1 around the touch set
    among the degree->=t vertices and survives a peel by t-1 of that ball."""
    n, idx, adj = g.n, g._index, g._index.adj
    touch, pairs = amask | _union(adj, amask), []
    # delta(b/A) = 0 for a singleton body forces n = 3 and two base edges;
    # b or a neighbour of b meets `amask` only if b is in the touch set
    if n == 3 and cap >= 1:
        pairs.append((1 << x | 1 << y, 1 << b) for b in _bits(touch)
                     for x, y in combinations(_bits(adj[b]), 2)
                     if (1 << x | 1 << y | 1 << b) & amask)
    if cap >= 2:
        t = -(-n // (n - 2))
        high = idx.full & ~idx.below[t]
        ground = _peel(idx, _balls(adj, touch & high, cap - 1, high)[-1], 0, t - 1)
        # near[k] is the ground within distance k of the touch set near[0],
        # so near[cap - 1] holds each body
        near = _balls(adj, touch & ground, cap - 1, ground)
        bodies = _candidate_bodies(idx, n, near, cap)
        bodies = _shared_bodies(adj, bodies, amask) if shared else bodies
        pairs.append((base, body) for body, target, _ in bodies
                     for base in _pairs_for_body(g, body, target, amask))
    return chain.from_iterable(pairs)


def _shared_bodies(adj, bodies, amask):
    """The (B, target, required) from `_candidate_bodies` that may have a
    base with a second copy of B or outside `amask`: (a) another B' with
    the |B|, target and #required of B has, on its rim N(B') - B', an
    outside neighbour of each required vertex of B, or (b) B meets `amask`
    and each required vertex has an outside neighbour outside it.  A copy
    B' over A is 0-minimally algebraic over A, so A is on its rim, and a
    required vertex takes exactly one base edge, from A: each member of a
    copy class passes (a), one over a base outside `amask` passes (b), and
    a dropped body's bases meet `amask` and carry no second copy."""
    groups, shift = {}, len(adj)  # B packed with its required mask: one int each
    for body, target, required in bodies:
        groups.setdefault((body.bit_count(), target, required.bit_count()), []).append(
            required << shift | body)
    for (_, target, _), group in groups.items():
        holders = {}  # a rim position -> the group's bodies (bits) whose rim holds it
        for i, (_, body) in enumerate(divmod(item, 1 << shift) for item in group):
            for x in _bits(_union(adj, body) & ~body):
                holders[x] = holders.get(x, 0) | 1 << i
        for i, (required, body) in enumerate(divmod(item, 1 << shift) for item in group):
            others, old = ((1 << len(group)) - 1) ^ 1 << i, body & amask
            for v in _bits(required):  # v's outside neighbours are on B's rim: keys
                outside = adj[v] & ~body
                others &= _union(holders, outside)
                old = old and outside & ~amask
            if others or old:
                yield body, target, required


def _pairs_for_body(g, body, target, amask):
    """Yield each base A (a mask over the graph's index) over which B is
    0-minimally algebraic and A or B meets the mask `amask`, for a body
    B (a mask) from `_candidate_bodies`, target = delta(B)/(n-2).

    Such an A lies in the boundary, has e(B, A) = target and sends at most
    one edge to each body vertex (the sub-body {v} has positive relative
    delta), so its vertices have disjoint body neighbourhoods; a required
    vertex, at the minimum internal degree, must take a base edge.  If the
    admissible boundary vertices miss a required vertex or cover fewer
    than `target` body vertices there is no A; the body vertices they
    cannot cover get no base edge.  One stack branches on the lowest
    undecided body vertex v they cover: a boundary vertex whose lowest
    body neighbour is v and whose body neighbourhood avoids every decided
    vertex takes v and decides that neighbourhood, or, if v is not
    required, v gets no base edge.  By disjointness at most one vertex of
    A covers v, so each A is reached once.  If B misses `amask`, a vertex
    joins A only while its nonempty body neighbourhood is all undecided:
    a branch whose chosen vertices miss `amask` reaches an A meeting it
    only if an admissible boundary vertex in `amask` covers an undecided
    body vertex, and is cut otherwise (at the root, the whole walk).

    For n >= 4 and |B| > n - 2, taking v also decides the body vertices
    within body distance n - 3 of the new neighbourhood, and is refused
    if a required vertex is among them: two touched vertices at body
    distance d <= n - 3 lie on a shortest path P in B of k = d + 1 < |B|
    vertices, induced, with e(P, A) >= 2, so delta(P/A) <= (n-1)k -
    (n-2)(k+1) = k - (n-2) <= 0.

    The verdict for A depends only on n, the body's shape and the body
    vertices A touches (`_zero_algebraic`), and is memoised on those: a
    body shape met again in a later growth step costs one lookup per base.
    """
    n, adj, need = g.n, g._index.adj, 2 if g.n == 3 else 1
    amask = -1 if body & amask else amask  # B meets it: every A is wanted
    local, shape = _shape(adj, body)
    required = sum(1 << i for i, m in enumerate(shape) if m.bit_count() == need)
    radius = n - 3 if len(shape) > n - 2 else 0
    ball = [1 << i for i in range(len(shape))]  # the body within radius of i
    for _ in range(radius):
        ball = [_union(ball, m | 1 << i) for i, m in enumerate(shape)]
    by_low, cover, acover = {}, 0, 0  # acover: covered from `amask`
    for a in _bits(_union(adj, body) & ~body):
        m = _union(local, adj[a] & body)
        near = _union(ball, m) if radius else m
        if m.bit_count() <= target and not near & ~m & required:
            by_low.setdefault(m & -m, []).append((1 << a, m, near))
            cover |= m
            acover |= m if 1 << a & amask else 0
    if required & ~cover or cover.bit_count() < target or not acover:
        return
    # decided, used (the body vertices that `chosen` touches), chosen, e(B, chosen)
    stack = [(0, 0, 0, 0)]
    while stack:
        decided, used, chosen, weight = stack.pop()
        if weight == target:
            if chosen & amask and not required & ~used and _zero_algebraic(n, shape, used):
                yield chosen
            continue
        # an open vertex takes at most one base edge, a required one exactly
        open_ = cover & ~decided
        if weight + open_.bit_count() < target \
                or weight + (open_ & required).bit_count() > target \
                or not (chosen & amask or open_ & acover):
            continue
        low = open_ & -open_
        if not low & required:
            stack.append((decided | low, used, chosen, weight))
        for a, m, near in by_low.get(low, ()):
            if not m & decided and weight + m.bit_count() <= target:
                stack.append((decided | near, used | m, chosen | a,
                              weight + m.bit_count()))


@lru_cache(maxsize=4096)
def _zero_algebraic(n, adj, used):
    """Is the body with internal adjacency `adj` 0-algebraic over a base A
    that sends one edge to each body vertex in the mask `used` and none to
    the others, given delta(B/A) = 0?

    Min-cut over the body (`_cut_network` with F = B and no peel): the
    cut of X <= B costs 2 delta(X/A) plus a constant, so X = {} and X = B
    cost the same.  After a maximum flow, the minimum cuts are exactly the
    source sides closed under residual arcs (Picard and Queyranne, Math.
    Prog. Study 13, 1980).  If the residual network on B is strongly
    connected, no proper nonempty X is closed, so every proper sub-body
    has positive relative delta.  Conversely, if B is 0-algebraic, {} and
    B are minimum cuts, every source and sink arc is saturated, and any
    X <= B closed under the residual arcs inside B is a minimum cut,
    hence {} or B.
    """
    net = _cut_network(n, [2 * (n - 1) - (n - 2) * (
        2 * (used >> i & 1) + m.bit_count())
        for i, m in enumerate(adj)],
        ((j, i) for i, m in enumerate(adj) for j in _bits(m & ((1 << i) - 1))))
    net.max_flow(0, 1)
    # strongly connected: body node 2 reaches every body node, and back
    return all(len(net.reach(2, back, 2)) == len(adj) for back in (0, 1))


def _candidate_bodies(idx, n, near, cap):
    """Yield (B, delta(B)/(n-2), required) for each connected B inside the
    ground near[-1] with 2 <= |B| <= cap that meets the touch set near[0]
    and passes the tests `_pairs_for_body` relies on: (n-2) | delta(B) > 0,
    #required <= delta(B)/(n-2) <= #supply, required inside supply.  A
    body vertex needs internal degree >= 2 for n = 3 and >= 1 otherwise,
    since (n-2) e(v, rest + A) >= n; the required ones, at exactly that
    degree, take a base edge.  The supply is the body vertices with an
    outside neighbour (each takes at most one base edge), less, for n >= 4
    and |B| > n - 2, those next to a required w: a boundary vertex a has
    its body neighbours m in one part, so w, next to some v in m, lies in
    a's ball of radius n - 3 but not in m, and `_pairs_for_body` refuses
    a.  Its cover lies in this supply, so a body dropped here has no base.

    The search reaches B through connected subsets S of B.  A branch dies
    as soon as some chosen vertex cannot reach its internal degree from
    chosen plus undecided neighbours, or by weight.  For connected S
    inside B, delta(S / (B - S) + A) is delta(B/A) = 0 minus
    delta((B - S)/A) > 0 unless S = B, so (n-1)|S| <= (n-2)(e(S) +
    e(S, B - S + A)) <= (n-2)(sum_S deg(v) - e(S)), degrees taken in the
    whole graph.  With e(S) >= |S| - 1: sum_S w(v) >= -(n-2) for
    w(v) = (n-2) deg(v) - (2n-3), strictly unless S = B.  A branch below
    -(n-2) thus holds no body, and one at -(n-2) is not extended.  For
    n = 3 the ground peel leaves degree >= 3 only, so this never fires.
    near[k] masks the ground vertices within ground distance k of the
    touch set, so branches that cannot reach it within the cap are cut.

    A node pays for its last vertex u, not for |S|: it keeps delta(S) and
    masks of the chosen vertices at internal degree >= 2 and >= 3 (>= 1
    holds on all of S once |S| >= 2) and with no outside neighbour, which
    change only at u and its chosen neighbours.  A child's feasible set
    (chosen plus undecided) is its parent's minus the siblings killed
    before it, so only u, and on killing u its chosen neighbours, can
    fall short; the root is checked before its walk.  B and its required
    vertices are masks over `idx`, yielded as found: memory follows depth.
    """
    need, floor = 2 if n == 3 else 1, -(n - 2)
    adj, deg, ground = idx.adj, idx.deg, near[-1]
    weight = [(n - 2) * d - (2 * n - 3) for d in deg]
    for r in _bits(ground):
        gt_root = ground & ~((1 << (r + 1)) - 1)
        if (adj[r] & gt_root).bit_count() < need:
            continue
        # depth first over the connected subsets with least vertex r; the
        # children take the u of `ext` in turn, the earlier u's dead
        stack = [(1 << r, 1, weight[r], adj[r] & gt_root, 0, n - 1, 0, 0, 0)]
        while stack:
            current, size, wsum, ext, dead, dlt, two, three, closed = stack.pop()
            if size >= 2 and current & near[0]:
                required = two & ~three if n == 3 else current & ~two
                target, rest = divmod(dlt, n - 2)
                if (n > 3 or two == current) and not required & closed \
                        and dlt > 0 and not rest \
                        and required.bit_count() <= target <= size - closed.bit_count():
                    no_supply = closed | (_union(adj, required) & current
                                          if n > 3 and size > n - 2 else 0)
                    if not required & no_supply and target <= size - no_supply.bit_count():
                        yield current, target, required
            if size >= cap or wsum == floor:
                continue
            # room left for reaching the touch set after one more vertex
            room = cap - size - 1
            while ext:
                low = ext & -ext
                ext ^= low
                u = low.bit_length() - 1
                feasible, inner = current | (gt_root & ~dead), adj[u] & current
                cur2 = current | low
                bad = wsum + weight[u] < floor or (adj[u] & feasible).bit_count() < need
                if not bad and not cur2 & near[0]:
                    bad = not room or not feasible & ~cur2 & near[room - 1]
                if not bad:
                    k, closed2, m = inner.bit_count(), closed, inner | low
                    while m:
                        b = m & -m
                        m ^= b
                        closed2 |= 0 if adj[b.bit_length() - 1] & ~cur2 else b
                    stack.append((cur2, size + 1, wsum + weight[u],
                                  ext | (adj[u] & gt_root & ~cur2 & ~dead), dead,
                                  dlt + (n - 1) - (n - 2) * k,
                                  two | (inner if size > 1 else 0) | (low if k > 1 else 0),
                                  three | (two & inner) | (low if k > 2 else 0), closed2))
                dead, feasible = dead | low, feasible & ~low
                m = inner  # killing u may starve them, and all later siblings
                while m and (adj[(m & -m).bit_length() - 1] & feasible).bit_count() >= need:
                    m &= m - 1
                if m:
                    break
