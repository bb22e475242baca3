import gc
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

import ngons.kmu
import ngons.zeroalg
from ngons import (BipartiteGraph, GraphError, default_body_cap,
                   degree_identity_check, delta, delta_rel,
                   enumerate_zero_min_pairs, grow, is_connected, is_strong,
                   is_zero_algebraic, is_zero_minimally_algebraic,
                   make_cl_witness, make_cycle, make_gamma, make_path,
                   minimal_base)
from ngons.graph import _balls, _peel, _union
from conftest import MaskOracle, line_counts, random_bipartite, sparse_graph


@pytest.fixture(scope="module")
def enumeration_graphs(small_graphs):
    """The shared corpus plus n = 5 graphs and sparse graphs of up to 14
    vertices, on which the weight cut of the body search fires."""
    rng = random.Random(20261018)
    graphs = list(small_graphs) + [make_path(5, 8), make_cycle(5, 12),
                                   make_gamma(5)]
    graphs += [random_bipartite(rng, 5, 9, 0.3) for _ in range(4)]
    for size in range(8, 15):
        for n in (4, 5):
            graphs.append(sparse_graph(rng, n, size, closed=(size + n) % 2 == 0))
    return graphs


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_remark_path_interior_iff(n, m):
    """The interior of a path (m vertices) is 0-minimally algebraic over
    the endpoints exactly when m = n-2."""
    if m > n:
        pytest.skip("m ranges over 1..n")
    g = make_path(n, m + 1)
    got = is_zero_minimally_algebraic(g, g.subsets["endpoints"],
                                      g.subsets["interior"])
    assert got == (m == n - 2)
    assert is_zero_algebraic(g, g.subsets["endpoints"],
                             g.subsets["interior"]) == (m == n - 2)


def test_zero_algebraic_matches_mask_oracle(small_graphs):
    """is_zero_algebraic agrees with brute force on every body over
    random bases, for n = 3, 4, 5.  Among the bodies with delta(B/A) = 0
    occur positives, singletons (n = 3), disconnected bodies and, at
    n = 3 and at n = 4, bodies with a vertex of two base edges, which are
    decided before any flow, so each case of the reduction is reached."""
    rng = random.Random(20261018)
    graphs = list(small_graphs) + [random_bipartite(rng, 5, 9, 0.35)
                                   for _ in range(3)]
    seen = Counter()
    for g in graphs:
        oracle = MaskOracle(g)
        verts = sorted(g.vertices)
        for _ in range(6):
            base = frozenset(rng.sample(verts, rng.randrange(1, 6)))
            amask = oracle.mask(base)
            positive = set(oracle.zero_algebraic_bodies(amask))
            for bmask in oracle.supersets(0):
                if not bmask or bmask & amask:
                    continue
                body = oracle.unmask(bmask)
                got = is_zero_algebraic(g, base, body)
                assert got == (bmask in positive)
                assert is_zero_minimally_algebraic(g, base, body) == (
                    got and all(g.neighbors(a) & body for a in base))
                if oracle.delta_rel(bmask, amask) != 0:
                    continue
                seen["positive"] += got
                seen["singleton", g.n] += len(body) == 1
                seen["disconnected"] += not is_connected(g, body)
                seen["two_edges", g.n] += len(body) > 1 and any(
                    len(g.neighbors(v) & base) > 1 for v in body)
    assert seen["positive"] and seen["disconnected"], seen
    assert seen["singleton", 3], seen
    assert seen["two_edges", 3] and seen["two_edges", 4], seen


def test_vertex_with_two_base_edges_fails():
    """K_{3,2} over two lines that both meet point 0: the body is
    connected with delta(B/A) = 0, but {0} alone has relative delta 0:
    its two base edges leave it a proper minimiser of the body's cut."""
    g = BipartiteGraph(3, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1},
                       [(p, q) for p in (0, 1, 2) for q in (3, 4)]
                       + [(0, 5), (2, 5), (0, 6), (1, 6)])
    base, body = {5, 6}, {0, 1, 2, 3, 4}
    assert delta_rel(g, body, base) == delta_rel(g, {0}, base) == 0
    assert is_connected(g, body)
    oracle = MaskOracle(g)
    assert oracle.mask(body) not in oracle.zero_algebraic_bodies(
        oracle.mask(base))
    assert not is_zero_algebraic(g, base, body)


def test_non_disjoint_rejected():
    g = make_path(3, 2)
    with pytest.raises(GraphError):
        is_zero_algebraic(g, {0, 1}, {1, 2})


def test_minimal_base_drops_redundant_vertices():
    g = make_path(3, 2)
    # interior {1} over endpoints {0,2}: already minimal
    assert minimal_base(g, {0, 2}, {1}) == frozenset({0, 2})
    # enlarge the ambient with an isolated extra base vertex
    from ngons import BipartiteGraph
    h = BipartiteGraph(3, {0: 0, 1: 1, 2: 0, 9: 0}, [(0, 1), (1, 2)])
    assert is_zero_algebraic(h, {0, 2, 9}, {1})
    assert minimal_base(h, {0, 2, 9}, {1}) == frozenset({0, 2})
    assert not is_zero_minimally_algebraic(h, {0, 2, 9}, {1})
    # idempotent
    assert minimal_base(h, {0, 2}, {1}) == frozenset({0, 2})


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_cycle_with_spokes_witness(n, l):
    g = make_cl_witness(n, l)
    a0, c = g.subsets["A0"], g.subsets["C"]
    assert delta(g, c) == 4 * l * (n - 2)
    assert delta_rel(g, c, a0) == 0
    assert is_zero_minimally_algebraic(g, a0, c)
    assert degree_identity_check(g, a0, c)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("l", [2, 3])
def test_with_b_variant(n, l):
    g = make_cl_witness(n, l, with_b=True)
    c = g.subsets["C"]
    assert g.edge_count(c, g.subsets["b"]) == 1
    assert is_zero_minimally_algebraic(g, g.subsets["A0b"], c)
    # over A0 alone one spoke is missing, so it is no longer 0-algebraic
    assert not is_zero_algebraic(g, g.subsets["A0"], c)


def test_degree_identity_on_enumerated_pairs(small_graphs):
    for g in small_graphs:
        for pair in enumerate_zero_min_pairs(g):
            assert degree_identity_check(g, pair.base, pair.body)
            assert is_zero_minimally_algebraic(g, pair.base, pair.body)


def test_enumeration_matches_mask_oracle(enumeration_graphs):
    """Brute force agrees with the enumeration for n = 3, 4, 5, with and
    without `around`."""
    rng = random.Random(7)
    for g in enumeration_graphs:
        expect = {(a, b) for (a, b) in MaskOracle(g).zero_min_pairs()
                  if len(b) <= default_body_cap(g.n)}
        got = {(p.base, p.body) for p in enumerate_zero_min_pairs(g)}
        assert got == expect
        around = frozenset(rng.sample(sorted(g.vertices), 2))
        got = {(p.base, p.body)
               for p in enumerate_zero_min_pairs(g, around=around)}
        assert got == {(a, b) for (a, b) in expect if (a | b) & around}
    assert {g.n for g in enumeration_graphs} == {3, 4, 5}


def test_body_weight_and_supply_bounds(enumeration_graphs):
    """The bounds the body search cuts by hold on every enumerated pair
    with |B| >= 2: e(B, A) is at most the number of body vertices with an
    outside neighbour, and over every connected S inside B the weights
    (n-2) deg(v) - (2n-3) sum to at least -(n-2), strictly unless S = B.
    The corpus also holds connected sets that pass the degree tests but
    not the weight bound, so the cut is exercised."""
    cut = 0
    for g in enumeration_graphs:
        n = g.n
        oracle = MaskOracle(g)
        weight = {v: (n - 2) * g.degree(v) - (2 * n - 3) for v in g.vertices}
        for p in enumerate_zero_min_pairs(g):
            if len(p.body) < 2:
                continue
            supply = sum(1 for v in p.body if g.neighbors(v) - p.body)
            assert g.edge_count(p.body, p.base) <= supply
            assert sum(weight[v] for v in p.body) >= -(n - 2)
            for s in oracle.connected_subsets(oracle.mask(p.body)):
                if s != p.body:
                    assert sum(weight[v] for v in s) > -(n - 2)
        need = 2 if n == 3 else 1
        cut += sum(1 for s in oracle.connected_subsets(oracle.mask(g.vertices))
                   if len(s) >= 2
                   and all(len(g.neighbors(v) & s) >= need
                           and g.degree(v) >= 2 for v in s)
                   and sum(weight[v] for v in s) < -(n - 2))
    assert cut > 0


def test_enumeration_around_restriction(small_graphs):
    for g in small_graphs[:6]:
        around = frozenset(sorted(g.vertices)[:2])
        full = [p for p in enumerate_zero_min_pairs(g)
                if (p.base | p.body) & around]
        restricted = enumerate_zero_min_pairs(g, around=around)
        assert sorted((p.base, p.body) for p in restricted) == \
            sorted((p.base, p.body) for p in full)


def test_singletons_around_a_leaf_or_a_base_vertex(grow_outputs):
    """At n = 3 every vertex b with two neighbours x, y gives the
    singleton pair ({x, y}, {b}).  With `around` a pendant leaf next to a
    vertex of degree >= 3, or one base vertex of a singleton pair, the
    enumeration equals the full list filtered by it, including singleton
    pairs kept only through their base."""
    def leafy(g):
        # a leaf on every third vertex of degree >= 2
        hubs = [v for v in sorted(g.vertices) if g.degree(v) >= 2][::3]
        parts = {v: g.part(v) for v in g.vertices}
        first = max(parts) + 1
        parts.update({first + i: 1 - g.part(h) for i, h in enumerate(hubs)})
        return BipartiteGraph(3, parts, set(g.edges) | {
            (h, first + i) for i, h in enumerate(hubs)})

    graphs = [g for g, _ in grow_outputs.values()]
    graphs += [leafy(make_cl_witness(3, l)) for l in (2, 3)]
    through_base = 0
    for g in graphs:
        full = enumerate_zero_min_pairs(g)
        leaves = [v for v in sorted(g.vertices) if g.degree(v) == 1
                  and g.degree(min(g.neighbors(v))) >= 3]
        singles = [p for p in full if len(p.body) == 1]
        assert leaves and singles
        for around in [{v} for v in leaves[:4]] + [
                {min(p.base)} for p in singles[::7]]:
            got = enumerate_zero_min_pairs(g, around=around)
            assert got == [p for p in full if (p.base | p.body) & around]
            through_base += sum(1 for p in got if len(p.body) == 1
                                and not p.body & around)
    assert through_base


def test_path_has_exactly_one_pair():
    for n in (3, 4, 5):
        g = make_path(n, n - 1)
        pairs = enumerate_zero_min_pairs(g)
        assert len(pairs) == 1
        assert pairs[0].base == g.subsets["endpoints"]
        assert pairs[0].body == g.subsets["interior"]


def test_equal_or_disjoint_on_small_graphs(small_graphs):
    """For strong A, 0-algebraic bodies over A are equal or disjoint."""
    for g in small_graphs:
        oracle = MaskOracle(g)
        for amask in range(1, 1 << oracle.k):
            if not oracle.is_strong(oracle.unmask(amask)):
                continue
            bodies = oracle.zero_algebraic_bodies(amask)
            for i, b1 in enumerate(bodies):
                for b2 in bodies[i + 1:]:
                    assert b1 == b2 or not (b1 & b2)


def test_lemma_body_over_subbase(small_graphs):
    """For A strong and D 0-minimally algebraic over A0 <= A and disjoint
    from A, D is 0-algebraic over A."""
    for g in small_graphs[:6]:
        oracle = MaskOracle(g)
        for base, body in oracle.zero_min_pairs():
            sup = base | (frozenset(g.vertices) - body - base)
            for a in (base, sup):
                if is_strong(g, a)[0] and not (a & body):
                    assert is_zero_algebraic(g, a, body)


def test_body_search_streams(monkeypatch):
    """The enumeration never holds all candidate bodies at once: with the
    base search stubbed out, the peak traced memory of the body search
    stays below what the yielded bodies alone would take.  The full
    collection first empties the free lists, so that holding the bodies
    would show up as fresh allocations.  cl(4, 3) at cap 8 yields about
    1,200 bodies, enough to stand well above the search's own peak."""
    assert len(enumerate_zero_min_pairs(make_cl_witness(4, 2), 8)) == 60
    held = 0
    real = ngons.zeroalg._candidate_bodies

    def sizing(*args):
        nonlocal held
        for item in real(*args):
            held += sys.getsizeof(item) + sys.getsizeof(item[0])
            yield item

    monkeypatch.setattr(ngons.zeroalg, "_candidate_bodies", sizing)
    monkeypatch.setattr(ngons.zeroalg, "_pairs_for_body", lambda *args: [])
    g = make_cl_witness(4, 3)
    g._index
    gc.collect()
    tracemalloc.start()
    try:
        enumerate_zero_min_pairs(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held > 0
    assert peak < held


def _pair_answers(graphs):
    """Enumerated pairs and pair-test verdicts on each graph: every
    enumerated pair, the same body over the base minus a vertex and plus
    an outside vertex, and random disjoint pairs."""
    out = []
    for g in graphs:
        rng = random.Random(repr(sorted(g.edges)))
        pairs = enumerate_zero_min_pairs(g)
        verts = sorted(g.vertices)
        tests = [(p.base, p.body) for p in pairs]
        for base, body in tests[:20]:
            rest = [v for v in verts if v not in base | body]
            tests.append((base - {min(base)}, body))
            if rest:
                tests.append((base | {rng.choice(rest)}, body))
        for _ in range(20):
            sample = rng.sample(verts, rng.randrange(2, len(verts) + 1))
            cut = rng.randrange(1, len(sample))
            tests.append((frozenset(sample[:cut]), frozenset(sample[cut:])))
        out.append((pairs, [(is_zero_algebraic(g, a, b),
                             is_zero_minimally_algebraic(g, a, b))
                            for a, b in tests]))
    return out


def test_memo_answers_cold_and_warm(enumeration_graphs):
    """The verdict memo changes no answer: enumeration and pair tests
    agree with an emptied memo, a warm one and one filled in the reverse
    graph order.  The memo is bounded."""
    memo = ngons.zeroalg._zero_algebraic
    assert memo.cache_info().maxsize is not None
    memo.cache_clear()
    cold = _pair_answers(enumeration_graphs)
    hits = memo.cache_info().hits
    assert _pair_answers(enumeration_graphs) == cold
    assert memo.cache_info().hits > hits
    memo.cache_clear()
    assert _pair_answers(enumeration_graphs[::-1]) == cold[::-1]
    assert sum(bool(verdicts[0]) for _, tested in cold
               for verdicts in tested) > 0


def test_memo_shared_by_relabelled_bodies():
    """A second copy of a configuration, its ids shifted so that the
    sorted order of each body is kept, meets only memoised body shapes
    and gets the shifted pairs of the first copy."""
    w = make_cl_witness(4, 2)
    shift = 1000
    parts = {v: w.part(v) for v in w.vertices}
    parts.update({v + shift: w.part(v) for v in w.vertices})
    g = BipartiteGraph(4, parts, list(w.edges)
                       + [(u + shift, v + shift) for u, v in w.edges])
    memo = ngons.zeroalg._zero_algebraic
    memo.cache_clear()
    first = enumerate_zero_min_pairs(w, 8)
    misses = memo.cache_info().misses
    both = enumerate_zero_min_pairs(g, 8)
    assert memo.cache_info().misses == misses
    moved = [ngons.ZeroAlgebraicPair(frozenset(v + shift for v in p.base),
                                     frozenset(v + shift for v in p.body))
             for p in first]
    assert len(first) == 60
    assert sorted(both, key=lambda p: (sorted(p.body), sorted(p.base))) == \
        sorted(first + moved, key=lambda p: (sorted(p.body), sorted(p.base)))
    for p in moved:
        assert is_zero_minimally_algebraic(g, p.base, p.body)


def _as_sets(g, bases):
    """Base masks over the graph's index, as vertex sets."""
    verts = g._index.verts
    return [frozenset(verts[i] for i in range(len(verts)) if base >> i & 1)
            for base in bases]


def test_base_search_matches_brute_force(monkeypatch, grow_outputs):
    """For every candidate body with at most 14 boundary vertices, on cl
    witnesses with and without b, on cl(5, 2) and cl(6, 2) at small caps
    (where the radius n - 3 that a touched body vertex blocks exceeds 1)
    and on grown n = 3 and n = 4 graphs, the base search yields exactly
    the A inside the boundary with e(B, A) = delta(B)/(n-2) over which B
    is 0-minimally algebraic (its base masks read as vertex sets).  Every
    boundary vertex sends an edge into B, so such an A has at most that
    many vertices.  The enumeration lists each base of the walk with its
    own body, and the pair search around a set that the body misses,
    run on that body alone, keeps exactly its bases that meet the set."""
    graphs = [(make_cl_witness(n, l, with_b=b), None)
              for n, l in ((3, 2), (3, 3), (4, 2)) for b in (False, True)]
    graphs += [(make_cl_witness(5, 2), 10), (make_cl_witness(6, 2), 8)]
    graphs += [(g, None) for g, _ in grow_outputs.values()]
    graphs += [(grow(make_cycle(4, 10), 2, s,
                     templates=("pendant_path", "path_completion",
                                "cycle_attach"))[0], None) for s in range(1, 7)]
    real = ngons.zeroalg._candidate_bodies
    seen, only = [], []

    def record(*args):
        if only:  # the body search yields that one body alone
            yield from only
            return
        for item in real(*args):
            seen.append(item)
            yield item

    monkeypatch.setattr(ngons.zeroalg, "_candidate_bodies", record)
    bodies = pairs = seeded = 0
    per_n = Counter()
    for g, cap in graphs:
        seen.clear()
        index = g._index
        listed = {(index.mask(p.base), index.mask(p.body))
                  for p in enumerate_zero_min_pairs(g, cap) if len(p.body) > 1}
        # the pair stream gives each base of the walk its own body
        assert listed == {(a, mask) for mask, target, _ in seen for a in
                          ngons.zeroalg._pairs_for_body(g, mask, target, index.full)}
        for mask, target, required in seen:
            body = frozenset(v for i, v in enumerate(index.verts)
                             if mask >> i & 1)
            boundary = sorted(set().union(*(g.neighbors(v) for v in body))
                              - body)
            if len(boundary) > 14:
                continue
            into = {a: len(g.neighbors(a) & body) for a in boundary}
            expect = {frozenset(a) for k in range(1, target + 1)
                      for a in combinations(boundary, k)
                      if sum(into[v] for v in a) == target
                      and is_zero_minimally_algebraic(g, a, body)}
            got = _as_sets(g, ngons.zeroalg._pairs_for_body(g, mask, target, index.full))
            assert len(got) == len(set(got))
            assert set(got) == expect
            # a body that misses `around` gets the bases that meet it
            around = frozenset(boundary[::3])
            only[:] = [(mask, target, required)]
            got = _as_sets(g, [a for a, b in ngons.zeroalg._zero_min_pairs(
                g, cap or default_body_cap(g.n), index.mask(around)) if b == mask])
            only.clear()
            assert len(got) == len(set(got))
            assert set(got) == {a for a in expect if a & around}
            bodies += 1
            pairs += len(expect)
            seeded += len(got)
            per_n[g.n] += len(expect)
    assert sorted(per_n) == [3, 4, 5, 6] and min(per_n.values()) > 10, per_n
    assert bodies > 1000 and pairs > 100 and seeded > 50


@pytest.mark.parametrize("n, seed, steps", [(3, 1, 20), (3, 2, 20), (3, 4, 20),
                                            (4, 4, 2), (4, 5, 2), (4, 5, 3)])
def test_enumeration_around_the_last_step(n, seed, steps):
    """With `around` set to the vertices that the last growth step added,
    the enumeration equals the full list filtered by them, as in the
    membership check of that step, including pairs whose body misses
    them."""
    seed_graph = make_cycle(n, 2 * n + 2)
    kw = {} if n == 3 else {"templates": ("pendant_path", "path_completion",
                                           "cycle_attach")}
    before, _ = grow(seed_graph, steps - 1, seed, **kw)
    after, log = grow(seed_graph, steps, seed, **kw)
    new = after.vertices - before.vertices
    assert log[-1].accepted and new
    full = enumerate_zero_min_pairs(after)
    got = enumerate_zero_min_pairs(after, around=new)
    assert got == [p for p in full if (p.base | p.body) & new]
    assert any(not p.body & new for p in got)


def _peel_pairs(g, cap, amask, radius=None):
    """The pairs of `_zero_min_pairs` with |B| >= 2 from a body search on
    the degree->=t vertices, peeled by t - 1: of the whole graph, or with
    a radius, of its ball of that radius around the touch set."""
    n, idx = g.n, g._index
    t = -(-n // (n - 2))
    touch, high = amask | _union(idx.adj, amask), idx.full & ~idx.below[t]
    if radius is not None:
        high = _balls(idx.adj, touch & high, radius, high)[-1]
    ground = _peel(idx, high, 0, t - 1)
    near = _balls(idx.adj, touch & ground, cap - 1, ground)
    return {(base, body) for body, target, _ in
            ngons.zeroalg._candidate_bodies(idx, n, near, cap)
            for base in ngons.zeroalg._pairs_for_body(g, body, target, amask)}


def test_local_peel_finds_the_whole_graph_pairs(enumeration_graphs, grow_outputs):
    """The pair search peels only the ball of radius cap - 1 around the
    touch set, and its pairs with |B| >= 2 equal those of a whole-graph
    peel: on the shared corpus, the cl witnesses with and without b and
    the grown graphs, with every vertex new and around single vertices."""
    graphs = list(enumeration_graphs) + [g for g, _ in grow_outputs.values()]
    graphs += [make_cl_witness(n, l, with_b=b)
               for n, l in ((3, 2), (3, 3), (4, 2)) for b in (False, True)]
    pairs = around = 0
    for g in graphs:
        idx, cap = g._index, default_body_cap(g.n)
        for amask in [idx.full] + [1 << p for p in range(0, len(idx.verts), 5)]:
            got = {(a, b) for a, b in ngons.zeroalg._zero_min_pairs(g, cap, amask)
                   if b & (b - 1)}
            assert got == _peel_pairs(g, cap, amask)
            pairs += len(got)
            around += len(got) if amask != idx.full else 0
    assert pairs > 1000 and around > 100, (pairs, around)


def test_local_peel_radius_is_tight():
    """The ball radius cap - 1 is the least that keeps every body: at
    n >= 4 the path x_0 ... x_{n-1} has the body x_1 ... x_{n-2} of n - 2
    vertices over {x_0, x_{n-1}}, and with `around` = {x_0} and cap = n - 2
    its far end lies at distance cap - 1 from the touch set, so a peel in
    the ball of radius cap - 2 loses the pair.  (At n = 3 a body has
    internal degrees >= 2 and stays nearer.)"""
    for n in (4, 5, 6):
        g, cap = make_path(n, n - 1), n - 2
        idx = g._index
        amask, pair = idx.mask({0}), (idx.mask({0, n - 1}), idx.mask(range(1, n - 1)))
        got = {(a, b) for a, b in ngons.zeroalg._zero_min_pairs(g, cap, amask)
               if b & (b - 1)}
        assert pair in got and got == _peel_pairs(g, cap, amask)
        assert got == _peel_pairs(g, cap, amask, cap - 1)
        assert pair not in _peel_pairs(g, cap, amask, cap - 2)


def test_pair_peel_stays_in_the_ball(monkeypatch):
    """In the membership checks of a 120-step growth, each peel of the
    pair search gets only vertices of degree >= t within distance cap - 1
    of the touch set (the new vertices and their neighbours), by BFS; in
    the later checks that is a small part of the graph."""
    real_pairs, real_peel, peels = ngons.kmu._zero_min_pairs, ngons.zeroalg._peel, []

    def pairs(g, cap, amask, shared=False):
        peels.append([g, cap, amask])
        return real_pairs(g, cap, amask, shared)

    def peel(idx, candidates, anchor, threshold):
        peels[-1].append(candidates)
        return real_peel(idx, candidates, anchor, threshold)

    monkeypatch.setattr(ngons.kmu, "_zero_min_pairs", pairs)
    monkeypatch.setattr(ngons.zeroalg, "_peel", peel)
    g, _ = grow(make_cycle(3, 8), 120, 1)
    assert len(g) > 300 and len(peels) > 80
    for h, cap, amask, candidates in peels:
        idx = h._index
        new = idx.members(amask)
        dist = {v: 0 for v in new.union(*map(h.neighbors, new))}
        queue = list(dist)
        for v in queue:
            for w in h.neighbors(v) - dist.keys():
                dist[w] = dist[v] + 1
                queue.append(w)
        ball = {v for v, d in dist.items() if d <= cap - 1 and h.degree(v) >= 3}
        assert idx.members(candidates) <= ball
    h, _, amask, candidates = peels[-1]
    assert 10 * candidates.bit_count() < len(h) and amask != h._index.full


def _supply(g, body, required):
    """The body vertices that can take a base edge: those with an outside
    neighbour, less, for n >= 4 and |B| > n - 2, the neighbours of the
    required vertices."""
    supply = {v for v in body if g.neighbors(v) - body}
    if g.n > 3 and len(body) > g.n - 2:
        supply -= {v for w in required for v in g.neighbors(w)}
    return supply


@pytest.mark.parametrize("n, l, cap, count", [(5, 2, None, 20920), (3, 3, None, 58),
                                              (4, 3, 10, 4732)])
def test_body_search_yields_checked_bodies(monkeypatch, n, l, cap, count):
    """Each (B, target) that the body search yields on a cl witness,
    recomputed from scratch: B is connected with 2 <= |B| <= cap, each
    body vertex has internal degree at least 2 (n = 3) or 1, target =
    delta(B)/(n-2) > 0 exactly, the required vertices (at that degree)
    have an outside neighbour, and #required <= target <= supply, the
    number of body vertices with an outside neighbour and, for n >= 4 and
    |B| > n - 2, no neighbour in B that is required.  No body comes twice,
    and the number of bodies is pinned."""
    real, seen = ngons.zeroalg._candidate_bodies, []

    def record(*args):
        for item in real(*args):
            seen.append(item)
            yield item

    monkeypatch.setattr(ngons.zeroalg, "_candidate_bodies", record)
    monkeypatch.setattr(ngons.zeroalg, "_pairs_for_body", lambda *args: [])
    g = make_cl_witness(n, l)
    cap = default_body_cap(n) if cap is None else cap
    enumerate_zero_min_pairs(g, cap)
    need, verts = 2 if n == 3 else 1, g._index.verts
    for mask, target, rmask in seen:
        body = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        assert 2 <= len(body) <= cap and is_connected(g, body)
        inner = {v: len(g.neighbors(v) & body) for v in body}
        assert min(inner.values()) >= need
        required = {v for v in body if inner[v] == need}
        assert rmask == g._index.mask(required)
        supply = _supply(g, body, required)
        assert required <= supply
        assert (n - 2) * target == delta(g, body) > 0
        assert len(required) <= target <= len(supply)
    assert len({mask for mask, _, _ in seen}) == len(seen) == count


def _bodies_without_the_neighbour_rule(g, cap):
    """For n >= 4, each connected B with 2 <= |B| <= cap that passes the
    body tests without the rule that leaves the neighbours of required
    vertices out of the supply, mapped to delta(B)/(n-2): (n-2) | delta(B)
    > 0, and #required <= delta(B)/(n-2) <= #supply with every required
    vertex (internal degree 1) in the supply (the vertices with an outside
    neighbour).  Sets grow one neighbour at a time while their weights
    (n-2) deg(v) - (2n-3) sum above -(n-2), which loses no body of a pair
    (`test_body_weight_and_supply_bounds`)."""
    n, out, seen = g.n, {}, set()
    weight = {v: (n - 2) * g.degree(v) - (2 * n - 3) for v in g.vertices}
    stack = [frozenset({v}) for v in g.vertices]
    while stack:
        body = stack.pop()
        if body in seen:
            continue
        seen.add(body)
        total = sum(weight[v] for v in body)
        if len(body) >= 2 and total >= -(n - 2):
            required = [v for v in body if len(g.neighbors(v) & body) == 1]
            supply = {v for v in body if g.neighbors(v) - body}
            target, rest = divmod(delta(g, body), n - 2)
            if target > 0 and not rest and set(required) <= supply \
                    and len(required) <= target <= len(supply):
                out[body] = target
        if total > -(n - 2) and len(body) < cap:
            stack.extend(body | {w} for v in body for w in g.neighbors(v) - body)
    return out


def test_dropped_bodies_have_no_base(monkeypatch):
    """At n >= 4 and |B| > n - 2 a body vertex next to a required vertex
    supplies no base edge.  Every body that passes the tests without
    that rule but that the body search does not yield has no base, by
    brute force over the boundary subsets A with e(B, A) = target; the
    search yields no body outside those tests.  Besides the bodies that
    this rule drops, some fail the weight cut along the search's path.
    The corpus is cl(4, 2), cl(4, 3), cl(5, 2) and cl(6, 2), the last
    three at cap 8, and grown n = 4 graphs."""
    real, seen = ngons.zeroalg._candidate_bodies, []

    def record(*args):
        for item in real(*args):
            seen.append(item[0])
            yield item

    monkeypatch.setattr(ngons.zeroalg, "_candidate_bodies", record)
    monkeypatch.setattr(ngons.zeroalg, "_pairs_for_body", lambda *args: [])
    graphs = [(make_cl_witness(4, 2), 24)]
    graphs += [(make_cl_witness(n, l), 8) for n, l in ((4, 3), (5, 2), (6, 2))]
    graphs += [(grow(make_cycle(4, 10), 2, s,
                     templates=("pendant_path", "path_completion",
                                "cycle_attach"))[0], 24) for s in range(1, 7)]
    dropped = ruled = 0
    for g, cap in graphs:
        seen.clear()
        enumerate_zero_min_pairs(g, cap)
        verts = g._index.verts
        yielded = {frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
                   for mask in seen}
        bodies = _bodies_without_the_neighbour_rule(g, cap)
        assert yielded <= bodies.keys()
        for body, target in bodies.items():
            if body in yielded:
                continue
            boundary = sorted(set().union(*(g.neighbors(v) for v in body)) - body)
            into = {a: len(g.neighbors(a) & body) for a in boundary}
            assert not any(sum(into[v] for v in a) == target
                           and is_zero_minimally_algebraic(g, a, body)
                           for k in range(1, target + 1)
                           for a in combinations(boundary, k))
            dropped += 1
            required = {v for v in body if len(g.neighbors(v) & body) == 1}
            supply = _supply(g, body, required)
            ruled += not (required <= supply and target <= len(supply))
    assert dropped >= ruled > 1500


def _line_counts(run):
    """Line events, while run() runs, on the stack pops of the body search
    and of the base walk and on the first line of the base search, which
    runs once per yielded body."""
    return line_counts(run, (ngons.zeroalg._candidate_bodies, "stack.pop()"),
                       (ngons.zeroalg._pairs_for_body, "n, adj, need = "),
                       (ngons.zeroalg._pairs_for_body, "stack.pop()"))


@pytest.mark.parametrize("n, l, cap, counts", [(3, 2, None, [8, 1, 5]),
                                               (3, 3, None, [2441, 49, 347]),
                                               (4, 2, 8, [973, 10, 52])])
def test_search_node_counts(n, l, cap, counts):
    """The pair search, around the least A0 vertex of a cl witness, pops
    a pinned number of body search nodes, yields a pinned number of
    bodies and pops a pinned number of base walk nodes, so a lost prune
    shows here and not only in run time: the sibling stop of the body
    search (on both n = 3 inputs), the neighbour rule of its supply and
    the base walk's cut on `amask` (on cl(4, 2))."""
    g = make_cl_witness(n, l)
    around = {min(g.subsets["A0"])}
    assert _line_counts(lambda: enumerate_zero_min_pairs(g, cap, around)) == counts


def test_body_search_matches_brute_force_at_n3(monkeypatch):
    """At n = 3, where the weight cut never fires, the body search over
    every vertex yields exactly the connected sets that pass its tests,
    found by brute force on dense random graphs, where many bodies fail
    #required <= target, and on K_{4,5}, where delta(B) <= 0 for B = K_{4,4}
    and K_{4,5}."""
    real, seen = ngons.zeroalg._candidate_bodies, []

    def record(*args):
        for item in real(*args):
            seen.append(item)
            yield item

    monkeypatch.setattr(ngons.zeroalg, "_candidate_bodies", record)
    monkeypatch.setattr(ngons.zeroalg, "_pairs_for_body", lambda *args: [])
    rng, yielded = random.Random(11), 0
    k45 = BipartiteGraph(3, {i: int(i >= 4) for i in range(9)},
                         [(a, b) for a in range(4) for b in range(4, 9)])
    for g in [k45] + [random_bipartite(rng, 3, 12, 0.45) for _ in range(40)]:
        oracle, expect = MaskOracle(g), set()
        for body in oracle.connected_subsets(oracle.mask(g.vertices)):
            inner = {v: len(g.neighbors(v) & body) for v in body}
            required = [v for v in body if inner[v] == 2]
            supply = sum(1 for v in body if g.degree(v) > inner[v])
            if len(body) >= 2 and min(inner.values()) >= 2 and delta(g, body) > 0 \
                    and all(g.degree(v) > 2 for v in required) \
                    and len(required) <= delta(g, body) <= supply:
                expect.add((body, delta(g, body)))
        seen.clear()
        enumerate_zero_min_pairs(g, len(g))
        verts = g._index.verts
        got = [(frozenset(v for i, v in enumerate(verts) if mask >> i & 1), target)
               for mask, target, _ in seen]
        assert len(got) == len(set(got)) and set(got) == expect
        yielded += len(got)
    assert yielded > 300
