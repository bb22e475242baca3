import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

import ngons.zeroalg
from ngons import (BipartiteGraph, GraphError, default_body_cap,
                   degree_identity_check, delta, delta_rel,
                   enumerate_zero_min_pairs, grow, is_connected, is_strong,
                   is_zero_algebraic, is_zero_minimally_algebraic,
                   make_cl_witness, make_cycle, make_gamma, make_path,
                   minimal_base)
from conftest import MaskOracle, random_bipartite, sparse_graph


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
    occur positives, singletons, disconnected bodies and bodies with a
    vertex of two base edges, so each case of the reduction is reached."""
    rng = random.Random(20261018)
    graphs = list(small_graphs) + [random_bipartite(rng, 5, 9, 0.35)
                                   for _ in range(3)]
    seen = {"positive": 0, "singleton": 0, "disconnected": 0, "two_edges": 0}
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
                seen["singleton"] += len(body) == 1
                seen["disconnected"] += not is_connected(g, body)
                seen["two_edges"] += len(body) > 1 and any(
                    len(g.neighbors(v) & base) > 1 for v in body)
    assert all(seen.values()), seen


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
    """The enumeration never holds all candidate bodies at once: its peak
    traced memory stays below what the bodies alone would take."""
    held = 0
    real = ngons.zeroalg._candidate_bodies

    def sizing(*args):
        nonlocal held
        for item in real(*args):
            held += sys.getsizeof(item) + sys.getsizeof(item[0])
            yield item

    monkeypatch.setattr(ngons.zeroalg, "_candidate_bodies", sizing)
    tracemalloc.start()
    try:
        pairs = enumerate_zero_min_pairs(make_cl_witness(4, 2), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 60
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
                                     frozenset(v + shift for v in p.body),
                                     p.kind) for p in first]
    assert len(first) == 60
    assert sorted(both, key=lambda p: (sorted(p.body), sorted(p.base))) == \
        sorted(first + moved, key=lambda p: (sorted(p.body), sorted(p.base)))
    for p in moved:
        assert is_zero_minimally_algebraic(g, p.base, p.body)


def test_base_search_matches_brute_force(monkeypatch, grow_outputs):
    """For every candidate body with at most 14 boundary vertices, on cl
    witnesses with and without b, on cl(5, 2) and cl(6, 2) at small caps
    (where the radius n - 3 that a touched body vertex blocks exceeds 1)
    and on grown n = 3 and n = 4 graphs, the base search yields exactly
    the A inside the boundary with e(B, A) = delta(B)/(n-2) over which B
    is 0-minimally algebraic.  Every boundary vertex sends an edge into B,
    so such an A has at most that many vertices."""
    graphs = [(make_cl_witness(n, l, with_b=b), None)
              for n, l in ((3, 2), (3, 3), (4, 2)) for b in (False, True)]
    graphs += [(make_cl_witness(5, 2), 10), (make_cl_witness(6, 2), 8)]
    graphs += [(g, None) for g, _ in grow_outputs.values()]
    graphs += [(grow(make_cycle(4, 10), 2, s,
                     templates=("pendant_path", "path_completion",
                                "cycle_attach"))[0], None) for s in range(1, 7)]
    real = ngons.zeroalg._candidate_bodies
    seen = []

    def record(*args):
        for body, target in real(*args):
            seen.append((body, target))
            yield body, target

    monkeypatch.setattr(ngons.zeroalg, "_candidate_bodies", record)
    bodies = pairs = 0
    per_n = Counter()
    for g, cap in graphs:
        seen.clear()
        enumerate_zero_min_pairs(g, cap)
        for body, target in seen:
            boundary = sorted(set().union(*(g.neighbors(v) for v in body))
                              - body)
            if len(boundary) > 14:
                continue
            into = {a: len(g.neighbors(a) & body) for a in boundary}
            expect = {frozenset(a) for k in range(1, target + 1)
                      for a in combinations(boundary, k)
                      if sum(into[v] for v in a) == target
                      and is_zero_minimally_algebraic(g, a, body)}
            got = [p.base for p in ngons.zeroalg._pairs_for_body(g, body,
                                                                 target)]
            assert len(got) == len(set(got))
            assert set(got) == expect
            bodies += 1
            pairs += len(got)
            per_n[g.n] += len(got)
    assert sorted(per_n) == [3, 4, 5, 6] and min(per_n.values()) > 10, per_n
    assert bodies > 1000 and pairs > 100
