import gc
import random

import pytest
import ngons.predimension
from hypothesis import given, settings, strategies as st

from ngons import (acl_relative, closure, d_min, d_rel, default_horizon, delta,
                   delta_rel, grow, is_strong, make_cl_witness, make_cycle,
                   make_gamma, make_path, BipartiteGraph, GraphError)
from ngons.graph import enumerate_cycles
from ngons.predimension import _hull_cut, _min_superset
from conftest import MaskOracle, random_bipartite, sparse_graph


# ----------------------------------------------------------- exact values

def test_delta_basics():
    g = make_path(4, 0)
    assert delta(g, {0}) == 3  # single vertex: n-1
    assert delta(g, frozenset()) == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("r", range(13))
def test_delta_path_identity(n, r):
    g = make_path(n, r)
    assert delta(g, g.vertices) == (n - 1) + r


def test_delta_rel_identities():
    g = make_cycle(3, 8)
    a, b = frozenset({0, 1, 2}), frozenset({5, 6})
    # disjoint: delta(A/B) = delta(A) - (n-2) e(A,B)
    assert delta_rel(g, a, b) == delta(g, a) - (g.n - 2) * g.edge_count(a, b)
    assert delta_rel(g, a, a | b) == 0  # A subset of B


@pytest.mark.parametrize("n", [3, 4, 5])
def test_path_interior_relative_delta_zero(n):
    g = make_path(n, n - 1)
    assert delta_rel(g, g.subsets["interior"], g.subsets["endpoints"]) == 0


def test_strong_path_examples():
    for n in (3, 4, 5):
        good = make_path(n, n - 1)
        ok, _ = is_strong(good, good.subsets["endpoints"])
        assert ok
    # for n = 3 a length-(n-2) path is a single edge and its endpoints are
    # the whole graph, so the failing example starts at n = 4
    for n in (4, 5, 6):
        bad = make_path(n, n - 2)
        ok, witness = is_strong(bad, bad.subsets["endpoints"])
        assert not ok
        assert witness == bad.vertices  # the whole path violates
        assert d_min(bad, bad.subsets["endpoints"]) == 2 * n - 3


def test_is_strong_requires_containment():
    g = make_path(3, 3)
    with pytest.raises(GraphError):
        is_strong(g, {0, 3}, {0, 1})
    with pytest.raises(GraphError):
        d_min(g, {0, 3}, {0, 1})


def test_closure_examples():
    for n in (3, 4, 5):
        bad = make_path(n, n - 2)
        assert closure(bad, bad.subsets["endpoints"]) == bad.vertices
    g = make_cycle(3, 8)
    a = frozenset({0, 4})
    assert closure(g, closure(g, a)) == closure(g, a)


def test_acl_examples():
    g = make_gamma(3)
    assert acl_relative(g, g.vertices) == g.vertices
    # gamma is its own algebraic closure in its standalone graph
    assert acl_relative(g, g.subsets["gamma"]) == g.subsets["gamma"]
    h = random_bipartite(random.Random(5), 3, 6, 0.0)  # edgeless
    assert acl_relative(h, {0}) == frozenset({0})


# ------------------------------------------------- brute-force cross-checks

def test_against_mask_oracle(small_graphs):
    rng = random.Random(7)
    for g in small_graphs:
        oracle = MaskOracle(g)
        verts = sorted(g.vertices)
        subsets = [frozenset(rng.sample(verts, rng.randrange(1, len(verts))))
                   for _ in range(25)]
        for a in subsets:
            assert d_min(g, a) == oracle.d_min(a)
            assert is_strong(g, a)[0] == oracle.is_strong(a)
            assert closure(g, a) == oracle.closure(a)


def _brute_min_superset(g, a, ground):
    """(min delta over A <= S <= ground, smallest minimiser, the oracle
    of the induced subgraph on the ground), by iterating its subsets."""
    induced = BipartiteGraph(
        g.n, {v: g.part(v) for v in ground},
        [(u, v) for (u, v) in g.edges if u in ground and v in ground])
    oracle = MaskOracle(induced)
    sets = list(oracle.supersets(oracle.mask(a)))
    value = min(oracle.delta[s] for s in sets)
    smallest = (1 << oracle.k) - 1
    for s in sets:
        if oracle.delta[s] == value:
            smallest &= s
    assert oracle.delta[smallest] == value
    return value, oracle.unmask(smallest), oracle


def _complete_bipartite(n, p, q):
    return BipartiteGraph(n, {v: int(v >= p) for v in range(p + q)},
                          [(u, v) for u in range(p) for v in range(p, p + q)])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cut_network_against_mask_oracle(n):
    """The vertex-only network weighs edges by n-2 and halves the cut, so
    it is checked at odd and even n-2, and at every peel threshold
    ceil(n/(n-2)) (3 at n = 3, 2 above), on the empty base, inside a
    ground set (`within`, is_strong(g, a, b)) and in the whole graph:
    value and smallest minimiser against brute force.  Dense graphs, and
    K_{4,5} and K_{5,5} at the end, give negative delta over the empty
    base; sparse ones give ties whose smallest minimiser leaves edges
    cut, which a wrong edge weight breaks.  The cut reports delta relative
    to A; with `enough` e it either finds that minimum m and the smallest
    minimiser, or stops before any network at a bound that is <= m and
    >= e.  On a nonempty hull both happen."""
    rng = random.Random(100 + n)
    moved = {"empty": 0, "within": 0, "whole": 0}
    stops = {"flow": 0, "bound": 0}
    graphs = [sparse_graph(rng, n, rng.randrange(8, 13), closed=True) if i % 2
              else random_bipartite(rng, n, rng.randrange(8, 12),
                                    rng.uniform(0.4, 0.8)) for i in range(24)]
    graphs += [_complete_bipartite(n, 4, 5), _complete_bipartite(n, 5, 5)]
    for g in graphs:
        verts = sorted(g.vertices)
        for _ in range(8):
            ground = frozenset(rng.sample(verts, rng.randrange(1, len(verts) + 1)))
            for a in (frozenset(), frozenset(rng.sample(sorted(ground),
                                                        rng.randrange(len(ground))))):
                for where, b in (("within", ground), ("whole", g.vertices)):
                    value, smallest, oracle = _brute_min_superset(g, a, b)
                    m = value - delta(g, a)
                    assert _min_superset(g, a, b) == (m, smallest)
                    amask, gmask = g._index.mask(a), g._index.mask(b)
                    for e in (-1, 0, 1):
                        got, x, net, hull = _hull_cut(g, amask, gmask, e)
                        assert got <= m
                        if got < m or a | g._index.members(x) != smallest:
                            assert got >= e and x == 0 and net is None
                        if hull:
                            stops["flow" if net else "bound"] += 1
                    assert d_min(g, a, within=b) == value
                    ok, witness = is_strong(g, a, b)
                    assert ok == (value >= delta(g, a))
                    if where == "whole":
                        assert closure(g, a) == smallest
                    key = "empty" if not a else where
                    moved[key] += smallest != a
                    if not ok:
                        _assert_inclusion_minimal_violator(oracle, a, witness)
    assert all(moved.values()), moved
    assert all(stops.values()), stops


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_acl_is_the_largest_minimiser(n, monkeypatch):
    """acl_relative(A) is the union of all minimisers of delta over the
    supersets of A, by brute force, and costs at most one max flow (none
    when the peel leaves no hull).  Dense inputs
    (K_{4,5}) have negative-delta minimisers; sparse ones have ties, where
    the largest minimiser is larger than the smallest."""
    rng = random.Random(300 + n)
    graphs = [sparse_graph(rng, n, rng.randrange(8, 13), closed=True) if i % 2
              else random_bipartite(rng, n, rng.randrange(6, 12),
                                    rng.uniform(0.2, 0.7)) for i in range(16)]
    graphs.append(_complete_bipartite(n, 4, 5))
    flows = 0
    real = ngons.predimension._Network.max_flow

    def counting(self, *args):
        nonlocal flows
        flows += 1
        return real(self, *args)

    monkeypatch.setattr(ngons.predimension._Network, "max_flow", counting)
    larger = solved = 0
    for g in graphs:
        oracle = MaskOracle(g)
        verts = sorted(g.vertices)
        for _ in range(8):
            a = frozenset(rng.sample(verts, rng.randrange(0, len(verts))))
            sets = list(oracle.supersets(oracle.mask(a)))
            value = min(oracle.delta[s] for s in sets)
            union = 0
            for s in sets:
                if oracle.delta[s] == value:
                    union |= s
            flows = 0
            got = acl_relative(g, a)
            assert flows <= 1
            solved += flows
            assert got == oracle.unmask(union)
            assert all(d_min(g, a | {x}) == value for x in got)
            larger += got != closure(g, a)
    assert larger > 0 and solved > 50


def _assert_inclusion_minimal_violator(oracle, a, witness):
    """witness violates, and no A <= S < witness does (by brute force)."""
    amask, wmask = oracle.mask(a), oracle.mask(witness)
    base = oracle.delta[amask]
    assert amask & ~wmask == 0
    assert oracle.delta[wmask] < base
    extra = wmask & ~amask
    sub = (extra - 1) & extra
    while True:
        assert oracle.delta[amask | sub] >= base, (
            sorted(a), sorted(witness), sorted(oracle.unmask(amask | sub)))
        if sub == 0:
            break
        sub = (sub - 1) & extra


def test_violator_witness_is_genuine(small_graphs):
    rng = random.Random(11)
    corpus = list(small_graphs) + [random_bipartite(rng, n, 10, 0.35)
                                   for n in (3, 4, 5) for _ in range(6)]
    violations = set()
    for g in corpus:
        oracle = MaskOracle(g)
        verts = sorted(g.vertices)
        for _ in range(20):
            a = frozenset(rng.sample(verts, rng.randrange(1, len(verts))))
            ok, witness = is_strong(g, a)
            if ok:
                assert witness is None
            else:
                _assert_inclusion_minimal_violator(oracle, a, witness)
                violations.add(g.n)
    assert violations == {3, 4, 5}


def test_violator_witness_regression():
    # {0,2,3,6,7,8,9} violates (delta 11 < 12) and removing any single
    # vertex repairs it, yet its subset {0,2,3,7,8} violates too: only a
    # check over all subsets tells which one is inclusion-minimal
    edges = [(1, 3), (1, 9), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
             (5, 9), (6, 9), (7, 9)]
    parts = {v: 1 if v in (3, 9) else 0 for v in range(10)}
    g = BipartiteGraph(4, parts, edges)
    a = frozenset({0, 2, 7, 8})
    assert delta(g, a) == 12
    ok, witness = is_strong(g, a)
    assert not ok
    _assert_inclusion_minimal_violator(MaskOracle(g), a, witness)
    assert witness == frozenset({0, 2, 3, 7, 8})


def test_is_strong_within_b_matches_induced_subgraph(small_graphs):
    rng = random.Random(17)
    for g in small_graphs:
        verts = sorted(g.vertices)
        for _ in range(10):
            b = frozenset(rng.sample(verts, rng.randrange(1, len(verts) + 1)))
            a = frozenset(rng.sample(sorted(b), rng.randrange(0, len(b) + 1)))
            induced = BipartiteGraph(
                g.n, {v: g.part(v) for v in b},
                [(u, v) for (u, v) in g.edges if u in b and v in b])
            oracle = MaskOracle(induced)
            ok, witness = is_strong(g, a, b)
            assert ok == oracle.is_strong(a)
            if not ok:
                _assert_inclusion_minimal_violator(oracle, a, witness)


@pytest.mark.parametrize("length", [32, 600])
def test_long_cycle_is_strong(length):
    assert is_strong(make_cycle(4, length), {0, 1}) == (True, None)


def test_d_rel_definition(small_graphs):
    rng = random.Random(13)
    for g in small_graphs[:4]:
        verts = sorted(g.vertices)
        a = frozenset(rng.sample(verts, 2))
        b = frozenset(rng.sample(verts, 3))
        assert d_rel(g, b, a) == d_min(g, a | b) - d_min(g, a)


# ------------------------------------------------------ property testing

graphs = st.builds(
    lambda seed, n, nv, p: random_bipartite(random.Random(seed), n, nv, p),
    st.integers(0, 10**6), st.sampled_from([3, 4, 5]),
    st.integers(2, 9), st.floats(0.1, 0.6))


@st.composite
def graph_and_subsets(draw, count=2):
    g = draw(graphs)
    verts = sorted(g.vertices)
    subs = tuple(frozenset(draw(st.sets(st.sampled_from(verts))))
                 for _ in range(count))
    return (g,) + subs


@settings(max_examples=150, deadline=None)
@given(graph_and_subsets())
def test_union_identity(data):
    g, a, b = data
    if a & b:
        a = a - b
    assert delta(g, a | b) == delta(g, a) + delta(g, b) - (g.n - 2) * g.edge_count(a, b)


@settings(max_examples=150, deadline=None)
@given(graph_and_subsets())
def test_submodularity(data):
    g, a, b = data
    assert delta(g, a | b) + delta(g, a & b) <= delta(g, a) + delta(g, b)


@settings(max_examples=100, deadline=None)
@given(graph_and_subsets())
def test_d_monotone_and_bounded(data):
    g, a, b = data
    assert d_min(g, a) <= d_min(g, a | b)
    assert d_min(g, a) <= delta(g, a)


@settings(max_examples=100, deadline=None)
@given(graph_and_subsets(count=1))
def test_closure_properties(data):
    g, a = data
    cl = closure(g, a)
    assert a <= cl
    assert is_strong(g, cl)[0]
    assert closure(g, cl) == cl
    assert cl <= acl_relative(g, a)
    # strong iff delta attains d
    assert is_strong(g, a)[0] == (delta(g, a) == d_min(g, a))


@settings(max_examples=100, deadline=None)
@given(graph_and_subsets(count=1))
def test_closure_contained_in_every_strong_superset(data):
    g, a = data
    oracle = MaskOracle(g)
    cl = closure(g, a)
    for s in oracle.strong_supersets(a):
        assert cl <= s


def test_min_cut_leaves_no_reference_cycle():
    """The max flow behind `_min_superset` frees its networks without
    the cyclic collector, on every 8- and 10-cycle of a cl witness."""
    g = make_cl_witness(3, 3)
    cycles = [frozenset(c) for k in (8, 10) for c in enumerate_cycles(g, k)]
    assert len(cycles) > 10
    gc.collect()
    gc.disable()
    try:
        for c in cycles:
            _min_superset(g, c, g.vertices)
            is_strong(g, c)
            closure(g, c)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _growth_corpus():
    """The graphs of the growth workloads: 40-step n = 3 growths and
    pool grows at n = 3 (10 steps) and n = 4 (2 steps)."""
    graphs = [grow(make_cycle(3, 8), 40, r)[0] for r in (1, 2, 4)]
    graphs += [grow(make_cycle(3, 8), 10, r)[0] for r in range(1, 101, 7)]
    graphs += [grow(make_cycle(4, 10), 2, r, templates=(
        "pendant_path", "path_completion", "cycle_attach"))[0] for r in range(1, 41, 4)]
    return graphs


def test_local_cut_matches_whole_graph_cut():
    """A cut over the whole graph that runs near A only (ground None)
    gives the value and the smallest minimiser of the cut over every
    vertex, for every long cycle the membership check cuts (lengths 2n+2
    up to the horizon) and for seeded subsets, on grown graphs, which
    have zero floor.  Its hull is smaller on some of them."""
    rng, smaller, cuts = random.Random(20261020), 0, 0
    for g in _growth_corpus():
        idx = g._index
        sets = [idx.mask(c) for k in range(2 * g.n + 2, default_horizon(g.n) + 1, 2)
                for c in enumerate_cycles(g, k)]
        verts = sorted(g.vertices)
        sets += [idx.mask(rng.sample(verts, rng.randint(1, min(13, len(verts)))))
                 for _ in range(30)]
        for amask in [0] + sets:
            near = _hull_cut(g, amask, None)
            whole = _hull_cut(g, amask, idx.full)
            assert near[:2] == whole[:2]
            smaller += len(near[3]) < len(whole[3])
            cuts += 1
        assert idx.zero_floor is True
    assert cuts > 4000 and smaller > 50


def test_one_cut_builds_no_state():
    """A graph cut once over the whole graph keeps no floor and no
    component table; the second cut builds both."""
    g = make_cl_witness(3, 3)
    c = frozenset(enumerate_cycles(g, 8)[0])
    idx = g._index
    assert d_min(g, c) == delta(g, c)
    assert (idx.cuts, idx.zero_floor, idx.parts) == (1, None, None)
    closure(g, c)
    assert idx.cuts == 2 and idx.zero_floor is True and idx.parts
    h = make_cycle(4, 12)
    assert is_strong(h, {0, 1}) == (True, None)
    assert (h._index.cuts, h._index.zero_floor, h._index.parts) == (1, None, None)


def test_min_cut_on_a_long_tube():
    """The tube C4 x P_1200: vertex 4l + i is corner i of layer l, each
    layer a 4-cycle, and a rung joins 4l + i to 4(l+1) + i.  One end
    layer is strong with d = delta = 4; the augmenting paths run the
    length of the tube, which no recursion depth may limit."""
    layers = 1200
    parts = {4 * l + i: (l + i) % 2 for l in range(layers) for i in range(4)}
    edges = [(4 * l + i, 4 * l + (i + 1) % 4)
             for l in range(layers) for i in range(4)]
    edges += [(4 * l + i, 4 * (l + 1) + i)
              for l in range(layers - 1) for i in range(4)]
    g = BipartiteGraph(3, parts, edges)
    a = frozenset(range(4))
    assert d_min(g, a) == 4
    assert closure(g, a) == a
    assert is_strong(g, a) == (True, None)
