import math
import random

import pytest

import ngons
from ngons import graph as graph_module
from ngons.graph import _canonical, _cycles
from ngons.io import format_graph
from conftest import cycle_with_handles, random_bipartite
from ngons import (BipartiteGraph, GraphError, bfs_distances, distance,
                   diameter, girth, enumerate_cycles, ordered_cycles,
                   simple_paths, connected_components, is_connected,
                   is_generalized_ngon, grow, make_cycle, make_path)


def test_construction_validation():
    with pytest.raises(GraphError):
        BipartiteGraph(2, {0: 0}, [])
    with pytest.raises(GraphError):
        BipartiteGraph(3, {0: 0, 1: 2}, [])
    with pytest.raises(GraphError):
        BipartiteGraph(3, {0: 0, 1: 1}, [(0, 2)])
    with pytest.raises(GraphError):
        BipartiteGraph(3, {0: 0, 1: 0}, [(0, 1)])  # same part
    with pytest.raises(GraphError):
        BipartiteGraph(3, {0: 0}, [(0, 0)])  # loop


def test_bitset_index_built_once_and_invisible(monkeypatch):
    """Every min-cut and pair search on one graph shares one bitset
    index, built with the graph; no query builds another, and the index
    changes neither ==, hash nor the text format and agrees with the
    adjacency."""
    built, graphs = [], []
    real, real_init = graph_module._Index.extended, BipartiteGraph.__init__

    def counting(self, parts, edges):
        built.append(real(self, parts, edges))
        return built[-1]

    def constructing(self, *args, **kwargs):
        graphs.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(graph_module._Index, "extended", counting)
    monkeypatch.setattr(BipartiteGraph, "__init__", constructing)
    g = ngons.make_cl_witness(3, 2)
    twin = ngons.make_cl_witness(3, 2)
    index = g._index
    before = (hash(g), format_graph(g))
    a = frozenset(sorted(g.vertices)[:3])
    ngons.d_min(g, a)
    ngons.closure(g, a)
    ngons.is_strong(g, a)
    ngons.acl_relative(g, a)
    ngons.enumerate_zero_min_pairs(g)
    assert ngons.in_class(g)[0]
    # one index per graph built (the queries may build graphs of their own)
    assert index is g._index and sum(i is index for i in built) == 1
    assert sorted(map(id, built)) == sorted(id(h._index) for h in graphs)
    assert (hash(g), format_graph(g)) == before
    assert g == twin and hash(g) == hash(twin)
    assert index.verts == tuple(sorted(g.vertices))
    def members(m):
        return frozenset(v for i, v in enumerate(index.verts) if m >> i & 1)

    for v in g.vertices:
        assert members(index.adj[index.pos[v]]) == g.neighbors(v)
        assert index.deg[index.pos[v]] == g.degree(v)
    assert members(index.below[3]) == {v for v in g.vertices
                                       if g.degree(v) < 3}
    assert members(index.full) == g.vertices
    assert members(index.mask(a)) == a


def test_accessors_match_edge_list_reference(small_graphs, fano, gq22, pg23,
                                              grow_outputs):
    """neighbors, degree, has_edge, edge_count (one set and two) and
    part_vertices, which read the bitset index, agree with a reference
    built from g.edges on every vertex and pair and on random sets."""
    rng = random.Random(20261020)
    graphs = small_graphs + [fano, gq22, pg23] + [g for g, _ in grow_outputs.values()]
    for g in graphs:
        ref = {v: set() for v in g.vertices}
        for u, v in g.edges:
            ref[u].add(v)
            ref[v].add(u)
        verts = sorted(g.vertices)
        for v in verts:
            assert g.neighbors(v) == ref[v] and isinstance(g.neighbors(v), frozenset)
            assert g.degree(v) == len(ref[v])
        for u in verts[:12]:
            assert all(g.has_edge(u, v) is (v in ref[u]) for v in verts)
        for p in (0, 1):
            assert g.part_vertices(p) == {v for v in verts if g.part(v) == p}
        for _ in range(10):
            a = set(rng.sample(verts, rng.randrange(len(verts) + 1)))
            b = set(rng.sample(verts, rng.randrange(len(verts) + 1)))
            assert g.edge_count(a) == sum(1 for u, v in g.edges if u in a and v in a)
            assert g.edge_count(a, b) == sum(
                1 for u, v in g.edges if (u in a and v in b) or (u in b and v in a))


def test_accessors_on_unknown_ids():
    """An unknown second id of has_edge is no edge, an unknown first id
    raises, and edge_count ignores ids that are not vertices."""
    g = make_path(3, 2)  # 0 - 1 - 2
    assert g.has_edge(0, 99) is False
    for call in (lambda: g.has_edge(99, 0), lambda: g.neighbors(99),
                 lambda: g.degree(99)):
        with pytest.raises(GraphError):
            call()
    assert g.edge_count({0, 1, 99}) == 1
    assert g.edge_count({0, 99}, {1, 98}) == 1


def test_edge_normalisation_and_counting():
    g = BipartiteGraph(3, {0: 0, 1: 1, 2: 0}, [(1, 0), (1, 2)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.edge_count({0, 1, 2}) == 2
    assert g.edge_count({0}, {1}) == 1
    assert g.edge_count({0, 2}, {1}) == 2
    assert g.degree(1) == 2


def test_edge_count_matches_brute_force(small_graphs):
    """The two-set count walks the adjacency of a; it equals the number
    of edges with one end in a and the other in b, each counted once, on
    overlapping and disjoint sets."""
    rng = random.Random(3)
    overlapping = disjoint = 0
    for g in small_graphs:
        verts = sorted(g.vertices)
        for _ in range(30):
            a = set(rng.sample(verts, rng.randrange(len(verts) + 1)))
            b = set(rng.sample(verts, rng.randrange(len(verts) + 1)))
            expect = sum(1 for (u, v) in g.edges
                         if (u in a and v in b) or (u in b and v in a))
            assert g.edge_count(a, b) == g.edge_count(b, a) == expect
            if a & b and g.edge_count(a & b):
                overlapping += 1
            elif not a & b and expect:
                disjoint += 1
    assert overlapping and disjoint


def test_distance_basics():
    g = make_cycle(3, 6)
    assert distance(g, 0, 0) == 0
    assert distance(g, 0, 1) == 1
    assert distance(g, 0, 3) == 3  # opposite vertices of a 2n-cycle
    h = BipartiteGraph(3, {0: 0, 1: 1, 2: 0}, [(0, 1)])
    assert distance(h, 0, 2) == math.inf


def test_distance_is_a_metric_on_components(small_graphs):
    for g in small_graphs:
        for comp in connected_components(g):
            vs = sorted(comp)[:6]
            for u in vs:
                for v in vs:
                    assert distance(g, u, v) == distance(g, v, u)
                    for w in vs:
                        assert (distance(g, u, w)
                                <= distance(g, u, v) + distance(g, v, w))


def test_girth_diameter_classics(fano):
    g = make_cycle(3, 6)
    assert girth(g) == 6 and diameter(g) == 3
    assert girth(fano) == 6 and diameter(fano) == 3
    tree = make_path(3, 4)
    assert girth(tree) == math.inf


def test_girth_matches_shortest_enumerated_cycle(small_graphs, grow_outputs,
                                                 fano, gq22, pg23):
    """girth is the shortest length at which enumerate_cycles finds a
    cycle, on the mixed corpus, grown graphs, the bundled polygons and
    trees (INFINITY)."""
    tree = BipartiteGraph(4, {0: 0, 1: 1, 3: 1, 2: 0, 4: 0, 6: 0, 8: 0},
                          [(0, 1), (0, 3), (1, 2), (3, 4), (3, 6), (1, 8)])
    graphs = list(small_graphs) + [g for g, _ in grow_outputs.values()]
    graphs += [grow(make_cycle(4, 10), 6, 1)[0], fano, gq22, pg23, tree,
               make_path(3, 4)]
    for g in graphs:
        shortest = next((L for L in range(4, len(g.vertices) + 1, 2)
                         if enumerate_cycles(g, L)), math.inf)
        assert girth(g) == shortest
    assert girth(tree) == math.inf


def test_is_generalized_ngon(fano):
    ok, reason = is_generalized_ngon(fano, thick=True)
    assert ok and reason is None
    thin = make_cycle(3, 6)
    assert is_generalized_ngon(thin)[0]
    ok, reason = is_generalized_ngon(thin, thick=True)
    assert not ok and "valency" in reason
    # removing one edge breaks the axioms
    broken = BipartiteGraph(3, {v: fano.part(v) for v in fano.vertices},
                            sorted(fano.edges)[1:])
    assert not is_generalized_ngon(broken)[0]


def test_generalized_ngon_diameter_failure(fano):
    """Two disjoint Fano planes have girth 6 but infinite diameter;
    joining them by one edge leaves girth 6 and gives diameter 7."""
    parts = {v + s: fano.part(v) for v in fano.vertices for s in (0, 14)}
    edges = [(u + s, v + s) for (u, v) in fano.edges for s in (0, 14)]
    apart = BipartiteGraph(3, parts, edges)
    joined = BipartiteGraph(3, parts, edges + [(0, 21)])
    assert girth(apart) == girth(joined) == 6
    assert is_generalized_ngon(apart) == (
        False, "diameter is inf, expected 3 (witness pair (0, 14))")
    assert is_generalized_ngon(joined) == (
        False, "diameter is 7, expected 3 (witness pair (0, 17))")


# ------------------------------------------------ dict-BFS reference metrics

def dict_bfs(g, source, within=None):
    """Distances from source by a queue over vertex ids, through `within`."""
    dist, queue = {source: 0}, [source]
    for u in queue:
        for w in sorted(g.neighbors(u)):
            if w not in dist and (within is None or w in within):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_girth(g):
    """From every vertex: a vertex at distance d with two neighbours at
    distance d - 1 closes a cycle of length at most 2d, and a vertex on a
    shortest cycle sees its antipode so."""
    best = math.inf
    for v in g.vertices:
        dist = dict_bfs(g, v)
        best = min([best] + [2 * d for w, d in dist.items()
                             if sum(dist.get(u) == d - 1 for u in g.neighbors(w)) >= 2])
    return best


def least_cycle(g, length):
    """The least cycle of the given length as `enumerate_cycles` writes
    it (from its least vertex, second vertex below the last), by search."""
    for v in sorted(g.vertices):
        found, stack = [], [(v,)]
        while stack:
            path = stack.pop()
            if len(path) == length:
                if v in g.neighbors(path[-1]) and path[1] < path[-1]:
                    found.append(path)
            else:
                stack += [path + (w,) for w in g.neighbors(path[-1])
                          if w > v and w not in path]
        if found:
            return min(found)
    return None


def reference_ngon_reason(g, thick):
    n, verts = g.n, sorted(g.vertices)
    dists = {v: dict_bfs(g, v) for v in verts}
    gi = reference_girth(g)
    if gi != 2 * n:
        witness = least_cycle(g, gi) if gi != math.inf else None
        return "girth is %s, expected %d (witness cycle %s)" % (gi, 2 * n, witness)
    far = {v: max(dists[v].values()) for v in verts}
    diam = max(far.values()) if all(len(d) == len(verts) for d in dists.values()) else math.inf
    for v in verts:
        dist = dists[v]
        if len(dist) < len(verts) or far[v] > n:
            w = min(set(verts) - dist.keys() or [x for x in dist if dist[x] == far[v]])
            return "diameter is %s, expected %d (witness pair %s)" % (diam, n, (v, w))
    for v in verts:
        if thick and g.degree(v) < 3:
            return "vertex %d has valency %d < 3" % (v, g.degree(v))
    return None


def test_mask_bfs_matches_dict_reference(small_graphs, grow_outputs, fano, gq22,
                                         pg23, pg25):
    """Distances (also between two vertices, for every pair), diameter,
    girth, components (also inside random vertex sets) and the n-gon
    verdict with its witness, read off bitmask balls, against a queue BFS
    over vertex ids."""
    rng = random.Random(26)
    parts = {v + s: fano.part(v) for v in fano.vertices for s in (0, 14)}
    edges = [(u + s, v + s) for (u, v) in fano.edges for s in (0, 14)]
    graphs = list(small_graphs) + [g for g, _ in grow_outputs.values()]
    graphs += [grow(make_cycle(4, 10), 6, 1)[0], fano, gq22, pg23, pg25,
               BipartiteGraph(3, parts, edges),
               BipartiteGraph(3, parts, edges + [(0, 21)])]
    reasons = set()
    for g in graphs:
        verts = sorted(g.vertices)
        dists = [dict_bfs(g, v) for v in verts]
        assert [bfs_distances(g, v) for v in verts] == dists
        assert [[distance(g, u, v) for v in verts] for u in verts] == [
            [d.get(v, math.inf) for v in verts] for d in dists]
        assert diameter(g) == (max(max(d.values()) for d in dists)
                               if all(len(d) == len(verts) for d in dists) else math.inf)
        assert girth(g) == reference_girth(g)
        for within in [None] + [set(rng.sample(verts, rng.randrange(len(verts))))
                                for _ in range(3)]:
            comps, seen = [], set()
            for v in verts:
                if (within is None or v in within) and v not in seen:
                    comps.append(frozenset(dict_bfs(g, v, within)))
                    seen |= comps[-1]
            assert connected_components(g, within) == comps
        for thick in (False, True):
            ok, reason = is_generalized_ngon(g, thick)
            assert reason == reference_ngon_reason(g, thick) and ok == (reason is None)
            reasons.add(reason.split(" ")[0] if reason else None)
    assert reasons == {None, "girth", "diameter", "vertex"}


def test_girth_equals_twice_diameter_on_ngons(fano, gq22):
    for g in (fano, gq22, make_cycle(3, 6), make_cycle(4, 8)):
        if is_generalized_ngon(g)[0]:
            assert girth(g) == 2 * diameter(g)


def test_enumerate_cycles(fano):
    assert len(enumerate_cycles(make_cycle(3, 6), 6)) == 1
    assert enumerate_cycles(fano, 4) == []
    assert len(enumerate_cycles(fano, 6)) == 28
    with pytest.raises(GraphError):
        enumerate_cycles(fano, 5)
    # every reported cycle really is one
    for cyc in enumerate_cycles(fano, 6):
        assert len(set(cyc)) == 6
        for i in range(6):
            assert fano.has_edge(cyc[i], cyc[(i + 1) % 6])


def test_enumerate_cycles_matches_closed_paths(small_graphs, fano, gq22):
    """The cycle search against an independent route: simple paths that
    close up, taken from their smallest vertex in one orientation."""
    found = 0
    for g in small_graphs + [fano, gq22]:
        for length in (4, 6, 8):
            want = sorted(p for p in simple_paths(g, length - 1)
                          if g.has_edge(p[0], p[-1]) and p[0] == min(p)
                          and p[1] < p[-1])
            assert enumerate_cycles(g, length) == want
            found += len(want)
    assert found


def test_enumerate_cycles_through_matches_filtered(grow_outputs):
    """Cycles through a vertex set S are the full list filtered by S, on
    grown n = 3 and n = 4 graphs for every length up to the default
    horizon 2n+6; S mixes a few vertices of one cycle with random ones."""
    rng = random.Random(20261018)
    graphs = [g for g, _ in grow_outputs.values()] + [
        grow(make_cycle(4, 10), steps, s,
             templates=("pendant_path", "path_completion", "cycle_attach"))[0]
        for steps, s in ((4, 1), (3, 3))]
    hits = set()
    for g in graphs:
        verts = sorted(g.vertices)
        for length in range(4, 2 * g.n + 7, 2):
            cycles = enumerate_cycles(g, length)
            assert enumerate_cycles(g, length, through=g.vertices) == cycles
            assert enumerate_cycles(g, length, through=()) == []
            for _ in range(6):
                s = set(rng.sample(verts, rng.randint(1, 6)))
                if cycles:
                    s.update(rng.sample(rng.choice(cycles), rng.randint(1, 2)))
                want = [c for c in cycles if set(c) & s]
                assert enumerate_cycles(g, length, through=s) == want
                if want:
                    hits.add(g.n)
    assert hits == {3, 4}


def with_pendant_trees(rng, g, extra):
    """g with `extra` more vertices, each joined to one earlier vertex of
    the other part: trees hung at random vertices, off the 2-core."""
    parts = {v: g.part(v) for v in g.vertices}
    edges = set(g.edges)
    for x in range(max(parts) + 1, max(parts) + 1 + extra):
        y = rng.choice(sorted(parts))
        parts[x] = 1 - parts[y]
        edges.add((y, x))
    return BipartiteGraph(g.n, parts, edges)


def two_core_brute_force(g):
    """Delete vertices with at most one remaining neighbour until none is
    left."""
    alive = set(g.vertices)
    while doomed := {v for v in alive if len(g.neighbors(v) & alive) <= 1}:
        alive -= doomed
    return alive


def test_two_core_matches_brute_force(small_graphs, grow_outputs):
    """The index's 2-core, on which the cycle walk runs, equals repeated
    deletion of vertices of degree <= 1, with and without pendant trees."""
    rng = random.Random(20261020)
    graphs = small_graphs + [g for g, _ in grow_outputs.values()]
    graphs += [with_pendant_trees(rng, g, 6) for g in graphs]
    sizes = set()
    for g in graphs:
        index = g._index
        core = {index.verts[p] for p in range(len(index.verts))
                if index.core >> p & 1}
        assert core == two_core_brute_force(g)
        sizes.add((len(core) == 0, len(core) == len(g.vertices)))
    # empty cores, whole-graph cores and proper ones
    assert sizes == {(True, False), (False, True), (False, False)}


def test_cycle_walk_matches_closed_paths_by_length():
    """One `_cycles` walk over every length 4..2n+6, with and without
    `through`, against closed simple paths taken from their smallest
    vertex in one orientation, compared length by length at n = 3 and 4
    on chorded long cycles with handles, on random graphs and on K_{3,3}
    and K_{4,4}, where one vertex set carries several cycles of one
    length, each also with pendant trees hung on it.  Each yielded mask
    is the vertex set of its cycle.  A `through` set off the 2-core, the
    tree vertices among them, meets no cycle."""
    rng = random.Random(20261019)
    found = set()
    for n in (3, 4):
        lengths = range(4, 2 * n + 7, 2)
        graphs = [random_bipartite(rng, n, 11, 0.3) for _ in range(3)] + [
            cycle_with_handles(rng, n, length, 3, chords)
            for length in lengths[-3:] for chords in (0, 2)] + [
            BipartiteGraph(n, {v: int(v >= k) for v in range(2 * k)},
                           [(a, b) for a in range(k) for b in range(k, 2 * k)])
            for k in (3, 4)]
        for plain in graphs:
            verts = sorted(plain.vertices)
            for g in (plain, with_pendant_trees(rng, plain, 5)):
                off = g.vertices - two_core_brute_force(g)
                assert off or g is plain
                assert not list(_cycles(g, lengths, off))
                for through in (None, set(rng.sample(verts, 2)),
                                set(verts[-3:]), off | set(verts[:1])):
                    walked = {}
                    for cyc, mask in _cycles(g, lengths, through):
                        assert mask == sum(1 << p for p in cyc)
                        ids = tuple(g._index.verts[p] for p in _canonical(cyc))
                        walked.setdefault(len(cyc), []).append(ids)
                    for length in lengths:
                        want = sorted(p for p in simple_paths(g, length - 1)
                                      if g.has_edge(p[0], p[-1])
                                      and p[0] == min(p) and p[1] < p[-1]
                                      and (through is None or set(p) & through))
                        assert sorted(walked.pop(length, ())) == want
                        if want:
                            found.add((n, length))
                    assert not walked
    assert found == {(n, length) for n in (3, 4)
                     for length in range(4, 2 * n + 7, 2)}


def test_ordered_cycles(fano):
    plain = enumerate_cycles(fano, 6)
    ordered = ordered_cycles(fano, 6)
    assert len(ordered) == len(plain) * 12  # 6 rotations x 2 orientations
    typed = ordered_cycles(fano, 6, start_part=0)
    assert len(typed) == len(plain) * 6
    assert all(fano.part(c[0]) == 0 for c in typed)


def test_simple_paths():
    g = make_cycle(3, 6)
    assert len(simple_paths(g, 3)) == 12  # 6 starts x 2 directions
    for p in simple_paths(g, 3):
        assert len(set(p)) == 4


def test_simple_paths_refuse_a_negative_length(gq22):
    """A negative length is refused at once, as `make_path` refuses it,
    instead of walking every simple path and returning []."""
    for length in (-1, -5):
        with pytest.raises(GraphError):
            simple_paths(gq22, length, {0})
    assert simple_paths(gq22, 0, {0}) == [(0,)]


def test_simple_paths_start_matches_filtered(fano, gq22, grow_outputs):
    """Paths from a vertex set S are the full list, which is sorted,
    filtered by x_0 in S, on Fano, GQ(2,2) and grown n = 3 and n = 4
    graphs, for every length up to n."""
    rng = random.Random(20261019)
    graphs = [fano, gq22] + [g for g, _ in grow_outputs.values()]
    graphs.append(grow(make_cycle(4, 10), 4, 1, templates=(
        "pendant_path", "path_completion", "cycle_attach"))[0])
    for g in graphs:
        verts = sorted(g.vertices)
        for length in range(1, g.n + 1):
            paths = simple_paths(g, length)
            assert paths == sorted(paths)
            assert simple_paths(g, length, start=g.vertices) == paths
            assert simple_paths(g, length, start=()) == []
            for _ in range(4):
                s = set(rng.sample(verts, rng.randint(1, 4)))
                assert simple_paths(g, length, s) == [p for p in paths if p[0] in s]
    with pytest.raises(GraphError):
        simple_paths(fano, 3, start={99})


def test_components():
    g = BipartiteGraph(3, {0: 0, 1: 1, 2: 0, 3: 1}, [(0, 1), (2, 3)])
    assert len(connected_components(g)) == 2
    assert not is_connected(g)
    assert is_connected(g, {0, 1})
