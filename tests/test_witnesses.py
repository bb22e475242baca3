import math
from itertools import combinations, permutations

import pytest

from ngons import (GraphError, bfs_distances, delta, delta_rel, distance, girth,
                   grow, is_strong, make_cl_witness, make_cycle, make_gamma,
                   make_path, find_base_set, fano_graph)


def test_make_path_shape():
    g = make_path(4, 5)
    assert len(g.vertices) == 6 and len(g.edges) == 5
    assert g.subsets["endpoints"] == frozenset({0, 5})
    assert g.subsets["interior"] == frozenset({1, 2, 3, 4})
    with pytest.raises(GraphError):
        make_path(3, -1)


def test_make_cycle_shape():
    for n in (3, 4):
        g = make_cycle(n, 2 * n)
        assert girth(g) == 2 * n
        assert delta(g, g.vertices) == 2 * n
        assert delta(make_cycle(n, 2 * n + 2),
                     frozenset(range(2 * n + 2))) == 2 * n + 2
    with pytest.raises(GraphError):
        make_cycle(3, 7)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_gamma_deltas(n):
    g = make_gamma(n)
    assert delta(g, g.subsets["gamma"]) == 2 * n
    for i in range(n + 2):
        assert delta(g, g.subsets["gamma_%d" % i]) == n - 1 + i
        # every prefix is strongly embedded in gamma
        assert is_strong(g, g.subsets["gamma_%d" % i])[0]


def test_six_vertex_configuration():
    # the star-path a1-x0-z1-z0 with two extra leaves b1, b2 at z0
    from ngons import BipartiteGraph
    for n in (3, 4, 5):
        verts = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 0}
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]
        g = BipartiteGraph(n, verts, edges)
        assert delta(g, g.vertices) == n + 4


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_cl_witness_deltas(n, l):
    g = make_cl_witness(n, l)
    c, a0 = g.subsets["C"], g.subsets["A0"]
    assert len(c) == 4 * l * (n - 2)
    assert delta(g, c) == 4 * l * (n - 2)
    assert delta_rel(g, c, a0) == 0
    assert g.edge_count(c, a0) == 4 * l
    # every connected proper sub-path of the cycle stays positive over A0
    arc = frozenset(range(2 * (n - 2)))
    assert delta_rel(g, arc, a0) >= 1
    with pytest.raises(GraphError):
        make_cl_witness(n, 1)


def test_base_set_search(fano):
    # a thin 2n-cycle has no base set
    assert find_base_set(make_cycle(3, 6)) == []
    # a graph of diameter < n has none either
    assert find_base_set(make_path(3, 1)) == []
    specs = find_base_set(fano)
    assert specs, "the Fano plane contains base sets"
    for spec in specs:
        s0, s1, s2, s3 = spec.vertices
        assert spec.mode == "odd_n"
        for (u, v) in ((s0, s1), (s1, s2), (s2, s3), (s3, s0)):
            assert distance(fano, u, v) == 3
        assert distance(fano, s0, s2) == 2
        assert distance(fano, s1, s3) == 2


def reference_base_sets(g):
    """Every ordering of every 4-subset, by BFS distances: per 4-set the
    least ordering that starts at its least point, as (vertices, mode),
    in the order of the sorted 4-sets."""
    n = g.n
    diag = n - 1 if n % 2 else n
    dist = {v: bfs_distances(g, v) for v in g.vertices}

    def d(u, v):
        return dist[u].get(v)

    out = []
    for four in combinations(sorted(g.vertices), 4):
        found = [(s0, s1, s2, s3) for s0, s1, s2, s3 in permutations(four)
                 if s0 == four[0]
                 and d(s0, s1) == d(s1, s2) == d(s2, s3) == d(s3, s0) == n
                 and d(s0, s2) == diag and d(s1, s3) == diag]
        if found:
            best = min(found)
            out.append((best, "odd_n" if n % 2 else "even_n_type%d" % g.part(best[0])))
    return out


def test_base_sets_match_permutation_scan(fano, gq22):
    """The spheres of `find_base_set` against a scan of all orderings."""
    graphs = [fano, gq22] + [make_cl_witness(n, 2) for n in (3, 4, 5)]
    graphs += [make_cycle(3, length) for length in (6, 8, 10)] + [make_path(3, 1)]
    graphs += [grow(make_cycle(3, 8), 8, seed)[0] for seed in (1, 2)]
    wants = [reference_base_sets(g) for g in graphs]
    assert [[(s.vertices, s.mode) for s in find_base_set(g)] for g in graphs] == wants
    assert [len(want) for want in wants[:2]] == [21, 60]
    assert all(wants[2:5]) and all(wants[-2:])
    # GQ(2,2) has base sets of both even types
    assert {mode for _, mode in wants[1]} == {"even_n_type0", "even_n_type1"}


def test_gamma_is_a_tree():
    assert girth(make_gamma(3)) == math.inf
