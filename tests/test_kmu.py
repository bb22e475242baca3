import gc
import random
from itertools import combinations, permutations

import pytest

import ngons.kmu
from conftest import random_bipartite
from ngons import (BipartiteGraph, GraphError, MuFunction, TEMPLATES,
                   count_copies, default_mu, delta, enumerate_zero_min_pairs,
                   find_copies, free_amalgam, girth, grow, in_class,
                   is_connected, make_cl_witness, make_cycle, make_path,
                   pairs_isomorphic, copies_equivalent)


def double_path(n):
    """Two internally disjoint paths of length n-1 between the same
    endpoints a=0, b=1."""
    verts = {0: 0, 1: (n - 1) % 2}
    edges = []
    nid = 2
    for _ in range(2):
        prev = 0
        for i in range(1, n - 1):
            verts[nid] = i % 2
            edges.append((prev, nid))
            prev = nid
            nid += 1
        edges.append((prev, 1))
    return BipartiteGraph(n, verts, edges)


# ------------------------------------------------------------ mu function

def test_default_mu_values():
    for n in (3, 4, 5):
        mu = default_mu(n)
        path = make_path(n, n - 1)
        assert mu(path, path.subsets["endpoints"], path.subsets["interior"]) == 1
        wit = make_cl_witness(n, 2)
        a0, c = wit.subsets["A0"], wit.subsets["C"]
        assert delta(wit, a0) == 4 * (n - 1)
        assert mu(wit, a0, c) == max(4 * (n - 1), n)
        # base of one vertex: delta = n-1 < n, so mu = n
        g = make_cycle(n, 2 * n)
        assert mu(g, frozenset({0}), frozenset({1})) == n
    with pytest.raises(GraphError):
        default_mu(2)


def test_mu_overrides():
    n = 3
    wit = make_cl_witness(n, 2)
    a0, c = wit.subsets["A0"], wit.subsets["C"]
    mu = MuFunction(n, [(wit, a0, c, 9)])
    assert mu(wit, a0, c) == 9
    with pytest.raises(GraphError):
        MuFunction(n, [(wit, a0, c, 2)])  # below max(delta(A), n)
    path = make_path(n, n - 1)
    with pytest.raises(GraphError):
        mu.add_override(path, path.subsets["endpoints"],
                        path.subsets["interior"], 5)  # path pair must be 1
    # isomorphism invariance: a relabelled copy gets the override value
    relabel = {v: v + 100 for v in wit.vertices}
    wit2 = BipartiteGraph(n, {relabel[v]: wit.part(v) for v in wit.vertices},
                          [(relabel[u], relabel[v]) for (u, v) in wit.edges])
    assert mu(wit2, frozenset(relabel[v] for v in a0),
              frozenset(relabel[v] for v in c)) == 9


def test_mu_json_round_trip():
    n = 4
    wit = make_cl_witness(n, 2)
    mu = MuFunction(n, [(wit, wit.subsets["A0"], wit.subsets["C"], 20)])
    back = MuFunction.from_json(mu.to_json())
    assert back.n == n
    assert back(wit, wit.subsets["A0"], wit.subsets["C"]) == 20


# ------------------------------------------------------------ copy counts

def test_count_copies_paths():
    n = 4
    one = make_path(n, n - 1)
    assert count_copies(one, one.subsets["endpoints"], one.subsets["interior"]) == 1
    two = double_path(n)
    base = frozenset({0, 1})
    body = frozenset(sorted(two.vertices - base)[:n - 2])
    assert count_copies(two, base, body) == 2
    wit = make_cl_witness(3, 2)
    assert count_copies(wit, wit.subsets["A0"], wit.subsets["C"]) == 1


def test_copies_and_isomorphism_helpers():
    g = double_path(4)
    base = frozenset({0, 1})
    bodies = sorted(find_copies(g, base, frozenset({2, 3})), key=sorted)
    assert len(bodies) == 2
    assert copies_equivalent(g, base, bodies[0], bodies[1])
    h = make_path(4, 3)
    assert pairs_isomorphic(g, base, bodies[0],
                            h, h.subsets["endpoints"], h.subsets["interior"])
    # a set meeting the base is no copy over it
    p = make_path(3, 5)
    assert frozenset({0}) not in find_copies(p, {0}, {3})
    with pytest.raises(GraphError):
        copies_equivalent(p, frozenset({0}), frozenset({3}), frozenset({0}))


def test_bodies_meeting_their_base_are_refused():
    p = make_path(3, 5)
    base, body, apart = frozenset({0, 1}), frozenset({1, 2}), frozenset({3})
    for call in (lambda: find_copies(p, base, body),
                 lambda: count_copies(p, base, body),
                 lambda: copies_equivalent(p, base, body, apart),
                 lambda: copies_equivalent(p, base, apart, body),
                 lambda: pairs_isomorphic(p, base, body, p, base, apart),
                 lambda: pairs_isomorphic(p, base, apart, p, base, body)):
        with pytest.raises(GraphError, match="disjoint"):
            call()


# ------------------------------------------- matcher against brute force

def _preserves(g1, g2, f):
    """Does f keep adjacency and non-adjacency between any two points?"""
    return all(g1.has_edge(u, v) == g2.has_edge(f[u], f[v])
               for u, v in combinations(f, 2))


def brute_copies(g, base, body):
    fixed = {a: a for a in base}
    body = sorted(body)
    return {frozenset(img)
            for img in permutations(sorted(g.vertices - base), len(body))
            if _preserves(g, g, {**fixed, **dict(zip(body, img))})}


def brute_equivalent(g, base, body1, body2):
    fixed = {a: a for a in base}
    return len(body1) == len(body2) and any(
        _preserves(g, g, {**fixed, **dict(zip(sorted(body1), img))})
        for img in permutations(sorted(body2)))


def brute_isomorphic(g1, base1, body1, g2, base2, body2):
    if g1.n != g2.n or len(base1) != len(base2) or len(body1) != len(body2):
        return False
    return any(_preserves(g1, g2, {**dict(zip(sorted(base1), bimg)),
                                   **dict(zip(sorted(body1), dimg))})
               for bimg in permutations(sorted(base2))
               for dimg in permutations(sorted(body2)))


def relabelled(g, rng):
    """g on shuffled fresh ids, with the map from old to new ids."""
    ids = list(range(100, 100 + len(g.vertices)))
    rng.shuffle(ids)
    f = dict(zip(sorted(g.vertices), ids))
    return BipartiteGraph(g.n, {f[v]: g.part(v) for v in g.vertices},
                          [(f[u], f[v]) for u, v in g.edges]), f


def matcher_cases():
    """(g, base, body) on random bipartite graphs of 6-9 vertices: bases of
    0-3 vertices, bodies of 1-4 vertices, connected or not."""
    rng = random.Random(20261019)
    for n in (3, 4, 5):
        for _ in range(16):
            g = random_bipartite(rng, n, rng.randint(6, 9), 0.4)
            verts = sorted(g.vertices)
            rng.shuffle(verts)
            k = rng.randint(0, 3)
            base = frozenset(verts[:k])
            body = frozenset(verts[k:k + rng.randint(1, 4)])
            yield g, base, body, rng


def test_matcher_matches_brute_force():
    seen = set()
    for g, base, body, rng in matcher_cases():
        copies = find_copies(g, base, body)
        assert copies == brute_copies(g, base, body)
        assert body in copies and count_copies(g, base, body) == len(copies)
        seen.add("empty base" if not base else "base")
        seen.add("connected" if is_connected(g, body) else "disconnected")
        if len(copies) > 1:
            seen.add("several copies")
        outside = sorted(g.vertices - base)
        others = list(copies) + [frozenset(rng.sample(outside, len(body)))
                                 for _ in range(4)]
        for other in others:
            got = copies_equivalent(g, base, body, other)
            assert got == brute_equivalent(g, base, body, other)
            assert got == (other in copies)
            seen.add("copy" if got else "non-copy")
        spare = sorted(set(outside) - body)
        if spare:
            assert not copies_equivalent(g, base, body, body | {spare[0]})

        h, f = relabelled(g, rng)
        base2 = frozenset(f[v] for v in base)
        body2 = frozenset(f[v] for v in body)
        assert pairs_isomorphic(g, base, body, h, base2, body2)
        assert pairs_isomorphic(g, base, body, h, body2, base2) == \
            brute_isomorphic(g, base, body, h, body2, base2)
        hverts = sorted(h.vertices)
        for _ in range(3):
            rng.shuffle(hverts)
            ob = frozenset(hverts[:len(base)])
            od = frozenset(hverts[len(base):len(base) + len(body)])
            got = pairs_isomorphic(g, base, body, h, ob, od)
            assert got == brute_isomorphic(g, base, body, h, ob, od)
            seen.add("isomorphic" if got else "not isomorphic")
        other_n = BipartiteGraph(g.n + 1, {f[v]: g.part(v) for v in g.vertices},
                                 [(f[u], f[v]) for u, v in g.edges])
        assert not pairs_isomorphic(g, base, body, other_n, base2, body2)
    assert seen == {"empty base", "base", "connected", "disconnected",
                    "several copies", "copy", "non-copy", "isomorphic",
                    "not isomorphic"}


def test_pairs_isomorphic_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def config(g, base, body):
        x = nx.Graph()
        for v in base | body:
            x.add_node(v, base=v in base)
        x.add_edges_from((u, v) for u, v in g.edges
                         if u in x and v in x)
        return x

    verdicts = set()
    for g, base, body, rng in matcher_cases():
        h = random_bipartite(rng, g.n, len(g.vertices), 0.4)
        verts = sorted(h.vertices)
        rng.shuffle(verts)
        candidates = [(frozenset(verts[:len(base)]),
                       frozenset(verts[len(base):len(base) + len(body)]))]
        h2, f = relabelled(g, rng)
        candidates.append((frozenset(f[v] for v in base),
                           frozenset(f[v] for v in body)))
        for graph, (b2, d2) in zip((h, h2), candidates):
            want = GraphMatcher(
                config(g, base, body), config(graph, b2, d2),
                node_match=lambda p, q: p["base"] == q["base"]).is_isomorphic()
            assert pairs_isomorphic(g, base, body, graph, b2, d2) == want
            verdicts.add(want)
    assert verdicts == {True, False}


# --------------------------------------------------------------- in_class

def test_accepts_long_cycle():
    for n in (3, 4, 5):
        ok, reports = in_class(make_cycle(n, 2 * n + 2))
        assert ok and reports == []


def test_rejects_short_cycle():
    for n in (3, 4):
        ok, reports = in_class(make_cycle(n, 2 * (n - 1)))
        assert not ok
        assert "short_cycle" in {r.condition for r in reports}


def test_double_path_fails_both_conditions():
    for n in (3, 4):
        ok, reports = in_class(double_path(n))
        assert not ok
        conds = {r.condition for r in reports}
        assert "short_cycle" in conds and "mu_exceeded" in conds


def test_witnesses_are_members():
    # the body-size cap makes the n=4, l=3 witness (24-vertex bodies)
    # infeasible to re-enumerate; the desk-scale instances cover the claim
    for n, l in ((3, 2), (3, 3), (4, 2)):
        assert in_class(make_cl_witness(n, l))[0]


def test_condition1_matches_girth(small_graphs):
    for g in small_graphs:
        _, reports = in_class(g)
        has_short = any(r.condition == "short_cycle" for r in reports)
        assert has_short == (girth(g) < 2 * g.n)


def test_long_cycle_low_delta_reported(fano):
    # the Fano incidence graph has girth exactly 2n but its 8-cycles sit
    # inside the whole graph with delta 7 < 2n+2 = 8
    ok, reports = in_class(fano)
    assert not ok
    low = [r for r in reports if r.condition == "long_cycle_low_delta"]
    assert low
    assert low[0].value == 7 and low[0].bound == 8
    assert set(low[0].witness) == fano.vertices


def test_violation_witnesses_recheck():
    g = double_path(3)
    _, reports = in_class(g)
    for r in reports:
        assert set(r.witness) <= g.vertices
        assert r.value > r.bound or r.condition == "short_cycle"


def test_membership_monotone_under_induced_subgraphs(small_graphs):
    for g in small_graphs[:6]:
        if not in_class(g)[0]:
            continue
        verts = sorted(g.vertices)
        sub = verts[: max(1, len(verts) - 2)]
        h = BipartiteGraph(g.n, {v: g.part(v) for v in sub},
                           [(u, v) for (u, v) in g.edges
                            if u in sub and v in sub])
        assert in_class(h)[0]


def test_incremental_member_base_agrees(grow_outputs):
    g, _ = grow_outputs[1]
    # full check and nothing-new incremental check agree
    assert in_class(g)[0]
    assert in_class(g, member_base=g.vertices)[0]


def test_member_base_must_be_strong():
    g = make_path(4, 2)
    # the endpoints of a length-2 path are not strong (the whole path has
    # smaller delta), so the incremental mode must refuse them
    with pytest.raises(GraphError):
        in_class(g, member_base=g.subsets["endpoints"])


def glue_path(g, a, b, length):
    """g with a fresh path of the given length from a to b."""
    return free_amalgam(g, make_path(g.n, length), {0: a, length: b})


def incremental_corpus(monkeypatch, n, runs, max_body=None,
                       templates=TEMPLATES):
    """Check full against incremental `in_class` on grown members h with
    paths of length n-1, n+1 and 2n-1 glued in once and twice at the same
    ends, both with the body cap `max_body`.  `runs` holds (steps, rng,
    sites per length) triples.  Returns the number of rejected
    candidates, the conditions seen, and whether a find_copies recount
    over an old base found several copies."""
    recounts = []
    real = ngons.kmu.find_copies

    def spy(g, base, body):
        copies = real(g, base, body)
        recounts.append((base, len(copies)))
        return copies

    monkeypatch.setattr(ngons.kmu, "find_copies", spy)
    conditions = set()
    old_base_recount = False
    rejected = 0
    for steps, rng_seed, per_length in runs:
        h, _ = grow(make_cycle(n, 2 * n + 2), steps, rng_seed,
                    templates=templates)
        verts = sorted(h.vertices)
        for length in (n - 1, n + 1, 2 * n - 1):
            sites = [(a, b) for a, b in combinations(verts, 2)
                     if (h.part(a), h.part(b)) == (0, length % 2)
                     and not h.has_edge(a, b)]
            for a, b in sites[::len(sites) // per_length + 1]:
                once = glue_path(h, a, b, length)
                for g in (once, glue_path(once, a, b, length)):
                    full = in_class(g, max_body=max_body)
                    recounts.clear()
                    assert in_class(g, max_body=max_body,
                                    member_base=h.vertices) == full
                    rejected += not full[0]
                    conds = {r.condition for r in full[1]}
                    conditions |= conds
                    if "mu_exceeded" in conds and any(
                            base <= h.vertices and count > 1
                            for base, count in recounts):
                        old_base_recount = True
    return rejected, conditions, old_base_recount


ALL_CONDITIONS = {"short_cycle", "long_cycle_low_delta", "mu_exceeded"}


def test_incremental_agrees_on_rejected_candidates(monkeypatch):
    """n = 3: the corpus reaches every condition and the find_copies
    recount over an old base."""
    rejected, conditions, old_base_recount = incremental_corpus(
        monkeypatch, 3, ((5, 1, 8), (6, 2, 8)))
    assert rejected and conditions == ALL_CONDITIONS
    assert old_base_recount


def test_incremental_agrees_on_rejected_candidates_n4(monkeypatch):
    """n = 4, with the body cap at 8 on both sides to keep the corpus
    fast (the default n = 4 cap is 24)."""
    rejected, conditions, old_base_recount = incremental_corpus(
        monkeypatch, 4, ((3, 1, 8), (2, 10, 4)), max_body=8,
        templates=("pendant_path", "path_completion", "cycle_attach"))
    assert rejected >= 15 and conditions == ALL_CONDITIONS
    assert old_base_recount


def test_matcher_leaves_no_reference_cycle():
    """The matcher frees its search without the cyclic collector, run to
    the end (find_copies) or stopped at the first match."""
    g = make_cl_witness(3, 3)
    pairs = [p for p in enumerate_zero_min_pairs(g) if len(p.body) > 1][::5]
    assert len(pairs) > 5
    gc.collect()
    gc.disable()
    try:
        for p in pairs:
            copies = find_copies(g, p.base, p.body)
            assert copies_equivalent(g, p.base, p.body, max(copies, key=sorted))
            assert pairs_isomorphic(g, p.base, p.body, g, p.base, p.body)
        assert gc.collect() == 0
    finally:
        gc.enable()
