import gc
import random
from itertools import combinations, permutations

import pytest

import ngons.graph
import ngons.kmu
import ngons.predimension
from conftest import (MaskOracle, cycle_with_handles, double_path, line_counts,
                      random_bipartite)
from ngons import (BipartiteGraph, GraphError, MuFunction, TEMPLATES,
                   closure, d_min, default_horizon, default_mu, delta,
                   enumerate_zero_min_pairs, find_copies, free_amalgam, girth,
                   gq22_graph, grow, in_class, is_connected, is_strong,
                   is_zero_minimally_algebraic, make_cl_witness, make_cycle,
                   make_path, pairs_isomorphic, copies_equivalent, enumerate_cycles)
from ngons.graph import _cycles
from ngons.predimension import _hull_cut


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
    assert len(find_copies(one, one.subsets["endpoints"], one.subsets["interior"])) == 1
    two = double_path(n)
    base = frozenset({0, 1})
    body = frozenset(sorted(two.vertices - base)[:n - 2])
    assert len(find_copies(two, base, body)) == 2
    wit = make_cl_witness(3, 2)
    assert len(find_copies(wit, wit.subsets["A0"], wit.subsets["C"])) == 1


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
        assert body in copies
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


def test_condition2_matches_brute_force():
    """Condition 2 against the mask oracle, in full mode and with
    `member_base`: every long cycle C through a new vertex whose d(C) is
    below 2n+2 reports the smallest minimiser of delta over supersets of
    C, once per minimiser, with value d(C).  The corpus (n = 3 and 4)
    reaches chorded cycles among the violators, d(C) = 2n+1 and 2n+2, and
    the three routes of the cut: an empty hull, a cycle the cut bound
    clears, and a max flow that finds a violation; `member_base`, the
    closure of half the vertices, leaves out some violators."""
    routes, values, chorded, filtered = set(), set(), 0, 0
    for n in (3, 4):
        rng, bar = random.Random(20261019 + n), 2 * n + 2
        for _ in range(30):
            length = rng.choice(range(bar, 2 * n + 7, 2))
            g = cycle_with_handles(rng, n, length, rng.randint(1, 15 - length),
                                   rng.choice((0, 0, 1, 2)))
            oracle, idx = MaskOracle(g), g._index
            cycles = [c for k in range(bar, 2 * n + 7, 2)
                      for c in enumerate_cycles(g, k)]
            smallest = {}
            for c in cycles:
                amask = oracle.mask(c)
                d = oracle.d_min(c)
                smallest[c] = d, min((s for s in oracle.supersets(amask)
                                      if oracle.delta[s] == d), key=int.bit_count)
                values.add(d - bar)
                chorded += d < bar and g.edge_count(c) > len(c)
                value, _, net, hull = _hull_cut(g, idx.mask(c), idx.full, bar - delta(g, c))
                routes.add("empty hull" if not hull else "cleared" if net is None
                           else "violation" if delta(g, c) + value < bar else "flow")
            base = closure(g, rng.sample(sorted(g.vertices), len(g) // 2))
            assert oracle.is_strong(base)
            wants = []
            for member_base in (None, base):
                new = g.vertices - (member_base or set())
                want = sorted({(tuple(sorted(oracle.unmask(w))), d)
                               for c, (d, w) in smallest.items()
                               if d < bar and new & set(c)})
                got = [(r.witness, r.value) for r in in_class(
                    g, max_body=2, member_base=member_base)[1]
                    if r.condition == "long_cycle_low_delta"]
                assert got == want
                wants.append(want)
            filtered += wants[0] != wants[1]
    assert {"empty hull", "cleared", "violation"} <= routes
    assert {-1, 0} <= values and chorded and filtered


def cycle_and_complete(n, length, p, q, path):
    """A `length`-cycle C (ids 100 on) and K_{p,q} (ids 0 on), disjoint or,
    with `path` > 0, joined by a path through `path` new vertices of
    degree 2 (ids 200 on), from vertex 100 to a vertex of K."""
    parts = {v: int(v >= p) for v in range(p + q)}
    parts.update({100 + i: i % 2 for i in range(length)})
    edges = [(u, v) for u in range(p) for v in range(p, p + q)]
    edges += [(100 + i, 100 + (i + 1) % length) for i in range(length)]
    if path:
        # path + 1 edges from part 0 at 100 to part (path + 1) % 2 in K
        chain = [100, *range(200, 200 + path), 0 if path % 2 else p]
        parts.update({200 + j: (j + 1) % 2 for j in range(path)})
        edges += list(zip(chain, chain[1:]))
    return BipartiteGraph(n, parts, edges)


@pytest.mark.parametrize("n, length, p, q, path", [
    (3, 8, 4, 5, 0), (3, 8, 4, 5, 2), (4, 10, 3, 4, 0), (4, 10, 3, 4, 3)],
    ids=["C8+K45", "C8-path-K45", "C10+K34", "C10-path-K34"])
def test_zero_floor_guard(n, length, p, q, path):
    """K_{p,q} has negative delta (-2 for K_{4,5} at n = 3, -3 for K_{3,4}
    at n = 4), so the smallest minimiser over a cycle C is C + K, with no
    edge between them or joined only through a path whose vertices lower
    no delta: a cut that kept to the vertices joined to C would miss K.
    The graph's first cut runs over the whole graph; the later ones find
    its floor negative and do too.  d(C), cl(C) and the report of
    condition 2 agree with the mask oracle."""
    g = cycle_and_complete(n, length, p, q, path)
    cycle, complete = frozenset(range(100, 100 + length)), frozenset(range(p + q))
    oracle = MaskOracle(g)
    cmask = oracle.mask(cycle)
    value = min(oracle.delta[s] for s in oracle.supersets(cmask))
    smallest = (1 << oracle.k) - 1
    for s in oracle.supersets(cmask):
        if oracle.delta[s] == value:
            smallest &= s
    assert oracle.unmask(smallest) == cycle | complete
    assert value == delta(g, cycle) + delta(g, complete) < 2 * n + 2
    for _ in range(2):
        assert d_min(g, cycle) == value
        assert closure(g, cycle) == cycle | complete
    assert g._index.zero_floor is False
    low = [(r.witness, r.value) for r in in_class(g, max_body=2)[1]
           if r.condition == "long_cycle_low_delta" and cycle <= set(r.witness)]
    assert low == [(tuple(sorted(cycle | complete)), value)]
    if n == 3:
        assert value == 6


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


def test_member_base_check_reads_only_the_new_part(monkeypatch):
    """With `member_base`, delta is summed over the new vertices only (the
    cycles through them, the bases of their bodies), never over the old
    part: every mask delta sees has fewer than |V|/2 bits."""
    g = grow(make_cycle(3, 8), 120, 1)[0]
    h = grow(make_cycle(3, 8), 119, 1)[0]
    assert len(g) == 373 and len(h) == 367
    seen = []
    for module in (ngons.kmu, ngons.predimension):
        def spy(g, m, real=module._delta):
            seen.append(m.bit_count())
            return real(g, m)
        monkeypatch.setattr(module, "_delta", spy)
    assert in_class(g, member_base=h.vertices)[0]
    assert seen and max(seen) < len(g) / 2


def test_member_base_must_be_strong():
    g = make_path(4, 2)
    # the endpoints of a length-2 path are not strong (the whole path has
    # smaller delta), so the incremental mode must refuse them
    with pytest.raises(GraphError):
        in_class(g, member_base=g.subsets["endpoints"])


def glue_path(g, a, b, length):
    """g with a fresh path of the given length from a to b."""
    return free_amalgam(g, make_path(g.n, length), {0: a, length: b})


def glued_members(n, runs, templates=TEMPLATES):
    """Yield (h, once, twice, length) for grown members h with a path of
    length n-1, n+1 or 2n-1 glued in once and twice at the same ends.
    `runs` holds (steps, rng, sites per length) triples."""
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
                yield h, once, glue_path(once, a, b, length), length


# (n, runs, body cap, templates); n = 4 caps bodies at 8 on both sides
# to keep the corpus fast (the default n = 4 cap is 24)
GLUE_N3 = (3, ((5, 1, 8), (6, 2, 8)), None, TEMPLATES)
GLUE_N4 = (4, ((3, 1, 8), (2, 10, 4)), 8,
           ("pendant_path", "path_completion", "cycle_attach"))


def incremental_corpus(monkeypatch, n, runs, max_body, templates):
    """Check full against incremental `in_class` on the `glued_members`
    graphs with h as the member base, both with the body cap `max_body`.
    Returns the number of rejected candidates, the conditions seen, and
    whether a find_copies recount over an old base found several
    copies."""
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
    for h, once, twice, _ in glued_members(n, runs, templates):
        for g in (once, twice):
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
        monkeypatch, *GLUE_N3)
    assert rejected and conditions == ALL_CONDITIONS
    assert old_base_recount


def test_incremental_agrees_on_rejected_candidates_n4(monkeypatch):
    """n = 4, with the body cap at 8."""
    rejected, conditions, old_base_recount = incremental_corpus(
        monkeypatch, *GLUE_N4)
    assert rejected >= 15 and conditions == ALL_CONDITIONS
    assert old_base_recount


def twenty_seven_copies():
    """At n = 3: sets X1..X4 of 1, 3, 3 and 3 vertices, each joined to its
    own base vertex 100..103 and completely to the next set round a
    4-cycle, which gives 27 copies of a 4-cycle body over the base."""
    base = (100, 101, 102, 103)
    xs = ((0,), (10, 11, 12), (20, 21, 22), (30, 31, 32))
    parts = {a: (i + 1) % 2 for i, a in enumerate(base)}
    parts.update({x: i % 2 for i, xi in enumerate(xs) for x in xi})
    return BipartiteGraph(3, parts, [(x, base[i]) for i, xi in enumerate(xs) for x in xi]
                          + [(x, y) for i in range(4) for x in xs[i] for y in xs[i - 1]])


def gq22_without_19():
    """GQ(2,2) less vertex 19: girth 8 at n = 4."""
    gq = gq22_graph()
    return BipartiteGraph(4, {v: gq.part(v) for v in gq.vertices if v != 19},
                          [e for e in gq.edges if 19 not in e])


def cl_copies(k):
    """k copies of `make_cl_witness(3, 2)` amalgamated over A0: k copies
    of C over A0, a non-path configuration with mu = 8."""
    w = make_cl_witness(3, 2)
    g = w
    for _ in range(k - 1):
        g = free_amalgam(g, w, {a: a for a in w.subsets["A0"]})
    return g


def pair_list_mu_reports(g, max_body, member_base, kinds):
    """Condition 3 read off the sorted pair list: every pair around the
    new vertices from `enumerate_zero_min_pairs` as vertex sets, grouped
    by base, every base split into copy classes and counted, the copies
    over an old base recounted by find_copies.  The mu_exceeded reports
    as (condition, witness, value, bound), in `in_class` order.  Adds to
    `kinds` the bases met: a new base with two or more copies, an old
    base whose one body find_copies recounts to two or more, a new base
    with one body, and a class of two or more copies that is not a path
    configuration (mu > 1)."""
    mu, new = default_mu(g.n), g.vertices - (member_base or frozenset())
    by_base, reports = {}, []
    for pair in enumerate_zero_min_pairs(g, max_body, around=new):
        by_base.setdefault(pair.base, []).append(pair.body)
    for base in sorted(by_base, key=sorted):
        classes = []
        for body in sorted(by_base[base], key=sorted):
            key = (len(body), g.edge_count(body))
            for ckey, cls in classes:
                if ckey == key and copies_equivalent(g, base, cls[0], body):
                    cls.append(body)
                    break
            else:
                classes.append((key, [body]))
        if base & new and len(by_base[base]) == 1:
            kinds.add("new base, one body")
        for _, cls in classes:
            copies = cls if base & new else find_copies(g, base, cls[0])
            if len(copies) < 2:
                continue
            if base & new:
                kinds.add("new base, copies")
            elif len(by_base[base]) == 1:
                kinds.add("old base, one body recounted")
            bound = mu(g, base, cls[0])
            if bound > 1:
                kinds.add("non-path copies")
            if len(copies) > bound:
                reports.append(("mu_exceeded", tuple(sorted(base)) + tuple(
                    sorted(frozenset().union(*copies))), len(copies), bound))
    reports.sort(key=lambda r: r[:2])
    return reports


def test_condition3_matches_pair_list_reference():
    """Condition 3 reads the pair stream as masks and builds vertex sets
    only for bases with two or more bodies and for old bases; its
    mu_exceeded reports, in full and in `member_base` mode, equal those
    of the whole pair list grouped by base.  The corpus: the glue-path
    graphs of the incremental corpora (n = 3, and n = 4 with the body cap
    at 8), where a second path of length n - 1 glued at the ends of the
    first is also checked with the first in the member base; K_{2,3} and
    the double paths, in full mode and over the closure of all vertices
    but the last, as are the 27-copy graph, GQ(2,2) less a vertex (body
    cap 8) and two and three copies of cl(3, 2) over A0.  It reaches new
    bases with several copies, old bases whose one enumerated body has a
    second copy, new bases with one body, which `in_class` skips, and
    classes of two or more copies that are not path configurations."""
    k23 = BipartiteGraph(3, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1},
                         [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    cases = []
    for g, cap in ((k23, None), (double_path(3), None), (double_path(4), None),
                   (twenty_seven_copies(), None), (gq22_without_19(), 8),
                   (cl_copies(2), None), (cl_copies(3), None)):
        cases += [(g, cap, None),
                  (g, cap, closure(g, sorted(g.vertices)[:-1]))]
    for n, runs, cap, templates in (GLUE_N3, GLUE_N4):
        for h, once, twice, length in glued_members(n, runs, templates):
            for g in (once, twice):
                cases += [(g, cap, None), (g, cap, h.vertices)]
            if length == n - 1:
                cases.append((twice, cap, once.vertices))
    kinds, reported = set(), 0
    for g, cap, member_base in cases:
        got = [(r.condition, r.witness, r.value, r.bound)
               for r in in_class(g, max_body=cap, member_base=member_base)[1]
               if r.condition == "mu_exceeded"]
        assert got == pair_list_mu_reports(g, cap, member_base, kinds)
        reported += len(got)
    assert kinds == {"new base, copies", "old base, one body recounted",
                     "new base, one body", "non-path copies"}
    assert reported > 100


def walked_bodies(monkeypatch, g, max_body=None, member_base=None):
    """Run `in_class` and return the bodies that the pair search yields
    and those whose bases it walks, as vertex sets."""
    yielded, walked = [], []
    real_bodies, real_bases = ngons.zeroalg._candidate_bodies, ngons.zeroalg._pairs_for_body

    def record(*args):
        for item in real_bodies(*args):
            yielded.append(item[0])
            yield item

    def walk(g, body, *args):
        walked.append(body)
        return real_bases(g, body, *args)

    monkeypatch.setattr(ngons.zeroalg, "_candidate_bodies", record)
    monkeypatch.setattr(ngons.zeroalg, "_pairs_for_body", walk)
    try:
        in_class(g, max_body=max_body, member_base=member_base)
    finally:
        monkeypatch.undo()
    verts = g._index.verts
    return [[frozenset(v for i, v in enumerate(verts) if mask >> i & 1) for mask in masks]
            for masks in (yielded, walked)]


def test_condition3_skips_only_bodies_without_copies(monkeypatch):
    """Every body whose bases condition 3 does not walk has only bases
    that meet the new vertices and carry no second body copies_equivalent
    to it, by the whole pair list around the new vertices.  The corpus:
    each membership check of four n = 3 and four n = 4 growth runs, in
    `member_base` mode as `grow` runs it and in full mode, the glue-path
    graphs of both incremental corpora over their member, and the two
    graphs of `test_degree_bound_needs_more_than_girth`."""
    checks = []
    real = ngons.builder.in_class

    def spy(g, mu=None, member_base=None):
        checks.append((g, None, member_base))
        checks.append((g, None, None))
        return real(g, mu, member_base=member_base)

    monkeypatch.setattr(ngons.builder, "in_class", spy)
    for s in range(1, 5):
        grow(make_cycle(3, 8), 10, s)
        grow(make_cycle(4, 10), 3, s, templates=GLUE_N4[3])
    monkeypatch.undo()
    for n, runs, cap, templates in (GLUE_N3, GLUE_N4):
        for h, once, twice, _ in glued_members(n, runs, templates):
            checks += [(once, cap, h.vertices), (twice, cap, h.vertices)]
    checks += [(twenty_seven_copies(), None, None), (gq22_without_19(), 8, None)]
    skipped = 0
    for g, cap, member_base in checks:
        new = g.vertices - (member_base or frozenset())
        yielded, walked = walked_bodies(monkeypatch, g, cap, member_base)
        assert set(walked) <= set(yielded)
        over, bases = {}, {}
        for p in enumerate_zero_min_pairs(g, cap, around=new):
            over.setdefault(p.base, []).append(p.body)
            bases.setdefault(p.body, []).append(p.base)
        for body in set(yielded) - set(walked):
            for base in bases.get(body, ()):
                assert base & new
                assert not any(copies_equivalent(g, base, body, other)
                               for other in over[base] if other != body)
            skipped += 1
    assert skipped > 1000


@pytest.mark.parametrize("cl, counts", [((3, 3), (58, 0)), ((4, 2), (61, 29)),
                                        (None, (208, 13))],
                         ids=["cl(3,3)", "cl(4,2)", "grow-step"])
def test_condition3_walked_body_counts(monkeypatch, cl, counts):
    """Condition 3 walks the bases of a pinned number of the bodies that
    the body search yields, so losing the body filter shows here and not
    only in run time: cl(3, 3) and cl(4, 2) in full mode, and the
    cl-witness step of the n = 3 growth run with rng 3 (step 4, 24 to 36
    vertices) over the graph before it."""
    if cl:
        g, member_base = make_cl_witness(*cl), None
    else:
        member_base = grow(make_cycle(3, 8), 4, 3)[0].vertices
        g, log = grow(make_cycle(3, 8), 5, 3)
        assert log[-1].format() == "STEP 4 cl_witness accepted 36 51"
    assert tuple(map(len, walked_bodies(monkeypatch, g, None, member_base))) == counts


@pytest.mark.parametrize("make, through, counts", [
    (lambda: make_cl_witness(3, 3), None, [373, 642, 226]),
    (twenty_seven_copies, None, [3763, 935766, 17844]),
    (gq22_graph, {0}, [190, 1008, 648])], ids=["cl(3,3)", "27 copies", "GQ(2,2) at 0"])
def test_cycle_walk_counts(make, through, counts):
    """The cycle walk of conditions 1 and 2, over the lengths `in_class`
    asks for, pops a pinned number of half-length paths, tests a pinned
    number of pairs of halves and yields a pinned number of cycles, so a
    walk that grows whole cycles shows here and not only in run time
    (that walk popped 2,697, 76,111 and 6,910 paths), and so does a
    pairing that tests halves from one first step (that made 1,056,
    1,161,291 and 1,512 tests)."""
    g = make()
    lengths = [*range(4, 2 * g.n, 2), *range(2 * g.n + 2, default_horizon(g.n) + 1, 2)]
    cycles = []
    counts_seen = line_counts(lambda: cycles.extend(_cycles(g, lengths, through)),
                              (ngons.graph._cycles, "stack.pop()"),
                              (ngons.graph._cycles, "mask & more =="))
    assert counts_seen + [len(cycles)] == counts


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


def test_degree_bound_needs_more_than_girth():
    """A report of mu_exceeded does not need every base vertex to have
    degree above mu: that bound would hold if the copies were pairwise
    disjoint, and neither a report nor girth 2n makes them so.

    At n = 3, `twenty_seven_copies` gives 27 copies of a 4-cycle body over
    the base, all through the one vertex of X1, whose base vertex has
    degree 1.  At n = 4, GQ(2,2) without one vertex has girth 8, and two
    copies of one body over a base of degrees 3, 2, 2, 3, 3 share a
    vertex."""
    g, base = twenty_seven_copies(), (100, 101, 102, 103)
    ok, reports = in_class(g)
    assert not ok
    assert "VIOLATION mu_exceeded 100,101,102,103,0,10,11,12,20,21,22,30,31,32 27 8" \
        in [r.format() for r in reports]
    copies = find_copies(g, base, {0, 10, 20, 30})
    assert len(copies) == 27 and all(0 in c for c in copies)
    assert g.degree(100) == 1

    h = gq22_without_19()
    assert girth(h) == 8
    base = {0, 1, 7, 10, 24}
    body1, body2 = {2, 5, 14, 15, 18, 21, 22, 23}, {4, 5, 12, 17, 20, 27, 28, 29}
    assert [h.degree(a) for a in sorted(base)] == [3, 2, 2, 3, 3]
    assert is_zero_minimally_algebraic(h, base, body1)
    assert is_zero_minimally_algebraic(h, base, body2)
    assert copies_equivalent(h, base, body1, body2)
    assert body1 & body2 == {5}
    # the disjointness argument needs a base strong over the copies
    assert not is_strong(h, base)[0]
