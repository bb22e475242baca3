import math
import hashlib
import random
from collections import Counter
from itertools import count

import pytest
from hypothesis import assume, given, settings, strategies as st

import ngons.builder
from ngons import (AmalgamError, BipartiteGraph, bfs_distances, delta,
                   free_amalgam, girth, grow, in_class, is_strong,
                   make_cl_witness, make_cycle, make_path)


def test_amalgam_of_two_paths_is_a_cycle():
    n = 3
    m = make_path(n, n)
    e = make_path(n, n)
    g = free_amalgam(m, e, {0: 0, n: n})
    assert len(g.vertices) == 2 * n and len(g.edges) == 2 * n
    assert girth(g) == 2 * n


def test_amalgam_identity_and_delta_additivity():
    m = make_cycle(3, 8)
    e = make_path(3, 3)
    # gluing the whole extension changes nothing
    sub = make_path(3, 1)
    assert free_amalgam(m, sub, {0: 0, 1: 1}) == m
    # free amalgam: delta adds up over the shared base
    g = free_amalgam(m, e, {0: 0})
    assert delta(g, g.vertices) == (delta(m, m.vertices)
                                    + delta(e, e.vertices)
                                    - delta(e, frozenset({0})))


def test_amalgam_validation():
    m = make_cycle(3, 8)
    with pytest.raises(AmalgamError):
        free_amalgam(m, make_path(4, 2), {0: 0})  # gonality mismatch
    with pytest.raises(AmalgamError):
        free_amalgam(m, make_path(3, 2), {0: 0, 2: 0})  # not injective... parts
    with pytest.raises(AmalgamError):
        # parts do not match: path vertex 1 has part 1, image part 0
        free_amalgam(m, make_path(3, 2), {1: 0})
    with pytest.raises(AmalgamError):
        # gluing not an induced-subgraph isomorphism: 0-1 is an edge in the
        # path but 0 and 3 are not adjacent in the cycle
        free_amalgam(m, make_path(3, 1), {0: 0, 1: 3})
    with pytest.raises(AmalgamError):
        # base not strong in the extension: endpoints of a length-2 path
        # for n = 4
        free_amalgam(make_cycle(4, 10), make_path(4, 2), {0: 0, 2: 2})


def test_no_cross_edges():
    m = make_cycle(3, 8)
    e = make_path(3, 2)
    g = free_amalgam(m, e, {0: 0})
    new = g.vertices - m.vertices
    assert g.edge_count(new, m.vertices - {0}) == 0


def test_grow_zero_steps_is_identity():
    seed = make_cycle(3, 8)
    g, log = grow(seed, 0, 42)
    assert g == seed and log == []


def test_grow_rejects_bad_seed():
    with pytest.raises(AmalgamError):
        grow(make_cycle(3, 4), 1, 0)


def test_grow_stops_when_strong_persistence_fails(monkeypatch):
    """A candidate in which the previous graph is no longer strongly
    embedded stops growth with the step and in_class's violator."""
    def glue_violator(g, ext, gluing):
        # a new vertex on three points lowers delta by one
        v = max(g.vertices) + 1
        parts = {u: g.part(u) for u in g.vertices}
        parts[v] = 1
        edges = set(g.edges) | {(u, v) for u in sorted(g.part_vertices(0))[:3]}
        return BipartiteGraph(g.n, parts, edges)

    monkeypatch.setattr(ngons.builder, "free_amalgam", glue_violator)
    with pytest.raises(AmalgamError) as exc:
        grow(make_cycle(3, 8), 1, 1)
    assert str(exc.value) == (
        "strong persistence failed at step 0: previous graph is no longer "
        "strong (member_base is not strongly embedded; violator "
        "[0, 1, 2, 3, 4, 5, 6, 7, 8])")


def test_grow_deterministic():
    seed = make_cycle(3, 8)
    g1, log1 = grow(seed, 10, 7)
    g2, log2 = grow(seed, 10, 7)
    assert g1 == g2 and log1 == log2
    g3, _ = grow(seed, 10, 8)
    assert g3 != g1  # different seed, different trajectory


def test_grow_outputs_are_members(grow_outputs):
    for s, (g, log) in grow_outputs.items():
        assert len(log) == 20
        ok, reports = in_class(g)
        assert ok, "grow output for seed %d left the class: %s" % (
            s, [r.format() for r in reports])
        # the seed cycle is still strongly embedded
        assert is_strong(g, frozenset(range(8)))[0]


def test_grow_pinned_sizes(grow_outputs):
    sizes = {s: (len(g.vertices), len(g.edges))
             for s, (g, _) in grow_outputs.items()}
    assert sizes == {1: (56, 68), 2: (67, 85), 3: (68, 90)}


def test_grow_log_format(grow_outputs):
    g, log = grow_outputs[2]
    for k, rec in enumerate(log):
        assert rec.index == k
        line = rec.format()
        assert line.startswith("STEP %d " % k)
        assert ("accepted" in line) or ("rejected:" in line)


def test_every_subset_of_members_positive(grow_outputs):
    """Nonempty subsets of class members have delta >= 1 (spot-checked),
    and subsets with delta <= 2n+1 are strong."""
    rng = random.Random(99)
    for s, (g, _) in grow_outputs.items():
        verts = sorted(g.vertices)
        for _ in range(60):
            a = frozenset(rng.sample(verts, rng.randrange(1, 12)))
            d = delta(g, a)
            assert d >= 1
            if d <= 2 * g.n + 1:
                assert is_strong(g, a)[0]


@pytest.mark.parametrize("rng, log", [
    (5, ["STEP 0 cycle_attach accepted 18 19",
         "STEP 1 cycle_attach accepted 27 29"]),
    (10, ["STEP 0 cycle_attach accepted 18 19",
          "STEP 1 cycle_attach accepted 26 28"]),
    (37, ["STEP 0 cycle_attach accepted 18 19",
          "STEP 1 cycle_attach accepted 27 29"]),
])
def test_grow_n4_pinned(rng, log):
    """Two n = 4 steps from the 10-cycle reach 26-27 vertices, where the
    body search meets the dense sets of glued cycles."""
    g, steps = grow(make_cycle(4, 10), 2, rng,
                    templates=("pendant_path", "path_completion",
                               "cycle_attach"))
    assert [rec.format() for rec in steps] == log
    assert in_class(g) == (True, [])


def test_grow_80_steps_pinned():
    """Eighty n = 3 steps reach 228 vertices, the scale at which the
    incremental membership check has to stay local to be fast.  The log
    is pinned by its digest, and the result is still a full member."""
    g, log = grow(make_cycle(3, 8), 80, 1)
    lines = [rec.format() for rec in log]
    assert lines[-1] == "STEP 79 cl_witness accepted 228 297"
    assert Counter((rec.template, rec.reason or "accepted") for rec in log) == {
        ("pendant_path", "accepted"): 19,
        ("path_completion", "accepted"): 13,
        ("path_completion", "no_site"): 13,
        ("cycle_attach", "accepted"): 20,
        ("cycle_attach", "no_site"): 2,
        ("cl_witness", "accepted"): 3,
        ("cl_witness", "no_site"): 10}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "9796ce5611ecd9ab925826e19b9c49e996e5d01b7e46347e52e9736ab2431d81")
    assert in_class(g) == (True, [])


# ------------------------------------------- amalgams extend their parent

INDEX_FIELDS = ("verts", "pos", "adj", "full", "deg", "below", "sides", "core")


def _checked_amalgam(m, e, gluing, amalgam=free_amalgam):
    """amalgam(m, e, gluing), checked against a reference built here from
    m's and e's parts and edges: e's vertices outside the gluing take the
    ids above m's largest, in order, and e's edges are relabelled through
    the gluing and those ids.  The amalgam's vertices, parts, edges and
    subsets equal the reference's, and every field of its bitset index
    equals that of a graph built afresh from the reference."""
    g = amalgam(m, e, gluing)
    ids = dict(gluing)
    ids.update(zip(sorted(e.vertices - gluing.keys()), count(max(m.vertices, default=-1) + 1)))
    parts = {v: m.part(v) for v in m.vertices}
    parts.update((ids[v], e.part(v)) for v in e.vertices)
    edges = m.edges | {(min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in e.edges}
    fresh = BipartiteGraph(m.n, parts, edges, m.subsets)
    assert g.n == m.n and g.subsets == m.subsets
    assert g.vertices == set(parts) and all(g.part(v) == p for v, p in parts.items())
    assert g.edges == edges
    for field in INDEX_FIELDS:
        assert getattr(g._index, field) == getattr(fresh._index, field), field
    return g


def test_amalgam_index_matches_fresh_build(monkeypatch):
    """An amalgam extends its parent's index at the glued and fresh
    positions, and the result equals a fresh build: on every amalgam of
    seeded growth at n = 3, 4 and 5, and on a completion between two
    pendant leaves, which pulls both pendant trees into the 2-core."""
    real, built = ngons.builder.free_amalgam, []

    def checked(m, e, gluing):
        built.append(_checked_amalgam(m, e, gluing, real))
        return built[-1]

    monkeypatch.setattr(ngons.builder, "free_amalgam", checked)
    for s in (1, 2, 3):
        grow(make_cycle(3, 8), 40, s)
    grow(make_cycle(4, 10), 8, 1)
    for s in (2, 3):
        grow(make_cycle(4, 10), 3, s, templates=(
            "pendant_path", "path_completion", "cycle_attach"))
    grow(make_cycle(5, 12), 4, 1)
    assert {g.n for g in built} == {3, 4, 5} and len(built) > 90
    # pendant paths 0 - 8 - 9 and 4 - 10 - 11, then a path of length 2
    # between the leaves 9 and 11: a cycle through both trees
    g = real(make_cycle(3, 8), make_path(3, 2), {0: 0})
    g = real(g, make_path(3, 2), {0: 4})
    assert g._index.core == g._index.mask(range(8))
    g = _checked_amalgam(g, make_path(3, 2), {0: 9, 2: 11}, real)
    assert g._index.core == g._index.full
    # every index is extended from the shared empty one, which no build
    # can write into
    empty = ngons.graph._Index()
    assert (empty.verts, dict(empty.pos), empty.adj, empty.deg) == ((), {}, (), ())
    with pytest.raises(TypeError):
        empty.pos[0] = 0


@st.composite
def amalgam_inputs(draw):
    """An ambient graph on drawn ids, an extension that copies the
    subgraph it induces on a drawn vertex set and adds fresh vertices and
    edges at them, and the identity gluing of that set."""
    n = draw(st.sampled_from([3, 4, 5]))
    ids = sorted(draw(st.sets(st.integers(-20, 40), min_size=1, max_size=10)))
    parts = {v: draw(st.integers(0, 1)) for v in ids}
    pairs = [(u, v) for u in ids for v in ids if u < v and parts[u] != parts[v]]
    m = BipartiteGraph(n, parts, draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    dom = draw(st.sets(st.sampled_from(ids), max_size=4))
    eparts = {v: parts[v] for v in dom}
    eparts.update({100 + i: draw(st.integers(0, 1))
                   for i in range(draw(st.integers(0, 5)))})
    extra = [(u, v) for u in eparts for v in eparts
             if u < v and v >= 100 and eparts[u] != eparts[v]]
    edges = {(u, v) for u, v in m.edges if u in dom and v in dom}
    edges |= draw(st.sets(st.sampled_from(extra))) if extra else set()
    return m, BipartiteGraph(n, eparts, edges), {v: v for v in dom}


@settings(max_examples=200, deadline=None)
@given(amalgam_inputs())
def test_amalgam_index_matches_fresh_build_on_drawn_inputs(inputs):
    """The same on drawn `free_amalgam` inputs, glued twice in a row, so
    that an extended index is extended again."""
    m, e, gluing = inputs
    assume(is_strong(e, gluing)[0])
    _checked_amalgam(_checked_amalgam(m, e, gluing), e, gluing)


# ------------------------------------------- site search, BFS references

def _secluded_reference(g, v, allowed=()):
    """A vertex of degree <= 2 whose neighbours outside `allowed` all
    have degree <= 2 too, tested vertex by vertex."""
    return g.degree(v) <= 2 and all(g.degree(w) <= 2 for w in g.neighbors(v)
                                    if w not in allowed)


def _completion_reference(g, rng, length):
    """`_sites_completion` by one BFS per secluded vertex."""
    quiet = [v for v in sorted(g.vertices) if _secluded_reference(g, v)]
    pairs = []
    for u in quiet:
        dist = bfs_distances(g, u)
        pairs += [(u, v) for v in quiet if v > u
                  and (g.part(u) == g.part(v)) == (length % 2 == 0)
                  and dist.get(v, math.inf) + length >= 2 * g.n]
    return pairs[rng.randrange(len(pairs))] if pairs else None


def _witness_base_reference(g, rng, witness):
    """`_sites_witness_base` by BFS distances, pool by pool."""
    base = sorted(witness.subsets["A0"])
    by_part = {p: [v for v in sorted(g.part_vertices(p))
                   if _secluded_reference(g, v)] for p in (0, 1)}
    dist = {}
    for _ in range(50):
        chosen = []
        for p in [witness.part(s) for s in base]:
            pool = []
            for v in by_part[p]:
                if v in chosen:
                    continue
                if v not in dist:
                    dist[v] = bfs_distances(g, v)
                if all(dist[v].get(u, math.inf) >= 3 for u in chosen):
                    pool.append(v)
            if not pool:
                break
            chosen.append(pool[rng.randrange(len(pool))])
        else:
            return dict(zip(base, chosen))
    return None


def _cycle_attach_reference(g, rng):
    """The cycle_attach gluing of `_candidate`, with its edge filter
    tested edge by edge."""
    cyc = make_cycle(g.n, 2 * g.n + 2)
    edges = [(a, b) for (a, b) in sorted(g.edges)
             if _secluded_reference(g, a, allowed=(b,))
             and _secluded_reference(g, b, allowed=(a,))]
    if edges and rng.random() < 0.75:
        a, b = edges[rng.randrange(len(edges))]
        if cyc.part(0) != g.part(a):
            a, b = b, a
        return {0: a, 1: b}
    pool = [v for v in sorted(g.vertices) if _secluded_reference(g, v)]
    if not pool:
        return None
    v = pool[rng.randrange(len(pool))]
    return {0 if cyc.part(0) == g.part(v) else 1: v}


@pytest.fixture(scope="module")
def site_graphs():
    """Grown n = 3 and n = 4 graphs from 8 to 80 vertices."""
    graphs = [grow(make_cycle(3, 8), steps, s)[0]
              for s in range(1, 9) for steps in (3, 8, 16)]
    graphs += [grow(make_cycle(4, 10), steps, s, templates=(
        "pendant_path", "path_completion", "cycle_attach"))[0]
        for s in (1, 2, 3) for steps in (1, 2)]
    return graphs


def test_site_search_matches_bfs_reference(site_graphs):
    """The site searches on index masks return the same sites as the BFS
    versions and leave the rng in the same state, on grown graphs over
    many rng states: the secluded mask, the completion pair, both cl
    witness bases and the cycle_attach gluing."""
    reached = Counter()
    for g in site_graphs:
        idx = g._index
        assert [idx.verts[p] for p in range(len(idx.verts))
                if ngons.builder._secluded(idx) >> p & 1] == [
            v for v in sorted(g.vertices) if _secluded_reference(g, v)]
        witnesses = [make_cl_witness(g.n, l) for l in (2, 3)]
        for state in range(20):
            calls = [(ngons.builder._sites_completion, _completion_reference,
                      (g.n - 1,))] + [
                (ngons.builder._sites_witness_base, _witness_base_reference, (w,))
                for w in witnesses] + [
                (lambda g, rng: (ngons.builder._candidate(g, rng, "cycle_attach")
                                 or (None, None))[1], _cycle_attach_reference, ())]
            for new, reference, args in calls:
                rng_new, rng_ref = random.Random(state), random.Random(state)
                got = new(g, rng_new, *args)
                assert got == reference(g, rng_ref, *args)
                assert rng_new.getstate() == rng_ref.getstate()
                reached[reference.__name__, got is not None] += 1
    # witness searches that fail all 50 attempts and ones that succeed,
    # and completions with and without a pair
    assert {key for key in reached
            if key[0] != "_cycle_attach_reference"} == {
        (name, found) for name in ("_completion_reference",
                                   "_witness_base_reference")
        for found in (False, True)}, reached
