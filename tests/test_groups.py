import gc
import random
from collections import Counter
from itertools import permutations

import pytest

from conftest import line_counts, pgl3, random_bipartite
from ngons import groups
from ngons.graph import _canonical
from ngons import (BipartiteGraph, GraphError, PermGroup, automorphism_group,
                   check_remark_2_2, fano_graph, format_cycles, gq22_graph,
                   is_generalized_ngon, is_moufang, is_strongly_transitive,
                   make_cl_witness, make_cycle, make_path, ordered_cycles,
                   projective_plane, simple_paths, stabilizer_transitivity_degree)


@pytest.fixture(scope="module")
def fano_grp(fano):
    return automorphism_group(fano)


@pytest.fixture(scope="module")
def gq_grp(gq22):
    return automorphism_group(gq22)


def test_perm_group_basics():
    domain = range(4)
    rot = {0: 1, 1: 2, 2: 3, 3: 0}
    grp = PermGroup(domain, [rot])
    assert grp.order == 4
    assert len(grp.elements()) == 4
    assert grp.orbit(0) == frozenset({0, 1, 2, 3})
    assert grp.orbit((0, 1)) == {(0, 1), (1, 2), (2, 3), (3, 0)}
    assert grp.stabilizer([0]).order == 1
    with pytest.raises(GraphError):
        PermGroup(domain, [{0: 0, 1: 1}])  # wrong domain


def test_order_matches_element_count(fano_grp, gq_grp):
    for grp in (fano_grp, gq_grp):
        assert grp.order == len(grp.elements())


def test_order_invariant_under_generator_shuffle(fano_grp, fano):
    rng = random.Random(3)
    gens = list(fano_grp.generators)
    for _ in range(3):
        rng.shuffle(gens)
        assert PermGroup(sorted(fano.vertices), gens).order == 168


def test_format_cycles():
    assert format_cycles({0: 0, 1: 1}) == "()"
    assert format_cycles({0: 1, 1: 0, 2: 2}) == "(0 1)"
    assert format_cycles({0: 1, 1: 2, 2: 0, 5: 6, 6: 5}) == "(0 1 2)(5 6)"


def test_cycle_graph_groups():
    for n in (3, 4):
        g = make_cycle(n, 2 * n)
        assert automorphism_group(g, type_preserving=False).order == 4 * n
        assert automorphism_group(g, type_preserving=True).order == 2 * n


def test_asymmetric_tree_trivial():
    # three arms of distinct lengths from one centre: no symmetry at all
    g = BipartiteGraph(3, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1},
                       [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                        (2, 7)])
    assert automorphism_group(g, type_preserving=False).order == 1


def test_classical_orders(fano, gq22, fano_grp, gq_grp):
    assert fano_grp.order == 168
    assert automorphism_group(fano, type_preserving=False).order == 336
    assert gq_grp.order == 720
    assert automorphism_group(gq22, type_preserving=False).order == 1440


def test_generators_preserve_structure(fano, gq22, pg23):
    """Every generator the search returns maps edges to edges, and keeps
    the parts when type-preserving: `automorphism_group` does not re-check
    them, so this test does, on polygons, witnesses and random graphs."""
    rng = random.Random(20261021)
    graphs = [fano, gq22, pg23, make_cycle(3, 12), make_cl_witness(3, 2)]
    graphs += [random_bipartite(rng, 3, rng.randrange(6, 13), rng.uniform(0.2, 0.7))
               for _ in range(10)]
    for g in graphs:
        for type_preserving in (True, False):
            for p in automorphism_group(g, type_preserving).generators:
                assert all(g.has_edge(p[u], p[v]) for (u, v) in g.edges)
                if type_preserving:
                    assert all(g.part(p[v]) == g.part(v) for v in g.vertices)


def test_strong_transitivity(fano, gq22, fano_grp, gq_grp):
    assert is_strongly_transitive(fano, fano_grp) == (True, None)
    assert is_strongly_transitive(gq22, gq_grp) == (True, None)
    # thin polygon with its dihedral group
    thin = make_cycle(3, 6)
    grp = automorphism_group(thin)
    ok, _ = is_strongly_transitive(thin, grp)
    assert ok
    # trivial group fails with a counterexample path
    trivial = PermGroup(sorted(fano.vertices), [])
    ok, witness = is_strongly_transitive(fano, trivial)
    assert not ok and witness is not None
    assert len(witness) == fano.n + 1


def test_strans_requires_ngon(fano_grp):
    g = make_path(3, 4)
    grp = PermGroup(sorted(g.vertices), [])
    with pytest.raises(GraphError):
        is_strongly_transitive(g, grp)


def test_remark_equivalence(fano, gq22, fano_grp, gq_grp):
    assert check_remark_2_2(fano, fano_grp) == (True, True, True)
    assert check_remark_2_2(gq22, gq_grp) == (True, True, True)
    trivial = PermGroup(sorted(fano.vertices), [])
    holds, left, right = check_remark_2_2(fano, trivial)
    assert (holds, left, right) == (True, False, False)


def test_moufang(fano, gq22, fano_grp, gq_grp):
    assert is_moufang(fano, fano_grp) == (True, None)
    assert is_moufang(gq22, gq_grp) == (True, None)
    # a proper subgroup missing root groups fails with a failing path
    sub = PermGroup(sorted(fano.vertices), fano_grp.generators[:1])
    assert sub.order < 168
    ok, path = is_moufang(fano, sub)
    assert not ok and len(path) == fano.n + 1


def test_moufang_implies_strongly_transitive(fano, gq22, fano_grp, gq_grp):
    for g, grp in ((fano, fano_grp), (gq22, gq_grp)):
        if is_moufang(g, grp)[0]:
            assert is_strongly_transitive(g, grp)[0]


def test_transitivity_degree(fano, gq22, fano_grp, gq_grp):
    assert stabilizer_transitivity_degree(fano, fano_grp, 0) == 3
    deg = stabilizer_transitivity_degree(gq22, gq_grp, 0)
    assert deg == 3
    assert deg < 6
    trivial = PermGroup(sorted(fano.vertices), [])
    assert stabilizer_transitivity_degree(fano, trivial, 0) == 0
    with pytest.raises(GraphError):
        stabilizer_transitivity_degree(fano, fano_grp, 99)


def test_pg23_battery(pg23):
    grp = automorphism_group(pg23)
    assert grp.order == 5616
    assert is_strongly_transitive(pg23, grp) == (True, None)
    assert is_moufang(pg23, grp) == (True, None)
    assert check_remark_2_2(pg23, grp) == (True, True, True)
    assert stabilizer_transitivity_degree(pg23, grp, 0) == 4


def test_pg25_battery(pg25):
    grp = automorphism_group(pg25)
    assert grp.order == 372000
    assert is_strongly_transitive(pg25, grp) == (True, None)
    assert is_moufang(pg25, grp) == (True, None)
    assert check_remark_2_2(pg25, grp) == (True, True, True)
    assert stabilizer_transitivity_degree(pg25, grp, 0) == 3


def test_pg27_battery_from_generators():
    """PG(2,7) under PGL(3,7) given by generators, as the automorphism
    search takes seconds there; on PG(2,3) the same builder gives the
    whole type-preserving group."""
    g, grp = pgl3(3)
    assert grp.order == automorphism_group(g).order == 5616
    g, grp = pgl3(7)
    assert grp.order == 5630688
    assert is_strongly_transitive(g, grp) == (True, None)
    assert is_moufang(g, grp) == (True, None)
    assert check_remark_2_2(g, grp) == (True, True, True)
    assert stabilizer_transitivity_degree(g, grp, 0) == 3


def test_projective_plane():
    for p in (2, 3, 5):
        g = projective_plane(p)
        assert is_generalized_ngon(g, thick=True) == (True, None)
        assert len(g.part_vertices(0)) == len(g.part_vertices(1)) == p * p + p + 1
        assert all(len(g.neighbors(v)) == p + 1 for v in g.vertices)
    for bad in (0, 1, 4, 9, 3.0):
        with pytest.raises(GraphError):
            projective_plane(bad)


def test_battery_rejects_group_on_other_domain(fano):
    five = PermGroup(range(5), [{i: (i + 1) % 5 for i in range(5)}])
    for check in (is_strongly_transitive, is_moufang, check_remark_2_2):
        with pytest.raises(GraphError):
            check(fano, five)
    with pytest.raises(GraphError):
        stabilizer_transitivity_degree(fano, five, 0)


def test_battery_rejects_non_automorphisms(fano):
    swap = {v: v for v in fano.vertices}
    swap[0], swap[1] = 1, 0  # two points, not a collineation
    grp = PermGroup(sorted(fano.vertices), [swap])
    for check in (is_strongly_transitive, is_moufang, check_remark_2_2):
        with pytest.raises(GraphError):
            check(fano, grp)
    with pytest.raises(GraphError):
        stabilizer_transitivity_degree(fano, grp, 0)


def test_orbit_rejects_point_outside_domain():
    for gens in ([], [{0: 1, 1: 2, 2: 0}]):
        grp = PermGroup(range(3), gens)
        with pytest.raises(GraphError):
            grp.orbit(99)
        with pytest.raises(GraphError):
            grp.orbit((0, 99))
        with pytest.raises(GraphError):
            grp.stabilizer((0, 99))


# ------------------------------------------- element-scan reference battery

class ElementScan:
    """The battery decided by scanning every element of the group for each
    path or cycle, straight from the definitions: a reference oracle for
    small groups, sharing no stabilizer or orbit code with the library."""

    def __init__(self, g, grp):
        self.g = g
        # the closure of the generators, each element as a dict
        ident = {v: v for v in g.vertices}
        found = {tuple(sorted(ident.items())): ident}
        queue = [ident]
        for p in queue:
            for gen in grp.generators:
                q = {v: gen[p[v]] for v in p}
                key = tuple(sorted(q.items()))
                if key not in found:
                    found[key] = q
                    queue.append(q)
        self.elements = list(found.values())
        self.fixed_points = [frozenset(v for v in p if p[v] == v)
                             for p in self.elements]

    def stabilizer(self, fixed):
        fixed = frozenset(fixed)
        return [p for p, pts in zip(self.elements, self.fixed_points)
                if fixed <= pts]

    def transitive_on(self, tuples):
        if not tuples:
            return True
        some = min(tuples)
        return {tuple(p[v] for v in some) for p in self.elements} >= set(tuples)

    def first_failing_path(self, fixed_of):
        g = self.g
        for path in simple_paths(g, g.n):
            targets = sorted(g.neighbors(path[-1]) - {path[-2]})
            if not targets:
                continue
            reach = {p[targets[0]] for p in self.stabilizer(fixed_of(path))}
            if reach != set(targets):
                return path
        return None

    def is_strongly_transitive(self):
        witness = self.first_failing_path(lambda path: path)
        return witness is None, witness

    def is_moufang(self):
        g = self.g
        witness = self.first_failing_path(
            lambda path: set().union(*(g.neighbors(x) for x in path[1:-1])))
        return witness is None, witness

    def check_remark_2_2(self):
        g = self.g
        left = self.transitive_on(ordered_cycles(g, 2 * g.n + 2, start_part=0))
        cycles = ordered_cycles(g, 2 * g.n, start_part=0)
        right = self.transitive_on(cycles)
        if right:
            for cyc in cycles:
                pairs = {(a, b)
                         for a in g.neighbors(cyc[1]) - {cyc[0], cyc[2]}
                         for b in g.neighbors(cyc[2]) - {cyc[1], cyc[3]}}
                if pairs:
                    some = min(pairs)
                    right = pairs == {(p[some[0]], p[some[1]])
                                      for p in self.stabilizer(cyc)}
                    break
        return left == right, left, right

    def transitivity_degree(self, x):
        nbrs = sorted(self.g.neighbors(x))
        stab = self.stabilizer([x])
        degree = 0
        for t in range(1, len(nbrs) + 1):
            tuples = set(permutations(nbrs, t))
            if {tuple(p[v] for v in min(tuples)) for p in stab} != tuples:
                break
            degree = t
        return degree


@pytest.fixture(scope="module")
def scan_corpus():
    """112 random subgroups of the type-preserving or full groups of four
    polygons, each with a random vertex."""
    rng = random.Random(20261018)
    polygons = [fano_graph(), gq22_graph(), make_cycle(3, 6), make_cycle(4, 8)]
    full = {(g, tp): automorphism_group(g, tp).elements()
            for g in polygons for tp in (False, True)}
    corpus = []
    for trial in range(112):
        g = polygons[trial % len(polygons)]
        pool = full[g, rng.random() < 0.7]
        if rng.random() < 0.5:
            # inside the stabilizer of vertex 0 the first paths, which
            # start at 0, tend to pass and a later one fails
            pool = [p for p in pool if p[0] == 0]
        grp = PermGroup(sorted(g.vertices), rng.choices(pool, k=rng.randrange(4)))
        corpus.append((g, grp, rng.choice(sorted(g.vertices))))
    return corpus


def test_battery_matches_element_scan_on_random_subgroups(scan_corpus):
    fails = {"strans": 0, "moufang": 0, "later_witness": 0}
    for g, grp, x in scan_corpus:
        ref = ElementScan(g, grp)
        assert grp.order == len(ref.elements)
        strans = is_strongly_transitive(g, grp)
        moufang = is_moufang(g, grp)
        assert strans == ref.is_strongly_transitive()
        assert moufang == ref.is_moufang()
        assert check_remark_2_2(g, grp) == ref.check_remark_2_2()
        assert (stabilizer_transitivity_degree(g, grp, x)
                == ref.transitivity_degree(x))
        fails["strans"] += strans[0] is False
        fails["moufang"] += moufang[0] is False
        first = simple_paths(g, g.n)[0]
        fails["later_witness"] += moufang[1] not in (None, first)
    assert all(fails.values()), fails


def _chain_runs(run):
    """The number of `_schreier_sims` runs while run() runs."""
    return line_counts(run, (groups._schreier_sims, "ident = tuple(range(degree))"))[0]


def test_stabilizer_chain_matches_element_scan(scan_corpus):
    """Each group answers tuples that share prefixes, last points or
    lengths, a longer one both before and after its prefixes, from the
    stabilizers it keeps; asked again, it returns the same object.  A
    kept tuple extended by a point its stabilizer fixes (the same group,
    no chain run) and then by one it moves costs one chain run."""
    rng, extended = random.Random(5), 0
    for g, grp, x in scan_corpus:
        ref = ElementScan(g, grp)
        verts = sorted(g.vertices)
        whole = tuple(rng.sample(verts, len(verts)))
        t = whole[:rng.randrange(2, len(verts))]
        asked = [t, t[:1], t[:-1], t, t[1:], t[-1:], t[::-1], (), whole,
                 t[:-1] + whole[-1:], t + whole[-1:]]
        answers = {}
        for fixed in asked:
            stab, members = grp.stabilizer(fixed), ref.stabilizer(fixed)
            assert stab is answers.setdefault(fixed, stab)
            assert stab is grp.stabilizer(list(fixed))
            assert all(p[v] == v for p in stab.generators for v in fixed)
            assert stab.order == len(members)
            assert stab.orbit(x) == {p[x] for p in members}
        fresh = PermGroup(verts, grp.generators)
        kept = fresh.stabilizer(t[:1])
        still = [v for v in verts if v != t[0] and kept.orbit(v) == {v}]
        moved = [v for v in verts if kept.orbit(v) != {v}]
        if still and moved:
            longer = t[:1] + (still[0], moved[0])
            assert _chain_runs(lambda: fresh.stabilizer(longer)) == 1
            assert fresh.stabilizer(longer[:-1]) is kept
            stab, members = fresh.stabilizer(longer), ref.stabilizer(longer)
            assert stab.order == len(members) < kept.order
            assert stab.orbit(x) == {p[x] for p in members}
            extended += 1
    assert extended >= 10, extended


@pytest.mark.parametrize("name, moufang_runs", [("fano", 0), ("gq22", 0), ("pg23", 2)])
def test_battery_runs_one_chain_per_orbit(name, moufang_runs, fano, gq22, pg23):
    """Schreier–Sims runs through one battery.  Strong transitivity runs
    one chain per orbit representative (its first path's G_x-orbit
    covers the rest); asked again, none.  Moufang then starts from the
    path stabilizers kept: on Fano and GQ(2,2) they fix the other points
    of the neighbourhoods, so it runs none, and on PG(2,3) one per
    representative.  The remark runs one for its cycle, and the degree
    check none, as G_0 is kept."""
    g = {"fano": fano, "gq22": gq22, "pg23": pg23}[name]
    grp = automorphism_group(g)
    representatives = {min(grp.orbit(v)) for v in g.vertices}
    runs = [_chain_runs(lambda: grp.order),
            _chain_runs(lambda: is_strongly_transitive(g, grp)),
            _chain_runs(lambda: is_strongly_transitive(g, grp)),
            _chain_runs(lambda: is_moufang(g, grp)),
            _chain_runs(lambda: check_remark_2_2(g, grp)),
            _chain_runs(lambda: stabilizer_transitivity_degree(g, grp, 0))]
    assert len(representatives) == 2
    assert runs == [0, 2, 0, moufang_runs, 1, 0]


def _cycle_form(g, grp):
    """Transitivity on ordered 2n-cycles starting in part 0, read off the
    orbit of one of them."""
    cycles = ordered_cycles(g, 2 * g.n, start_part=0)
    return not cycles or grp.orbit(min(cycles)) >= set(cycles)


def test_path_form_matches_cycle_form(scan_corpus, fano, gq22, pg23, pg25,
                                      fano_grp, gq_grp):
    """On thick polygons strong transitivity, decided on paths, is
    equivalent to transitivity on ordered 2n-cycles starting in part 0."""
    cases = [(g, grp) for g, grp, _ in scan_corpus
             if is_generalized_ngon(g, thick=True)[0]]
    assert len(cases) == 56
    cases += [(fano, fano_grp), (gq22, gq_grp), (pg23, automorphism_group(pg23)),
              (pg25, automorphism_group(pg25))]
    verdicts = [is_strongly_transitive(g, grp)[0] for g, grp in cases]
    assert verdicts == [_cycle_form(g, grp) for g, grp in cases]
    assert True in verdicts and False in verdicts


@pytest.fixture(scope="module")
def lines_first_corpus():
    """Fano and GQ(2,2) relabelled so that their lines hold the smallest
    ids, each with its type-preserving and full group and 16 random
    subgroups of those (half inside the stabilizer of line 0)."""
    rng = random.Random(20261019)
    corpus = []
    for polygon in (fano_graph(), gq22_graph()):
        lines, points = sorted(polygon.part_vertices(1)), sorted(polygon.part_vertices(0))
        rng.shuffle(lines)
        rng.shuffle(points)
        ids = {v: i for i, v in enumerate(lines + points)}
        g = BipartiteGraph(polygon.n, {ids[v]: polygon.part(v) for v in ids},
                           [(ids[u], ids[v]) for u, v in polygon.edges])
        for type_preserving in (True, False):
            full = automorphism_group(g, type_preserving)
            corpus.append((g, full))
            for _ in range(8):
                pool = full.elements()
                if rng.random() < 0.5:
                    pool = [p for p in pool if p[0] == 0]
                corpus.append((g, PermGroup(sorted(g.vertices),
                                            rng.choices(pool, k=rng.randrange(1, 4)))))
    return corpus


def test_battery_matches_element_scan_with_lines_first(lines_first_corpus):
    """The battery starts from the least vertex of each orbit.  Here
    those are lines, and under a group that swaps the parts they all are,
    so a start restricted to one part would miss cycles and paths."""
    seen = Counter()
    for g, grp in lines_first_corpus:
        ref = ElementScan(g, grp)
        strans, moufang = is_strongly_transitive(g, grp), is_moufang(g, grp)
        remark = check_remark_2_2(g, grp)
        assert strans == ref.is_strongly_transitive()
        assert moufang == ref.is_moufang()
        assert remark == ref.check_remark_2_2()
        for x in (0, max(g.vertices)):
            assert (stabilizer_transitivity_degree(g, grp, x)
                    == ref.transitivity_degree(x))
        minima = {min(grp.orbit(v)) for v in g.vertices}
        seen["minima all lines"] += all(g.part(v) for v in minima)
        seen["strans fails"] += strans[0] is False
        seen["moufang fails"] += moufang[0] is False
        seen["witness off 0"] += moufang[0] is False and moufang[1][0] != 0
        seen["left fails"] += remark[1] is False
        seen["remark holds"] += remark == (True, True, True)
    assert len(seen) == 6 and all(seen.values()), seen


def test_require_reason_matches_is_generalized_ngon(fano):
    """The battery checks the n-gon axioms from one vertex per orbit and
    must report what the full check reports: on the 8-cycle at n = 3
    (girth), two Fano planes apart or joined by an edge, and Fano with a
    pendant point on a line (diameter; its least far vertex is 3)."""
    parts = {v + s: fano.part(v) for v in fano.vertices for s in (0, 14)}
    edges = [(u + s, v + s) for (u, v) in fano.edges for s in (0, 14)]
    pendant = BipartiteGraph(3, {**{v: fano.part(v) for v in fano.vertices}, 14: 0},
                             sorted(fano.edges) + [(7, 14)])
    assert is_generalized_ngon(pendant)[1].endswith("(witness pair (3, 14))")
    graphs = [make_cycle(3, 8), BipartiteGraph(3, parts, edges),
              BipartiteGraph(3, parts, edges + [(0, 21)]), pendant]
    for g in graphs:
        want = "graph is not a generalized 3-gon: " + is_generalized_ngon(g)[1]
        for grp in (automorphism_group(g), automorphism_group(g, False),
                    PermGroup(sorted(g.vertices), [])):
            # the degree check skips the n-gon axioms: what it keeps on
            # the group must not let the checks below skip them
            stabilizer_transitivity_degree(g, grp, min(g.vertices))
            for check in (is_strongly_transitive, is_moufang, check_remark_2_2):
                with pytest.raises(GraphError) as err:
                    check(g, grp)
                assert str(err.value) == want


def test_checks_kept_per_graph(fano, fano_grp):
    """A group that passed on one graph is checked again on a graph with
    the same vertices and other edges, or another gonality, and fails
    there; on an equal graph it keeps its answers."""
    assert is_strongly_transitive(fano, fano_grp) == (True, None)
    parts = {v: fano.part(v) for v in fano.vertices}
    others = [BipartiteGraph(3, parts, sorted(fano.edges)[1:]),
              BipartiteGraph(4, parts, fano.edges)]
    for g in others:
        for check in (is_strongly_transitive, is_moufang, check_remark_2_2):
            with pytest.raises(GraphError):
                check(g, fano_grp)
    with pytest.raises(GraphError):
        stabilizer_transitivity_degree(others[0], fano_grp, 0)
    again = BipartiteGraph(3, parts, fano.edges)
    assert again is not fano and is_moufang(again, fano_grp) == (True, None)


def test_remark_canonicalises_few_cycles(pg25):
    """On PG(2,5) under its group the walk starts at vertex 0, the least
    of the graph, which lies on every cycle it counts; a cycle is put in
    canonical form only if its least vertex and that vertex's smaller
    cycle neighbour do not exceed those of the least cycle so far."""
    grp = automorphism_group(pg25)
    counts = line_counts(lambda: check_remark_2_2(pg25, grp),
                         (_canonical, "i = cycle.index(min(cycle))"),
                         (check_remark_2_2, "found[1] += 1"))
    assert counts == [2141, 6375]


def test_remark_on_full_groups(fano, gq22):
    """The full groups swap the parts, so each ordered cycle's orbit is
    twice the type-preserving count: the index [G:G_0] must enter it."""
    for g in (fano, gq22):
        full = automorphism_group(g, type_preserving=False)
        assert full.order == 2 * automorphism_group(g).order
        assert (check_remark_2_2(g, full) == ElementScan(g, full).check_remark_2_2()
                == (True, True, True))


# ------------------------------------------------ automorphism search oracle

def test_automorphism_order_matches_networkx(fano, gq22):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def count(g, type_preserving):
        """|Aut| = |orbit of a root| * |its stabilizer|, both by VF2."""
        def pinned(pin):
            # VF2 starts from the first node of the second graph, so the
            # pinned node goes first
            h = nx.Graph()
            h.add_nodes_from((v, {"part": g.part(v), "pin": v == pin})
                             for v in sorted(g.vertices, key=lambda v: v != pin))
            h.add_edges_from(g.edges)
            return h

        def matcher(w):  # automorphisms taking the root to w
            return GraphMatcher(pinned(root), pinned(w), node_match=lambda a, b: (
                a["pin"] == b["pin"]
                and (a["part"] == b["part"] or not type_preserving)))

        root = min(g.vertices)
        orbit = [w for w in g.vertices if matcher(w).is_isomorphic()]
        return len(orbit) * sum(1 for _ in matcher(root).isomorphisms_iter())

    rng = random.Random(7)
    graphs = [fano, gq22] + [random_bipartite(rng, rng.choice((3, 4)),
                                              rng.randrange(5, 10), 0.45)
                             for _ in range(20)]
    for g in graphs:
        for type_preserving in (False, True):
            assert (automorphism_group(g, type_preserving).order
                    == count(g, type_preserving))


def test_each_generator_enlarges_the_group(fano, gq22, pg23):
    rng = random.Random(11)
    graphs = [fano, gq22, pg23, make_cycle(3, 6), make_cycle(4, 8)]
    graphs += [random_bipartite(rng, 3, 8, 0.4) for _ in range(6)]
    for g in graphs:
        for type_preserving in (False, True):
            gens = automorphism_group(g, type_preserving).generators
            orders = [PermGroup(sorted(g.vertices), gens[:k]).order
                      for k in range(len(gens) + 1)]
            assert all(a < b for a, b in zip(orders, orders[1:]))


def test_battery_leaves_no_reference_cycle(fano, gq22, pg23):
    """A group points to the stabilizers it keeps and they never point
    back: after a full battery, dropping the group frees every chain
    without the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        for g in (fano, gq22, pg23):
            grp = automorphism_group(g)
            assert is_strongly_transitive(g, grp) == is_moufang(g, grp) == (True, None)
            assert check_remark_2_2(g, grp) == (True, True, True)
            assert stabilizer_transitivity_degree(g, grp, 0) >= 3
            assert grp.stabilizer((0,)).order < grp.order
            del grp
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_automorphism_group_leaves_no_reference_cycle(fano, gq22, pg23):
    """The search frees what it built, the matcher it stops at each
    automorphism found included, without the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        for g in (fano, gq22, pg23):
            for type_preserving in (True, False):
                automorphism_group(g, type_preserving)
                assert gc.collect() == 0
    finally:
        gc.enable()
