"""The acceptance suite: six end-to-end criteria covering the delta
identities, 0-minimal algebraicity, class membership, the closure
calculus, the polygon/group battery and determinism."""

import random
import time

from ngons import (BipartiteGraph, automorphism_group, check_remark_2_2,
                   closure, d_min, delta, delta_rel, format_graph, grow,
                   in_class, is_generalized_ngon, is_moufang, is_strong,
                   is_strongly_transitive, is_zero_algebraic,
                   is_zero_minimally_algebraic, make_cl_witness, make_cycle,
                   make_gamma, make_path, degree_identity_check,
                   enumerate_zero_min_pairs, stabilizer_transitivity_degree,
                   fano_graph, gq22_graph)
from ngons.cli import main
from conftest import MaskOracle, double_path, random_bipartite


def test_criterion_1_delta_identities():
    start = time.monotonic()
    # paths: delta = (n-1) + r
    for n in (3, 4, 5, 6):
        for r in range(13):
            g = make_path(n, r)
            assert delta(g, g.vertices) == (n - 1) + r
    # the forked path gamma and its prefixes
    for n in (3, 4, 5, 6):
        g = make_gamma(n)
        assert delta(g, g.subsets["gamma"]) == 2 * n
        for i in range(n + 2):
            assert delta(g, g.subsets["gamma_%d" % i]) == n - 1 + i
    # the six-vertex star-path configuration
    for n in (3, 4, 5, 6):
        g = BipartiteGraph(n, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 0},
                           [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
        assert delta(g, g.vertices) == n + 4
    # the cycle-with-spokes witnesses
    for n in (3, 4, 5, 6):
        for l in (2, 3, 4):
            g = make_cl_witness(n, l)
            assert delta(g, g.subsets["C"]) == 4 * l * (n - 2)
            assert delta_rel(g, g.subsets["C"], g.subsets["A0"]) == 0
    assert time.monotonic() - start < 1.0


def test_criterion_2_zero_minimal_algebraicity():
    # the iff in both directions: the m-vertex interior of a path is
    # 0-minimally algebraic over the endpoints exactly when m = n-2
    for n in (3, 4, 5):
        for m in range(1, n + 1):
            g = make_path(n, m + 1)
            expected = (m == n - 2)
            assert is_zero_algebraic(g, g.subsets["endpoints"],
                                     g.subsets["interior"]) == expected
            assert is_zero_minimally_algebraic(
                g, g.subsets["endpoints"], g.subsets["interior"]) == expected
    # the cycle-with-spokes witnesses, plain and with the extra vertex b
    for n in (3, 4, 5):
        for l in (2, 3):
            g = make_cl_witness(n, l)
            assert is_zero_minimally_algebraic(g, g.subsets["A0"],
                                               g.subsets["C"])
            h = make_cl_witness(n, l, with_b=True)
            assert is_zero_minimally_algebraic(h, h.subsets["A0b"],
                                               h.subsets["C"])
            assert h.edge_count(h.subsets["C"], h.subsets["b"]) == 1
    # the degree identity on every enumerated pair of a mixed corpus
    rng = random.Random(2)
    corpus = [make_cl_witness(3, 2), make_cycle(3, 8), make_cycle(4, 10),
              random_bipartite(rng, 3, 10, 0.3),
              random_bipartite(rng, 4, 10, 0.3)]
    checked = 0
    for g in corpus:
        for pair in enumerate_zero_min_pairs(g):
            assert degree_identity_check(g, pair.base, pair.body)
            checked += 1
    assert checked > 0


def test_criterion_3_kmu_checker():
    for n in (3, 4):
        assert in_class(make_cycle(n, 2 * n + 2))[0]
        ok, reports = in_class(make_cycle(n, 2 * (n - 1)))
        assert not ok
        assert "short_cycle" in {r.condition for r in reports}
        ok, reports = in_class(double_path(n))
        assert not ok
        conds = {r.condition for r in reports}
        assert {"short_cycle", "mu_exceeded"} <= conds
    # growth runs: 20 steps from the (2n+2)-cycle for n = 3, three rng
    # seeds, each accepted end-to-end in under a minute
    seed = make_cycle(3, 8)
    for s in (1, 2, 3):
        start = time.monotonic()
        g, log = grow(seed, 20, s)
        ok, reports = in_class(g)
        elapsed = time.monotonic() - start
        assert ok, [r.format() for r in reports]
        assert len(log) == 20
        assert elapsed < 60.0, "seed %d took %.1fs" % (s, elapsed)


def test_criterion_4_closure_calculus(grow_outputs):
    # is_strong <=> delta = d on 1000 random subsets of builder outputs
    rng = random.Random(20260823)
    checked = 0
    outputs = [g for g, _ in grow_outputs.values()]
    while checked < 1000:
        g = outputs[checked % len(outputs)]
        verts = sorted(g.vertices)
        a = frozenset(rng.sample(verts, rng.randrange(1, 14)))
        assert is_strong(g, a)[0] == (delta(g, a) == d_min(g, a))
        checked += 1
    # closure: idempotent and contained in every strong superset found by
    # exhaustive search, on graphs of up to 12 vertices
    small = [make_path(3, 5), make_cycle(3, 8), make_cycle(4, 10),
             make_gamma(4), double_path(4),
             random_bipartite(rng, 3, 12, 0.25),
             random_bipartite(rng, 4, 12, 0.25)]
    for g in small:
        assert len(g.vertices) <= 12
        oracle = MaskOracle(g)
        verts = sorted(g.vertices)
        for _ in range(40):
            a = frozenset(rng.sample(verts, rng.randrange(1, len(verts))))
            cl = closure(g, a)
            assert closure(g, cl) == cl
            for s in oracle.strong_supersets(a):
                assert cl <= s
    # Lemma 5.1 equal-or-disjoint, exhaustively on graphs <= 10 vertices
    tiny = [make_path(3, 4), make_cycle(3, 8), make_cycle(4, 8),
            double_path(4), make_gamma(3),
            random_bipartite(rng, 3, 10, 0.3),
            random_bipartite(rng, 4, 10, 0.3)]
    for g in tiny:
        assert len(g.vertices) <= 10
        oracle = MaskOracle(g)
        for amask in range(1, 1 << oracle.k):
            if not oracle.is_strong(oracle.unmask(amask)):
                continue
            bodies = oracle.zero_algebraic_bodies(amask)
            for i, b1 in enumerate(bodies):
                for b2 in bodies[i + 1:]:
                    assert b1 == b2 or not (b1 & b2)


def test_criterion_5_polygon_group_battery():
    start = time.monotonic()
    fano = fano_graph()
    ok, reason = is_generalized_ngon(fano, thick=True)
    assert ok, reason
    grp = automorphism_group(fano, type_preserving=True)
    assert grp.order == 168
    assert is_strongly_transitive(fano, grp) == (True, None)
    assert is_moufang(fano, grp) == (True, None)
    assert check_remark_2_2(fano, grp)[0]
    gq = gq22_graph()
    assert is_generalized_ngon(gq, thick=True)[0]
    gq_grp = automorphism_group(gq, type_preserving=True)
    assert check_remark_2_2(gq, gq_grp)[0]
    deg = stabilizer_transitivity_degree(fano, grp, 0)
    assert deg == 3 and deg < 6
    assert time.monotonic() - start < 300.0


def test_criterion_6_determinism(tmp_path, capsys):
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(format_graph(make_cycle(3, 8)))
    fano_file = tmp_path / "fano.txt"
    fano_file.write_text(format_graph(fano_graph()))
    runs = []
    for _ in range(2):
        out = tmp_path / ("out%d.txt" % len(runs))
        log = tmp_path / ("log%d.txt" % len(runs))
        code = main(["grow", str(seed_file), "--steps", "10", "--seed", "5",
                     "-o", str(out), "--log", str(log)])
        assert code == 0
        runs.append(out.read_bytes() + log.read_bytes())
    assert runs[0] == runs[1]
    caps = []
    for _ in range(2):
        assert main(["aut", str(fano_file), "--type-preserving"]) == 0
        caps.append(capsys.readouterr().out)
    assert caps[0] == caps[1]
    caps = []
    for _ in range(2):
        main(["kmu", str(fano_file)])
        caps.append(capsys.readouterr().out)
    assert caps[0] == caps[1]
