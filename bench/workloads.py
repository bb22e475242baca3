"""The benchmark's workloads.

Each workload sets itself up from the package and the workload seed,
hands the harness its ops one pass at a time, runs one op, and checks an
op's result outside the timed region.  Workloads never import the package
themselves: `run.py` passes it in, so that setup can be repeated with a
fresh import.

Op costs here are bimodal (a growth call that glues a dense witness costs
10-50 times one that does not), so a set of inputs drawn afresh for every
seed would make run-to-run spread swamp any change worth measuring.  The
growth workloads therefore run a fixed pool of rng seeds in an order drawn
from the workload seed; the query workload draws its vertex subsets from
the workload seed on fixed grown graphs.
"""

import hashlib
import json
import os
import random
from itertools import product

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins():
    with open(PINS) as fh:
        return json.load(fh)


def grow_digest(ngons, graph, log):
    """Digest of a growth result: the formatted graph plus the step log."""
    text = ngons.format_graph(graph) + "\n".join(rec.format() for rec in log)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pg23_graph(ngons):
    """Incidence graph of PG(2,3), built from GF(3)^3.

    Points and lines are the 13 one-dimensional subspaces, each written
    with its first nonzero coordinate equal to 1; point p lies on line l
    when p.l = 0 mod 3.  Points get ids 0..12 (part 0), lines 13..25.
    """
    vectors = [v for v in product(range(3), repeat=3) if any(v)]
    reps = sorted({tuple(x * next(c for c in v if c) % 3 for x in v)
                   for v in vectors})
    verts = {i: 0 for i in range(len(reps))}
    edges = []
    for j, line in enumerate(reps):
        lid = len(reps) + j
        verts[lid] = 1
        edges.extend((i, lid) for i, point in enumerate(reps)
                     if sum(a * b for a, b in zip(point, line)) % 3 == 0)
    return ngons.BipartiteGraph(3, verts, edges, {
        "points": frozenset(range(len(reps))),
        "lines": frozenset(range(len(reps), 2 * len(reps))),
    })


class Grow:
    """Op: one `grow(make_cycle(n, length), steps, rng)` call."""

    budget_s = 30.0
    member_checks = 8  # outputs per run re-checked with a full in_class

    def __init__(self, name, n, length, steps, pool, templates, why):
        self.name = name
        self.n = n
        self.length = length
        self.steps = steps
        self.pool = pool
        self.templates = templates
        self.why = why

    def setup(self, ngons, seed):
        rng = random.Random(seed)
        order = list(self.pool)
        rng.shuffle(order)
        return {"ngons": ngons, "order": order,
                "member_checks": set(rng.sample(order, self.member_checks)),
                "pins": load_pins()[self.name]}

    def passes(self, state):
        while True:
            yield state["order"]

    def run(self, state, rng_seed):
        ngons = state["ngons"]
        return ngons.grow(ngons.make_cycle(self.n, self.length), self.steps,
                          rng_seed, templates=self.templates or ngons.TEMPLATES)

    def check(self, state, rng_seed, result):
        ngons = state["ngons"]
        graph, log = result
        if grow_digest(ngons, graph, log) != state["pins"][str(rng_seed)]:
            return False
        if rng_seed in state["member_checks"]:
            state["member_checks"].discard(rng_seed)
            return ngons.in_class(graph) == (True, [])
        return True


class Queries:
    """Ops on fixed grown graphs: `is_strong`, `d_min` or `closure` of a
    seeded vertex subset, a full `in_class` per graph, and `is_strong`
    of two adjacent vertices of a long cycle at n=4."""

    name = "queries"
    why = ("reads on 3 fixed grown graphs: seeded is_strong/d_min/closure "
           "subsets, full in_class, long-cycle is_strong; predimension ~80% of "
           "self time; a per-graph cache would hit here")
    budget_s = 10.0
    graph_rngs = (1, 2, 4)  # rng 3 excluded: every is_strong on it runs past 2 s
    graph_steps = 40
    long_cycles = (12, 16, 20, 24)
    subset_ops = 400
    kinds = ("is_strong", "d_min", "closure")

    def setup(self, ngons, seed):
        pins = load_pins()[self.name]
        graphs = []
        for r in self.graph_rngs:
            graph, log = ngons.grow(ngons.make_cycle(3, 8), self.graph_steps, r)
            if grow_digest(ngons, graph, log) != pins[str(r)]:
                raise RuntimeError("grown query graph for rng %d differs from "
                                   "its pinned digest" % r)
            graphs.append(graph)
        return {"ngons": ngons, "seed": seed, "graphs": graphs,
                "vertices": [sorted(g.vertices) for g in graphs]}

    def passes(self, state):
        rng = random.Random(state["seed"])
        graphs = range(len(state["graphs"]))
        while True:
            block = [("in_class", i, None) for i in graphs]
            block += [("long_cycle", length, None) for length in self.long_cycles]
            for _ in range(self.subset_ops):
                i = rng.randrange(len(graphs))
                subset = rng.sample(state["vertices"][i], rng.randint(1, 13))
                block.append((rng.choice(self.kinds), i, frozenset(subset)))
            rng.shuffle(block)
            yield block

    def run(self, state, op):
        ngons = state["ngons"]
        kind, arg, subset = op
        if kind == "long_cycle":
            return ngons.is_strong(ngons.make_cycle(4, arg), {0, 1})
        graph = state["graphs"][arg]
        if kind == "in_class":
            return ngons.in_class(graph)
        return getattr(ngons, kind)(graph, subset)

    def check(self, state, op, result):
        ngons = state["ngons"]
        kind, arg, subset = op
        if kind == "in_class":
            return result == (True, [])
        if kind == "long_cycle":
            graph, subset = ngons.make_cycle(4, arg), frozenset((0, 1))
            if result != (True, None):
                return False
        else:
            graph = state["graphs"][arg]
        delta = ngons.delta(graph, subset)
        if kind in ("is_strong", "long_cycle"):
            ok, witness = result
            if ok != (delta == ngons.d_min(graph, subset)):
                return False
            return ok or (subset <= witness and ngons.delta(graph, witness) < delta)
        if kind == "d_min":
            return result == ngons.delta(graph, ngons.closure(graph, subset)) <= delta
        closure_delta = ngons.delta(graph, result)
        return (subset <= result and ngons.d_min(graph, result) == closure_delta
                and closure_delta == ngons.d_min(graph, subset))


class PolygonGroups:
    """Op: one call of the group battery on one classical polygon."""

    name = "polygon-groups"
    why = ("group battery on Fano, GQ(2,2), PG(2,3): groups only (strong "
           "transitivity + Moufang ~85%); shares no path with the others, so "
           "the bypass for predimension/zeroalg/kmu changes")
    budget_s = 60.0
    # batteries per pass; the small polygons repeat so a pass has enough
    # ops for a tail percentile
    weights = (("fano", 12), ("gq22", 6), ("pg23", 1))
    calls = ("is_generalized_ngon", "automorphism_group", "order",
             "is_strongly_transitive", "is_moufang", "check_remark_2_2",
             "stabilizer_transitivity_degree")
    # type-preserving group order and stabilizer_transitivity_degree(., 0)
    expected = {"fano": (168, 3), "gq22": (720, 3), "pg23": (5616, 4)}

    def setup(self, ngons, seed):
        return {"ngons": ngons, "seed": seed, "group": None,
                "graphs": {"fano": ngons.fano_graph(), "gq22": ngons.gq22_graph(),
                           "pg23": pg23_graph(ngons)}}

    def passes(self, state):
        rng = random.Random(state["seed"])
        while True:
            batteries = [name for name, count in self.weights for _ in range(count)]
            rng.shuffle(batteries)
            yield [(name, call) for name in batteries for call in self.calls]

    def run(self, state, op):
        ngons = state["ngons"]
        name, call = op
        graph = state["graphs"][name]
        if call == "is_generalized_ngon":
            return ngons.is_generalized_ngon(graph, thick=True)
        if call == "automorphism_group":
            # the later calls of this battery use this group, as a user
            # would; it replaces the previous battery's group, so at most
            # one element list is alive and memory does not depend on order
            state["group"] = None
            state["group"] = ngons.automorphism_group(graph)
            return state["group"]
        grp = state["group"]
        if call == "order":
            return grp.order
        if call == "stabilizer_transitivity_degree":
            return ngons.stabilizer_transitivity_degree(graph, grp, 0)
        return getattr(ngons, call)(graph, grp)

    def check(self, state, op, result):
        name, call = op
        graph = state["graphs"][name]
        order, degree = self.expected[name]
        if call == "automorphism_group":
            return all(graph.has_edge(p[u], p[v]) for p in result.generators
                       for (u, v) in graph.edges)
        return result == {
            "is_generalized_ngon": (True, None),
            "order": order,
            "is_strongly_transitive": (True, None),
            "is_moufang": (True, None),
            "check_remark_2_2": (True, True, True),
            "stabilizer_transitivity_degree": degree,
        }[call]


WORKLOADS = {w.name: w for w in (
    Grow("grow-n3", 3, 8, 10, range(1, 101), None,
         "writes at n=3: 100 fixed 10-step grow calls, the graph new on every "
         "step; self time: zeroalg ~50%, enumerate_cycles ~25%, min-cut ~16% "
         "at these ~32-vertex graphs"),
    # cl_witness is left out at n=4: gluing it at step 2 (rng 16, 47, 52 of
    # 1..80) ran past 20 s at commit 022fbcc, and a workload's ops must not
    # fail
    Grow("grow-n4", 4, 10, 2, range(1, 41),
         ("pendant_path", "path_completion", "cycle_attach"),
         "the n>=4 body cliff: 40 fixed 2-step grow calls without cl_witness; "
         "self time: enumerate_zero_min_pairs ~87%, delta ~11%; 18 to 27 "
         "vertices costs up to 1.4 s"),
    Queries(),
    PolygonGroups(),
)}
