"""Free amalgamation over strong subsets and a seeded growth engine.

`free_amalgam` glues a fresh extension onto an ambient graph along a
common induced subgraph that is strongly embedded in the extension,
adding no other cross edges.  `grow` repeatedly draws candidate
extensions from a template catalogue (pendant paths, path completions,
long-cycle attachments, cycle-with-spokes witnesses), keeps a candidate
only if the amalgam still passes the class membership check, which also
verifies that the previous graph is still strongly embedded.  Identical
seeds give identical outputs.
"""

import random
from dataclasses import dataclass

from .graph import BipartiteGraph, GraphError, bfs_distances, INFINITY
from .predimension import is_strong
from .kmu import in_class, default_mu
from .witnesses import make_path, make_cycle, make_cl_witness


class AmalgamError(GraphError):
    pass


@dataclass(frozen=True)
class StepRecord:
    index: int
    template: str
    accepted: bool
    reason: str  # "" when accepted
    n_vertices: int
    n_edges: int

    def format(self):
        status = "accepted" if self.accepted else "rejected:%s" % self.reason
        return "STEP %d %s %s %d %d" % (
            self.index, self.template, status, self.n_vertices, self.n_edges)


def free_amalgam(m, e, gluing):
    """Glue extension e onto ambient m along the domain of `gluing`
    (a map from e-vertices to m-vertices).

    The gluing must be an isomorphism of induced subgraphs (parts and
    induced edges both match) and its domain must be strongly embedded in
    e.  Vertices of e outside the domain receive fresh ids above m's.
    """
    if m.n != e.n:
        raise AmalgamError("ambient and extension have different gonality")
    dom = e.check_subset(gluing.keys())
    img = m.check_subset(gluing.values())
    if len(img) != len(dom):
        raise AmalgamError("gluing map is not injective")
    for u in dom:
        if e.part(u) != m.part(gluing[u]):
            raise AmalgamError("gluing does not preserve parts at %r" % (u,))
    for u in dom:
        for v in dom:
            if u < v and e.has_edge(u, v) != m.has_edge(gluing[u], gluing[v]):
                raise AmalgamError(
                    "gluing is not an induced-subgraph isomorphism at (%r, %r)" % (u, v))
    ok, witness = is_strong(e, dom)
    if not ok:
        raise AmalgamError("gluing base is not strong in the extension; "
                           "violator %s" % sorted(witness))
    first = max(m.vertices, default=-1) + 1
    fresh = {v: i for i, v in enumerate(sorted(e.vertices - dom), first)}
    relabel = {**gluing, **fresh}
    verts = {v: m.part(v) for v in m.vertices}
    verts.update({fresh[v]: e.part(v) for v in fresh})
    edges = set(m.edges)
    for (u, v) in e.edges:
        a, b = relabel[u], relabel[v]
        edges.add((a, b) if a < b else (b, a))
    return BipartiteGraph(m.n, verts, edges, m.subsets)


def _pick_pair(rng, items):
    if not items:
        return None
    return items[rng.randrange(len(items))]


def _quiet(g, v):
    # sites of low degree keep the growth from piling structure onto a
    # few hub vertices, which would make later membership checks explode
    return len(g.neighbors(v)) <= 2


def _secluded(g, v, allowed=()):
    """A quiet vertex all of whose neighbours are quiet too.  Gluing
    cycle-creating templates only at secluded sites leaves a buffer of
    plain path vertices around every dense region, so the regions stay
    separated and the membership checks stay local."""
    if not _quiet(g, v):
        return False
    return all(_quiet(g, w) for w in g.neighbors(v) if w not in allowed)


def _sites_completion(g, rng, length):
    """Low-degree vertex pairs far enough apart that closing them with a
    path of the given length cannot create a cycle shorter than 2n."""
    quiet, pairs = [v for v in sorted(g.vertices) if _secluded(g, v)], []
    for u in quiet:
        dist = bfs_distances(g, u)
        pairs += [(u, v) for v in quiet if v > u
                  and (g.part(u) == g.part(v)) == (length % 2 == 0)
                  and dist.get(v, INFINITY) + length >= 2 * g.n]
    return _pick_pair(rng, pairs)


def _sites_witness_base(g, rng, witness):
    """Four low-degree, pairwise distant vertices of m matching the parts
    of the witness base (the base is edgeless, so induced isomorphism just
    means parts match and no edges between the images).  Keeping the
    images at distance >= 3 rules out shared neighbours."""
    base = sorted(witness.subsets["A0"])
    parts = [witness.part(s) for s in base]
    by_part = {p: [v for v in sorted(g.part_vertices(p)) if _secluded(g, v)]
               for p in (0, 1)}
    dist = {}
    for _ in range(50):
        chosen = []
        for p in parts:
            pool = []
            for v in by_part[p]:
                if v in chosen:
                    continue
                if v not in dist:
                    dist[v] = bfs_distances(g, v)
                if all(dist[v].get(u, INFINITY) >= 3 for u in chosen):
                    pool.append(v)
            if not pool:
                break
            chosen.append(pool[rng.randrange(len(pool))])
        else:
            return dict(zip(base, chosen))
    return None


def _aligned_path(n, length, part0):
    """A path on 0..length whose vertex 0 has the requested part."""
    verts = {i: (i + part0) % 2 for i in range(length + 1)}
    edges = [(i, i + 1) for i in range(length)]
    return BipartiteGraph(n, verts, edges)


def _candidate(g, rng, template):
    """Build (extension, gluing) for a template, or None if no site."""
    n = g.n
    if template == "pendant_path":
        v = _pick_pair(rng, sorted(g.vertices))
        if v is None:
            return None
        length = rng.choice(range(1, n + 1))
        path = _aligned_path(n, length, g.part(v))
        return path, {0: v}
    if template == "path_completion":
        length = n - 1
        pair = _sites_completion(g, rng, length)
        if pair is None:
            return None
        u, v = pair
        path = _aligned_path(n, length, g.part(u))
        if path.part(length) != g.part(v):
            return None
        return path, {0: u, length: v}
    if template == "cycle_attach":
        cyc = make_cycle(n, 2 * n + 2)
        edges = [(a, b) for (a, b) in sorted(g.edges)
                 if _secluded(g, a, allowed=(b,)) and _secluded(g, b, allowed=(a,))]
        if edges and rng.random() < 0.75:
            a, b = edges[rng.randrange(len(edges))]
            if cyc.part(0) != g.part(a):
                a, b = b, a
            return cyc, {0: a, 1: b}
        pool = [v for v in sorted(g.vertices) if _secluded(g, v)]
        v = _pick_pair(rng, pool)
        if v is None:
            return None
        anchor = 0 if cyc.part(0) == g.part(v) else 1
        return cyc, {anchor: v}
    if template == "cl_witness":
        l = rng.choice([2, 3])
        wit = make_cl_witness(n, l)
        gluing = _sites_witness_base(g, rng, wit)
        if gluing is None:
            return None
        return wit, gluing
    raise AmalgamError("unknown template %r" % (template,))


TEMPLATES = ("pendant_path", "path_completion", "cycle_attach", "cl_witness")


def grow(seed, steps, rng_seed, mu=None, templates=TEMPLATES):
    """Grow a class member by `steps` seeded amalgamation attempts.

    Returns (graph, log).  Rejected candidates are logged, never
    repaired; every intermediate graph is a class member.
    """
    if mu is None:
        mu = default_mu(seed.n)
    ok, reports = in_class(seed, mu)
    if not ok:
        raise AmalgamError("seed graph is not in the class: %s"
                           % "; ".join(r.format() for r in reports))
    rng = random.Random(rng_seed)
    g = seed
    log = []
    for k in range(steps):
        template = templates[rng.randrange(len(templates))]
        built = _candidate(g, rng, template)
        if built is None:
            log.append(StepRecord(k, template, False, "no_site",
                                  len(g.vertices), len(g.edges)))
            continue
        ext, gluing = built
        try:
            candidate = free_amalgam(g, ext, gluing)
        except AmalgamError as exc:
            log.append(StepRecord(k, template, False,
                                  "amalgam_error", len(g.vertices), len(g.edges)))
            continue
        # the previous graph is a member; in_class verifies that it stays
        # strongly embedded, and then only looks at the new vertices
        try:
            ok, reports = in_class(candidate, mu, member_base=g.vertices)
        except GraphError as exc:
            raise AmalgamError(
                "strong persistence failed at step %d: previous graph is no "
                "longer strong (%s)" % (k, exc)) from exc
        if not ok:
            reason = "+".join(sorted({r.condition for r in reports}))
            log.append(StepRecord(k, template, False, reason,
                                  len(g.vertices), len(g.edges)))
            continue
        g = candidate
        log.append(StepRecord(k, template, True, "",
                              len(g.vertices), len(g.edges)))
    return g, log
