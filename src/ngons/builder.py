"""Free amalgamation over strong subsets and a seeded growth engine.

`free_amalgam` glues a fresh extension onto an ambient graph along a
common induced subgraph that is strongly embedded in the extension,
adding no other cross edges.  `grow` repeatedly draws candidate
extensions from a template catalogue (pendant paths, path completions,
long-cycle attachments, cycle-with-spokes witnesses), keeps a candidate
only if the amalgam still passes the class membership check, which also
verifies that the previous graph is still strongly embedded.  Sites are
found on masks over the graph's bitset index (`graph._Index`): secluded
vertices (`_secluded`) and their balls.  Identical seeds give identical
outputs.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from .graph import BipartiteGraph, GraphError, _balls, _bits, _union
from .predimension import is_strong
from .kmu import in_class, default_mu
from .witnesses import make_cycle, make_cl_witness

# the templates of `grow`, like `_aligned_path`, built once per parameter set
_cycle, _cl_witness = lru_cache(make_cycle), lru_cache(make_cl_witness)


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
    e.  Vertices of e outside the domain receive fresh ids above m's, so
    the amalgam extends m and its index (`BipartiteGraph._extended`).
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
    first = m._index.verts[-1] + 1 if m._index.verts else 0
    fresh = {v: i for i, v in enumerate(sorted(e.vertices - dom), first)}
    relabel = {**gluing, **fresh}
    edges = [(relabel[u], relabel[v]) for u, v in e.edges]
    return m._extended({fresh[v]: e.part(v) for v in fresh}, edges)


def _pick_pair(rng, items):
    return items[rng.randrange(len(items))] if items else None


def _secluded(idx):
    """The mask of the quiet vertices (degree <= 2) with only quiet
    neighbours: quiet & ~N(loud).  Low-degree sites keep the growth from
    piling structure onto a few hubs; cycle-creating templates glued only
    at secluded sites leave a buffer of plain path vertices around every
    dense region, so the regions stay apart and membership checks local."""
    quiet = idx.below[3]
    return quiet & ~_union(idx.adj, idx.full & ~quiet)


def _sites_completion(g, rng, length):
    """Secluded vertex pairs far enough apart that closing them with a
    path of the given length cannot create a cycle shorter than 2n: u's
    partners are the secluded v > u of the right part outside u's ball of
    radius 2n - length - 1."""
    idx, pairs = g._index, []
    secluded, part0 = _secluded(idx), idx.sides[0]
    for u in _bits(secluded):
        # u's part for an even length, the other one for an odd length
        part = part0 if (part0 >> u & 1) == (length % 2 == 0) else ~part0
        ball = _balls(idx.adj, 1 << u, 2 * g.n - length - 1)[-1]
        far = secluded & part & ~ball & ~((2 << u) - 1)
        pairs += [(idx.verts[u], idx.verts[v]) for v in _bits(far)]
    return _pick_pair(rng, pairs)


def _sites_witness_base(g, rng, witness):
    """Four secluded vertices of g, pairwise at distance >= 3 (no shared
    neighbours), matching the parts of the witness base, which is
    edgeless, so induced isomorphism just means parts match.  Each pool
    leaves out the radius-2 balls of the vertices chosen before and is
    listed once per blocked set, in id order (positions follow the ids)."""
    idx, base, balls, listed = g._index, sorted(witness.subsets["A0"]), {}, {}
    secluded, part0 = _secluded(idx), idx.sides[0]
    pools = [secluded & (part0 if witness.part(s) == 0 else ~part0) for s in base]
    for _ in range(50):
        chosen, blocked = [], 0
        for mask in pools:
            if (free := mask & ~blocked) not in listed:
                listed[free] = _bits(free)
            pool = listed[free]
            if not pool:
                break
            u = pool[rng.randrange(len(pool))]
            chosen.append(idx.verts[u])
            if u not in balls:
                balls[u] = _balls(idx.adj, 1 << u, 2)[-1]
            blocked |= balls[u]
        else:
            return dict(zip(base, chosen))
    return None


@lru_cache
def _aligned_path(n, length, part0):
    """A path on 0..length whose vertex 0 has the requested part."""
    verts = {i: (i + part0) % 2 for i in range(length + 1)}
    edges = [(i, i + 1) for i in range(length)]
    return BipartiteGraph(n, verts, edges)


def _candidate(g, rng, template):
    """Build (extension, gluing) for a template, or None if no site."""
    n = g.n
    if template == "pendant_path":
        v = _pick_pair(rng, g._index.verts)
        return None if v is None else (
            _aligned_path(n, rng.choice(range(1, n + 1)), g.part(v)), {0: v})
    if template == "path_completion":
        length = n - 1
        pair = _sites_completion(g, rng, length)
        if pair is None:
            return None
        # the site search matched v's part to the path's far end
        u, v = pair
        return _aligned_path(n, length, g.part(u)), {0: u, length: v}
    if template == "cycle_attach":
        cyc = _cycle(n, 2 * n + 2)
        # an edge (a, b) with a, b and N(a) + N(b) quiet: both ends secluded
        idx, secluded = g._index, _secluded(g._index)
        edges = [(a, b) for a in _bits(secluded)
                 for b in _bits(idx.adj[a] & secluded & ~((2 << a) - 1))]
        if edges and rng.random() < 0.75:
            a, b = map(idx.verts.__getitem__, edges[rng.randrange(len(edges))])
            if cyc.part(0) != g.part(a):
                a, b = b, a
            return cyc, {0: a, 1: b}
        v = _pick_pair(rng, [idx.verts[p] for p in _bits(secluded)])
        return None if v is None else (cyc, {0 if cyc.part(0) == g.part(v) else 1: v})
    if template == "cl_witness":
        wit = _cl_witness(n, rng.choice([2, 3]))
        gluing = _sites_witness_base(g, rng, wit)
        return None if gluing is None else (wit, gluing)
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
    rng, g, log = random.Random(rng_seed), seed, []
    for k in range(steps):
        template = templates[rng.randrange(len(templates))]
        built, reason = _candidate(g, rng, template), "no_site"
        try:
            candidate = None if built is None else free_amalgam(g, *built)
        except AmalgamError:
            candidate, reason = None, "amalgam_error"
        if candidate is not None:
            # the previous graph is a member; in_class verifies that it
            # stays strongly embedded, and then only looks at the new vertices
            try:
                ok, reports = in_class(candidate, mu, member_base=g._index.verts)
            except GraphError as exc:
                raise AmalgamError(
                    "strong persistence failed at step %d: previous graph is no "
                    "longer strong (%s)" % (k, exc)) from exc
            g = candidate if ok else g
            reason = "+".join(sorted({r.condition for r in reports}))
        log.append(StepRecord(k, template, not reason, reason, len(g), sum(g._index.deg) // 2))
    return g, log
