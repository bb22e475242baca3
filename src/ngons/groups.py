"""Automorphism groups of finite polygons and the transitivity battery:
strong transitivity (the BN-pair witness), the Remark-style equivalence on
ordered cycles, the Moufang condition, and the transitivity degree of a
point stabilizer on the neighbourhood D_1(x).

Groups are kept as generators and never enumerated: automorphisms are
found by backtracking over an equitable colour refinement, pruned by the
orbits of the generators already found; the action of a pointwise
stabilizer is read off one orbit of tuples; every check is G-invariant,
so one simple path per G-orbit is tested; and the order comes from an
orbit-stabilizer chain.
"""

from collections import Counter
from itertools import permutations

from .graph import GraphError, is_generalized_ngon, ordered_cycles, simple_paths


def _compose(p, q):
    """The permutation v -> p[q[v]]."""
    return {v: p[q[v]] for v in q}


def _invert(p):
    return {w: v for v, w in p.items()}


def _identity(domain):
    return {v: v for v in domain}


def _as_key(p, domain):
    return tuple(p[v] for v in domain)


def format_cycles(p):
    """Cycle notation, e.g. (0 1 2)(5 6); the identity prints as ()."""
    seen = set()
    out = []
    for v in sorted(p):
        if v in seen or p[v] == v:
            seen.add(v)
            continue
        cyc = [v]
        w = p[v]
        while w != v:
            cyc.append(w)
            w = p[w]
        seen.update(cyc)
        out.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(out) if out else "()"


class PermGroup:
    """A permutation group on the vertex set, given by generators.

    `order` runs an orbit-stabilizer chain; `elements` materializes the
    group by closure, for tests and small groups only (nothing in the
    library calls it).  The two are checked against each other in the
    test suite; both are cached.
    """

    def __init__(self, domain, generators):
        self.domain = tuple(sorted(domain))
        self._points = dom = frozenset(self.domain)
        gens = []
        for p in generators:
            if frozenset(p) != dom or frozenset(p.values()) != dom:
                raise GraphError("generator is not a permutation of the domain")
            if any(p[v] != v for v in self.domain):
                gens.append(dict(p))
        self.generators = gens
        self._elements = None
        self._order = None

    def elements(self):
        """Every group element, as a list of dicts (identity included)."""
        if self._elements is None:
            ident = _identity(self.domain)
            found = {_as_key(ident, self.domain): ident}
            queue = [ident]
            for p in queue:
                for gen in self.generators:
                    q = _compose(gen, p)
                    key = _as_key(q, self.domain)
                    if key not in found:
                        found[key] = q
                        queue.append(q)
            self._elements = [found[k] for k in sorted(found)]
        return self._elements

    @property
    def order(self):
        """Group order via the orbit-stabilizer chain |G| = |orbit| * |G_b|."""
        if self._order is None:
            self._order = _chain_order(self.domain, self.generators)
        return self._order

    def orbit(self, x):
        """The orbit of a point (or of a tuple of points, acted on
        componentwise)."""
        single = not isinstance(x, tuple)
        start = (x,) if single else x
        if not self._points.issuperset(start):
            raise GraphError("%r is not in the group's domain" % (x,))
        seen, queue = {start}, [start]
        maps = [gen.__getitem__ for gen in self.generators]
        for t in queue:
            for m in maps:
                img = tuple(map(m, t))
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        return frozenset(t[0] for t in seen) if single else seen

    def stabilizer_elements(self, fixed):
        """All elements fixing the given vertices pointwise."""
        fixed = tuple(fixed)
        return [p for p in self.elements() if all(p[v] == v for v in fixed)]


def _chain_order(domain, generators):
    gens = [g for g in generators if any(g[v] != v for v in domain)]
    if not gens:
        return 1
    base = next(v for v in domain
                if any(g[v] != v for g in gens))
    # orbit of the base point, remembering a transversal element per point
    transversal = {base: _identity(domain)}
    queue = [base]
    for v in queue:
        for g in gens:
            w = g[v]
            if w not in transversal:
                transversal[w] = _compose(g, transversal[v])
                queue.append(w)
    # Schreier generators for the stabilizer of the base point
    stab = {}
    for v in transversal:
        for g in gens:
            rep = _compose(_invert(transversal[g[v]]), _compose(g, transversal[v]))
            stab[_as_key(rep, domain)] = rep
    return len(transversal) * _chain_order(domain, list(stab.values()))


def _refine_colours(g, colours):
    """Equitable refinement: split classes by the multiset of neighbour
    colours until stable.  Colours are canonical (sorted signatures), so
    they are isomorphism-invariant."""
    while True:
        sig = {}
        for v in g.vertices:
            nb = tuple(sorted(Counter(colours[w] for w in g.neighbors(v)).items()))
            sig[v] = (colours[v], nb)
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in g.vertices}
        if new == colours:
            return colours
        colours = new


def automorphism_group(g, type_preserving=True):
    """The (type-preserving, or full) automorphism group of the graph.

    Backtracking over an equitable colour refinement; the initial colours
    encode the part labels when type_preserving is set, and vertex degrees
    otherwise.  The search is pruned by the orbits of the automorphisms
    already found (McKay & Piperno 2014): from the last vertex of the
    search order to the first, with order[:i] fixed pointwise, it seeks
    one automorphism per candidate image of order[i] not yet in the orbit
    of order[i] under the generators found so far; these subtrees are
    disjoint parts of the full tree.  By induction from the last level,
    the generators found at levels >= i generate the pointwise stabilizer
    of order[:i] (they generate that of order[:i+1] and reach its orbit
    of order[i]), so at level 0 the whole group.  Each one moves order[i]
    out of the orbit of the ones before it: it strictly enlarges their group.
    """
    verts = sorted(g.vertices)
    colours = {v: (g.part(v) if type_preserving else 0, len(g.neighbors(v)))
               for v in verts}
    palette = {c: i for i, c in enumerate(sorted(set(colours.values())))}
    colours = _refine_colours(g, {v: palette[colours[v]] for v in verts})
    by_colour = {}
    for v in verts:
        by_colour.setdefault(colours[v], []).append(v)
    # start at a most constrained vertex, then stay connected: a vertex
    # with a mapped neighbour has at most degree-many candidate images
    order = []
    placed = set()
    while len(order) < len(verts):
        pool = [v for v in verts if v not in placed]
        anchored = [v for v in pool if g.neighbors(v) & placed]
        if anchored:
            nxt = max(anchored,
                      key=lambda v: (len(g.neighbors(v) & placed),
                                     -len(by_colour[colours[v]]), -v))
        else:
            nxt = min(pool, key=lambda v: (len(by_colour[colours[v]]), colours[v], v))
        order.append(nxt)
        placed.add(nxt)

    def candidates(v, mapping):
        """Images of v consistent with colours and the mapped neighbours."""
        mapped_nbrs = [u for u in g.neighbors(v) if u in mapping]
        pool = (g.neighbors(mapping[mapped_nbrs[0]]) if mapped_nbrs
                else by_colour[colours[v]])
        want = {mapping[u] for u in mapped_nbrs}
        images = set(mapping.values())
        return sorted(w for w in pool
                      if w not in images and colours[w] == colours[v]
                      and g.neighbors(w) & images == want)

    def extend(i, mapping):
        """The first automorphism extending mapping on order[:i], or None."""
        if i == len(order):
            return mapping
        for w in candidates(order[i], mapping):
            found = extend(i + 1, {**mapping, order[i]: w})
            if found is not None:
                return found
        return None

    gens = []
    for i in reversed(range(len(order))):
        v = order[i]
        fixed = {u: u for u in order[:i]}
        for w in candidates(v, fixed):
            if w not in PermGroup(verts, gens).orbit(v):
                found = extend(i + 1, {**fixed, v: w})
                if found is not None:
                    gens.append(found)
    grp = PermGroup(verts, gens)
    for p in grp.generators:
        _check_automorphism(g, p, type_preserving)
    return grp


def _check_automorphism(g, p, type_preserving):
    for (u, v) in g.edges:
        if not g.has_edge(p[u], p[v]):
            raise GraphError("generator does not preserve adjacency")
    if type_preserving and any(g.part(p[v]) != g.part(v) for v in g.vertices):
        raise GraphError("generator does not preserve parts")


def _require(g, grp, ngon=True):
    """Raise GraphError unless grp acts on the vertex set of g and (with
    ngon set) g is a generalized n-gon."""
    if grp.domain != tuple(sorted(g.vertices)):
        raise GraphError("the group does not act on the graph's vertex set")
    ok, reason = is_generalized_ngon(g) if ngon else (True, None)
    if not ok:
        raise GraphError("graph is not a generalized %d-gon: %s" % (g.n, reason))


def _transitive_on(grp, tuples):
    """Does the group act transitively on the given tuple set?"""
    return not tuples or grp.orbit(min(tuples)) >= set(tuples)


def _stabilizer_reach(grp, fixed, tail):
    """Where the pointwise stabilizer of the tuple `fixed` takes the tuple
    `tail`: the tails of those images of fixed + tail that start with
    `fixed`.  Returns that set and the G-orbit of fixed + tail."""
    k = len(fixed)
    orbit = grp.orbit(fixed + tail)
    return {t[k:] for t in orbit if t[:k] == fixed}, orbit


def _first_failing_path(g, grp, moufang):
    """The first simple path (x_0, ..., x_n) whose pointwise stabilizer
    (with moufang set: that of D_1(x_1) + ... + D_1(x_{n-1})) is not
    transitive on D_1(x_n) minus x_{n-1}, or None.  The condition is
    G-invariant, so a passing path clears its G-orbit, which is read off
    the same tuple orbit."""
    n = g.n
    covered = set()
    for path in simple_paths(g, n):
        targets = g.neighbors(path[-1]) - {path[-2]}
        if path in covered or not targets:
            continue
        fixed = path
        if moufang:  # the union contains the path; fix the rest too
            rest = set().union(*(g.neighbors(x) for x in path[1:n]))
            fixed += tuple(sorted(rest - set(path)))
        reach, orbit = _stabilizer_reach(grp, fixed, (min(targets),))
        if reach != {(y,) for y in targets}:
            return path
        covered.update(t[:n + 1] for t in orbit)
    return None


def is_strongly_transitive(g, grp):
    """Strong transitivity: for every simple path (x_0, ..., x_n) the
    pointwise stabilizer acts transitively on D_1(x_n) minus x_{n-1}.

    Returns (ok, counterexample_path).  On thick polygons the equivalent
    cycle form -- transitivity on ordered 2n-cycles with starting vertex
    of fixed type -- is computed as well and the two answers are checked
    against each other.
    """
    _require(g, grp)
    witness = _first_failing_path(g, grp, moufang=False)
    ok = witness is None
    if is_generalized_ngon(g, thick=True)[0]:
        cycle_form = _transitive_on(grp, ordered_cycles(g, 2 * g.n, start_part=0))
        if cycle_form != ok:
            raise GraphError(
                "path-stabilizer and ordered-cycle characterizations of "
                "strong transitivity disagree (%s vs %s)" % (ok, cycle_form))
    return ok, witness


def check_remark_2_2(g, grp):
    """Both sides of the cycle-form equivalence.

    L: the group acts transitively on ordered (2n+2)-cycles starting in
    part 0.  R: it acts transitively on ordered 2n-cycles starting in
    part 0, and the pointwise stabilizer of such a cycle (x_0, x_1, ...)
    acts transitively on (D_1(x_1) - {x_0, x_2}) x (D_1(x_2) - {x_1, x_3}).
    Returns (L == R, L, R).
    """
    _require(g, grp)
    n = g.n
    left = _transitive_on(grp, ordered_cycles(g, 2 * n + 2, start_part=0))
    cycles = ordered_cycles(g, 2 * n, start_part=0)
    right = _transitive_on(grp, cycles)
    if right and cycles:
        # the cycles form one orbit, so one stabilizer suffices
        cyc = cycles[0]
        pairs = {(a, b)
                 for a in g.neighbors(cyc[1]) - {cyc[0], cyc[2]}
                 for b in g.neighbors(cyc[2]) - {cyc[1], cyc[3]}}
        if pairs:
            right = _stabilizer_reach(grp, cyc, min(pairs))[0] == pairs
    return left == right, left, right


def is_moufang(g, grp):
    """The Moufang condition: for every simple path (x_0, ..., x_n) the
    pointwise stabilizer of D_1(x_1) + ... + D_1(x_{n-1}) acts
    transitively on D_1(x_n) minus x_{n-1}.  Returns (ok, failing_path).
    """
    _require(g, grp)
    witness = _first_failing_path(g, grp, moufang=True)
    return witness is None, witness


def stabilizer_transitivity_degree(g, grp, x):
    """The largest t such that the stabilizer of x acts t-transitively on
    D_1(x), decided on ordered t-tuples of distinct neighbours; 0 if it
    is not even transitive."""
    if x not in g.vertices:
        raise GraphError("unknown vertex %r" % (x,))
    _require(g, grp, ngon=False)
    nbrs = sorted(g.neighbors(x))
    degree = 0
    for t in range(1, len(nbrs) + 1):
        reach, _ = _stabilizer_reach(grp, (x,), tuple(nbrs[:t]))
        if reach != set(permutations(nbrs, t)):
            break
        degree = t
    return degree
