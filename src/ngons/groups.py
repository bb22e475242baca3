"""Automorphism groups of finite polygons and the transitivity battery:
strong transitivity (the BN-pair witness), the Remark-style equivalence on
ordered cycles, the Moufang condition, and the transitivity degree of a
point stabilizer on the neighbourhood D_1(x).

Groups are kept as generators and never enumerated: automorphisms are
found by backtracking over an equitable colour refinement, pruned by the
orbits of the generators already found.  The order and every pointwise
stabilizer come from one Schreier–Sims stabilizer chain with a chosen
base.  Each check starts from the least vertex of each G-orbit, in
ascending order, as what it decides is G-invariant (Seress 2003, ch. 4):
one simple path per G-orbit is tested, and transitivity on ordered
cycles is counted.
"""

from collections import Counter
from math import perm, prod

from .graph import GraphError, enumerate_cycles, is_generalized_ngon, simple_paths


def _compose(p, q):
    """The permutation i -> p[q[i]] of range(N), as a tuple."""
    return tuple(map(p.__getitem__, q))


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

    `order` and `stabilizer` read a stabilizer chain (`_schreier_sims`);
    `elements` lists the group, for tests and small groups only (nothing
    in the library calls it).  Order and elements are cached.
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
        """Every group element, as a list of dicts (identity included):
        the orbit of the domain, read as the images of its points."""
        if self._elements is None:
            self._elements = [dict(zip(self.domain, images))
                              for images in sorted(self.orbit(self.domain))]
        return self._elements

    @property
    def order(self):
        """|G|, read off the stabilizer chain of `stabilizer(())`."""
        if self._order is None:
            self._order = self.stabilizer(()).order
        return self._order

    def stabilizer(self, fixed):
        """The pointwise stabilizer of the points `fixed`: the strong
        generators that fix them in a chain whose base starts with them,
        with its order read off the same chain."""
        fixed = tuple(fixed)
        if not self._points.issuperset(fixed):
            raise GraphError("%r is not in the group's domain" % (fixed,))
        dom = self.domain
        index = {v: i for i, v in enumerate(dom)}
        gens = [tuple(index[p[v]] for v in dom) for p in self.generators]
        levels = _schreier_sims(len(dom), gens, [index[v] for v in fixed],
                                self.order if fixed else None)[len(fixed):]
        sub = PermGroup(dom, [{v: dom[s[i]] for i, v in enumerate(dom)}
                              for s, _ in (levels[0][1] if levels else ())])
        sub._order = prod(len(level[2]) for level in levels)
        return sub

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


def _schreier_sims(degree, gens, base, order=None):
    """A stabilizer chain of the group G generated by `gens` (tuples
    permuting range(degree)) with a base that begins with `base`, built by
    deterministic Schreier–Sims with sifting (Sims 1970; Seress 2003).

    Level i is (b_i, S_i, T_i): the strong generators S_i (pairs p, p^-1)
    fix b_0, ..., b_{i-1} and generate the pointwise stabilizer G_i of
    those points; T_i maps each point of the orbit of b_i under G_i to a
    pair (u, u^-1), u in G_i taking b_i there.  So |G| is the product of
    the |T_i|.  Given |G|, the search stops when the product reaches it:
    the products u_0 u_1 ... of one element per T_i are distinct elements
    of G, so then they are all of G.
    """
    ident = tuple(range(degree))
    levels = [(b, [], {b: (ident, ident)}) for b in base]

    def add(hs, i):
        """Put hs, which fix b_0, ..., b_{i-1}, into S_i (a new level past
        the end), extend T_i, and add to S_{i+1} what is left of each new
        Schreier generator after sifting.  T_i keeps its elements and
        G_{i+1} only grows, so each (point, generator) pair sifts once."""
        if i == len(levels):
            b = next(x for x in ident if hs[0][x] != x)
            levels.append((b, [], {b: (ident, ident)}))
        _, strong, trans = levels[i]
        pairs = [(x, len(strong) + k) for x in trans for k in range(len(hs))]
        strong.extend((h, tuple(sorted(ident, key=h.__getitem__))) for h in hs)
        for x, k in pairs:
            (s, sinv), (u, uinv) = strong[k], trans[x]
            if s[x] not in trans:
                trans[s[x]] = (_compose(s, u), _compose(uinv, sinv))
                pairs.extend((s[x], j) for j in range(len(strong)))
        for x, k in pairs:
            if order == prod(len(level[2]) for level in levels):
                return
            s = strong[k][0]
            h = _compose(trans[s[x]][1], _compose(s, trans[x][0]))
            for b, _, lower in levels[i + 1:]:  # sift h
                if h == ident or h[b] not in lower:
                    break
                h = _compose(lower[h[b]][1], h)
            if h != ident:
                add([h], i + 1)

    if gens:
        add(gens, 0)
    del add  # add reaches itself through its closure: free the chain at once
    return levels


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

    gens = []
    for i in reversed(range(len(order))):
        v = order[i]
        fixed = {u: u for u in order[:i]}
        for w in candidates(v, fixed):
            if w not in PermGroup(verts, gens).orbit(v):
                found = _extend(order, candidates, i + 1, {**fixed, v: w})
                if found is not None:
                    gens.append(found)
    grp = PermGroup(verts, gens)
    for p in grp.generators:
        _check_automorphism(g, p, type_preserving)
    return grp


def _extend(order, candidates, i, mapping):
    """The first automorphism extending mapping on order[:i], or None (a
    recursive closure would leave a reference cycle behind every call)."""
    if i == len(order):
        return mapping
    for w in candidates(order[i], mapping):
        found = _extend(order, candidates, i + 1, {**mapping, order[i]: w})
        if found is not None:
            return found
    return None


def _check_automorphism(g, p, type_preserving):
    for (u, v) in g.edges:
        if not g.has_edge(p[u], p[v]):
            raise GraphError("generator does not preserve adjacency")
    if type_preserving and any(g.part(p[v]) != g.part(v) for v in g.vertices):
        raise GraphError("generator does not preserve parts")


def _require(g, grp, ngon=True):
    """Raise GraphError unless grp acts on g by automorphisms and (with
    ngon set) g is a generalized n-gon.  Return the orbits of grp, keyed
    by their least vertex in ascending order; the n-gon check runs its
    BFS from those least vertices only."""
    if grp.domain != tuple(sorted(g.vertices)):
        raise GraphError("the group does not act on the graph's vertex set")
    for p in grp.generators:
        _check_automorphism(g, p, type_preserving=False)
    orbits, seen = {}, set()
    for v in grp.domain:
        if v not in seen:
            seen |= orbits.setdefault(v, grp.orbit(v))
    ok, reason = is_generalized_ngon(g, roots=list(orbits)) if ngon else (True, None)
    if not ok:
        raise GraphError("graph is not a generalized %d-gon: %s" % (g.n, reason))
    return orbits


def _first_failing_path(g, grp, moufang):
    """(True, None), or False and the first simple path (x_0, ..., x_n)
    whose pointwise stabilizer (with moufang set: that of D_1(x_1) + ...
    + D_1(x_{n-1})) is not transitive on D_1(x_n) minus x_{n-1}.

    The condition is G-invariant, so that path starts at the least vertex
    x of its orbit; only paths from such x are walked, in the same order.
    Paths from x lie in one G-orbit iff they lie in one G_x-orbit, so a
    passing path clears its G_x-orbit.  Path stabilizers are read off
    G_x's chain, whose known order lets Schreier–Sims stop early."""
    for x in _require(g, grp):
        stab_x, covered = grp.stabilizer((x,)), set()
        for path in simple_paths(g, g.n, (x,)):
            targets = g.neighbors(path[-1]) - {path[-2]}
            if path in covered or not targets:
                continue
            fixed = path
            if moufang:  # the union contains the path; fix the rest too
                rest = set().union(*(g.neighbors(y) for y in path[1:-1]))
                fixed += tuple(sorted(rest - set(path)))
            if stab_x.stabilizer(fixed[1:]).orbit(min(targets)) != targets:
                return False, path
            covered.update(stab_x.orbit(path))
    return True, None


def is_strongly_transitive(g, grp):
    """Strong transitivity: for every simple path (x_0, ..., x_n) the
    pointwise stabilizer acts transitively on D_1(x_n) minus x_{n-1}.

    Returns (ok, counterexample_path).  On thick polygons it is
    equivalent to transitivity on ordered 2n-cycles starting in part 0,
    which the tests check.
    """
    return _first_failing_path(g, grp, moufang=False)


def check_remark_2_2(g, grp):
    """Both sides of the cycle-form equivalence.

    L: the group acts transitively on ordered (2n+2)-cycles starting in
    part 0.  R: it acts transitively on ordered 2n-cycles starting in
    part 0, and the pointwise stabilizer of such a cycle (x_0, x_1, ...)
    acts transitively on (D_1(x_1) - {x_0, x_2}) x (D_1(x_2) - {x_1, x_3}).
    Returns (L == R, L, R).

    Transitivity is counted from one vertex x per G-orbit O.  Only the
    type-preserving part G_0 moves ordered cycles starting in part 0, and
    its orbits there are the G-orbits met with part 0.  The number c(x)
    of cycles through x is G-invariant, and 2c(x) ordered ones start at x.
    So they form one orbit iff one O meeting part 0 carries cycles and
    |G| / |G_c| = 2 |O| c(x) for a cycle c ([G:G_0] |O in part 0| = |O|).
    """
    orbits = _require(g, grp)
    sides = []
    for length in (2 * g.n + 2, 2 * g.n):
        # the orbits that meet part 0 and carry cycles, up to the second
        carriers = ((len(orbit), found) for x, orbit in orbits.items()
                    if not all(map(g.part, orbit))
                    and (found := enumerate_cycles(g, length, through=(x,))))
        (size, cycles), second = next(carriers, (0, ())), next(carriers, None)
        if cycles and second is None:  # one cycle, rotated to start in part 0
            cyc = cycles[0][g.part(cycles[0][0]):] + cycles[0][:g.part(cycles[0][0])]
            stab = grp.stabilizer(cyc)
        sides.append(not cycles or second is None
                     and grp.order == 2 * size * len(cycles) * stab.order)
    left, right = sides
    if right and cycles:
        # the 2n-cycles (the last loop) form one orbit: one stabilizer suffices
        pairs = {(a, b)
                 for a in g.neighbors(cyc[1]) - {cyc[0], cyc[2]}
                 for b in g.neighbors(cyc[2]) - {cyc[1], cyc[3]}}
        if pairs:
            right = stab.orbit(min(pairs)) == pairs
    return left == right, left, right


def is_moufang(g, grp):
    """The Moufang condition: for every simple path (x_0, ..., x_n) the
    pointwise stabilizer of D_1(x_1) + ... + D_1(x_{n-1}) acts
    transitively on D_1(x_n) minus x_{n-1}.  Returns (ok, failing_path).
    """
    return _first_failing_path(g, grp, moufang=True)


def stabilizer_transitivity_degree(g, grp, x):
    """The largest t such that the stabilizer of x acts t-transitively on
    D_1(x), decided on ordered t-tuples of distinct neighbours; 0 if it
    is not even transitive."""
    if x not in g.vertices:
        raise GraphError("unknown vertex %r" % (x,))
    _require(g, grp, ngon=False)
    nbrs = sorted(g.neighbors(x))
    stab = grp.stabilizer((x,))
    t = 0  # the orbit of nbrs[:t] holds only t-tuples of distinct neighbours
    while t < len(nbrs) and len(stab.orbit(tuple(nbrs[:t + 1]))) == perm(len(nbrs), t + 1):
        t += 1
    return t
