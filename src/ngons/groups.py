"""Automorphism groups of finite polygons and the transitivity battery:
strong transitivity (the BN-pair witness), the Remark-style equivalence on
ordered cycles, the Moufang condition, and the transitivity degree of a
point stabilizer on the neighbourhood D_1(x).

Groups are kept as generators and never enumerated: automorphisms are
found by the backtracking matcher of `graph`, the one `kmu` finds copies
with, each vertex mapped into its class of an equitable colour
refinement; the search is pruned by the orbits of the generators already
found, whose sizes give the order.  One Schreier–Sims run from the
longest prefix kept gives the stabilizer of each longer prefix, kept on
the group, so the checks share G_x and every path prefix.  Each check
starts from the least vertex of each G-orbit, in ascending order, as what
it decides is G-invariant (Seress 2003, ch. 4): one simple path per
G-orbit is tested, and transitivity on ordered cycles is counted.
"""

from collections import Counter
from math import inf, perm, prod

from .graph import (GraphError, is_generalized_ngon, simple_paths, _bits, _canonical,
                    _cycles, _extend_match, _union)


def _compose(p, q):
    """The permutation i -> p[q[i]] of range(N), as a tuple."""
    return tuple(map(p.__getitem__, q))


def format_cycles(p):
    """Cycle notation, e.g. (0 1 2)(5 6); the identity prints as ()."""
    seen, out = set(), ""
    for v in sorted(p):
        if v not in seen and p[v] != v:
            cyc = [v]
            while p[cyc[-1]] != v:
                cyc.append(p[cyc[-1]])
            seen.update(cyc)
            out += "(" + " ".join(map(str, cyc)) + ")"
    return out or "()"


class PermGroup:
    """A permutation group on the vertex set, given by generators.

    `order` and `stabilizer` read stabilizer chains (`_schreier_sims`);
    `elements` lists the group, for tests and small groups only.  Order,
    elements and each stabilizer asked for are kept on the group, which
    thus points to its subgroups and never back."""

    def __init__(self, domain, generators):
        self.domain = tuple(sorted(domain))
        self._points = dom = frozenset(self.domain)
        gens = [dict(p) for p in generators]
        if not all(frozenset(p) == dom == frozenset(p.values()) for p in gens):
            raise GraphError("generator is not a permutation of the domain")
        self.generators = [p for p in gens if any(p[v] != v for v in dom)]
        self._elements = self._order = None
        self._stabilizers, self._checked = {}, {}

    def elements(self):
        """Every group element, as a list of dicts (identity included):
        the orbit of the domain, read as the images of its points."""
        if self._elements is None:
            self._elements = [dict(zip(self.domain, images))
                              for images in sorted(self.orbit(self.domain))]
        return self._elements

    @property
    def order(self):
        """|G|, read off a stabilizer chain (`_chain`)."""
        if self._order is None:
            self._chain(())
        return self._order

    def stabilizer(self, fixed):
        """The pointwise stabilizer of the points `fixed`, kept on the group
        with that of each prefix.  From the longest prefix kept, of group H,
        the next points that H fixes cost nothing (H again), and one chain
        of H whose base starts with the points left, stopped at |H|, gives
        the stabilizer of every longer prefix: its level j generates the
        stabilizer of its first j base points, of order the product of the
        later transversal sizes (Seress 2003, ch. 4)."""
        fixed, kept = tuple(fixed), self._stabilizers
        if not self._points.issuperset(fixed):
            raise GraphError("%r is not in the group's domain" % (fixed,))
        j = next((j for j in range(len(fixed), 0, -1) if fixed[:j] in kept), 0)
        sub = kept[fixed[:j]] if j else self
        while j < len(fixed) and all(p[fixed[j]] == fixed[j] for p in sub.generators):
            j += 1
            kept[fixed[:j]] = sub
        if j < len(fixed):  # one chain, with a trivial level past its end
            dom, levels = self.domain, sub._chain(fixed[j:]) + [(None, (), (None,))]
            for i in range(1, len(fixed) - j + 1):
                sub = PermGroup(dom, [dict(zip(dom, map(dom.__getitem__, s)))
                                      for s, _ in levels[i][1]])
                sub._order = prod(len(level[2]) for level in levels[i:])
                kept[fixed[:j + i]] = sub
        return sub

    def _chain(self, base):
        """`_schreier_sims` on domain positions with `base` first, stopped
        at the order if known; it sets the order."""
        index = {v: i for i, v in enumerate(self.domain)}
        gens = [tuple(index[p[v]] for v in self.domain) for p in self.generators]
        levels = _schreier_sims(len(index), gens, [index[v] for v in base], self._order)
        self._order = prod(len(level[2]) for level in levels)
        return levels

    def orbit(self, x):
        """The orbit of a point (or of a tuple of points, acted on
        componentwise)."""
        start = x if isinstance(x, tuple) else (x,)
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
        return seen if isinstance(x, tuple) else frozenset(t[0] for t in seen)


def _schreier_sims(degree, gens, base, order=None):
    """A stabilizer chain of the group G generated by `gens` (tuples
    permuting range(degree)) with a base that begins with `base`, built by
    deterministic Schreier–Sims with sifting (Sims 1970; Seress 2003).

    Level i is (b_i, S_i, T_i): the strong generators S_i (pairs p, p^-1)
    fix b_0, ..., b_{i-1} and generate the pointwise stabilizer G_i of
    those points; T_i maps each point of the orbit of b_i under G_i to a
    pair (u, u^-1), u in G_i taking b_i there.  So |G| is the product of
    the |T_i|.  Given |G|, the search stops once the product reaches it:
    the products u_0 u_1 ... of one element per T_i are distinct in G.
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
        # the product grows only above and in add([h], i + 1) below
        if order == prod(len(level[2]) for level in levels):
            return
        for x, k in pairs:
            h = _compose(strong[k][0], trans[x][0])
            for b, _, lower in levels[i:]:  # sift h, in T_i first
                if h == ident or h[b] not in lower:
                    break
                if h[b] != b:
                    h = _compose(lower[h[b]][1], h)
            if h != ident:
                add([h], i + 1)
                if order == prod(len(level[2]) for level in levels):
                    return

    if gens:
        add(gens, 0)
    del add  # add reaches itself through its closure: free the chain at once
    return levels


def _refine_colours(adj, colours):
    """Equitable refinement over the masks `adj`: split classes by the
    multiset of neighbour colours until stable.  Colours are canonical
    (sorted signatures), so they are isomorphism-invariant."""
    while True:
        sig = [(c, tuple(sorted(Counter(map(colours.__getitem__, _bits(m))).items())))
               for c, m in zip(colours, adj)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colours:
            return colours
        colours = new


def automorphism_group(g, type_preserving=True):
    """The (type-preserving, or full) automorphism group of the graph.

    Backtracking over an equitable colour refinement; the initial colours
    encode the part labels when type_preserving is set, and vertex degrees
    otherwise.  Maps are extended by the matcher `graph._extend_match`,
    each vertex into its colour class, in one fixed order: next comes a
    vertex with the most mapped neighbours, or if none has one, a vertex
    of a smallest class.  The search is pruned by the orbits of the
    automorphisms already found (McKay & Piperno 2014): from the last
    vertex of the order to the first, with order[:i] fixed pointwise, it
    seeks one automorphism per candidate image of order[i] not yet in the
    orbit of order[i] under the generators found so far; these subtrees
    are disjoint.  By induction from the last level, the generators found at
    levels >= i generate the pointwise stabilizer of order[:i] (they
    generate that of order[:i+1] and reach its orbit of order[i]), so at
    level 0 the whole group, of order the product of those orbit sizes.
    Each one moves order[i] out of the orbit of the ones before it.
    """
    idx = g._index
    adj, verts = idx.adj, idx.verts
    colours = [(g.part(v) if type_preserving else 0, d) for v, d in zip(verts, idx.deg)]
    palette = {c: i for i, c in enumerate(sorted(set(colours)))}
    colours = _refine_colours(adj, [palette[c] for c in colours])
    by_colour = {}
    for p, c in enumerate(colours):
        by_colour[c] = by_colour.get(c, 0) | 1 << p
    cls = [by_colour[c] for c in colours]  # the images of p keep its colour
    # start at a most constrained vertex, then stay connected: a vertex
    # with a mapped neighbour has at most degree-many candidate images
    plan, placed, reach = [], 0, 0  # the matcher's steps, as in `graph._matches`
    while left := idx.full & ~placed:
        if anchored := reach & left:
            nxt = max(_bits(anchored), key=lambda p: (
                (adj[p] & placed).bit_count(), -cls[p].bit_count(), -p))
        else:
            nxt = min(_bits(left), key=lambda p: (cls[p].bit_count(), colours[p], p))
        plan.append((nxt, _bits(adj[nxt] & placed), cls[nxt]))
        placed |= 1 << nxt
        reach |= adj[nxt]

    gens, size = [], 1
    cell = [1 << p for p in range(len(verts))]  # the orbits of the generators found
    fixed = {p: p for p in range(len(verts))}
    for i in reversed(range(len(plan))):
        v = plan[i][0]
        del fixed[v]  # fixed and placed hold the positions of plan[:i]
        placed ^= 1 << v
        for w in [f[v] for f in _extend_match(adj, plan[:i + 1], fixed, placed, i)]:
            if not cell[v] >> w & 1:
                found = next(_extend_match(adj, plan, {**fixed, v: w}, placed | 1 << w,
                                           i + 1), None)
                if found is not None:
                    gens.append({verts[p]: verts[q] for p, q in found.items()})
                    for one, other in found.items():  # merge their cells
                        if cell[one] != cell[other]:
                            merged = cell[one] | cell[other]
                            for p in _bits(merged):
                                cell[p] = merged
        size *= cell[v].bit_count()
    grp = PermGroup(verts, gens)
    grp._order = size
    return grp


def _require(g, grp, ngon=True):
    """Raise GraphError unless grp acts on g by automorphisms and (with
    ngon set) g is a generalized n-gon.  Return the orbits of grp, keyed
    by their least vertex in ascending order; the n-gon check runs its
    BFS from those least vertices only.  The group keeps them per graph and
    whether the n-gon check ran, once the check passes."""
    ran, orbits = grp._checked.get(g, (False, None))
    if orbits is not None and (ran or not ngon):
        return orbits
    idx = g._index
    if grp.domain != idx.verts:
        raise GraphError("the group does not act on the graph's vertex set")
    for p in grp.generators:
        image = [1 << idx.pos[p[v]] for v in idx.verts]
        if any(_union(image, m) != idx.adj[idx.pos[p[v]]] for v, m in zip(idx.verts, idx.adj)):
            raise GraphError("generator does not preserve adjacency")
    orbits, seen = {}, set()
    for v in grp.domain:
        if v not in seen:
            seen |= orbits.setdefault(v, grp.orbit(v))
    ok, reason = is_generalized_ngon(g, roots=list(orbits)) if ngon else (True, None)
    if not ok:
        raise GraphError("graph is not a generalized %d-gon: %s" % (g.n, reason))
    grp._checked[g] = ngon, orbits
    return orbits


def _first_failing_path(g, grp, moufang):
    """(True, None), or False and the first simple path (x_0, ..., x_n)
    whose pointwise stabilizer (with moufang set: that of D_1(x_1) + ...
    + D_1(x_{n-1})) is not transitive on D_1(x_n) minus x_{n-1}.

    The condition is G-invariant, so that path starts at the least vertex
    x of its orbit; only paths from such x are walked, in the same order.
    Paths from x lie in one G-orbit iff they lie in one G_x-orbit, so a
    passing path clears its G_x-orbit.  The fixed tuple starts with the
    path, so Moufang extends the stabilizers kept by strong transitivity."""
    for x in _require(g, grp):
        covered = set()
        for path in simple_paths(g, g.n, (x,)):
            targets = () if path in covered else g.neighbors(path[-1]) - {path[-2]}
            if not targets:
                continue
            # with moufang set, the union contains the path: fix the rest too
            union = set(path).union(*(g.neighbors(y) for y in path[1:-1] if moufang))
            fixed = path + tuple(sorted(union - set(path)))
            if grp.stabilizer(fixed).orbit(min(targets)) != targets:
                return False, path
            covered.update(grp.stabilizer((x,)).orbit(path))
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

    Transitivity is counted from one vertex x per G-orbit O, whose cycles
    of both lengths one walk counts, canonicalising only a cycle whose
    least vertex is not above the least one's.  Only G_0, the
    type-preserving part, moves ordered cycles starting in part 0, and its
    orbits there are the G-orbits met with part 0.  The number c(x) of
    cycles through x is G-invariant, and 2c(x) ordered ones start at x.
    So they form one orbit iff one O meeting part 0 carries cycles and
    |G| / |G_c| = 2 |O| c(x) for a cycle c ([G:G_0] |O in part 0| = |O|).
    """
    orbits, lengths, carriers = _require(g, grp), (2 * g.n + 2, 2 * g.n), {}
    for x, orbit in orbits.items():
        if not all(map(g.part, orbit)):  # the orbit meets part 0
            for c, mask in _cycles(g, lengths, 1 << g._index.pos[x]):  # counted, the least kept
                found = carriers.setdefault(len(c), {}).setdefault(x, [len(orbit), 0, (inf,)])
                found[1] += 1
                low, least = (mask & -mask).bit_length() - 1, found[2]
                if low <= least[0]:  # canonical: least vertex, smaller neighbour
                    i = c.index(low)
                    if low < least[0] or min(c[i - 1], c[i + 1 - len(c)]) <= least[1]:
                        found[2] = min(least, _canonical(c))
    sides = []
    for length in lengths:
        (size, count, c), *second = carriers.get(length, {}).values() or [(0, 0, ())]
        if count:  # the least cycle, as vertex ids rotated to start in part 0
            c = tuple(map(g._index.verts.__getitem__, c))
            cyc = c[g.part(c[0]):] + c[:g.part(c[0])]
        sides.append(not count or not second and grp.order
                     == 2 * size * count * grp.stabilizer(cyc).order)
    left, right = sides
    if right and count:
        # the 2n-cycles (the last loop) form one orbit: one stabilizer suffices
        pairs = {(a, b)
                 for a in g.neighbors(cyc[1]) - {cyc[0], cyc[2]}
                 for b in g.neighbors(cyc[2]) - {cyc[1], cyc[3]}}
        if pairs:
            right = grp.stabilizer(cyc).orbit(min(pairs)) == pairs
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
    _require(g, grp, ngon=False)
    nbrs = sorted(g.neighbors(x))  # raises GraphError on an unknown x
    stab = grp.stabilizer((x,))
    t = 0  # the orbit of nbrs[:t] holds only t-tuples of distinct neighbours
    while t < len(nbrs) and len(stab.orbit(tuple(nbrs[:t + 1]))) == perm(len(nbrs), t + 1):
        t += 1
    return t
