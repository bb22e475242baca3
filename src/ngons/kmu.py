"""The mu-function and the membership test for the amalgamation class.

A finite bipartite graph belongs to the class when

1. it has no cycle of length 2m with m < n (girth at least 2n),
2. every vertex set containing a cycle longer than 2n has delta >= 2n+2,
3. the number of copies of each 0-minimally algebraic body over its base
   stays within the mu-bound.

Conditions 2 and 3 quantify over unbounded families; the checker joins
half-length paths into cycles up to a configurable horizon (condition 1
too) and walks bodies up to a configurable size cap: a verdict holds
only within those limits, which `ngons kmu` prints and reports omit.

Copies, copy equivalence, configuration isomorphism and the path test
behind mu = 1 all run on one backtracking matcher, `graph._matches`,
which the automorphism search shares; each of them raises GraphError on
a body that meets its base.
"""

import json
from dataclasses import dataclass
from typing import Optional

from .graph import GraphError, _bits, _cycles, _matches
from . import io as gio
from .predimension import delta, is_strong, _delta, _hull_cut
from .witnesses import make_path
from .zeroalg import default_body_cap, _require_disjoint, _zero_min_pairs


@dataclass(frozen=True)
class ViolationReport:
    condition: str        # short_cycle | long_cycle_low_delta | mu_exceeded
    witness: tuple        # offending vertices, sorted
    value: int
    bound: int

    def format(self):
        return "VIOLATION %s %s %s %s" % (
            self.condition, ",".join(str(v) for v in self.witness),
            self.value, self.bound)


def _is_path_pair(g, base, body):
    """Does base + body form a simple path of length n-1 whose endpoints
    are exactly the base?  (The unique configuration with mu = 1.)"""
    path = make_path(g.n, g.n - 1)
    return pairs_isomorphic(g, base, body, path, path.subsets["endpoints"],
                            path.subsets["interior"])


class MuFunction:
    """Isomorphism-invariant bound on copy counts of 0-minimally algebraic
    bodies over their bases.

    The default rule assigns 1 to the path configuration (base + body a
    simple path of length n-1 with the base as its endpoints) and
    max(delta(base), n) to everything else.  Explicit overrides, keyed by
    an exemplar pair, take precedence; each override must still respect
    the admissibility constraints.
    """

    def __init__(self, n, overrides=()):
        self.n = n
        self.overrides = []
        for graph, base, body, value in overrides:
            self.add_override(graph, base, body, value)

    def add_override(self, graph, base, body, value):
        if graph.n != self.n:
            raise GraphError("override exemplar has gonality %d, expected %d"
                             % (graph.n, self.n))
        base, body = graph.check_subset(base), graph.check_subset(body)
        if _is_path_pair(graph, base, body):
            if value != 1:
                raise GraphError("the path configuration must have mu = 1")
        elif value < max(delta(graph, base), self.n):
            raise GraphError("mu must be at least max(delta(base), n) = %d"
                             % max(delta(graph, base), self.n))
        self.overrides.append((graph, base, body, value))

    def __call__(self, g, base, body):
        base, body = g.check_subset(base), g.check_subset(body)
        for (xg, xbase, xbody, value) in self.overrides:
            if pairs_isomorphic(g, base, body, xg, xbase, xbody):
                return value
        if _is_path_pair(g, base, body):
            return 1
        return max(delta(g, base), self.n)

    def to_json(self):
        return json.dumps({
            "n": self.n,
            "overrides": [
                {"graph": gio.format_graph(xg), "base": sorted(xb),
                 "body": sorted(xd), "value": value}
                for (xg, xb, xd, value) in self.overrides],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        mu = cls(int(data["n"]))
        for entry in data.get("overrides", []):
            graph = gio.parse_graph(entry["graph"])
            mu.add_override(graph, entry["base"], entry["body"], int(entry["value"]))
        return mu


def default_mu(n):
    """The minimal admissible mu-function."""
    if n < 3:
        raise GraphError("n must be at least 3")
    return MuFunction(n)


def default_horizon(n):
    """The longest cycle condition 2 examines unless told otherwise."""
    return 2 * n + 6


def find_copies(g, base, body):
    """All vertex sets B' in g, disjoint from the base, whose induced
    configuration over the (pointwise fixed) base is isomorphic to the
    given body.  Returns a set of frozensets; the body itself is one of
    them."""
    base, body = _require_disjoint(g, base, body)
    bits, verts = _bits(body), g._index.verts
    return {frozenset(verts[f[p]] for p in bits) for f in _matches(g, g, body, fixed=base)}


def copies_equivalent(g, base, body1, body2):
    """Are two bodies copies of each other over the pointwise-fixed base?
    True iff some bijection body1 -> body2 preserves induced adjacency and
    the exact base neighbourhood of every vertex."""
    fixed, body1 = _require_disjoint(g, base, body1)
    fixed, body2 = _require_disjoint(g, base, body2)
    return body1.bit_count() == body2.bit_count() and next(
        _matches(g, g, body1, lambda p: body2, fixed), None) is not None


def pairs_isomorphic(g1, base1, body1, g2, base2, body2):
    """Isomorphism of configurations: a bijection of base1+body1 onto
    base2+body2 mapping base onto base and preserving induced adjacency."""
    base1, body1 = _require_disjoint(g1, base1, body1)
    base2, body2 = _require_disjoint(g2, base2, body2)
    if g1.n != g2.n or (base1.bit_count(), body1.bit_count()) != (
            base2.bit_count(), body2.bit_count()):
        return False
    return next(_matches(g1, g2, base1 | body1,
                         lambda p: base2 if base1 >> p & 1 else body2), None) is not None


def in_class(g, mu: Optional[MuFunction] = None, horizon=None, max_body=None,
             member_base=None):
    """Membership check.  Returns (member, reports); every violation
    found within the search horizons is reported, not just the first.

    Only cycles, bodies and bases that meet the new vertices are examined:
    cycles are enumerated through them, bodies around them.  By default
    every vertex is new.  With `member_base`, a vertex set whose induced
    subgraph the caller already knows to be a class member, only its
    complement is; it must be strongly embedded in g (this is verified).
    Then delta-minima over old sets are unchanged (for strong H <= G and
    any Y <= G, delta(Y) >= delta(Y and H) by submodularity), and every
    copy count that grew involves a new vertex.

    Conditions 1 and 2 read each cycle's mask off one walk of half-length
    paths (`graph._cycles`); condition 2 adds delta(C) to the relative
    minimum of `predimension._hull_cut` and runs a min-cut only where its
    weight bound leaves d(C) possibly below 2n+2; condition 3 walks only
    the bodies that `zeroalg._shared_bodies` keeps, and skips a base that
    meets the new vertices with one body.
    The cut of a cycle C peels only near C (`predimension._near`).
    """
    n, mu = g.n, default_mu(g.n) if mu is None else mu
    if mu.n != n:
        raise GraphError("mu-function built for n=%d, graph has n=%d" % (mu.n, n))
    horizon = default_horizon(n) if horizon is None else horizon
    cap = default_body_cap(n) if max_body is None else max_body
    idx, nmask = g._index, g._index.full
    if member_base is not None:
        nmask = idx.mask(idx.pos.keys() - g.check_subset(member_base))
        if _hull_cut(g, idx.full & ~nmask, idx.full, 0)[0] < 0:
            raise GraphError("member_base is not strongly embedded; violator %s"
                             % sorted(is_strong(g, member_base)[1]))

    # Conditions 1 and 2, from one walk of the cycles
    floor, seen_minimisers, reports = 2 * n + 2, set(), []
    for cyc, cmask in _cycles(g, [*range(4, 2 * n, 2), *range(floor, horizon + 1, 2)],
                              nmask):
        if len(cyc) < 2 * n:
            reports.append(ViolationReport("short_cycle", tuple(
                idx.verts[p] for p in _bits(cmask)), len(cyc), 2 * n))
            continue
        dc = _delta(g, cmask)
        value, x, _, _ = _hull_cut(g, cmask, None, floor - dc)
        if dc + value < floor and (w := cmask | x) not in seen_minimisers:
            seen_minimisers.add(w)
            reports.append(ViolationReport("long_cycle_low_delta", tuple(
                idx.verts[p] for p in _bits(w)), dc + value, floor))

    # Condition 3.  A class over a base meeting the new vertices is streamed
    # whole (`zeroalg._shared_bodies`) and counted by its size, a lone body
    # within every mu; over an old base find_copies recounts, old-part copies too.
    by_base, verts = {}, idx.verts.__getitem__
    for base, body in _zero_min_pairs(g, cap, nmask, shared=True):
        by_base.setdefault(base, []).append(body)
    for bits, bmask, bodies in sorted((_bits(base), base, bodies) for base, bodies
                                      in by_base.items() if len(bodies) > 1 or not base & nmask):
        base, classes = frozenset(map(verts, bits)), []
        for b in sorted(bodies, key=_bits):
            key, body = (b.bit_count(), idx.edges(b)), frozenset(map(verts, _bits(b)))
            for ckey, cls in classes:
                if ckey == key and copies_equivalent(g, base, cls[0], body):
                    cls.append(body)
                    break
            else:
                classes.append((key, [body]))
        for _, cls in classes:
            copies = cls if bmask & nmask else find_copies(g, base, cls[0])
            if len(copies) < 2:
                continue  # every mu value is at least 1
            if len(copies) > (bound := mu(g, base, cls[0])):
                reports.append(ViolationReport("mu_exceeded", tuple(sorted(base)) + tuple(
                    sorted(frozenset().union(*copies))), len(copies), bound))

    reports.sort(key=lambda r: (r.condition, r.witness))
    return not reports, reports
