"""The mu-function and the membership test for the amalgamation class.

A finite bipartite graph belongs to the class when

1. it has no cycle of length 2m with m < n (girth at least 2n),
2. every vertex set containing a cycle longer than 2n has delta >= 2n+2,
3. the number of copies of each 0-minimally algebraic body over its base
   stays within the mu-bound.

Conditions 2 and 3 quantify over unbounded families; the checker explores
cycles up to a configurable horizon and bodies up to a configurable size
cap, so a verdict holds only within those limits.  The reports do not
record them; `ngons kmu` prints them.

Copies, copy equivalence, configuration isomorphism and the path test
behind mu = 1 all run on one backtracking matcher, `_matches`; each of
them raises GraphError on a body that meets its base.
"""

import json
from dataclasses import dataclass
from typing import Optional

from .graph import GraphError, enumerate_cycles
from . import io as gio
from .predimension import delta, is_strong, _min_superset
from .witnesses import make_path
from .zeroalg import (default_body_cap, enumerate_zero_min_pairs,
                      _require_disjoint)


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


def _matches(g1, g2, dom, allowed=None, pinned=()):
    """Yield every injective map f of `dom` into g2 that extends the
    `pinned` pairs, keeps adjacency and non-adjacency between any two
    mapped vertices and sends each v into allowed(v) (default: anywhere).

    The order is connected where it can be: next comes the smallest
    vertex with a mapped neighbour, else the smallest one left, and a
    vertex with a mapped neighbour u only tries the neighbours of f(u).
    The yielded dict is reused by the search; copy what you keep.
    """
    f = dict(pinned)
    order, placed, left = [], set(f), set(dom) - set(f)
    while left:
        v = min([u for u in left if not placed.isdisjoint(g1.neighbors(u))]
                or left)
        order.append(v)
        placed.add(v)
        left.discard(v)
    return _extend_match(g1, g2, allowed, order, f, set(f.values()), 0)


def _extend_match(g1, g2, allowed, order, f, images, i):
    """The search of `_matches` from order[i] on (a recursive closure would
    leave a reference cycle behind every call)."""
    if i == len(order):
        yield f
        return
    v = order[i]
    want = {f[u] for u in g1.neighbors(v) if u in f}
    pool = g2.neighbors(min(want)) if want else g2.vertices
    if allowed is not None:
        pool = pool & allowed(v)
    for c in sorted(pool - images):
        if g2.neighbors(c) & images == want:
            f[v] = c
            images.add(c)
            yield from _extend_match(g1, g2, allowed, order, f, images, i + 1)
            del f[v]
            images.discard(c)


def find_copies(g, base, body):
    """All vertex sets B' in g, disjoint from the base, whose induced
    configuration over the (pointwise fixed) base is isomorphic to the
    given body.  Returns a set of frozensets; the body itself is one of
    them."""
    base, body = _require_disjoint(g, base, body)
    return {frozenset(f[b] for b in body)
            for f in _matches(g, g, body, pinned={a: a for a in base})}


def count_copies(g, base, body):
    """Number of copies of the body over the base inside g, counted as
    distinct vertex sets."""
    return len(find_copies(g, base, body))


def copies_equivalent(g, base, body1, body2):
    """Are two bodies copies of each other over the pointwise-fixed base?
    True iff some bijection body1 -> body2 preserves induced adjacency and
    the exact base neighbourhood of every vertex."""
    base, body1 = _require_disjoint(g, base, body1)
    base, body2 = _require_disjoint(g, base, body2)
    return len(body1) == len(body2) and next(
        _matches(g, g, body1, lambda v: body2, pinned={a: a for a in base}),
        None) is not None


def pairs_isomorphic(g1, base1, body1, g2, base2, body2):
    """Isomorphism of configurations: a bijection of base1+body1 onto
    base2+body2 mapping base onto base and preserving induced adjacency."""
    base1, body1 = _require_disjoint(g1, base1, body1)
    base2, body2 = _require_disjoint(g2, base2, body2)
    if g1.n != g2.n or len(base1) != len(base2) or len(body1) != len(body2):
        return False
    return next(_matches(g1, g2, {*base1, *body1},
                         lambda v: base2 if v in base1 else body2),
                None) is not None


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

    Condition 2 solves each cycle C by one min-cut on C plus its peeled
    hull: the smallest minimiser W lies in every minimiser, so each v in
    W - C has at least ceil(n/(n-2)) edges into W (dropping it must raise
    delta) and survives the peel of V - C anchored at C (`_min_superset`).
    """
    n = g.n
    if mu is None:
        mu = default_mu(n)
    elif mu.n != n:
        raise GraphError("mu-function built for n=%d, graph has n=%d" % (mu.n, n))
    horizon = default_horizon(n) if horizon is None else horizon
    cap = default_body_cap(n) if max_body is None else max_body
    new = g.vertices
    if member_base is not None:
        member_base = g.check_subset(member_base)
        ok, witness = is_strong(g, member_base)
        if not ok:
            raise GraphError("member_base is not strongly embedded; "
                             "violator %s" % sorted(witness))
        new = g.vertices - member_base
    reports = []

    # Condition 1: no cycle of length 2m with m < n.
    for length in range(4, 2 * n, 2):
        for cyc in enumerate_cycles(g, length, through=new):
            reports.append(ViolationReport("short_cycle", tuple(sorted(cyc)),
                                           length, 2 * n))

    # Condition 2: any set containing a cycle longer than 2n has
    # delta >= 2n+2.  The minimum of delta over supersets of a cycle is a
    # min-cut computation; cycles are enumerated up to the horizon.
    seen_minimisers = set()
    for length in range(2 * n + 2, horizon + 1, 2):
        for cyc in enumerate_cycles(g, length, through=new):
            value, minimiser = _min_superset(g, frozenset(cyc), g.vertices)
            if value < 2 * n + 2 and minimiser not in seen_minimisers:
                seen_minimisers.add(minimiser)
                reports.append(ViolationReport("long_cycle_low_delta",
                                               tuple(sorted(minimiser)),
                                               value, 2 * n + 2))

    # Condition 3: copy counts of 0-minimally algebraic bodies stay within
    # mu.  Every copy of an enumerated body is itself 0-minimally algebraic
    # over the same base and no larger, so when every body over a base was
    # enumerated (a base meeting the new vertices) a class of copies over
    # the (pointwise fixed) base is counted by its size.  Over an old base
    # the copies lying entirely in the old part were not enumerated, so
    # find_copies recounts the class.
    by_base = {}
    for pair in enumerate_zero_min_pairs(g, cap, around=new):
        by_base.setdefault(pair.base, []).append(pair.body)
    for base in sorted(by_base, key=sorted):
        complete = base & new
        classes = []
        for body in sorted(by_base[base], key=sorted):
            key = (len(body), g.edge_count(body))
            for ckey, cls in classes:
                if ckey == key and copies_equivalent(g, base, cls[0], body):
                    cls.append(body)
                    break
            else:
                classes.append((key, [body]))
        for _, cls in classes:
            copies = cls if complete else find_copies(g, base, cls[0])
            if len(copies) < 2:
                continue  # every mu value is at least 1
            bound = mu(g, base, cls[0])
            if len(copies) > bound:
                witness = tuple(sorted(base)) + tuple(sorted(frozenset().union(*copies)))
                reports.append(ViolationReport("mu_exceeded", witness,
                                               len(copies), bound))

    reports.sort(key=lambda r: (r.condition, r.witness))
    return not reports, reports
