"""Shared fixtures and independent brute-force oracles.

The oracles work over bitmasks with a precomputed delta table, so they
share no code with the implementations they check."""

import inspect
import random
import sys
from itertools import product

import pytest

from ngons import (BipartiteGraph, PermGroup, fano_graph, gq22_graph, grow,
                   make_cycle, projective_plane)


# ---------------------------------------------------------------- oracles

class MaskOracle:
    """Exhaustive subset machinery for graphs of <= ~16 vertices.

    delta, d, strong embedding, closure and 0-(minimally-)algebraic pairs
    are all computed straight from the definitions by iterating subsets.
    """

    def __init__(self, g):
        self.g = g
        self.verts = sorted(g.vertices)
        self.pos = {v: i for i, v in enumerate(self.verts)}
        self.k = len(self.verts)
        self.adjmask = []
        for v in self.verts:
            m = 0
            for w in g.neighbors(v):
                m |= 1 << self.pos[w]
            self.adjmask.append(m)
        n = g.n
        self.delta = [0] * (1 << self.k)
        for mask in range(1, 1 << self.k):
            i = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            inner = (self.adjmask[i] & rest).bit_count()
            self.delta[mask] = self.delta[rest] + (n - 1) - (n - 2) * inner

    def mask(self, subset):
        m = 0
        for v in subset:
            m |= 1 << self.pos[v]
        return m

    def unmask(self, mask):
        return frozenset(self.verts[i] for i in range(self.k) if mask >> i & 1)

    def supersets(self, amask):
        free = ((1 << self.k) - 1) & ~amask
        sub = free
        while True:
            yield amask | sub
            if sub == 0:
                return
            sub = (sub - 1) & free

    def d_min(self, subset):
        amask = self.mask(subset)
        return min(self.delta[s] for s in self.supersets(amask))

    def is_strong(self, subset):
        amask = self.mask(subset)
        base = self.delta[amask]
        return all(self.delta[s] >= base for s in self.supersets(amask))

    def closure(self, subset):
        """The inclusion-smallest strong superset, by direct search."""
        amask = self.mask(subset)
        strong = [s for s in self.supersets(amask)
                  if all(self.delta[t] >= self.delta[s]
                         for t in self.supersets(s))]
        best = min(strong, key=lambda s: s.bit_count())
        assert all(best & ~s == 0 or s.bit_count() > best.bit_count()
                   for s in strong)
        return self.unmask(best)

    def strong_supersets(self, subset):
        amask = self.mask(subset)
        return [self.unmask(s) for s in self.supersets(amask)
                if all(self.delta[t] >= self.delta[s]
                       for t in self.supersets(s))]

    def connected_subsets(self, mask):
        """All nonempty connected submasks of `mask`, by flood fill."""
        out = []
        sub = mask
        while sub:
            reach = frontier = sub & -sub
            while frontier:
                i = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grown = self.adjmask[i] & sub & ~reach
                reach |= grown
                frontier |= grown
            if reach == sub:
                out.append(self.unmask(sub))
            sub = (sub - 1) & mask
        return out

    def delta_rel(self, bmask, amask):
        return self.delta[bmask | amask] - self.delta[amask]

    def zero_algebraic_bodies(self, amask):
        """All nonempty bodies disjoint from A that are 0-algebraic."""
        free = ((1 << self.k) - 1) & ~amask
        out = []
        sub = free
        while sub:
            if self.delta_rel(sub, amask) == 0:
                inner = sub & (sub - 1)
                ok = True
                while ok and inner:
                    if inner != sub and self.delta_rel(inner, amask) <= 0:
                        ok = False
                    inner = (inner - 1) & sub
                if ok:
                    out.append(sub)
            sub = (sub - 1) & free
        return out

    def zero_min_pairs(self):
        """All (base, body) pairs, body 0-minimally algebraic over base."""
        pairs = []
        for amask in range(1, 1 << self.k):
            for bmask in self.zero_algebraic_bodies(amask):
                touched = 0
                m = amask
                while m:
                    i = (m & -m).bit_length() - 1
                    m &= m - 1
                    if self.adjmask[i] & bmask:
                        touched |= 1 << i
                if touched == amask:
                    pairs.append((self.unmask(amask), self.unmask(bmask)))
        return set(pairs)


def random_bipartite(rng, n, nv, edge_prob):
    parts = {i: rng.randrange(2) for i in range(nv)}
    edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
             if parts[u] != parts[v] and rng.random() < edge_prob]
    return BipartiteGraph(n, parts, edges)


def sparse_graph(rng, n, size, closed):
    """A mostly degree-2 graph on `size` vertices: pendant paths of
    length 1-3 hung at random vertices of an even cycle (`closed`) or of
    a single vertex (a subdivided tree).  With `closed`, about one path
    end in three is also joined to an earlier vertex of the other part."""
    start = 2 * rng.randrange(2, 4) if closed else 1
    parts = {v: v % 2 for v in range(start)}
    edges = {(v, v + 1) for v in range(start - 1)}
    if closed:
        edges.add((0, start - 1))
    while len(parts) < size:
        prev = rng.randrange(len(parts))
        for _ in range(min(rng.randint(1, 3), size - len(parts))):
            v = len(parts)
            parts[v] = 1 - parts[prev]
            edges.add((prev, v))
            prev = v
        if closed and rng.random() < 1 / 3:
            u = rng.randrange(prev)
            if parts[u] != parts[prev] and (u, prev) not in edges:
                edges.add((u, prev))
    return BipartiteGraph(n, parts, edges)


def cycle_with_handles(rng, n, length, extra, chords):
    """The cycle 0, 1, ..., length-1 with `chords` random chords, and
    `extra` more vertices, each joined to one or two earlier vertices of
    the other part: long cycles with chords, handles and pendants."""
    parts = {v: v % 2 for v in range(length)}
    edges = {(v, (v + 1) % length) for v in range(length)}
    for _ in range(chords):
        u = rng.randrange(0, length, 2)
        edges.add((u, (u + rng.randrange(3, length - 2, 2)) % length))
    for x in range(length, length + extra):
        parts[x] = rng.randrange(2)
        other = sorted(v for v in parts if parts[v] != parts[x])
        edges.update((y, x) for y in rng.sample(other, rng.randint(1, 2)))
    return BipartiteGraph(n, parts, edges)


def double_path(n):
    """Two internally disjoint paths of length n-1 between the same
    endpoints a=0, b=1."""
    verts = {0: 0, 1: (n - 1) % 2}
    edges = []
    nid = 2
    for _ in range(2):
        prev = 0
        for i in range(1, n - 1):
            verts[nid] = i % 2
            edges.append((prev, nid))
            prev = nid
            nid += 1
        edges.append((prev, 1))
    return BipartiteGraph(n, verts, edges)


def pgl3(p):
    """PG(2,p) with PGL(3,p) acting on it, built from generators without
    the automorphism search: the six elementary transvections I + E_ij
    and diag(r, 1, 1) for the least primitive root r mod p.  A matrix A
    takes point x to Ax and line l to A^-T l, which is proportional to
    the cofactor matrix of A times l.  Ids follow `projective_plane`."""
    reps = [v for v in product(range(p), repeat=3)
            if any(v) and next(c for c in v if c) == 1]
    index = {v: i for i, v in enumerate(reps)}

    def image(a, v):
        w = [sum(x * y for x, y in zip(row, v)) % p for row in a]
        inv = pow(next(c for c in w if c), -1, p)
        return index[tuple(c * inv % p for c in w)]

    root = next(r for r in range(1, p)
                if len({pow(r, e, p) for e in range(p - 1)}) == p - 1)
    mats = [[[int(r == c) + ((r, c) == (i, j)) for c in range(3)] for r in range(3)]
            for i in range(3) for j in range(3) if i != j]
    mats.append([[root, 0, 0], [0, 1, 0], [0, 0, 1]])
    k, gens = len(reps), []
    for a in mats:
        cof = [[a[(r + 1) % 3][(c + 1) % 3] * a[(r + 2) % 3][(c + 2) % 3]
                - a[(r + 1) % 3][(c + 2) % 3] * a[(r + 2) % 3][(c + 1) % 3]
                for c in range(3)] for r in range(3)]
        perm = {i: image(a, v) for i, v in enumerate(reps)}
        perm.update({k + i: k + image(cof, v) for i, v in enumerate(reps)})
        gens.append(perm)
    return projective_plane(p), PermGroup(range(2 * k), gens)


def line_counts(run, *marks):
    """Line events while run() runs, one count per (function, text) mark:
    the line of the function's source that holds the text, which must be
    unique there."""
    at = {}
    for fn, text in marks:
        lines, first = inspect.getsourcelines(fn)
        [line] = [first + i for i, source in enumerate(lines) if text in source]
        at[fn.__code__, line] = len(at)
    counts = [0] * len(at)

    def local(frame, event, arg):
        if event == "line" and (frame.f_code, frame.f_lineno) in at:
            counts[at[frame.f_code, frame.f_lineno]] += 1
        return local

    codes = {code for code, _ in at}
    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        run()
    finally:
        sys.settrace(old)
    return counts


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def fano():
    return fano_graph()


@pytest.fixture(scope="session")
def gq22():
    return gq22_graph()


@pytest.fixture(scope="session")
def pg23():
    return projective_plane(3)


@pytest.fixture(scope="session")
def pg25():
    return projective_plane(5)


@pytest.fixture(scope="session")
def grow_outputs():
    """The three pinned 20-step growth runs from the (2n+2)-cycle seed."""
    seed = make_cycle(3, 8)
    return {s: grow(seed, 20, s) for s in (1, 2, 3)}


@pytest.fixture(scope="session")
def small_graphs():
    """A mixed corpus of graphs small enough for the mask oracle."""
    from ngons import make_path, make_gamma
    rng = random.Random(20260823)
    graphs = [
        make_path(3, 5), make_path(4, 6),
        make_cycle(3, 8), make_cycle(4, 10), make_cycle(3, 6),
        make_gamma(3), make_gamma(4),
    ]
    for n in (3, 4):
        for _ in range(4):
            graphs.append(random_bipartite(rng, n, 9, 0.3))
    return graphs
