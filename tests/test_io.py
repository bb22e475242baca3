import contextlib
import io
import os
import string
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from ngons import (BipartiteGraph, ParseError, delta, parse_graph,
                   format_graph, fano_graph, make_cl_witness, make_cycle,
                   make_gamma, make_path)
from ngons.cli import main


def test_round_trip_witnesses():
    for g in (make_path(3, 5), make_cycle(4, 10), make_gamma(5),
              make_cl_witness(3, 2), make_cl_witness(4, 3, with_b=True),
              fano_graph()):
        text = format_graph(g)
        h = parse_graph(text)
        assert h == g
        assert h.subsets == g.subsets
        # canonical: serializing again is byte-identical
        assert format_graph(h) == text


def test_parse_minimal():
    g = parse_graph("ngon 3\nvertex 0 0\nvertex 1 1 # a comment\nedge 0 1\n"
                    "subset a 0 1\n")
    assert g.n == 3 and g.edges == frozenset({(0, 1)})
    assert g.subsets["a"] == frozenset({0, 1})


@pytest.mark.parametrize("text", [
    "",                                    # missing header
    "vertex 0 0\nngon 3",                  # header not first
    "ngon 3\nngon 3",                      # duplicate header
    "ngon 3\nvertex 0 2",                  # bad part
    "ngon 3\nvertex 0 0\nvertex 0 0",      # duplicate vertex
    "ngon 3\nvertex 0 0\nedge 0 1",        # unknown endpoint
    "ngon 3\nvertex 0 0\nvertex 1 1\nedge 0 1\nedge 1 0",  # dup edge
    "ngon 3\nvertex 0 0\nsubset a 5",      # unknown subset member
    "ngon 3\nwibble 1 2",                  # unknown declaration
    "ngon x",                              # non-integer n
    "ngon 3\nvertex 0 0\nvertex 1 0\nedge 0 1",  # same-part edge
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_graph(text)


# ------------------------------------------------------ property testing

@st.composite
def graphs(draw):
    """Graphs with arbitrary integer ids, both parts, any bipartite edge
    set and named subsets."""
    ids = draw(st.lists(st.integers(-50, 10**6), min_size=1, max_size=12,
                        unique=True))
    parts = {v: draw(st.integers(0, 1)) for v in ids}
    pairs = [(u, v) for u in ids for v in ids if u < v and parts[u] != parts[v]]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    names = draw(st.sets(st.text(string.ascii_letters + string.digits + "_-",
                                 min_size=1, max_size=6), max_size=3))
    subsets = {name: draw(st.sets(st.sampled_from(ids))) for name in names}
    return BipartiteGraph(draw(st.integers(3, 9)), parts, edges, subsets)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_round_trip_property(g):
    text = format_graph(g)
    h = parse_graph(text)
    assert h.n == g.n and h.vertices == g.vertices and h.edges == g.edges
    assert all(h.part(v) == g.part(v) for v in g.vertices)
    assert h.subsets == g.subsets
    assert format_graph(h) == text


def _breakers(g, lines, i):
    """Edits of the formatted lines, each of which makes the file invalid;
    line i is the header, a vertex or an edge, whose field 1 is an id or
    n."""
    fresh = max(g.vertices) + 1
    fields = lines[i].split()
    return [
        ("duplicate line i", lines[:i + 1] + lines[i:]),
        ("header not first", lines[1:2] + lines[:1] + lines[2:]),
        ("non-integer field", lines[:i] + [" ".join(fields[:1] + ["1.5"]
                                                    + fields[2:])]
         + lines[i + 1:]),
        ("part 2", lines + ["vertex %d 2" % fresh]),
        ("undeclared endpoint", lines + ["edge %d %d" % (min(g.vertices),
                                                         fresh)]),
        ("unknown declaration", lines + ["point %d" % fresh]),
        ("gonality 2", ["ngon 2"] + lines[1:]),
    ]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_broken_file_exits_2(g, data):
    """A file broken by any of the edits above makes the CLI exit 2 with
    one `error:` line and no traceback."""
    lines = format_graph(g).splitlines()
    i = data.draw(st.sampled_from([j for j, line in enumerate(lines)
                                   if not line.startswith("subset")]))
    what, broken = data.draw(st.sampled_from(_breakers(g, lines, i)))
    text = "\n".join(broken) + "\n"
    with pytest.raises(ParseError):
        parse_graph(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w") as fh:
            fh.write(text)
        code, out, err = _cli(["delta", path, "%d," % min(g.vertices)])
    assert (code, out) == (2, ""), what
    assert err.startswith("error: ") and err.count("\n") == 1, (what, err)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_mutated_file_never_crashes(g, data):
    """Arbitrary character edits: the CLI answers (exit 0) or exits 2 with
    one `error:` line; no exception escapes."""
    text = format_graph(g)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        junk = data.draw(st.text("0123456789 -#\nvxyedgsubtn", max_size=3))
        text = text[:i] + junk + text[i + data.draw(st.integers(0, 3)):]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w") as fh:
            fh.write(text)
        # "v," is never a subset name, so it always means vertex v, also
        # when v is negative
        code, out, err = _cli(["delta", path, "%d," % min(g.vertices)])
    if code == 0:
        assert err == "" and int(out) == delta(parse_graph(text),
                                               {min(g.vertices)})
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
