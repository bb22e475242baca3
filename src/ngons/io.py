"""The text interchange format for graphs.

One declaration per line, '#' starts a comment:

    ngon <n>                   required header, exactly once, first
    vertex <id> <part>
    edge <id> <id>
    subset <name> <id> ...

Parsing is strict: duplicate declarations, unknown vertices and malformed
lines are errors.  Writing is canonical (sorted), so equal graphs
serialize to identical bytes.
"""

from .graph import BipartiteGraph, GraphError


class ParseError(ValueError):
    """Raised on a malformed graph file."""


def parse_graph(text):
    n, parts, edges, subsets = None, {}, set(), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "ngon":
            if n is not None:
                raise ParseError("line %d: duplicate ngon header" % lineno)
            n = _int(args, 0, lineno, "ngon") if len(args) == 1 else _bad(lineno, line)
        elif n is None:
            raise ParseError("line %d: 'ngon <n>' header must come first" % lineno)
        elif kind == "vertex":
            if len(args) != 2:
                _bad(lineno, line)
            v = _int(args, 0, lineno, "vertex id")
            p = _int(args, 1, lineno, "part")
            if v in parts:
                raise ParseError("line %d: duplicate vertex %d" % (lineno, v))
            if p not in (0, 1):
                raise ParseError("line %d: part must be 0 or 1" % lineno)
            parts[v] = p
        elif kind == "edge":
            if len(args) != 2:
                _bad(lineno, line)
            u = _int(args, 0, lineno, "vertex id")
            v = _int(args, 1, lineno, "vertex id")
            if u not in parts or v not in parts:
                raise ParseError("line %d: edge endpoint not declared" % lineno)
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise ParseError("line %d: duplicate edge %d %d" % (lineno, u, v))
            edges.add(e)
        elif kind == "subset":
            if len(args) < 1:
                _bad(lineno, line)
            name = args[0]
            if name in subsets:
                raise ParseError("line %d: duplicate subset %r" % (lineno, name))
            try:
                ids = [int(x) for x in args[1:]]
            except ValueError:
                _bad(lineno, line)
            missing = [v for v in ids if v not in parts]
            if missing:
                raise ParseError("line %d: subset mentions undeclared vertices %s"
                                 % (lineno, missing))
            subsets[name] = frozenset(ids)
        else:
            raise ParseError("line %d: unknown declaration %r" % (lineno, kind))
    if n is None:
        raise ParseError("missing 'ngon <n>' header")
    try:
        return BipartiteGraph(n, parts, edges, subsets)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _int(args, i, lineno, what):
    try:
        return int(args[i])
    except ValueError:
        raise ParseError("line %d: %s must be an integer, got %r"
                         % (lineno, what, args[i])) from None


def _bad(lineno, line):
    raise ParseError("line %d: malformed declaration %r" % (lineno, line))


def format_graph(g):
    lines = ["ngon %d" % g.n]
    for v in sorted(g.vertices):
        lines.append("vertex %d %d" % (v, g.part(v)))
    for (u, v) in sorted(g.edges):
        lines.append("edge %d %d" % (u, v))
    for name in sorted(g.subsets):
        lines.append("subset %s %s" % (name, " ".join(str(v) for v in sorted(g.subsets[name]))))
    return "\n".join(lines) + "\n"


def load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
