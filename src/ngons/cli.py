"""Command-line interface.

One command per invocation; all commands read the shared text graph
format.  Exit codes: 0 when the queried property holds, 1 when it fails
(with a witness where one exists), 2 on malformed input.  Output is
deterministic; `--format structured` prints the same data as key-value
records.  `kmu` and `zeroalg --enumerate` first print the search limits
they run under (`SEARCHED ...`) on stderr.  A reader that closes stdout
early (`ngons aut g.txt | head -n 1`) ends the command with exit code 1
and no traceback.
"""

import argparse
import os
import re
import sys

from .graph import GraphError, is_generalized_ngon
from . import io as gio
from .predimension import delta, d_min, closure, is_strong
from .zeroalg import _touched_base, default_body_cap, enumerate_zero_min_pairs
from .kmu import MuFunction, default_horizon, default_mu, in_class
from .witnesses import make_path, make_cycle, make_gamma, make_cl_witness
from .builder import grow
from .groups import (automorphism_group, format_cycles, is_moufang,
                     is_strongly_transitive, stabilizer_transitivity_degree)


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reads an id list with a leading minus ("-5,2") as a value, where
    argparse would take it for an unknown option; the ids are integers,
    and no option of this CLI looks like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d*)*$")


def _load(path):
    try:
        return gio.load_graph(path)
    except (OSError, gio.ParseError) as exc:
        raise _InputError(str(exc))


def _subset(g, token):
    """A stored subset name, or comma-separated vertex ids."""
    if token in g.subsets:
        return g.subsets[token]
    try:
        ids = [int(x) for x in token.split(",") if x != ""]
    except ValueError:
        raise _InputError("subset %r is neither a stored name nor a "
                          "comma-separated id list" % token)
    return g.check_subset(ids)


def _load_mu(path, n):
    if path is None:
        return default_mu(n)
    try:
        with open(path) as fh:
            mu = MuFunction.from_json(fh.read())
    except (OSError, ValueError, KeyError, gio.ParseError, GraphError) as exc:
        raise _InputError("bad mu file %s: %s" % (path, exc))
    if mu.n != n:
        raise _InputError("mu file is for n=%d, graph has n=%d" % (mu.n, n))
    return mu


def _emit(args, key, value):
    if args.format == "structured":
        print("%s %s" % (key, value))
    else:
        print(value)


def _verdict(args, key, ok, witness_line):
    """Print a verdict; a false one puts its witness line on stderr, exit 1."""
    _emit(args, key, "true" if ok else "false")
    if not ok:
        print(witness_line, file=sys.stderr)
    return 0 if ok else 1


def _ids(vertices):
    return ",".join(str(v) for v in sorted(vertices))


def _write_graph(graph, path):
    if path is None:
        sys.stdout.write(gio.format_graph(graph))
    else:
        gio.save_graph(graph, path)


def _cmd_subset_query(args):
    g = _load(args.file)
    _emit(args, args.command, args.query(g, _subset(g, args.subset)))
    return 0


def _cmd_strong(args):
    g = _load(args.file)
    ok, witness = is_strong(g, _subset(g, args.subset))
    return _verdict(args, "strong", ok, None if ok else "violator %s" % _ids(witness))


def _cmd_zeroalg(args):
    g = _load(args.file)
    if args.enumerate:
        cap = default_body_cap(g.n) if args.max_body is None else args.max_body
        print("SEARCHED max_body=%d" % cap, file=sys.stderr)
        for pair in enumerate_zero_min_pairs(g, cap):
            print("PAIR base=%s body=%s" % (_ids(pair.base), _ids(pair.body)))
        return 0
    if args.base is None or args.body is None:
        raise _InputError("zeroalg needs --base and --body, or --enumerate")
    base, body = _subset(g, args.base), _subset(g, args.body)
    touched = _touched_base(g, base, body)
    alg, minimal = touched is not None, touched == base
    _emit(args, "algebraic", "true" if alg else "false")
    _emit(args, "minimally_algebraic", "true" if minimal else "false")
    if alg and not minimal:
        print("minimal_base %s" % _ids(touched), file=sys.stderr)
    return 0 if minimal else 1


def _cmd_kmu(args):
    g = _load(args.file)
    mu = _load_mu(args.mu, g.n)
    horizon = default_horizon(g.n) if args.horizon is None else args.horizon
    cap = default_body_cap(g.n) if args.max_body is None else args.max_body
    print("SEARCHED horizon=%d max_body=%d" % (horizon, cap), file=sys.stderr)
    member, reports = in_class(g, mu, horizon=horizon, max_body=cap)
    _emit(args, "member", "true" if member else "false")
    for report in reports:
        print(report.format())
    return 0 if member else 1


def _cmd_witness(args):
    if args.kind == "path":
        graph = make_path(args.n, args.length)
    elif args.kind == "cycle":
        graph = make_cycle(args.n, args.length)
    elif args.kind == "gamma":
        graph = make_gamma(args.n)
    else:
        graph = make_cl_witness(args.n, args.l, with_b=args.with_b)
    _write_graph(graph, args.output)
    return 0


def _cmd_grow(args):
    g = _load(args.seedfile)
    mu = _load_mu(args.mu, g.n)
    result, log = grow(g, args.steps, args.seed, mu=mu)
    _write_graph(result, args.output)
    text = "".join(record.format() + "\n" for record in log)
    if args.log is None:
        sys.stderr.write(text)
    else:
        with open(args.log, "w") as fh:
            fh.write(text)
    return 0


def _cmd_verify_ngon(args):
    g = _load(args.file)
    ok, reason = is_generalized_ngon(g, thick=args.thick)
    return _verdict(args, "ngon", ok, reason)


def _cmd_aut(args):
    g = _load(args.file)
    grp = automorphism_group(g, type_preserving=args.type_preserving)
    print("order %d" % grp.order)
    for gen in grp.generators:
        print(format_cycles(gen))
    return 0


def _cmd_path_check(args):
    """strans and moufang: a verdict plus the first failing path."""
    g = _load(args.file)
    grp = automorphism_group(g, type_preserving=True)
    ok, witness = args.check(g, grp)
    return _verdict(args, args.key, ok,
                    None if ok else "path %s" % ",".join(str(v) for v in witness))


def _cmd_transdeg(args):
    g = _load(args.file)
    if args.vertex not in g.vertices:
        raise _InputError("unknown vertex %d" % args.vertex)
    grp = automorphism_group(g, type_preserving=True)
    _emit(args, "transdeg",
          stabilizer_transitivity_degree(g, grp, args.vertex))
    return 0


def _build_parser():
    parser = _Parser(
        prog="ngons",
        description="Predimension calculus, class membership and "
                    "transitivity checks on finite generalized n-gons.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "structured"),
                        default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, query, doc in (
            ("delta", delta, "predimension of a subset"),
            ("dmin", d_min, "minimum of delta over supersets"),
            ("closure", lambda g, a: _ids(closure(g, a)),
             "smallest strong superset"),
            ("strong", None, "is the subset strongly embedded")):
        p = sub.add_parser(name, parents=[common], help=doc)
        p.add_argument("file")
        p.add_argument("subset", help="stored subset name or id1,id2,...")
        p.set_defaults(fn=_cmd_strong if query is None else _cmd_subset_query,
                       query=query)

    p = sub.add_parser("zeroalg", parents=[common],
                       help="0-(minimally-)algebraic pair check or enumeration")
    p.add_argument("file")
    p.add_argument("--base")
    p.add_argument("--body")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--max-body", type=int, default=None)
    p.set_defaults(fn=_cmd_zeroalg)

    p = sub.add_parser("kmu", parents=[common], help="class membership check")
    p.add_argument("file")
    p.add_argument("--mu", default=None, help="mu-function JSON file")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--max-body", type=int, default=None)
    p.set_defaults(fn=_cmd_kmu)

    p = sub.add_parser("witness", help="emit a standard witness graph")
    ws = p.add_subparsers(dest="kind", required=True)
    for kind, size in (("path", "length"), ("cycle", "length"),
                       ("gamma", None), ("cl", "l")):
        q = ws.add_parser(kind)
        q.add_argument("n", type=int)
        if size:
            q.add_argument(size, type=int)
        q.add_argument("-o", "--output", default=None)
    q.add_argument("--with-b", action="store_true")  # cl only
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("grow", help="seeded growth by free amalgamation")
    p.add_argument("seedfile")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="rng seed (explicit, for reproducibility)")
    p.add_argument("--mu", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--log", default=None)
    p.set_defaults(fn=_cmd_grow)

    p = sub.add_parser("verify-ngon", parents=[common],
                       help="check the generalized n-gon axioms")
    p.add_argument("file")
    p.add_argument("--thick", action="store_true")
    p.set_defaults(fn=_cmd_verify_ngon)

    p = sub.add_parser("aut", help="automorphism group")
    p.add_argument("file")
    p.add_argument("--type-preserving", action="store_true")
    p.set_defaults(fn=_cmd_aut)

    for name, check, key, doc in (
            ("strans", is_strongly_transitive, "strongly_transitive",
             "strong transitivity of the type-preserving group"),
            ("moufang", is_moufang, "moufang", "Moufang condition")):
        p = sub.add_parser(name, parents=[common], help=doc)
        p.add_argument("file")
        p.set_defaults(fn=_cmd_path_check, check=check, key=key)

    p = sub.add_parser("transdeg", parents=[common],
                       help="transitivity degree of a point stabilizer")
    p.add_argument("file")
    p.add_argument("vertex", type=int)
    p.set_defaults(fn=_cmd_transdeg)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit does not fail again (the recipe of Python's `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (_InputError, GraphError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
