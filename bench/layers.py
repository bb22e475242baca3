"""Per-layer tracing for the traced benchmark run.

The tracer wraps library functions from the outside: every module of the
package that binds a traced function (its defining module and each
importer's namespace) gets a wrapper, and methods are wrapped on their
class.  Nothing inside the library changes.  A wrapper records one span
per call on a stack; a span's self time is its duration minus the
durations of the spans it directly encloses.  Counts come from call
counts and from the values the functions return.
"""

import functools
import sys
import time
import weakref

PACKAGE = "ngons"

# every per-layer metric, reported per op of the traced run (0 when the
# workload never reaches the call)
LAYER_METRICS = [
    ("graph.enumerate_cycles.calls", "count"),
    ("graph.enumerate_cycles.self_s", "s"),
    ("graph.enumerate_cycles.cycles", "count"),
    ("graph.simple_paths.calls", "count"),
    ("graph.simple_paths.self_s", "s"),
    ("graph.simple_paths.paths", "count"),
    ("graph.ordered_cycles.self_s", "s"),
    ("graph.is_generalized_ngon.self_s", "s"),
    ("graph.bfs_distances.calls", "count"),
    ("graph.bfs_distances.self_s", "s"),
    ("predimension.is_strong.calls", "count"),
    ("predimension.is_strong.self_s", "s"),
    ("predimension.is_strong.violations", "count"),
    ("predimension.min_superset.calls", "count"),
    ("predimension.min_superset.self_s", "s"),
    ("predimension.d_min.calls", "count"),
    ("predimension.d_min.self_s", "s"),
    ("predimension.closure.calls", "count"),
    ("predimension.closure.self_s", "s"),
    ("predimension.delta.calls", "count"),
    ("predimension.delta.self_s", "s"),
    ("zeroalg.enumerate_zero_min_pairs.calls", "count"),
    ("zeroalg.enumerate_zero_min_pairs.self_s", "s"),
    ("zeroalg.enumerate_zero_min_pairs.pairs", "count"),
    ("kmu.in_class.calls", "count"),
    ("kmu.in_class.self_s", "s"),
    ("kmu.in_class.reports", "count"),
    ("kmu.find_copies.calls", "count"),
    ("kmu.find_copies.self_s", "s"),
    ("kmu.copies_equivalent.calls", "count"),
    ("kmu.copies_equivalent.self_s", "s"),
    ("kmu.mu.calls", "count"),
    ("kmu.mu.self_s", "s"),
    ("builder.grow.self_s", "s"),
    ("builder.free_amalgam.calls", "count"),
    ("builder.free_amalgam.self_s", "s"),
    ("builder.steps.accepted", "count"),
    ("builder.steps.no_site", "count"),
    ("builder.steps.rejected", "count"),
    ("groups.automorphism_group.calls", "count"),
    ("groups.automorphism_group.self_s", "s"),
    ("groups.automorphism_group.generators", "count"),
    ("groups.elements.calls", "count"),
    ("groups.elements.self_s", "s"),
    ("groups.elements.materialised", "count"),
    ("groups.order.self_s", "s"),
    ("groups.orbit.calls", "count"),
    ("groups.orbit.self_s", "s"),
    ("groups.is_strongly_transitive.self_s", "s"),
    ("groups.is_moufang.self_s", "s"),
    ("groups.check_remark_2_2.self_s", "s"),
    ("groups.stabilizer_transitivity_degree.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),  # traced over untraced ops_per_s
]


class Tracer:
    """Accumulates calls, self time and return-value counts by metric name.

    Wrappers only record while `active` is set, so the benchmark can run
    its correctness checks through the same wrapped functions untraced.
    """

    def __init__(self):
        self.totals = {}
        self.active = False
        self._stack = []
        self._restore = []

    def add(self, key, value):
        self.totals[key] = self.totals.get(key, 0) + value

    def wrap(self, name, fn, count=None):
        """A wrapper recording spans under `name`; `count(args, result)`
        returns extra counts to add, keyed by metric name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.add(name + ".calls", 1)
                self.add(name + ".self_s", elapsed - children[0])
            if count is not None:
                for key, value in count(args, result).items():
                    self.add(key, value)
            return result

        return traced

    def install_function(self, module, attr, name, count=None):
        """Wrap every binding of `module.attr` in the loaded package."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, count)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def install_method(self, cls, attr, name, count=None):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapper = property(self.wrap(name, original.fget, count))
        else:
            wrapper = self.wrap(name, original, count)
        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def _length(key):
    return lambda args, result: {key: len(result)}


def _steps(args, result):
    _, log = result
    accepted = sum(1 for rec in log if rec.accepted)
    no_site = sum(1 for rec in log if rec.reason == "no_site")
    return {"builder.steps.accepted": accepted,
            "builder.steps.no_site": no_site,
            "builder.steps.rejected": len(log) - accepted - no_site}


def install_layers(tracer, ngons):
    """Wrap the cross-module call sites of the layers the benchmark
    reports: graph, predimension, zeroalg, kmu, builder and groups."""
    fn = tracer.install_function
    fn("ngons.graph", "enumerate_cycles", "graph.enumerate_cycles", _length("graph.enumerate_cycles.cycles"))
    fn("ngons.graph", "simple_paths", "graph.simple_paths", _length("graph.simple_paths.paths"))
    fn("ngons.graph", "ordered_cycles", "graph.ordered_cycles")
    fn("ngons.graph", "is_generalized_ngon", "graph.is_generalized_ngon")
    fn("ngons.graph", "bfs_distances", "graph.bfs_distances")
    fn("ngons.predimension", "is_strong", "predimension.is_strong",
       lambda args, result: {"predimension.is_strong.violations": 0 if result[0] else 1})
    fn("ngons.predimension", "_min_superset", "predimension.min_superset")
    fn("ngons.predimension", "d_min", "predimension.d_min")
    fn("ngons.predimension", "closure", "predimension.closure")
    fn("ngons.predimension", "delta", "predimension.delta")
    fn("ngons.zeroalg", "enumerate_zero_min_pairs",
       "zeroalg.enumerate_zero_min_pairs", _length("zeroalg.enumerate_zero_min_pairs.pairs"))
    fn("ngons.kmu", "in_class", "kmu.in_class",
       lambda args, result: {"kmu.in_class.reports": len(result[1])})
    fn("ngons.kmu", "find_copies", "kmu.find_copies")
    fn("ngons.kmu", "copies_equivalent", "kmu.copies_equivalent")
    fn("ngons.builder", "grow", "builder.grow", _steps)
    fn("ngons.builder", "free_amalgam", "builder.free_amalgam")
    fn("ngons.groups", "automorphism_group", "groups.automorphism_group",
       lambda args, result: {"groups.automorphism_group.generators": len(result.generators)})
    for attr in ("is_strongly_transitive", "is_moufang", "check_remark_2_2",
                 "stabilizer_transitivity_degree"):
        fn("ngons.groups", attr, "groups." + attr)
    tracer.install_method(ngons.MuFunction, "__call__", "kmu.mu")
    tracer.install_method(ngons.PermGroup, "order", "groups.order")
    tracer.install_method(ngons.PermGroup, "orbit", "groups.orbit")
    # the first elements() call on a group builds its element list
    built = weakref.WeakSet()

    def materialised(args, result):
        grp = args[0]
        if grp in built:
            return {}
        built.add(grp)
        return {"groups.elements.materialised": len(result)}

    tracer.install_method(ngons.PermGroup, "elements", "groups.elements",
                          materialised)
