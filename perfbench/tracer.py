"""Span tracing of logcavity from outside the package.

`Tracer.install()` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that records
a span: its key (`module.qualname`), the span that called it, the operation
it belongs to, its start, its duration and the time its child spans took.
The wrapper goes into every logcavity namespace that bound the original, so
names brought in with `from ... import` are traced too. `restore()` puts
every original back.

Generator functions (`Poset.extensions`) get one span per pass, whose
duration is the time spent inside the generator; that time is charged as
child time to whichever span resumed it, so self times still sum to the
time of the root spans.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

TRACED_MODULES = (
    "linalg",
    "matroids",
    "polynomials",
    "posets",
    "discriminants",
    "stanley",
    "hodge",
    "cli",
)

# Elimination entry points; linalg.entries_in counts rows x cols of the
# matrices entering them, once per outermost call.
ELIMINATIONS = frozenset(
    "linalg." + name
    for name in (
        "row_space_basis_indices",
        "kernel_basis",
        "inertia",
        "det",
        "rank_of_matrix",
        "rref",
        "solve",
    )
)


class Span:
    __slots__ = ("key", "module", "parent", "op", "start", "dur", "child")

    def __init__(self, key, module, parent, op, start):
        self.key = key
        self.module = module
        self.parent = parent
        self.op = op
        self.start = start
        self.dur = 0.0
        self.child = 0.0

    @property
    def self_time(self):
        return self.dur - self.child


def _graded_evaluation_key(args, kwargs):
    m, k = args[0], args[1]
    rows = args[2] if len(args) > 2 else kwargs.get("rows", "independent")
    return (m.ground, m.bases, k, rows)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self._distinct = set()
        self._saved = []
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def targets(self):
        """(module name, owner, attribute, original function, key)."""
        out = []
        for name in TRACED_MODULES:
            mod = importlib.import_module(f"logcavity.{name}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((name, mod, attr, obj, f"{name}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in sorted(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if inspect.isfunction(fn):
                            key = f"{name}.{attr}.{meth}"
                            out.append((name, obj, meth, raw, key))
        return out

    def install(self):
        namespaces = [
            m
            for n, m in sorted(sys.modules.items())
            if n == "logcavity" or n.startswith("logcavity.")
        ]
        for module, owner, attr, raw, key in self.targets():
            if isinstance(raw, staticmethod):
                self._replace(owner, attr, staticmethod(self.wrap(key, module, raw.__func__)))
                continue
            wrapped = self.wrap(key, module, raw)
            if inspect.isclass(owner):
                self._replace(owner, attr, wrapped)
                continue
            for ns in namespaces:
                if vars(ns).get(attr) is raw:
                    self._replace(ns, attr, wrapped)

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _open(self, key, module):
        parent = self.stack[-1] if self.stack else None
        span = Span(key, module, parent, self.op, time.perf_counter() - self._t0)
        self.spans.append(span)
        return span

    def wrap(self, key, module, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, module, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key + ".calls"] += 1
            tracer._before(key, args, kwargs)
            span = tracer._open(key, module)
            tracer.stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = time.perf_counter() - t0
                tracer.stack.pop()
                if span.parent is not None:
                    span.parent.child += span.dur
            if key == "matroids.Matroid.independent_subsets":
                tracer.counts[key + ".yielded"] += len(result)
            return result

        return wrapper

    def _wrap_generator(self, key, module, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key + ".passes"] += 1
            return tracer._traced_pass(key, module, fn(*args, **kwargs))

        return wrapper

    def _traced_pass(self, key, module, gen):
        span = self._open(key, module)
        while True:
            resumer = self.stack[-1] if self.stack else None
            self.stack.append(span)
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                span.dur += dt
                if resumer is not None:
                    resumer.child += dt
            self.counts[key + ".yielded"] += 1
            yield item

    def _before(self, key, args, kwargs):
        if key in ELIMINATIONS:
            parent = self.stack[-1] if self.stack else None
            if parent is None or parent.key not in ELIMINATIONS:
                self.counts["linalg.entries_in"] += args[0].rows * args[0].cols
        elif key == "hodge.graded_evaluation":
            ident = _graded_evaluation_key(args, kwargs)
            if ident not in self._distinct:
                self._distinct.add(ident)
                self.counts[key + ".distinct"] += 1

    def run_op(self, fn):
        """Run one operation; its root span is the wrapped `cli.main`.
        Distinct counts are per operation."""
        self.op += 1
        self._distinct = set()
        return fn()

    # -- summaries --------------------------------------------------------

    def inclusive(self):
        """Inclusive seconds per key, counting only the outermost span of a
        key on each call chain."""
        total = Counter()
        for span in self.spans:
            up = span.parent
            while up is not None and up.key != span.key:
                up = up.parent
            if up is None:
                total[span.key] += span.dur
        return total

    def self_times(self):
        total = Counter()
        for span in self.spans:
            total[span.module] += span.self_time
        return total

    def root_time(self):
        return sum(s.dur for s in self.spans if s.parent is None)

    def write(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "parent": ids[id(s.parent)] if s.parent is not None else None,
                    "op": s.op,
                    "key": s.key,
                    "start": round(s.start, 9),
                    "dur": round(s.dur, 9),
                    "child": round(s.child, 9),
                }
                fh.write(json.dumps(row) + "\n")
