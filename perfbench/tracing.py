"""In-memory span tracer and the wrappers that attach it to chorddiv.

Only the traced run installs anything. Every wrapper is built from public
names and sits at a layer boundary, outside the library:

* generators -- a ``Generator`` rebuilt around wrapped ``fn``/``grad_fn``,
  whose ``point`` is wrapped too, and ``restrict_to_line`` as the bregman
  module holds it;
* divergence -- every callable that ``resolve_divergence`` returns, with the
  resolution itself as the registry span;
* numerics -- ``golden_minimize`` as clustering and numerics (for
  ``coordinate_minimize``) hold it, ``sweep`` as the CLI holds it;
* clustering -- ``kmeans`` as the CLI holds it;
* cli -- ``chorddiv.cli.main``.

A span records its duration and adds it to its parent's child time, so self
time is the duration minus the time covered by direct children. A span
opened while a span of the same name is already open (the registry resolving
the inner id of ``biskew:``, say) is not recorded separately: its time stays
in the outer span. Spans are aggregated per operation in memory and written
out when the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections import defaultdict

# (module, attribute) pairs the wrappers replace, as the callers hold them.
RESOLVE_HOLDERS = ("chorddiv.registry", "chorddiv.clustering", "chorddiv.cli")
SPAN_TARGETS = (
    ("chorddiv.bregman", "restrict_to_line", "generators.restrict"),
    ("chorddiv.clustering", "golden_minimize", "numerics.golden"),
    ("chorddiv.numerics", "golden_minimize", "numerics.golden"),
    ("chorddiv.cli", "sweep", "numerics.sweep"),
)


def metric_key(div_id: str) -> str:
    """Divergence id as it appears inside a metric name."""
    return div_id.replace(":", "-")


class Tracer:
    """Span and counter store for one traced run.

    Spans are recorded only between ``begin_op`` and ``end_op``; outside an
    operation every wrapper is a plain pass-through.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.op = -1
        self._stack = []          # frames: [name, start, child_time]
        self._open = set()
        self._fn_args = set()
        self.per_op = []          # op index -> {span name: [calls, total, self]}
        self.counts = defaultdict(float)
        self.absent = []

    # -- operations ---------------------------------------------------------
    def begin_op(self) -> None:
        self.op += 1
        self.per_op.append(defaultdict(lambda: [0, 0.0, 0.0]))
        self._fn_args.clear()
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.counts["generators.fn.distinct"] += len(self._fn_args)
        self._fn_args.clear()

    # -- spans --------------------------------------------------------------
    def enter(self, name: str) -> bool:
        """Open a span; False when it is not recorded (inactive or nested)."""
        if not self.active or name in self._open:
            return False
        self._open.add(name)
        self._stack.append([name, self.clock(), 0.0])
        return True

    def exit(self, label: str = "") -> None:
        """Close the innermost span."""
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self._open.discard(name)
        if self._stack:
            self._stack[-1][2] += dur
        self._record(name, dur, dur - child)
        if label:
            self._record(f"{name}.{label}", dur, dur - child)
        if name == "divergence":
            if "numerics.golden" in self._open:
                self.counts["numerics.golden.div_calls"] += 1
            elif "clustering.kmeans" in self._open:
                self.counts["clustering.pairwise.div_calls"] += 1
                self.counts["clustering.pairwise.s"] += dur
        elif name == "numerics.golden" and "clustering.kmeans" in self._open:
            self.counts["clustering.centroid.s"] += dur

    def _record(self, name: str, dur: float, self_time: float) -> None:
        row = self.per_op[self.op][name]
        row[0] += 1
        row[1] += dur
        row[2] += self_time

    def totals(self) -> dict:
        """Span name -> [calls, total seconds, self seconds] over all ops."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for spans in self.per_op:
            for name, (calls, total, self_time) in spans.items():
                row = out[name]
                row[0] += calls
                row[1] += total
                row[2] += self_time
        return dict(out)

    def fn_calls(self, ops: slice) -> int:
        """Generator F evaluations recorded in the operations ``ops``."""
        return sum(spans["generators.fn"][0]
                   for spans in self.per_op[ops] if "generators.fn" in spans)

    def wrap(self, name: str, fn, label: str = "", on_result=None):
        """``fn`` inside a span named ``name``; ``on_result`` sees the result
        of each recorded call."""
        def traced(*args, **kwargs):
            if not self.enter(name):
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(label)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def note_fn_arg(self, theta) -> None:
        if self.active:
            self._fn_args.add(theta.tobytes())

    def write(self, path: str) -> None:
        """Write the per-operation span aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, spans in enumerate(self.per_op):
                fh.write(json.dumps({"op": op, "spans": spans}) + "\n")


# -- wrappers ------------------------------------------------------------------

def traced_generator(tracer: Tracer, G):
    """Rebuild a Generator with wrapped ``fn``, ``grad_fn`` and ``point``.

    A generator that is no longer a dataclass is returned untraced and
    reported absent.
    """
    if not dataclasses.is_dataclass(G):
        if "chorddiv.Generator" not in tracer.absent:
            tracer.absent.append("chorddiv.Generator")
        return G
    cls = type(G)
    wrapped_fn = tracer.wrap("generators.fn", G.fn)

    def fn(theta):
        tracer.note_fn_arg(theta)
        return wrapped_fn(theta)

    class TracedGenerator(cls):
        def point(self, theta):
            if not tracer.enter("generators.point"):
                return super().point(theta)
            try:
                return super().point(theta)
            finally:
                tracer.exit()

    fields = {f.name: getattr(G, f.name)
              for f in dataclasses.fields(G) if f.init}
    fields["fn"] = fn
    if G.grad_fn is not None:
        fields["grad_fn"] = tracer.wrap("generators.grad", G.grad_fn)
    return TracedGenerator(**fields)


def traced_resolve(tracer: Tracer, resolve):
    """``resolve_divergence`` whose results are traced divergence callables."""
    def resolve_traced(div_id, *args, **kwargs):
        D = tracer.wrap("registry.resolve", resolve)(div_id, *args, **kwargs)
        return tracer.wrap("divergence", D, label=metric_key(div_id))
    return resolve_traced


def install(tracer: Tracer, on_kmeans=None):
    """Install every wrapper; returns a function that removes them.

    A target missing from the library is listed in ``tracer.absent`` and
    skipped, so a later change that removes a layer does not break the run.
    """
    saved = []

    def patch(module_name: str, attr: str, make) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            tracer.absent.append(f"{module_name}.{attr}")
            return
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    for holder in RESOLVE_HOLDERS:
        patch(holder, "resolve_divergence",
              lambda orig: traced_resolve(tracer, orig))
    for module_name, attr, span in SPAN_TARGETS:
        patch(module_name, attr,
              lambda orig, span=span: tracer.wrap(span, orig))
    patch("chorddiv.cli", "kmeans",
          lambda orig: tracer.wrap("clustering.kmeans", orig,
                                   on_result=on_kmeans))
    patch("chorddiv.cli", "make_builtin",
          lambda orig: lambda *a, **k: traced_generator(tracer, orig(*a, **k)))
    patch("chorddiv.cli", "main", lambda orig: tracer.wrap("cli.main", orig))

    def uninstall() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return uninstall


# -- per-layer metrics ---------------------------------------------------------

def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", "div_calls", ".iterations", "_targets")):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".per_op"):
        return "1/op"
    if name.endswith("golden_per_update"):
        return "1/update"
    if name.endswith("bytes_written"):
        return "B"
    return "ratio"


def layer_metrics(tracer: Tracer, ops: int, div_ids, extra: dict) -> dict:
    """Per-layer values from a finished traced run.

    ``extra`` carries what the caller measured itself: ``iterations`` and
    ``updates`` (sum of iterations x k x d) from k-means results and
    ``bytes_written``. The two ``trace.*_ratio`` entries are placeholders
    that the caller fills in after further passes.
    """
    t = tracer.totals()
    c = tracer.counts

    def calls(name):
        return t[name][0] if name in t else 0

    def total(name):
        return t[name][1] if name in t else 0.0

    def self_s(name):
        return t[name][2] if name in t else 0.0

    per_op = 1.0 / ops
    fn_calls = calls("generators.fn")
    kmeans_s = total("clustering.kmeans")
    updates = extra.get("updates", 0)
    m = {
        "generators.point.calls": calls("generators.point"),
        "generators.point.self_s": self_s("generators.point"),
        "generators.point.per_op": calls("generators.point") * per_op,
        "generators.fn.calls": fn_calls,
        "generators.fn.self_s": self_s("generators.fn"),
        "generators.fn.per_op": fn_calls * per_op,
        "generators.fn.distinct_ratio":
            c["generators.fn.distinct"] / fn_calls if fn_calls else 0.0,
        "generators.grad.calls": calls("generators.grad"),
        "generators.grad.self_s": self_s("generators.grad"),
        "generators.restrict.calls": calls("generators.restrict"),
        "generators.restrict.self_s": self_s("generators.restrict"),
        "divergence.calls": calls("divergence"),
        "divergence.self_s": self_s("divergence"),
    }
    for div_id in div_ids:
        key = f"divergence.{metric_key(div_id)}"
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.self_s"] = self_s(key)
    m.update({
        "registry.resolve.calls": calls("registry.resolve"),
        "registry.resolve.self_s": self_s("registry.resolve"),
        "numerics.sweep.calls": calls("numerics.sweep"),
        "numerics.sweep.self_s": self_s("numerics.sweep"),
        "numerics.golden.calls": calls("numerics.golden"),
        "numerics.golden.self_s": self_s("numerics.golden"),
        "numerics.golden.div_calls": int(c["numerics.golden.div_calls"]),
        "clustering.kmeans.s": kmeans_s,
        "clustering.iterations": extra.get("iterations", 0),
        "clustering.centroid.golden_per_update":
            calls("numerics.golden") / updates if updates else 0.0,
        "clustering.centroid.s": c["clustering.centroid.s"],
        "clustering.centroid.share":
            c["clustering.centroid.s"] / kmeans_s if kmeans_s else 0.0,
        "clustering.pairwise.div_calls":
            int(c["clustering.pairwise.div_calls"]),
        "clustering.pairwise.s": c["clustering.pairwise.s"],
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": extra.get("bytes_written", 0),
        "trace.overhead_ratio": 0.0,
        "trace.absent_targets": len(tracer.absent),
        "trace.replay_fn_ratio": 0.0,
    })
    return m
