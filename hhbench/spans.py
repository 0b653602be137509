"""Span tracing of hhmat's public functions from outside the package.

hhmat modules bind names with ``from .matcore import eig`` and the like, so
wrapping ``matcore.eig`` alone would miss the calls made from ``segquad``,
``hhcheck``, ``orders`` and ``plmaps``.  ``Tracer.installed`` therefore
rebinds every attribute of every loaded ``hhmat`` module that refers to a
traced function, and wraps ``ScalarFunction.eval_array`` and each
``PositiveLinearMap`` subclass's ``apply`` on the class.  Leaving the
context restores every original binding.

Spans are kept in memory, one list per trial, and aggregated into
per-trial metrics by ``layer_metrics``.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import time
from dataclasses import dataclass, field

# (span name, module, attribute) for module-level functions.  The private
# ``segquad._gauss_pass`` is traced only to tell the accepted quadrature
# pass from the discarded ones.
FUNCTION_TARGETS = (
    ("harness.generate_instance", "hhmat.harness", "generate_instance"),
    ("harness.run_instance", "hhmat.harness", "run_instance"),
    ("segquad.segment_integral", "hhmat.segquad", "segment_integral"),
    ("segquad.pass", "hhmat.segquad", "_gauss_pass"),
    ("matcore.eig", "hhmat.matcore", "eig"),
    ("matcore.apply_function", "hhmat.matcore", "apply_function"),
    ("matcore.ui_norm", "hhmat.matcore", "ui_norm"),
    ("matcore.matrix_from_json", "hhmat.matcore", "matrix_from_json"),
    ("hhcheck.mond_pecaric_alpha", "hhmat.hhcheck", "mond_pecaric_alpha"),
    ("plmaps.unitality_status", "hhmat.plmaps", "unitality_status"),
    ("plmaps.map_from_json", "hhmat.plmaps", "map_from_json"),
    ("orders", "hhmat.orders", "loewner_leq"),
    ("orders", "hhmat.orders", "eigen_dominance"),
    ("orders", "hhmat.orders", "weak_majorization"),
    ("orders", "hhmat.orders", "unitary_witness"),
)
CHECKER_PREFIX = "check_"  # every hhcheck.check_* function is a "hhcheck.check" span


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0
    nodes: int = 0  # apply_function calls inside a segment_integral or pass span
    passes: list = field(default_factory=list)  # pass spans of a segment_integral

    @property
    def duration_s(self) -> float:
        return self.end - self.start


@dataclass
class TrialTrace:
    index: int
    root: Span
    spans: list = field(default_factory=list)
    eig_repeats: int = 0
    entries: int = 0  # matrix_from_json entries parsed
    points: int = 0  # eval_array points evaluated
    seen_eig: set = field(default_factory=set)


class Tracer:
    """Collects spans for traced trials; see the module docstring."""

    def __init__(self):
        self.trials: list[TrialTrace] = []
        self.missing: set[str] = set()
        self._current: TrialTrace | None = None
        self._stack: list[Span] = []

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, self._stack[-1] if self._stack else None)
        self._current.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration_s

    def _innermost(self, name: str) -> Span | None:
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    def _note(self, name: str, args):
        trial = self._current
        if name == "matcore.eig":
            key = hashlib.blake2b(args[0].entries.tobytes(), digest_size=16).digest()
            if key in trial.seen_eig:
                trial.eig_repeats += 1
            trial.seen_eig.add(key)
        elif name == "matcore.apply_function":
            for outer in ("segquad.segment_integral", "segquad.pass"):
                span = self._innermost(outer)
                if span is not None:
                    span.nodes += 1
        elif name == "matcore.matrix_from_json":
            obj = args[0]
            n = int(obj["n"])
            trial.entries += n * n * (2 if obj.get("im") is not None else 1)
        elif name == "funcat.eval_array":
            trial.points += int(getattr(args[1], "size", len(args[1])))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._current is None:
                return fn(*args, **kwargs)
            tracer._note(name, args)
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if name == "segquad.pass":
                    outer = tracer._innermost("segquad.segment_integral")
                    if outer is not None:
                        outer.passes.append(span)

        return traced

    # -- installation --------------------------------------------------------

    def _targets(self):
        """Yield (span name, owner, attribute, original) for every target
        that exists; record the names of the ones that do not."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "hhmat" or name.startswith("hhmat.")}
        for span_name, mod_name, attr in FUNCTION_TARGETS:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(span_name)
                continue
            yield span_name, None, attr, fn
        hhcheck = modules.get("hhmat.hhcheck")
        checkers = [(attr, fn) for attr, fn in vars(hhcheck or object).items()
                    if attr.startswith(CHECKER_PREFIX)
                    and getattr(fn, "__module__", None) == "hhmat.hhcheck"]
        if not checkers:
            self.missing.add("hhcheck.check")
        for attr, fn in checkers:
            yield "hhcheck.check", None, attr, fn
        funcat = modules.get("hhmat.funcat")
        cls = getattr(funcat, "ScalarFunction", None)
        if cls is None or "eval_array" not in vars(cls):
            self.missing.add("funcat.eval_array")
        else:
            yield "funcat.eval_array", cls, "eval_array", vars(cls)["eval_array"]
        base = getattr(modules.get("hhmat.plmaps"), "PositiveLinearMap", None)
        subclasses = _all_subclasses(base) if base is not None else []
        applies = [c for c in subclasses if "apply" in vars(c)]
        if not applies:
            self.missing.add("plmaps.apply")
        for c in applies:
            yield "plmaps.apply", c, "apply", vars(c)["apply"]

    @contextlib.contextmanager
    def installed(self):
        """Rebind every import site of every target to a tracing wrapper."""
        undo = []
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "hhmat" or name.startswith("hhmat.")]
        try:
            for span_name, owner, attr, fn in list(self._targets()):
                wrapper = self._wrap(span_name, fn)
                if owner is not None:
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def trial(self, index: int):
        """Trace one trial; the root span covers the whole trial."""
        root = Span("trial", 0.0, None)
        self._current = TrialTrace(index, root, [root])
        self._stack = [root]
        self.trials.append(self._current)
        root.start = time.perf_counter()
        try:
            yield self._current
        finally:
            root.end = time.perf_counter()
            self._current = None
            self._stack = []


def _all_subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


# -- aggregation ---------------------------------------------------------------

def self_s(span: Span) -> float:
    return span.duration_s - span.child_s


def _has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


@dataclass
class NameTotals:
    calls: int = 0
    ms: float = 0.0  # time inside; nested calls of the same name count once
    self_ms: float = 0.0


def totals(trials: list[TrialTrace]) -> dict[str, NameTotals]:
    out: dict[str, NameTotals] = {}
    for trial in trials:
        for span in trial.spans[1:]:
            t = out.setdefault(span.name, NameTotals())
            t.calls += 1
            t.self_ms += 1e3 * self_s(span)
            if not _has_ancestor(span, span.name):
                t.ms += 1e3 * span.duration_s
    return out


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, dict]:
    """Per-trial metrics of the traced trials.

    ``untraced_s`` is the summed untraced time of the same trials, the
    base of ``trace.overhead_share``.  Metrics whose functions no longer
    exist are reported with value None and ``missing: true``.
    """
    trials = tracer.trials
    count = len(trials)
    tot = totals(trials)

    def get(name: str) -> NameTotals:
        return tot.get(name, NameTotals())

    integrals = [s for t in trials for s in t.spans if s.name == "segquad.segment_integral"]
    evaluated = sum(s.nodes for s in integrals)
    kept = sum(s.passes[-1].nodes for s in integrals if s.passes)
    eig = get("matcore.eig")
    traced_s = sum(t.root.duration_s for t in trials)

    table = [
        # name, unit, needs, value
        ("segquad.segment_integral.calls", "count", ["segquad.segment_integral"],
         get("segquad.segment_integral").calls / count),
        ("segquad.segment_integral.ms", "ms", ["segquad.segment_integral"],
         get("segquad.segment_integral").ms / count),
        ("segquad.segment_integral.self_ms", "ms", ["segquad.segment_integral"],
         get("segquad.segment_integral").self_ms / count),
        ("segquad.segment_integral.nodes", "count",
         ["segquad.segment_integral", "matcore.apply_function"], evaluated / count),
        # With no node evaluated, none was discarded.
        ("segquad.kept_node_share", "share",
         ["segquad.segment_integral", "segquad.pass", "matcore.apply_function"],
         kept / evaluated if evaluated else 1.0),
        ("matcore.eig.calls", "count", ["matcore.eig"], eig.calls / count),
        ("matcore.eig.self_ms", "ms", ["matcore.eig"], eig.self_ms / count),
        ("matcore.eig.repeat_share", "share", ["matcore.eig"],
         sum(t.eig_repeats for t in trials) / eig.calls if eig.calls else 0.0),
        ("matcore.apply_function.calls", "count", ["matcore.apply_function"],
         get("matcore.apply_function").calls / count),
        ("matcore.apply_function.self_ms", "ms", ["matcore.apply_function"],
         get("matcore.apply_function").self_ms / count),
        ("matcore.ui_norm.calls", "count", ["matcore.ui_norm"],
         get("matcore.ui_norm").calls / count),
        ("matcore.ui_norm.self_ms", "ms", ["matcore.ui_norm"],
         get("matcore.ui_norm").self_ms / count),
        ("matcore.matrix_from_json.ms", "ms", ["matcore.matrix_from_json"],
         get("matcore.matrix_from_json").ms / count),
        ("matcore.matrix_from_json.entries", "count", ["matcore.matrix_from_json"],
         sum(t.entries for t in trials) / count),
        ("harness.generate_instance.ms", "ms", ["harness.generate_instance"],
         get("harness.generate_instance").ms / count),
        ("harness.run_instance.self_ms", "ms", ["harness.run_instance"],
         get("harness.run_instance").self_ms / count),
        ("funcat.eval_array.calls", "count", ["funcat.eval_array"],
         get("funcat.eval_array").calls / count),
        ("funcat.eval_array.points", "count", ["funcat.eval_array"],
         sum(t.points for t in trials) / count),
        ("funcat.eval_array.ms", "ms", ["funcat.eval_array"],
         get("funcat.eval_array").ms / count),
        ("hhcheck.mond_pecaric_alpha.ms", "ms", ["hhcheck.mond_pecaric_alpha"],
         get("hhcheck.mond_pecaric_alpha").ms / count),
        ("hhcheck.check.self_ms", "ms", ["hhcheck.check"],
         get("hhcheck.check").self_ms / count),
        ("plmaps.apply.calls", "count", ["plmaps.apply"], get("plmaps.apply").calls / count),
        ("plmaps.apply.ms", "ms", ["plmaps.apply"], get("plmaps.apply").ms / count),
        ("plmaps.unitality_status.ms", "ms", ["plmaps.unitality_status"],
         get("plmaps.unitality_status").ms / count),
        ("plmaps.map_from_json.ms", "ms", ["plmaps.map_from_json"],
         get("plmaps.map_from_json").ms / count),
        ("orders.calls", "count", ["orders"], get("orders").calls / count),
        ("orders.self_ms", "ms", ["orders"], get("orders").self_ms / count),
        ("trace.traced_trial_ms", "ms", [], 1e3 * traced_s / count),
        ("trace.untraced_trial_ms", "ms", [], 1e3 * untraced_s / count),
        ("trace.overhead_share", "share", [], (traced_s - untraced_s) / untraced_s),
    ]
    out = {}
    for name, unit, needs, value in table:
        if any(n in tracer.missing for n in needs):
            out[name] = {"value": None, "unit": unit, "missing": True}
        else:
            out[name] = {"value": value, "unit": unit}
    return out
