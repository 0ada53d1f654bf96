"""Outside-in tracing of crsphere: spans around the public calls into each module.

The tracer wraps functions and methods of the ``crsphere`` modules while it is
installed and restores the originals when it is removed, so untraced ops run
the program's own code unchanged.  Spans are kept in memory as
``(id, name, start, end, parent, op, thread, info)`` records.  The span stack
is kept per thread; work that ``crsphere.certify`` hands to its thread pool is
parented to the span that submitted it, so pool threads never borrow another
thread's stack.  Self time is a span's duration minus the union of its
children's intervals, which stays non-negative when children run in parallel.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

# (span name, module, attribute path, note) -- note(args, result) -> dict | None
# keeps the few facts a metric needs from a call's arguments or result.
_SPANS = (
    ("cli.main", "crsphere.cli", "main", None),
    ("catalog.verify_ar_identity", "crsphere.catalog", "verify_ar_identity", None),
    ("certify.sample_sphere", "crsphere.certify", "sample_sphere", None),
    ("certify.sweep", "crsphere.certify", "sweep", None),
    ("certify.multistart_minimize", "crsphere.certify", "multistart_minimize", None),
    (
        "certify.local_minimize", "crsphere.certify", "local_minimize",
        lambda args, res: {"unconverged": int(not res.converged)},
    ),
    ("certify.ar_determinant_profile", "crsphere.certify", "ar_determinant_profile", None),
    (
        "verifier.matrix_many", "crsphere.verifier", "IndependenceEvaluator.matrix_many",
        lambda args, res: {"points": len(res)},
    ),
    (
        "verifier.singular_values_many", "crsphere.verifier",
        "IndependenceEvaluator.singular_values_many", None,
    ),
    (
        "verifier.equivalence_check_many", "crsphere.verifier", "equivalence_check_many",
        lambda args, res: {
            "points": len(res), "disagreements": sum(not r.agree for r in res),
        },
    ),
    ("verifier.point_report", "crsphere.verifier", "point_report", None),
    ("verifier.wedge_nonzero", "crsphere.verifier", "wedge_nonzero", None),
    ("verifier.defining_functions", "crsphere.verifier", "defining_functions", None),
)

# (counter name, module, attribute path): calls counted without a span
_COUNTS = (
    ("wirtinger.eval", "crsphere.wirtinger", "WPolynomial.eval"),
    ("wirtinger.derivative", "crsphere.wirtinger", "WPolynomial.d_z"),
    ("wirtinger.derivative", "crsphere.wirtinger", "WPolynomial.d_zbar"),
)


# per-layer metrics that are counts made by the program: for one seed they
# must repeat exactly from run to run, unlike the times beside them
EXACT_COUNTS = (
    "verifier.matrix_many.calls",
    "verifier.matrix_many.points",
    "verifier.point_report.calls",
    "verifier.disagreements",
    "wirtinger.eval.calls",
    "wirtinger.derivative.calls",
    "certify.local_minimize.calls",
    "certify.nfev_per_restart",
    "certify.unconverged_ratio",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    info: dict | None


SPAN_FIELDS = [f.name for f in fields(Span)]


class Tracer:
    """Installs span and counter wrappers into the loaded crsphere modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tracer.spans.append(Span(
                sid, name, start, end, parent, tracer.op, threading.get_ident(),
                note(args, result) if note else None,
            ))
            return result

        return traced

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _executor(self):
        """A ThreadPoolExecutor whose tasks start under the submitting span."""
        tracer = self

        class ParentingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                outer = tracer._stack()
                parent = outer[-1] if outer else None

                def run_under_parent():
                    stack = tracer._stack()
                    saved = stack[:]
                    stack[:] = [] if parent is None else [parent]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack[:] = saved

                return super().submit(run_under_parent)

        return ParentingExecutor

    # -- install / remove -----------------------------------------------------

    def _replace(self, module_name: str, path: str, make) -> None:
        module = sys.modules[module_name]
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = make(original)
        if owner is not module:
            # a method: patching the class reaches every caller
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # a function: rebind every crsphere module-level name bound to it
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "crsphere" or name.startswith("crsphere.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module, path, note in _SPANS:
            self._replace(module, path, lambda fn, n=name, k=note: self._span(n, fn, k))
        for name, module, path in _COUNTS:
            self._replace(module, path, lambda fn, n=name: self._counter(n, fn))
        certify = sys.modules["crsphere.certify"]
        self._undo.append((certify, "ThreadPoolExecutor", certify.ThreadPoolExecutor))
        certify.ThreadPoolExecutor = self._executor()

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def begin_op(self, op: int) -> None:
        self.op = op
        with self._lock:
            self.counts = {}

    def end_op(self) -> dict[str, int]:
        with self._lock:
            counts, self.counts = self.counts, {}
        return counts


# -- analysis -------------------------------------------------------------------

# unit of each metric layer_metrics returns, plus the run's tracing overhead
LAYER_UNITS = {
    "cli.self_s": "s",
    "catalog.verify_ar_identity_us": "us",
    "certify.sample_sphere_s": "s",
    "certify.sweep.self_s": "s",
    "verifier.singular_values_many.self_s": "s",
    "verifier.matrix_many.calls": "count",
    "verifier.matrix_many.points": "count",
    "verifier.matrix_many.self_s": "s",
    "verifier.matrix_many.us_per_call": "us",
    "verifier.equivalence_check_many.self_s": "s",
    "verifier.equivalence.us_per_point": "us",
    "verifier.point_report.calls": "count",
    "verifier.point_report.self_s": "s",
    "verifier.wedge_nonzero.self_s": "s",
    "verifier.defining_functions_s": "s",
    "verifier.disagreements": "count",
    "wirtinger.eval.calls": "count",
    "wirtinger.derivative.calls": "count",
    "certify.local_minimize.calls": "count",
    "certify.local_minimize.self_s": "s",
    "certify.nfev_per_restart": "calls/restart",
    "certify.unconverged_ratio": "ratio",
    "certify.ar_determinant_profile_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one op, from its spans and call counts."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[s.id] for s in named(name))

    def total_s(name):
        return sum(s.end - s.start for s in named(name))

    def info_sum(name, key):
        return sum(s.info[key] for s in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    by_id = {s.id: s for s in spans}

    def under(span, ancestor_name):
        pid = span.parent
        while pid is not None:
            parent = by_id[pid]
            if parent.name == ancestor_name:
                return True
            pid = parent.parent
        return False

    mm_calls = len(named("verifier.matrix_many"))
    lm_calls = len(named("certify.local_minimize"))
    eq_points = info_sum("verifier.equivalence_check_many", "points")
    nfev = sum(
        1 for s in named("verifier.matrix_many") if under(s, "certify.local_minimize")
    )
    return {
        "cli.self_s": self_s("cli.main"),
        "catalog.verify_ar_identity_us": 1e6 * ratio(
            total_s("catalog.verify_ar_identity"),
            len(named("catalog.verify_ar_identity")),
        ),
        "certify.sample_sphere_s": total_s("certify.sample_sphere"),
        "certify.sweep.self_s": self_s("certify.sweep"),
        "verifier.singular_values_many.self_s": self_s("verifier.singular_values_many"),
        "verifier.matrix_many.calls": mm_calls,
        "verifier.matrix_many.points": info_sum("verifier.matrix_many", "points"),
        "verifier.matrix_many.self_s": self_s("verifier.matrix_many"),
        "verifier.matrix_many.us_per_call": 1e6 * ratio(
            total_s("verifier.matrix_many"), mm_calls
        ),
        "verifier.equivalence_check_many.self_s": self_s(
            "verifier.equivalence_check_many"
        ),
        "verifier.equivalence.us_per_point": 1e6 * ratio(
            total_s("verifier.equivalence_check_many"), eq_points
        ),
        "verifier.point_report.calls": len(named("verifier.point_report")),
        "verifier.point_report.self_s": self_s("verifier.point_report"),
        "verifier.wedge_nonzero.self_s": self_s("verifier.wedge_nonzero"),
        "verifier.defining_functions_s": total_s("verifier.defining_functions"),
        "verifier.disagreements": info_sum(
            "verifier.equivalence_check_many", "disagreements"
        ),
        "wirtinger.eval.calls": counts.get("wirtinger.eval", 0),
        "wirtinger.derivative.calls": counts.get("wirtinger.derivative", 0),
        "certify.local_minimize.calls": lm_calls,
        "certify.local_minimize.self_s": self_s("certify.local_minimize"),
        "certify.nfev_per_restart": ratio(nfev, lm_calls),
        "certify.unconverged_ratio": ratio(
            info_sum("certify.local_minimize", "unconverged"), lm_calls
        ),
        "certify.ar_determinant_profile_s": total_s("certify.ar_determinant_profile"),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric across ops."""
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
