"""Spans around phasekit's public functions, recorded from outside the package.

`instrumented(tracer)` replaces each function in TARGETS with a timing
wrapper at every phasekit module that binds it (cli, for one, imports
load_csv, save_csv and NeighborIndex by name, and lyapunov and dimensions
import fit_scaling_region), and puts the originals back on exit.  Spans stay
in memory; `layer_metrics` turns one pipeline's spans into per-layer numbers.
Nothing under src/ is touched.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span in Tracer.spans
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one thread; nested spans name their parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def take(self) -> list[Span]:
        """Hand over the finished spans and start an empty list."""
        if self._open:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans

    def _push(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._push(name)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """Timing wrapper for fn.  A call made while a span of the same name
        is open (canonical recursing into itself) runs unrecorded, so only
        the outermost call counts.  count(args, kwargs, result) returns
        counters stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(self.spans[i].name == name for i in self._open):
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _bytes_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _rows_indexed(args, kwargs, result):
    return {"rows": args[0].n}


def _rows_returned(args, kwargs, result):
    return {"rows_returned": len(result[0])}


def _refs_used(args, kwargs, result):
    return {"refs_used": result.n_refs}


def _steps(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 1, "steps")}


def _configs(args, kwargs, result):
    return {"evaluated": result.configs_evaluated, "gated": result.configs_gated}


# (metric prefix, phasekit module, attribute, counter hook)
TARGETS = (
    ("series.load_csv", "series", "load_csv", _bytes_read),
    ("series.save_csv", "series", "save_csv", _bytes_written),
    ("embedding.mutual_information_profile", "embedding",
     "mutual_information_profile", None),
    ("embedding.NeighborIndex.build", "embedding", "NeighborIndex.__init__",
     _rows_indexed),
    ("embedding.query_point", "embedding", "NeighborIndex.query_point", None),
    ("embedding.radius_point", "embedding", "NeighborIndex.radius_point",
     _rows_returned),
    ("dimensions.correlation_integral", "dimensions", "correlation_integral", None),
    ("dimensions.generalized_curve", "dimensions", "generalized_curve", None),
    ("fitting.fit_scaling_region", "fitting", "fit_scaling_region", None),
    ("lyapunov.wolf_lambda1", "lyapunov", "wolf_lambda1", None),
    ("lyapunov.benettin_data", "lyapunov", "benettin_data", None),
    ("lyapunov.kantz_curve", "lyapunov", "kantz_curve", _refs_used),
    ("lyapunov.rosenstein_curve", "lyapunov", "rosenstein_curve", None),
    ("lyapunov.benettin_exact", "lyapunov", "benettin_exact", _steps),
    ("identify.fit_model", "identify", "fit_model", None),
    ("identify.estimate_x0", "identify", "estimate_x0", None),
    ("identify.simulate", "identify", "simulate", None),
    ("predict.local_stability", "predict", "local_stability", None),
    ("predict.stepwise_reconstruct", "predict", "stepwise_reconstruct", _configs),
    ("systems.sample", "systems", "sample", _steps),
    ("systems.catalog", "systems", "catalog", None),
    ("contours.dft", "contours", "dft", None),
    ("contours.symmetry_between", "contours", "symmetry_between", None),
    ("cli.build_parser", "cli", "build_parser", None),
    ("cli.canonical", "cli", "canonical", None),
)


@contextmanager
def instrumented(tracer: Tracer, package: str = "phasekit"):
    """Route every binding of each TARGETS function through tracer."""
    for _, module, _, _ in TARGETS:
        importlib.import_module(f"{package}.{module}")
    modules = [m for n, m in list(sys.modules.items())
               if n == package or n.startswith(package + ".")]
    patches = []  # (owner, attribute, original)
    try:
        for name, module, attr, count in TARGETS:
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                patches.append((cls, method, original))
                setattr(cls, method, tracer.wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.duration - _covered(kids) for s, kids in zip(spans, children)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer numbers from one pipeline's spans.

    Every TARGETS entry gives calls, busy_s and self_s; a function the
    pipeline never called reads 0.  The extra counters are named after the
    quantity they sum.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def busy(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def total(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, ()))

    out = {}
    for name, _, _, _ in TARGETS:
        idx = by_name.get(name, ())
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.self_s"] = sum(selfs[i] for i in idx)

    kantz = set(by_name.get("lyapunov.kantz_curve", ()))
    refs_tried = sum(1 for i in by_name.get("embedding.radius_point", ())
                     if spans[i].parent in kantz)
    out.update({
        "series.load_csv.bytes": total("series.load_csv", "bytes"),
        "series.save_csv.bytes": total("series.save_csv", "bytes"),
        "embedding.NeighborIndex.build.rows":
            total("embedding.NeighborIndex.build", "rows"),
        "embedding.radius_point.rows_returned":
            total("embedding.radius_point", "rows_returned"),
        "fitting.fit_scaling_region.failed":
            sum(spans[i].error for i in by_name.get("fitting.fit_scaling_region", ())),
        "lyapunov.kantz_curve.refs_used_ratio":
            _ratio(total("lyapunov.kantz_curve", "refs_used"), refs_tried),
        "lyapunov.benettin_exact.steps_per_s":
            _ratio(total("lyapunov.benettin_exact", "steps"),
                   busy("lyapunov.benettin_exact")),
        "systems.sample.steps_per_s":
            _ratio(total("systems.sample", "steps"), busy("systems.sample")),
        "predict.stepwise_reconstruct.configs_gated_ratio":
            _ratio(total("predict.stepwise_reconstruct", "gated"),
                   total("predict.stepwise_reconstruct", "evaluated")),
    })
    return out
