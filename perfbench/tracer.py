"""Span tracer that wraps signolearn's public functions from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded signolearn module that binds it (for a method, on its class), and
`restore()` puts the originals back. Every call records a span
`[name, start, end, parent]` in memory plus a call count; some layers also
count the work their results report (L-BFGS iterations, Adam epochs, rows).
A layer's self time is its spans' duration minus the part their child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


def _lbfgs_wrap_objective(tracer: "Tracer", args: tuple, kwargs: dict):
    # regressor hands lbfgs_minimize a closure over its data; its calls are
    # the objective evaluations, so they get their own span
    if args:
        args = (tracer.span("regressor.objective", args[0]),) + args[1:]
    else:
        kwargs = dict(kwargs, fun=tracer.span("regressor.objective", kwargs["fun"]))
    return args, kwargs


def _lbfgs_counts(counts: Counter, result) -> None:
    counts["optim.lbfgs_minimize.iterations"] += result.iterations
    counts["optim.lbfgs_minimize.evals"] += result.n_evals
    counts["optim.lbfgs_minimize.unconverged"] += int(not result.converged)


def _fit_sr_counts(counts: Counter, result) -> None:
    _, stats = result
    counts["regressor.fit_sr.restarts"] += stats.restarts
    counts["regressor.fit_sr.restarts_diverged"] += sum(
        1 for loss in stats.stage_a_losses if not math.isfinite(loss)
    )


def _classifier_fit_counts(counts: Counter, result) -> None:
    _, trace = result
    counts["classifier.fit.epochs"] += len(trace.epochs)


def _batch_rows(counts: Counter, result) -> None:
    counts["classifier.predict_proba_batch.rows"] += len(result)


@dataclass(frozen=True)
class Layer:
    """One traced boundary: `attr` is a function name or `Class.method`."""

    module: str
    attr: str
    before: Callable | None = None
    after: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("optim", "lbfgs_minimize", before=_lbfgs_wrap_objective, after=_lbfgs_counts),
    Layer("optim", "adam_step"),
    Layer("optim", "prox_l1"),
    Layer("regressor", "fit_sr", after=_fit_sr_counts),
    Layer("regressor", "generate_benchmark_data"),
    Layer("regressor", "score_fit"),
    Layer("regressor", "evaluate_recovery"),
    Layer("signomial", "canonicalize"),
    Layer("signomial", "equivalent"),
    Layer("signomial", "evaluate"),
    Layer("classifier", "fit", after=_classifier_fit_counts),
    Layer("classifier", "predict_proba"),
    Layer("classifier", "predict_proba_batch", after=_batch_rows),
    Layer("explain", "build_report"),
    Layer("explain", "elasticity"),
    Layer("explain", "counterfactual_scale"),
    Layer("data_io", "load_csv"),
    Layer("data_io", "split"),
    Layer("data_io", "write_json_atomic"),
    Layer("data_io", "Scaler.transform"),
    Layer("cli", "main"),
)


def _package_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "signolearn" or name.startswith("signolearn."))
    ]


class Tracer:
    """Records spans and counts while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            counts[calls] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, out)
            return out

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for layer in LAYERS:
            owner = importlib.import_module(f"signolearn.{layer.module}")
            *cls_path, attr = layer.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr] if cls_path else getattr(owner, attr)
            wrapper = self.span(layer.name, original, layer.before, layer.after)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> list[str]:
        """Put every original back; returns the names that did not restore."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner)[attr] is not original
        ]
        self._patched.clear()
        return stale

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        stale = self.restore()
        if stale:
            raise RuntimeError(f"tracer left wrappers in place: {stale}")

    def summary(self) -> dict[str, float]:
        """Counts plus `<layer>.self_s` for every layer that ran."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = dict(self.counts)
        for (name, start, end, _), child in zip(self.spans, covered):
            key = f"{name}.self_s"
            out[key] = out.get(key, 0.0) + (end - start) - child
        return out
