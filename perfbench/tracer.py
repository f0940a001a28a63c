"""Timing wrappers installed around ellipsym's layer boundaries, from outside.

``Tracer.install`` patches the package after it is imported.  Because
``hypothesis.py`` and ``cli.py`` import functions by name, each wrapped
function is replaced in every ellipsym module that binds it;
``HarmonicBasis.evaluate`` and the ``NullLaw`` constructors are patched on
their classes.

Spans are folded into totals as they close: per layer the number of spans,
their total time and their self time (total minus the direct child spans
on the same thread), and per (layer, parent layer) pair the number of
spans.  Each thread keeps its own span stack, so replicates running on
the resampling pool nest under their own generate/statistic span; totals
are updated under a lock.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import threading
import time

#: (defining module, function name) -> layer name
FUNCTION_LAYERS = {
    ("cli", "read_table"): "cli.read",
    ("cli", "_numeric_matrix"): "cli.parse",
    ("estimators", "validate_sample"): "estimators.validate",
    ("estimators", "sample_cov"): "estimators.cov",
    ("estimators", "tyler_scatter"): "estimators.tyler",
    ("linalg", "sym_sqrt"): "linalg.root",
    ("linalg", "sym_inv_sqrt"): "linalg.root",
    ("linalg", "gram_schmidt_root"): "linalg.root",
    ("harmonics", "build_basis"): "harmonics.build",
    ("resample", "run_replicates"): "resample.run",
    ("distributions", "pvalue"): "distributions.pvalue",
    ("hypothesis", "ks_test"): "hypothesis.ks",
    ("hypothesis", "mpq_test"): "hypothesis.mpq",
    ("hypothesis", "schott_test"): "hypothesis.schott",
    ("hypothesis", "huffer_park_test"): "hypothesis.hp",
    ("hypothesis", "pseudo_gaussian_test"): "hypothesis.pg",
    ("hypothesis", "skew_optimal_test"): "hypothesis.so",
}


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._reset()

    def _reset(self) -> None:
        self.layers: dict = {}  # name -> [spans, total_s, self_s]
        self.pairs: dict = {}  # "name<parent" -> spans
        self.counts: dict = {}  # name -> number

    def take(self) -> dict:
        """Everything recorded since the last take, as JSON-ready data."""
        with self._lock:
            out = {"layers": self.layers, "pairs": self.pairs, "counts": self.counts}
            self._reset()
        return out

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn):
        """``fn`` wrapped so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [name, 0.0]  # layer, time covered by direct children
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    acc = self.layers.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += 1
                    acc[1] += dt
                    acc[2] += dt - frame[1]
                    key = f"{name}<{parent}"
                    self.pairs[key] = self.pairs.get(key, 0) + 1

        return wrapper

    # -- layer-specific wrappers -------------------------------------------

    def _numeric_matrix(self, fn):
        def counted(names, rows, selection):
            self.count("cli.rows", len(rows))
            return fn(names, rows, selection)

        return self.span("cli.parse", counted)

    def _pvalue(self, fn):
        def counted(law, statistic):
            p = fn(law, statistic)
            self.count("distributions.pvalue_zero", p == 0.0)
            return p

        return self.span("distributions.pvalue", counted)

    def _run_replicates(self, fn, resolve_workers):
        def traced(plan, generate, statistic):
            workers = resolve_workers(plan.workers)
            self.count("resample.runs", 1)
            self.count("resample.replicates", plan.R)
            with self._lock:
                self.counts["resample.workers"] = max(
                    workers, self.counts.get("resample.workers", 0)
                )
            t0 = time.perf_counter()
            try:
                return fn(
                    plan,
                    self.span("resample.generate", generate),
                    self.span("resample.statistic", statistic),
                )
            finally:
                self.count("resample.capacity_s", (time.perf_counter() - t0) * workers)

        return self.span("resample.run", traced)

    def _evaluate(self, fn):
        def counted(basis, U, *args, **kwargs):
            out = fn(basis, U, *args, **kwargs)
            self.count("harmonics.eval_points", out.shape[0] if out.ndim == 2 else 1)
            return out

        return self.span("harmonics.eval", counted)

    def install(self) -> None:
        """Wrap the layer boundaries of the imported ellipsym package."""
        import ellipsym

        modules = [ellipsym] + [
            importlib.import_module(f"ellipsym.{info.name}")
            for info in pkgutil.iter_modules(ellipsym.__path__)
        ]
        resample = importlib.import_module("ellipsym.resample")
        special = {
            "_numeric_matrix": self._numeric_matrix,
            "pvalue": self._pvalue,
            "run_replicates": lambda fn: self._run_replicates(
                fn, resample.resolve_workers
            ),
        }
        for (home, attr), layer in FUNCTION_LAYERS.items():
            original = getattr(importlib.import_module(f"ellipsym.{home}"), attr)
            make = special.get(attr, lambda fn, layer=layer: self.span(layer, fn))
            wrapped = make(original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

        harmonics = importlib.import_module("ellipsym.harmonics")
        cls = harmonics.HarmonicBasis
        cls.evaluate = self._evaluate(cls.evaluate)
        law = importlib.import_module("ellipsym.distributions").NullLaw
        for kind in ("bootstrap", "monte_carlo"):
            original = law.__dict__[kind].__func__
            setattr(law, kind, staticmethod(self.span("distributions.nulllaw", original)))


def merge(total: dict, part: dict) -> dict:
    """Add the recording ``part`` into ``total`` (both as from ``take``)."""
    for name, (spans, tot, own) in part["layers"].items():
        acc = total["layers"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += spans
        acc[1] += tot
        acc[2] += own
    for key, value in part["pairs"].items():
        total["pairs"][key] = total["pairs"].get(key, 0) + value
    for key, value in part["counts"].items():
        if key == "resample.workers":
            total["counts"][key] = max(value, total["counts"].get(key, 0))
        else:
            total["counts"][key] = total["counts"].get(key, 0) + value
    return total


def empty() -> dict:
    return {"layers": {}, "pairs": {}, "counts": {}}
