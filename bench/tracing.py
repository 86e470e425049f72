"""Per-layer tracing from outside the library.

The tracer replaces public library functions with timing wrappers in every
module namespace that binds them (``scramble.algebra.nullspace`` and
``scramble.operator_space.nullspace`` alike), records one span per call,
and restores the originals afterwards.  A span's self time is its duration
minus the time covered by its child spans.  Spans stay in memory; the
benchmark reduces them to the per-layer metrics when the pass ends.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("operator_space", "algebra", "gaac", "haar", "dynamics", "cli")

#: Functions that get a span: (defining module, name).
SPANNED = (
    ("algebra", "build_algebra"),
    ("algebra", "algebra_closure"),
    ("algebra", "commutant"),
    ("algebra", "block_decomposition"),
    ("algebra", "verification_residuals"),
    ("operator_space", "nullspace"),
    ("operator_space", "orthonormalize"),
    ("operator_space", "haar_unitary"),
    ("gaac", "gaac"),
    ("gaac", "saturation_residual"),
    ("haar", "haar_average_mc"),
    ("dynamics", "analyze_hamiltonian"),
    ("dynamics", "time_average_exact"),
    ("dynamics", "time_average_nrc"),
    ("dynamics", "grid_time_average"),
    ("dynamics", "evolution"),
    ("dynamics", "fluctuation_scan"),
    ("dynamics", "scrambling_witness"),
    ("dynamics", "chaoticity"),
)

#: Functions that are only counted, without a span of their own.
COUNTED = (("operator_space", "gaussian_variates"),)

#: Layers whose outermost spans are reported as shares of the pass.
SHARE_LAYERS = ("algebra", "gaac", "haar", "dynamics")

CLI_COMMANDS = ("inspect", "gaac", "haar", "time-average", "chaos")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end)
        self.stack = []  # open spans: (span id, name, start)
        self.ids = itertools.count()
        self.counts = defaultdict(float)

    def open(self, name: str) -> None:
        self.stack.append((next(self.ids), name, time.perf_counter()))

    def close(self) -> None:
        end = time.perf_counter()
        sid, name, start = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append((sid, parent, name, start, end))

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def observe(self, name: str, args) -> None:
        """Counters computed from the arguments of a call."""
        if name == "operator_space.nullspace":
            rows, cols = args[0].shape
            self.counts["operator_space.nullspace.cells"] += rows * cols
            if self.inside("algebra.commutant"):
                mb = rows * cols * 16 / 1e6
                key = "algebra.commutant.stack_mb"
                self.counts[key] = max(self.counts[key], mb)
        elif name == "operator_space.gaussian_variates":
            if self.inside("algebra.block_decomposition"):
                self.counts["algebra.witness_draws"] += 1
        elif name == "haar.haar_average_mc":
            self.counts["haar.samples"] += args[1]

    def wrap(self, name: str, fn, spanned: bool):
        tracer = self

        def traced(*args, **kwargs):
            tracer.observe(name, args)
            if not spanned:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        traced.__wrapped__ = fn
        return traced

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass; ``wall_s`` is the traced pass time."""
        covered = defaultdict(float)  # time of each span covered by its children
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        root = defaultdict(float)  # outermost spans, by layer
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[sid]
            if parent is None:
                root[name.split(".")[0]] += end - start
        out = {}
        for module, fn in SPANNED:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        for key in ("operator_space.nullspace.cells", "algebra.commutant.stack_mb",
                    "algebra.witness_draws"):
            out[key] = self.counts[key]
        draws = self.counts["algebra.witness_draws"]
        decompositions = calls["algebra.block_decomposition"]
        out["algebra.witness_yield"] = decompositions / draws if draws else 0.0
        mc_s = total["haar.haar_average_mc"]
        out["haar.samples_per_s"] = self.counts["haar.samples"] / mc_s if mc_s else 0.0
        for layer in SHARE_LAYERS:
            out[f"share.{layer}"] = root[layer] / wall_s
        return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap the traced functions in every namespace that binds them."""
    package = importlib.import_module("scramble")
    namespaces = [package] + [importlib.import_module(f"scramble.{m}") for m in MODULES]
    patched = []
    for group, spanned in ((SPANNED, True), (COUNTED, False)):
        for module, fn in group:
            original = getattr(importlib.import_module(f"scramble.{module}"), fn, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{module}.{fn}", original, spanned)
            for ns in namespaces:
                if getattr(ns, fn, None) is original:
                    setattr(ns, fn, wrapper)
                    patched.append((ns, fn, original))
    try:
        yield tracer
    finally:
        for ns, fn, original in patched:
            setattr(ns, fn, original)


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for module, fn in SPANNED:
        names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s")]
    names += [
        ("operator_space.nullspace.cells", "count"),
        ("algebra.commutant.stack_mb", "MB"),
        ("algebra.witness_draws", "count"),
        ("algebra.witness_yield", "1/draw"),
        ("haar.samples_per_s", "1/s"),
    ]
    names += [(f"share.{layer}", "frac") for layer in SHARE_LAYERS]
    names += [(f"cli.{cmd}.wall_s", "s") for cmd in CLI_COMMANDS]
    names += [("cli.startup_s", "s"), ("cli.startup_share", "frac"),
              ("trace_overhead_frac", "frac")]
    return names
