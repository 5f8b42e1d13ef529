"""Per-layer wall-time tracing from outside the program.

The traced run wraps each layer's public entry point (a method on a class,
or a module-level function at every module that binds it) in a span
recorder.  Spans carry their parent's id, stay in memory while the run
goes, and are reduced at the end to per-layer call counts and self times:
a span's duration minus the time its direct child spans cover.  Each
timed operation of a workload is a root span; its own self time is the
``other`` residual, so the layers plus ``other`` sum to the wall time of
the operations.

Nothing in the program changes: :meth:`Tracer.install` patches the entry
points and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time

#: (layer name, module, entry point) -- ``Class.method`` or a function.
#: A function is re-bound wherever a loaded ``repro`` module holds it, so
#: ``model_cost`` is timed at the tuner, family and baseline call sites
#: too, and ``compile_template`` where ``machine.pipeline`` binds it.
LAYERS = (
    ("tiling.dmt", "repro.tiling.dmt", "DynamicMicroTiler.tile"),
    ("codegen", "repro.gemm.kernel_cache", "KernelCache.get"),
    ("machine.simulator", "repro.machine.simulator", "Simulator.run"),
    ("gemm.kernel_cache.capture", "repro.gemm.kernel_cache", "ReplayCache.capture"),
    ("gemm.kernel_cache.fused", "repro.gemm.kernel_cache", "ReplayCache.fused"),
    ("machine.compiled", "repro.machine.pipeline", "compile_template"),
    ("machine.pipeline.replay", "repro.machine.pipeline", "PipelineModel.replay_template"),
    ("machine.pipeline.trace", "repro.machine.pipeline", "PipelineModel.time_trace"),
    ("machine.cache.consult", "repro.machine.cache", "CacheHierarchy.consult_batch"),
    ("machine.cache.warm", "repro.machine.cache", "CacheHierarchy.warm_range"),
    ("gemm.estimator", "repro.gemm.estimator", "GemmEstimator.estimate"),
    ("tuner.prune", "repro.tuner.prune", "model_cost"),
    ("tuner.measure", "repro.tuner.tuner", "AutoTuner.measure"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS) + ("other",)
#: Modules whose import pulls in every entry point above.
_IMPORTS = ("repro.gemm", "repro.tuner.tuner", "repro.tuner.families")


class Tracer:
    """Span recorder for one process.  Spans are tuples
    ``(span_id, parent_id, layer, t0_ns, t1_ns)``; ``layer`` is an index
    into :data:`LAYER_NAMES`, and root spans use the ``other`` index."""

    OTHER = len(LAYER_NAMES) - 1

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.codegen_misses = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, layer: int, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, layer, t0, t1))

    @contextlib.contextmanager
    def op(self):
        """A root span around one timed operation of a workload."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, 0, self.OTHER, t0, t1))

    # -- patching ----------------------------------------------------------
    def _wrap(self, layer: int, fn):
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(layer, fn, args, kwargs)

        traced.perfbench_layer = LAYER_NAMES[layer]
        return traced

    def _wrap_codegen(self, layer: int, fn):
        """``KernelCache.get``, also counting misses by the cache's length."""
        call = self._call

        @functools.wraps(fn)
        def traced(cache, *args, **kwargs):
            before = len(cache)
            try:
                return call(layer, fn, (cache, *args), kwargs)
            finally:
                if len(cache) != before:
                    self.codegen_misses += 1

        traced.perfbench_layer = LAYER_NAMES[layer]
        return traced

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod in _IMPORTS:
            importlib.import_module(mod)
        for layer, (name, module, entry) in enumerate(LAYERS):
            owner = importlib.import_module(module)
            if "." in entry:
                cls_name, attr = entry.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrap = self._wrap_codegen if name == "codegen" else self._wrap
                self._patch(cls, attr, original, wrap(layer, original))
            else:
                original = getattr(owner, entry)
                traced = self._wrap(layer, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "repro" and (
                        getattr(mod, entry, None) is original
                    ):
                        self._patch(mod, entry, original, traced)
        return self

    def _patch(self, owner, attr: str, original, traced) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ---------------------------------------------------------
    def reduce(self) -> dict:
        """Per-layer ``calls``/``self_ms`` and the root ``wall_ms`` total
        (``other`` counts its calls in root spans, one per operation)."""
        child_ns: dict[int, int] = {}
        for _, parent, _, t0, t1 in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        calls = [0] * len(LAYER_NAMES)
        self_ns = [0] * len(LAYER_NAMES)
        wall_ns = 0
        for span_id, parent, layer, t0, t1 in self.spans:
            calls[layer] += 1
            self_ns[layer] += (t1 - t0) - child_ns.get(span_id, 0)
            if not parent:
                wall_ns += t1 - t0
        return {
            "wall_ms": wall_ns / 1e6,
            "layers": {
                name: {"calls": calls[i], "self_ms": self_ns[i] / 1e6}
                for i, name in enumerate(LAYER_NAMES)
            },
            "codegen_misses": self.codegen_misses,
        }


def patched_entry_points() -> list[str]:
    """Every place a tracer wrapper is still bound -- empty when no tracer
    is installed (what the benchmark's own tests check)."""
    found = []
    for _, module, entry in LAYERS:
        if "." in entry:
            cls_name, attr = entry.split(".")
            owners = [getattr(importlib.import_module(module), cls_name)]
        else:
            attr = entry
            owners = [
                mod for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "repro"
            ]
        for owner in owners:
            fn = vars(owner).get(attr)
            if getattr(fn, "perfbench_layer", None) is not None:
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
