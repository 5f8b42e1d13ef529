"""Generated-kernel cache, trace-template store, and cycle memoisation.

Generating a micro-kernel is deterministic in its configuration, so kernels
are memoised process-wide.  :class:`ReplayCache` additionally memoises two
things per chip:

* **trace templates** -- the dynamic trace of one kernel invocation with
  operand-relative addresses (see
  :class:`~repro.machine.simulator.TraceTemplate`), keyed by
  ``(KernelKey, (lda, ldb, ldc))`` since access deltas depend on the leading
  dimensions.  The executor's replay fast path rebases these for every
  subsequent tile instead of re-interpreting instructions.
* **single-invocation cycles** under a given operand-residency profile: the
  large-problem estimator simulates each distinct micro-kernel shape once
  and multiplies by tile counts, which is what makes ResNet-scale benchmarks
  tractable on an instruction-level simulator.  When a template already
  exists for the shape, new residencies are re-timed by replay rather than
  re-interpretation.

``TimedKernelCache`` remains as a backwards-compatible alias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..codegen.microkernel import ARG_REGS, MicroKernel, generate_microkernel
from ..faults import plan as _faults
from ..machine.cache import CacheHierarchy
from ..machine.chips import ChipSpec
from ..machine.memory import Memory
from ..machine.pipeline import PipelineModel
from ..machine.simulator import Simulator, TraceTemplate, build_template

__all__ = [
    "KernelKey",
    "KernelCache",
    "ReplayCache",
    "TimedKernelCache",
    "Residency",
]


@dataclass(frozen=True)
class KernelKey:
    """Identity of a generated micro-kernel."""

    mr: int
    nr: int
    kc: int
    lane: int = 4
    accumulate: bool = True
    rotate: bool = False
    sigma_ai: float = 6.0
    lookahead: bool = True
    use_pairs: bool = False


@dataclass(frozen=True)
class Residency:
    """Which cache level (1..4) each operand's block occupies when the
    kernel runs -- the steady-state locality regime of the surrounding
    blocked loop."""

    a_level: int = 1
    b_level: int = 1
    c_level: int = 1


class KernelCache:
    """Process-wide memoisation of generated kernels."""

    def __init__(self) -> None:
        self._kernels: dict[KernelKey, MicroKernel] = {}

    def get(self, key: KernelKey) -> MicroKernel:
        kernel = self._kernels.get(key)
        if kernel is None:
            if _faults._PLAN is not None:
                _faults.check("kernel.generate")
            telemetry.count("kernel_cache.misses")
            telemetry.count("kernel_cache.generated")
            with telemetry.span("generate_kernel", mr=key.mr, nr=key.nr, kc=key.kc):
                kernel = generate_microkernel(
                    key.mr,
                    key.nr,
                    key.kc,
                    lane=key.lane,
                    accumulate=key.accumulate,
                    rotate=key.rotate,
                    sigma_ai=key.sigma_ai,
                    lookahead=key.lookahead,
                    use_pairs=key.use_pairs,
                )
            self._kernels[key] = kernel
        else:
            telemetry.count("kernel_cache.hits")
        return kernel

    def __len__(self) -> int:
        return len(self._kernels)


#: Shared default instance -- kernel generation is pure.
GLOBAL_KERNEL_CACHE = KernelCache()


def _align64(addr: int) -> int:
    return (addr + 63) // 64 * 64


class ReplayCache:
    """Shared store of trace templates + memoised cycle measurements.

    One instance serves both the executor (template capture/lookup for the
    tile-replay fast path) and the estimator (``cycles``), so a kernel shape
    simulated by either side accelerates the other.
    """

    def __init__(
        self, chip: ChipSpec, kernels: KernelCache | None = None
    ) -> None:
        self.chip = chip
        self.kernels = kernels if kernels is not None else GLOBAL_KERNEL_CACHE
        self._cycles: dict[tuple[KernelKey, Residency], float] = {}
        self._templates: dict[
            tuple[KernelKey, tuple[int, int, int]], TraceTemplate
        ] = {}
        self._fused: dict[tuple[int, ...], TraceTemplate] = {}
        self._next_uid = 0

    def measurements(self) -> dict[tuple[KernelKey, Residency], float]:
        """Copy of the memoised per-(kernel, residency) cycle measurements.

        The measured side of the attribution engine's model-vs-replay
        calibration residuals (``repro.telemetry.attribution``)."""
        return dict(self._cycles)

    def memo_stats(self) -> dict[str, int]:
        """Aggregate timing-memo occupancy over every stored template.

        ``entries`` counts live (chip, launch, signature) schedules across
        per-tile and fused templates; ``capacity`` is the sum of their LRU
        caps; ``compiled`` counts templates carrying a compiled artifact.
        Complements the ``replay.memo_insertions`` / ``replay.memo_evictions``
        counters with a point-in-time view a long-running service can poll.
        """
        templates = list(self._templates.values()) + list(self._fused.values())
        return {
            "templates": len(templates),
            "entries": sum(len(t.timing_memo) for t in templates),
            "capacity": sum(t.memo_cap for t in templates),
            "compiled": sum(1 for t in templates if t.compiled is not None),
        }

    # -- trace templates ----------------------------------------------------
    def template(
        self, key: KernelKey, strides: tuple[int, int, int]
    ) -> TraceTemplate | None:
        """The captured template for a kernel at given (lda, ldb, ldc)."""
        return self._templates.get((key, strides))

    def capture(
        self,
        key: KernelKey,
        strides: tuple[int, int, int],
        trace,
        regions: list[tuple[int, int, int]],
    ) -> TraceTemplate | None:
        """Build and store a template from a freshly interpreted trace.

        Returns ``None`` (and stores nothing) if any traced address falls
        outside the supplied operand regions -- the corresponding tiles then
        stay on the interpreted path.
        """
        cache_key = (key, strides)
        existing = self._templates.get(cache_key)
        if existing is not None:
            return existing
        if _faults._PLAN is not None:
            _faults.check("trace.capture")
        tpl = build_template(trace, regions)
        if tpl is not None:
            tpl.uid = self._next_uid
            self._next_uid += 1
            self._templates[cache_key] = tpl
            telemetry.count("replay.captures")
        return tpl

    def fused(self, templates: list[TraceTemplate]) -> TraceTemplate:
        """The fused-block template for a tile sequence (memoised by uid)."""
        from ..codegen.fusion import fuse_templates

        uids = tuple(t.uid for t in templates)
        tpl = self._fused.get(uids)
        if tpl is None:
            tpl = fuse_templates(templates)
            self._fused[uids] = tpl
        return tpl

    # -- cycle memoisation (estimator path) ---------------------------------
    def cycles(
        self, key: KernelKey, residency: Residency, launch: float = 0.0
    ) -> float:
        """Simulated cycles of one invocation in the given locality regime.

        The kernel runs against synthetic operands pre-warmed into the
        residency's cache levels; the measurement excludes ``launch`` so the
        caller can amortise it per fusion policy (it is simply added here).
        The first measurement of a shape interprets (and captures a
        template); further residencies of the same shape re-time by replay,
        which is bit-identical because the synthetic allocation layout is
        deterministic.  A template that cannot be compiled re-interprets.
        """
        memo_key = (key, residency)
        cached = self._cycles.get(memo_key)
        if cached is not None:
            telemetry.count("timed_cache.hits")
            return cached + launch
        telemetry.count("timed_cache.misses")

        # Synthetic operands are dense, so strides are (kc, nr, nr) -- the
        # same stride key the executor's padded-tile scratch produces.
        strides = (key.kc, key.nr, key.nr)
        tpl = self._templates.get((key, strides))
        if tpl is not None:
            # Reproduce the bump-allocator layout of the interpreted branch
            # below analytically: first alloc lands at 64, the rest follow
            # 64-byte aligned.  Identical bases + identical warm state mean
            # the replay consults the cache at the interpreter's exact
            # address sequence.
            base_a = 64
            base_b = _align64(base_a + 4 * key.mr * key.kc)
            base_c = _align64(base_b + 4 * key.kc * key.nr)
            caches = CacheHierarchy(self.chip)
            caches.warm_range(base_a, 4 * key.mr * key.kc, residency.a_level)
            caches.warm_range(base_b, 4 * key.kc * key.nr, residency.b_level)
            caches.warm_range(base_c, 4 * key.mr * key.nr, residency.c_level)
            pipeline = PipelineModel(self.chip, caches=caches)
            with telemetry.span(
                "time_kernel", mr=key.mr, nr=key.nr, kc=key.kc, replay=True
            ) as sp:
                timing = pipeline.replay_template(tpl, (base_a, base_b, base_c))
                if timing is not None:
                    sp.add_cycles(timing.cycles)
                    telemetry.count("replay.hits")
                    self._cycles[memo_key] = timing.cycles
                    return timing.cycles + launch

        memory = Memory(size_bytes=1 << 24)
        rng = np.random.default_rng(1234)
        h_a = memory.alloc_matrix(key.mr, key.kc)
        h_b = memory.alloc_matrix(key.kc, key.nr)
        h_c = memory.alloc_matrix(key.mr, key.nr)
        memory.write_matrix(h_a, rng.uniform(-1, 1, (key.mr, key.kc)).astype(np.float32))
        memory.write_matrix(h_b, rng.uniform(-1, 1, (key.kc, key.nr)).astype(np.float32))
        memory.write_matrix(h_c, np.zeros((key.mr, key.nr), np.float32))

        caches = CacheHierarchy(self.chip)
        caches.warm_range(h_a.base, h_a.bytes_spanned, residency.a_level)
        caches.warm_range(h_b.base, h_b.bytes_spanned, residency.b_level)
        caches.warm_range(h_c.base, h_c.bytes_spanned, residency.c_level)

        sim = Simulator(memory, vector_lanes=key.lane)
        args = {
            ARG_REGS["A"]: h_a.base,
            ARG_REGS["B"]: h_b.base,
            ARG_REGS["C"]: h_c.base,
            ARG_REGS["lda"]: h_a.ld,
            ARG_REGS["ldb"]: h_b.ld,
            ARG_REGS["ldc"]: h_c.ld,
        }
        # Transient generation faults are absorbed by a free retry; anything
        # sterner propagates to the caller's sandbox (the tuner's measure
        # sandbox, or the executor's per-tile fallback chain).
        kernel = _faults.retrying(lambda: self.kernels.get(key))
        with telemetry.span(
            "time_kernel", mr=key.mr, nr=key.nr, kc=key.kc, replay=False
        ) as sp:
            result = sim.run_timed(kernel.program, self.chip, args=args, caches=caches)
            assert result.timing is not None
            measured = result.timing.cycles
            sp.add_cycles(measured)
        try:
            self.capture(
                key,
                strides,
                result.trace,
                [
                    (h_a.base, h_a.base, h_a.base + h_a.bytes_spanned),
                    (h_b.base, h_b.base, h_b.base + h_b.bytes_spanned),
                    (h_c.base, h_c.base, h_c.base + h_c.bytes_spanned),
                ],
            )
        except _faults.RECOVERABLE_FAULTS:
            # The measurement above is already the ground truth; a failed
            # capture just means the next residency re-interprets.
            telemetry.count("degraded.capture_skipped")
        self._cycles[memo_key] = measured
        return measured + launch


#: Backwards-compatible name: the estimator's timed cache is now the shared
#: replay cache.
TimedKernelCache = ReplayCache
