"""Blocked GEMM execution on the simulated machine.

``GemmExecutor.run`` drives the full autoGEMM pipeline functionally:

1. operands are placed in simulated memory;
2. ``C(m_c, n_c)`` cache blocks -- the paper's minimum scheduling unit
   (§IV-A1) -- are listed in the schedule's ``sigma_order`` (m-major or
   n-major) and, for multi-core runs, partitioned across cores; the K loop
   is always per-block and sequential (the paper notes TVM cannot
   parallelise the reduction dimension, §V-C);
3. each block is covered by a tile plan (DMT or a static strategy) and
   every placed tile executes its generated micro-kernel on the instruction
   simulator -- the numerical result really is produced by the generated
   AArch64-subset code and compared against numpy in tests;
4. per-tile traces are timed on the chip's scoreboard pipeline, fused at
   tile boundaries when the schedule enables §III-C2 fusion;
5. per-core cycles combine through the fork/join multi-core model.

Padding semantics (OpenBLAS-style plans): a padded tile executes its *full*
kernel shape against zero-padded scratch operands -- the redundant FMAs are
genuinely executed and timed, which is exactly the Figure 5a penalty.

``warm=True`` (default) pre-loads the operands into each core's cache
hierarchy before timing, the steady-state regime the paper's repeated-run
benchmarks measure; ``warm=False`` measures a cold first call.

Telemetry: when a :mod:`repro.telemetry` collector is active, the run emits
nested spans (``gemm`` > ``core`` > ``c_block`` > ``pack_block`` /
``tile`` / ``pipeline``) carrying simulated cycles, and counters for tiles
executed, padded-FLOP waste, pack traffic, and plan-cache hits.  The result
always carries ``phase_cycles``, a pack/kernel/parallel-overhead breakdown
that sums to ``cycles`` exactly.

Static checking: with ``REPRO_STATICCHECK=1`` in the environment (read at
construction; off by default, on in CI) every distinct ``KernelKey`` is run
through the static verifier (:mod:`repro.analysis.staticcheck`) at its
first use, before any tile executes it.  Error findings raise
:class:`~repro.analysis.staticcheck.StaticCheckError`; the pass emits
``staticcheck.verified`` / ``staticcheck.findings`` telemetry counters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..codegen.fusion import fuse_traces
from ..codegen.microkernel import ARG_REGS
from ..faults import plan as _faults
from ..isa.program import Trace
from ..machine.cache import CacheHierarchy, cache_level_ids
from ..machine.chips import ChipSpec
from ..machine.memory import MatrixHandle, Memory
from ..machine.multicore import parallel_time, partition_blocks
from ..machine.pipeline import PipelineModel
from ..machine.simulator import SimulationError, Simulator, TraceTemplate, template_to_trace
from ..model.perf_model import DEFAULT_LAUNCH_CYCLES, MicroKernelModel, ModelParams
from ..tiling.dmt import DynamicMicroTiler
from ..tiling.plans import TilePlan
from ..tiling.static_tiling import libxsmm_tiling, openblas_tiling, tile_for_chip
from .kernel_cache import GLOBAL_KERNEL_CACHE, KernelCache, KernelKey, ReplayCache
from .packing import PackCost, PackingMode, pack_block, packing_cycles
from .reference import reference_gemm, sgemm
from .schedule import Schedule, default_schedule

__all__ = ["GemmResult", "GemmExecutor"]


@dataclass
class GemmResult:
    """Outcome of one simulated GEMM."""

    c: np.ndarray
    cycles: float
    flops: int
    chip: ChipSpec
    threads: int = 1
    kernel_calls: int = 0
    instructions: int = 0
    pack_cost: PackCost = field(default_factory=lambda: PackCost(0.0, 0))
    offline_pack_cost: PackCost = field(default_factory=lambda: PackCost(0.0, 0))
    loads_by_level: dict[int, int] = field(default_factory=dict)
    per_core_cycles: list[float] = field(default_factory=list)
    #: Critical-path decomposition of ``cycles``: ``pack`` (online packing on
    #: the slowest core), ``kernel`` (that core's tile execution), and
    #: ``parallel_overhead`` (barrier, cross-domain penalty, bandwidth floor
    #: -- everything ``parallel_time`` adds on top of the slowest core).
    #: Invariant: the values sum to ``cycles``.  Offline packing is excluded,
    #: as it is from ``cycles`` itself (see ``offline_pack_cost``).
    phase_cycles: dict[str, float] = field(default_factory=dict)
    #: True when any stage of the graceful-degradation fallback chain
    #: engaged during the run (see ``docs/robustness.md``).  The numerical
    #: result stays bit-exact against ``reference.sgemm`` either way; the
    #: cycle count may come from a coarser model for degraded fragments.
    degraded: bool = False
    #: Per-fallback engagement counts (mirrors the ``degraded.*`` telemetry
    #: counters, but recorded even when no collector is installed).
    degradations: dict[str, int] = field(default_factory=dict)
    #: FLOPs spent multiplying into zero-padding on padded edge tiles
    #: (mirrors the ``executor.padded_flop_waste`` counter); not part of
    #: ``flops``, which counts useful work only.
    padded_flop_waste: int = 0
    #: Roofline decomposition of this run (``repro.telemetry.attribution``);
    #: populated by ``AutoGEMM.gemm``, None on a bare executor run.
    attribution: object | None = None
    #: Where the schedule came from (``AutoGEMM`` resolution order):
    #: "explicit" / "registry" / "family" / "session" / "tuned" /
    #: "heuristic", or "" on a bare executor run.
    schedule_source: str = ""
    #: The :class:`~repro.tuner.families.FamilyProjection` served when
    #: ``schedule_source == "family"``; None otherwise.
    family_projection: object | None = None

    @property
    def seconds(self) -> float:
        return self.cycles / (self.chip.freq_ghz * 1e9)

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.cycles else 0.0

    @property
    def efficiency(self) -> float:
        peak = self.chip.peak_gflops_core * self.threads
        return self.gflops / peak if peak else 0.0


def _block_ranges(extent: int, block: int) -> list[tuple[int, int]]:
    return [(lo, min(block, extent - lo)) for lo in range(0, extent, block)]


class GemmExecutor:
    """Functional + timed execution of a schedule on one chip."""

    def __init__(
        self,
        chip: ChipSpec,
        kernels: KernelCache | None = None,
        launch_cycles: float = DEFAULT_LAUNCH_CYCLES,
        use_replay: bool = True,
        replay_cache: ReplayCache | None = None,
    ) -> None:
        """``use_replay`` enables the tile-replay fast path: each distinct
        (kernel, leading-dimension) combination is interpreted once and every
        further tile is applied as a vectorized functional update plus an
        address-rebased timing replay -- bit-exact with the interpreter by
        construction, and pinned by the equivalence tests.  ``replay_cache``
        shares captured templates with other components (the estimator)."""
        self.chip = chip
        self.kernels = kernels if kernels is not None else GLOBAL_KERNEL_CACHE
        self.launch_cycles = launch_cycles
        self.use_replay = use_replay
        self.replay = (
            replay_cache if replay_cache is not None else ReplayCache(chip, self.kernels)
        )
        self.model = MicroKernelModel(ModelParams.from_chip(chip, launch=launch_cycles))
        self._tiler = DynamicMicroTiler(self.model, lane=chip.sigma_lane)
        self._plan_cache: dict[tuple, TilePlan] = {}
        self.staticcheck = os.environ.get("REPRO_STATICCHECK") == "1"
        self._verified_keys: set[KernelKey] = set()

    # ------------------------------------------------------------------
    def plan_block(self, mc: int, nc: int, kc: int, schedule: Schedule) -> TilePlan:
        """Tile plan for one cache block under the schedule's strategy."""
        key = (
            mc,
            nc,
            kc,
            schedule.use_dmt,
            schedule.main_tile,
            schedule.static_edges,
        )
        plan = self._plan_cache.get(key)
        if plan is not None:
            telemetry.count("plan_cache.hits")
            return plan
        telemetry.count("plan_cache.misses")
        with telemetry.span("plan_block", mc=mc, nc=nc, kc=kc,
                            strategy="dmt" if schedule.use_dmt else schedule.static_edges):
            if schedule.use_dmt:
                plan = self._tiler.tile(mc, nc, kc).plan
            else:
                default_tile = tile_for_chip(self.chip.sigma_lane)
                tile = schedule.main_tile or (default_tile.mr, default_tile.nr)
                if schedule.static_edges == "pad":
                    plan = openblas_tiling(mc, nc, tile)
                else:
                    plan = libxsmm_tiling(mc, nc, tile)
        self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------
    def _verify_kernel(self, key: KernelKey, kernel) -> None:
        """Static-check ``kernel`` once per distinct :class:`KernelKey`.

        Runs the full verifier (CFG, dataflow, symbolic execution, register
        accounting) plus this chip's advisory pipeline lints before the
        kernel's first tile executes.  Error findings abort the run with
        :class:`~repro.analysis.staticcheck.StaticCheckError` -- a kernel
        the verifier rejects must never touch simulated memory.
        """
        from ..analysis.staticcheck import StaticCheckError, verify_program

        if _faults._PLAN is not None:
            _faults.check("staticcheck.verify")
        self._verified_keys.add(key)
        with telemetry.span(
            "staticcheck", mr=key.mr, nr=key.nr, kc=key.kc
        ):
            report = verify_program(
                kernel.program,
                config=kernel.config,
                chip=self.chip,
                name=kernel.config.name,
            )
        telemetry.count("staticcheck.verified")
        if report.findings:
            telemetry.count("staticcheck.findings", len(report.findings))
        if report.errors:
            raise StaticCheckError(report)

    # ------------------------------------------------------------------
    def run(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        schedule: Schedule | None = None,
        threads: int = 1,
        beta: float = 1.0,
        warm: bool = True,
    ) -> GemmResult:
        """Execute ``C = beta*C + A @ B`` through generated kernels.

        ``threads`` simulated cores split the C blocks; each core owns a
        private cache hierarchy over the shared memory image.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(
                f"operands must be 2-D matrices: A has shape {a.shape}, "
                f"B has shape {b.shape}"
            )
        for name, arr in (("A", a), ("B", b)):
            if not (
                np.issubdtype(arr.dtype, np.floating)
                or np.issubdtype(arr.dtype, np.integer)
            ):
                raise ValueError(
                    f"{name} has unsupported dtype {arr.dtype}; expected a real "
                    "float or integer dtype convertible to float32"
                )
        m, k = a.shape
        k2, n = b.shape
        if m < 1 or n < 1 or k < 1:
            raise ValueError(f"problem sizes must be >= 1, got m={m} n={n} k={k}")
        if k2 != k:
            raise ValueError(f"inner dimensions differ: A is {m}x{k}, B is {k2}x{n}")
        if not np.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
        a = np.ascontiguousarray(a, dtype=np.float32)
        b = np.ascontiguousarray(b, dtype=np.float32)
        if c is None:
            c = np.zeros((m, n), dtype=np.float32)
            beta = 0.0
        else:
            c = np.asarray(c)
            if c.ndim != 2 or c.shape != (m, n):
                raise ValueError(f"C shape mismatch: expected {(m, n)}, got {c.shape}")
        c = np.ascontiguousarray(c, dtype=np.float32)
        if threads < 1 or threads > self.chip.cores:
            raise ValueError(f"threads must be in [1, {self.chip.cores}]")

        schedule = (
            schedule.clipped(m, n, k)
            if schedule is not None
            else default_schedule(m, n, k, self.chip, threads=threads)
        )

        # Run-level stage of the fallback chain: a recoverable fault (or
        # simulator/memory failure) that escapes the per-tile handlers gets
        # one full retry; if that also dies, the whole product comes from the
        # bit-exact numpy reference with model-derived cycles.  KillFault is
        # deliberately not recoverable -- it models the process dying.
        recoverable = _faults.RECOVERABLE_FAULTS + (SimulationError, MemoryError)
        with telemetry.span(
            "gemm", m=m, n=n, k=k, threads=threads, chip=self.chip.name
        ) as sp_run:
            try:
                result = self._run_scheduled(
                    a, b, c, schedule, threads, beta, warm, m, n, k
                )
            except recoverable:
                self_degraded = {}
                self._degrade(self_degraded, "run_retry")
                try:
                    result = self._run_scheduled(
                        a, b, c, schedule, threads, beta, warm, m, n, k
                    )
                except recoverable:
                    self._degrade(self_degraded, "reference_gemm")
                    result = self._reference_result(a, b, c, beta, m, n, k, threads)
                for what, cnt in self_degraded.items():
                    result.degradations[what] = (
                        result.degradations.get(what, 0) + cnt
                    )
                result.degraded = True
            sp_run.add_cycles(result.cycles)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _degrade(degraded: dict, what: str, n: int = 1) -> None:
        """Record one engagement of a fallback stage (dict + telemetry)."""
        degraded[what] = degraded.get(what, 0) + n
        telemetry.count(f"degraded.{what}", n)

    def _reference_result(
        self, a, b, c, beta, m, n, k, threads
    ) -> GemmResult:
        """Last resort of the fallback chain: the full product from the
        bit-exact numpy reference (:func:`reference.sgemm` -- same float32
        accumulation order as the generated kernels), with cycles from the
        analytic micro-kernel model at the chip's default tile shape.

        Multi-threaded timing goes through the same
        :func:`partition_blocks` + :func:`parallel_time` model as a
        scheduled run -- C tiles split across cores, fork/join barrier,
        cross-domain penalty, aggregate-DRAM roofline cap -- so a degraded
        run never reports the perfectly linear scaling no healthy path can
        achieve."""
        out = sgemm(a, b, c, beta=beta)
        tile = tile_for_chip(self.chip.sigma_lane)
        kc = min(k, 256)
        c_tiles = (-(m // -tile.mr)) * (-(n // -tile.nr))
        per_tile = self.model.total(tile.mr, tile.nr, kc, rotate=True) * (
            -(k // -kc)
        )
        counts = partition_blocks(c_tiles, max(threads, 1))
        per_core = [max(cnt * per_tile, 1.0) for cnt in counts]
        dram_bytes = 4 * (m * k + k * n + 2 * m * n) if threads > 1 else 0
        timing = parallel_time(per_core, self.chip, dram_bytes)
        phase_cycles = {"kernel": timing.critical_core_cycles}
        overhead = timing.cycles - timing.critical_core_cycles
        if overhead:
            phase_cycles["parallel_overhead"] = overhead
        return GemmResult(
            c=out,
            cycles=timing.cycles,
            flops=2 * m * n * k,
            chip=self.chip,
            threads=threads,
            degraded=True,
            per_core_cycles=per_core,
            phase_cycles=phase_cycles,
        )

    @staticmethod
    def memory_bytes(
        m: int, n: int, k: int, schedule: Schedule | None = None, threads: int = 1
    ) -> int:
        """Simulated-memory image size for one run.

        Counts the three float32 operands once, plus the scratch the chosen
        schedule allocates: the dense packed-B copy (OFFLINE packing) or one
        ``kc x nc`` pack panel per core (ONLINE packing).  A 4 MiB slack
        absorbs padded-tile staging (bounded by per-shape reuse) and
        per-allocation alignment, so power-of-two operand shapes keep
        headroom.  Rounded up to a power of two with a 16 MiB floor; with no
        schedule the static operands-plus-slack size is returned.
        """
        bytes_needed = 4 * (m * k + k * n + m * n)
        if schedule is not None:
            if schedule.packing is PackingMode.OFFLINE:
                bytes_needed += 4 * k * n
            elif schedule.packing is PackingMode.ONLINE:
                bytes_needed += 4 * threads * schedule.kc * schedule.nc
        bytes_needed += 1 << 22
        return max(1 << 24, 1 << (bytes_needed - 1).bit_length())

    def _run_scheduled(self, a, b, c, schedule, threads, beta, warm, m, n, k):
        degraded: dict[str, int] = {}
        memory = Memory(size_bytes=self.memory_bytes(m, n, k, schedule, threads))
        # Operand staging is the in-library packing path of a real BLAS front
        # end (see ``AutoGEMM.gemm``), so it reports as a packing span.
        with telemetry.span("pack_operands", bytes=4 * (m * k + k * n + m * n)):
            h_a = memory.alloc_matrix(m, k)
            h_b = memory.alloc_matrix(k, n)
            h_c = memory.alloc_matrix(m, n)
            memory.write_matrix(h_a, a)
            memory.write_matrix(h_b, b)
            # The kernels accumulate onto C as stored; beta is folded into the
            # staged C image (beta = 0 stages zeros and lets the first K block
            # run its non-accumulating variant).
            if beta == 0.0:
                staged_c = np.zeros((m, n), np.float32)
            elif beta == 1.0:
                staged_c = c
            else:
                staged_c = (np.float32(beta) * c).astype(np.float32)
            memory.write_matrix(h_c, staged_c)

        # Offline packing rewrites B densely before the timed region.  A
        # fault while packing is survivable: the kernels read the same values
        # from the unpacked image, only the access strides differ.
        offline_pack = PackCost(0.0, 0)
        if schedule.packing is PackingMode.OFFLINE:
            try:
                with telemetry.span("offline_pack", rows=k, cols=n) as sp_pack:
                    packed = pack_block(memory, h_b, 0, 0, k, n)
                    offline_pack = packing_cycles(k, n, self.chip)
                    sp_pack.add_cycles(offline_pack.cycles)
                    telemetry.count("pack.bytes_moved", offline_pack.bytes_moved)
                h_b = packed
            except _faults.RECOVERABLE_FAULTS:
                self._degrade(degraded, "pack_skipped")
                offline_pack = PackCost(0.0, 0)

        sim = Simulator(memory, vector_lanes=self.chip.sigma_lane)

        m_ranges = _block_ranges(m, schedule.mc)
        n_ranges = _block_ranges(n, schedule.nc)
        k_ranges = _block_ranges(k, schedule.kc)
        order = schedule.block_order
        if order.index("mc") < order.index("nc"):
            c_blocks = [(mr_, nr_) for mr_ in m_ranges for nr_ in n_ranges]
        else:
            c_blocks = [(mr_, nr_) for nr_ in n_ranges for mr_ in m_ranges]
        counts = partition_blocks(len(c_blocks), threads)
        assignments = []
        i = 0
        for cnt in counts:
            assignments.append(c_blocks[i : i + cnt])
            i += cnt

        per_core_cycles: list[float] = []
        per_core_pack: list[float] = []
        total_instr = 0
        kernel_calls = 0
        padded_flops = 0
        loads_by_level = {lvl: 0 for lvl in cache_level_ids(self.chip)}
        online_pack = PackCost(0.0, 0)
        pad_scratch: dict[tuple[int, int, int], tuple] = {}

        for core_id, core_blocks in enumerate(assignments):
            caches = CacheHierarchy(self.chip)
            if warm:
                for h in (h_a, h_b, h_c):
                    caches.warm_range(h.base, h.bytes_spanned, 1)
            with telemetry.span("core", core=core_id, blocks=len(core_blocks)) as sp:
                cycles, stats = self._run_core(
                    sim, caches, schedule, h_a, h_b, h_c, core_blocks, k_ranges,
                    beta, pad_scratch, degraded,
                )
                sp.add_cycles(cycles)
            per_core_cycles.append(cycles)
            per_core_pack.append(stats["pack"].cycles)
            total_instr += stats["instructions"]
            kernel_calls += stats["kernel_calls"]
            padded_flops += stats["padded_flops"]
            for lvl, cnt in stats["loads"].items():
                loads_by_level[lvl] += cnt
            online_pack = PackCost(
                online_pack.cycles + stats["pack"].cycles,
                online_pack.bytes_moved + stats["pack"].bytes_moved,
            )

        dram_bytes = 4 * (m * k + k * n + 2 * m * n) if threads > 1 else 0
        timing = parallel_time(
            [max(cyc, 1.0) for cyc in per_core_cycles], self.chip, dram_bytes
        )

        # Critical-path phase breakdown: the slowest core's pack/kernel split
        # plus whatever the fork/join model added on top of that core.
        crit = max(range(len(per_core_cycles)), key=lambda i: per_core_cycles[i])
        crit_pack = per_core_pack[crit]
        crit_kernel = per_core_cycles[crit] - crit_pack
        phase_cycles = {
            "pack": crit_pack,
            "kernel": crit_kernel,
            "parallel_overhead": timing.cycles - (crit_pack + crit_kernel),
        }

        return GemmResult(
            c=memory.read_matrix(h_c),
            cycles=timing.cycles,
            flops=2 * m * n * k,
            chip=self.chip,
            threads=threads,
            kernel_calls=kernel_calls,
            instructions=total_instr,
            pack_cost=online_pack,
            offline_pack_cost=offline_pack,
            loads_by_level=loads_by_level,
            per_core_cycles=per_core_cycles,
            phase_cycles=phase_cycles,
            degraded=bool(degraded),
            degradations=degraded,
            padded_flop_waste=padded_flops,
        )

    # ------------------------------------------------------------------
    def _run_core(
        self, sim, caches, schedule, h_a, h_b, h_c, c_blocks, k_ranges, beta,
        pad_scratch, degraded,
    ):
        """Run one core's share of C blocks (full K loop per block)."""
        cycles = 0.0
        stats = {
            "instructions": 0,
            "kernel_calls": 0,
            "loads": {lvl: 0 for lvl in cache_level_ids(self.chip)},
            "pack": PackCost(0.0, 0),
            "padded_flops": 0,
        }
        memory = sim.memory
        pack_scratch: MatrixHandle | None = None
        packed_key: tuple | None = None
        packed_block: MatrixHandle | None = None

        for (m0, mc), (n0, nc) in c_blocks:
            with telemetry.span("c_block", m0=m0, n0=n0, mc=mc, nc=nc) as sp_blk:
                block_cycles = 0.0
                for k0, kc in k_ranges:
                    b_block = h_b.sub(k0, n0, kc, nc)
                    if schedule.packing is PackingMode.ONLINE:
                        # A faulted pack panel degrades to the unpacked B
                        # sub-block: same values, different strides.
                        try:
                            if pack_scratch is None:
                                pack_scratch = memory.alloc_matrix(
                                    schedule.kc, schedule.nc
                                )
                            if packed_key != (k0, n0, kc, nc):
                                with telemetry.span(
                                    "pack_block", kc=kc, nc=nc
                                ) as sp_pack:
                                    packed_block = pack_block(
                                        memory, h_b, k0, n0, kc, nc, pack_scratch
                                    )
                                    packed_key = (k0, n0, kc, nc)
                                    cost = packing_cycles(kc, nc, self.chip)
                                    sp_pack.add_cycles(cost.cycles)
                                telemetry.count("pack.bytes_moved", cost.bytes_moved)
                                block_cycles += cost.cycles
                                stats["pack"] = PackCost(
                                    stats["pack"].cycles + cost.cycles,
                                    stats["pack"].bytes_moved + cost.bytes_moved,
                                )
                            assert packed_block is not None
                            b_block = packed_block
                        except _faults.RECOVERABLE_FAULTS:
                            self._degrade(degraded, "pack_skipped")
                    block_cycles += self._run_block(
                        sim,
                        caches,
                        schedule,
                        h_a.sub(m0, k0, mc, kc),
                        b_block,
                        h_c.sub(m0, n0, mc, nc),
                        accumulate=(k0 > 0) or (beta != 0.0),
                        stats=stats,
                        pad_scratch=pad_scratch,
                        degraded=degraded,
                    )
                sp_blk.add_cycles(block_cycles)
                cycles += block_cycles
        return cycles, stats

    def _run_block(self, sim, caches, schedule, blk_a, blk_b, blk_c, accumulate,
                   stats, pad_scratch, degraded):
        """Execute one cache block's tile plan; returns its cycles.

        With replay enabled, a tile whose ``(KernelKey, leading-dimensions)``
        template was captured earlier skips the interpreter: its numerical
        effect lands through a vectorized fp32 update in the kernel's exact
        accumulation order, and its timing comes from rebasing the template's
        addresses through this core's cache hierarchy.  Tiles without a
        template are interpreted (capturing one), so within a block the first
        tile of each distinct shape pays interpretation and the rest replay.

        Per-tile fallback chain (``docs/robustness.md``): a recoverable fault
        in template replay falls back to fresh interpretation; a fault in
        kernel generation/interpretation falls back to the bit-exact numpy
        reference for that tile (same vectorized update the replay path uses,
        timed by the analytic model).  Degraded tiles count ``degraded.*``,
        never ``replay.misses`` -- the replay counters stay an invariant of
        the fault-free workload.
        """
        chip = self.chip
        plan = self.plan_block(blk_c.rows, blk_c.cols, blk_a.cols, schedule)
        tiles = list(plan)
        if not schedule.tile_row_major:
            tiles.sort(key=lambda t: (t.col, t.row))
        telemetry.count("executor.tiles_executed", len(tiles))

        kc = blk_a.cols
        replay = self.replay if self.use_replay else None

        # Functional pass, in tile order: interpret-and-capture or replay.
        traces: dict[int, Trace] = {}  # interpreted tiles only
        bindings: list[tuple[TraceTemplate | None, tuple[int, int, int]]] = []
        replayed: list[int] = []
        reference: set[int] = set()  # tiles degraded to the numpy reference
        for idx, tile in enumerate(tiles):
            key = KernelKey(
                mr=tile.kernel_mr,
                nr=tile.kernel_nr,
                kc=kc,
                lane=chip.sigma_lane,
                accumulate=accumulate,
                rotate=schedule.rotate,
                sigma_ai=chip.sigma_ai,
                lookahead=schedule.lookahead,
                use_pairs=schedule.use_pairs,
            )
            try:
                kernel = _faults.retrying(lambda: self.kernels.get(key))
            except _faults.RECOVERABLE_FAULTS:
                kernel = None
            if kernel is None:
                self._degrade(degraded, "reference_tile")
                bindings.append((None, (0, 0, 0)))
                reference.add(idx)
                stats["kernel_calls"] += 1
                continue
            if self.staticcheck and key not in self._verified_keys:
                try:
                    self._verify_kernel(key, kernel)
                except _faults.RECOVERABLE_FAULTS:
                    # The kernel still runs -- unverified, this once.
                    self._degrade(degraded, "staticcheck_skipped")
            try:
                if tile.padded:
                    telemetry.count("executor.padded_tiles")
                    telemetry.count(
                        "executor.padded_flop_waste", 2 * kc * tile.padding_flops
                    )
                    stats["padded_flops"] += 2 * kc * tile.padding_flops
                    strides, bases, regions = self._padded_binding(
                        sim.memory, kernel, kc, pad_scratch
                    )
                else:
                    strides, bases, regions = self._tile_binding(
                        tile, blk_a, blk_b, blk_c
                    )
            except _faults.RECOVERABLE_FAULTS:
                self._degrade(degraded, "reference_tile")
                bindings.append((None, (0, 0, 0)))
                reference.add(idx)
                stats["kernel_calls"] += 1
                continue
            tpl = replay.template(key, strides) if replay is not None else None
            abandoned = False  # replay template dropped by an injected fault
            if tpl is not None and _faults._PLAN is not None:
                try:
                    _faults.check("replay.apply")
                except _faults.RECOVERABLE_FAULTS:
                    tpl = None
                    abandoned = True
                    self._degrade(degraded, "interpret")
            with telemetry.span(
                "tile",
                mr=tile.kernel_mr,
                nr=tile.kernel_nr,
                padded=tile.padded,
                replay=tpl is not None,
            ):
                if tpl is None:
                    try:
                        if tile.padded:
                            trace = self._run_padded_tile(
                                sim, kernel, tile, blk_a, blk_b, blk_c, pad_scratch
                            )
                        else:
                            trace = self._run_tile(
                                sim, kernel, tile, blk_a, blk_b, blk_c
                            )
                    except _faults.RECOVERABLE_FAULTS + (SimulationError,):
                        self._degrade(degraded, "reference_tile")
                        bindings.append((None, (0, 0, 0)))
                        reference.add(idx)
                        stats["kernel_calls"] += 1
                        continue
                    if replay is not None:
                        if not abandoned:
                            telemetry.count("replay.misses")
                        try:
                            tpl = _faults.retrying(
                                lambda: replay.capture(key, strides, trace, regions)
                            )
                        except _faults.RECOVERABLE_FAULTS:
                            tpl = None
                            self._degrade(degraded, "capture_skipped")
                    traces[idx] = trace
                    stats["instructions"] += len(trace)
                else:
                    telemetry.count("replay.hits")
                    replayed.append(idx)
                    stats["instructions"] += tpl.n_instr
            bindings.append((tpl, bases))
            stats["kernel_calls"] += 1

        if replayed:
            with telemetry.span("replay_update", tiles=len(replayed)) :
                self._apply_replay_updates(
                    sim.memory,
                    [tiles[i] for i in replayed],
                    blk_a,
                    blk_b,
                    blk_c,
                    kc,
                    accumulate,
                )
        if reference:
            # Reference tiles land through the same vectorized update the
            # replay path uses -- bit-exact with the kernels by construction
            # (padded tiles included: only the valid region reaches C).
            with telemetry.span("reference_update", tiles=len(reference)):
                self._apply_replay_updates(
                    sim.memory,
                    [tiles[i] for i in sorted(reference)],
                    blk_a,
                    blk_b,
                    blk_c,
                    kc,
                    accumulate,
                )

        # Timing pass, in tile order so the per-core cache state evolves
        # exactly as the interpreter path's trace order would drive it.
        block_cycles = 0.0
        with telemetry.span(
            "pipeline", fused=schedule.fuse, traces=len(tiles)
        ) as sp_pipe:
            fused = schedule.fuse and not reference
            if fused:
                try:
                    block_cycles += self._time_fused_block(
                        caches, bindings, traces, replayed, stats
                    )
                except _faults.RECOVERABLE_FAULTS:
                    self._degrade(degraded, "unfused")
                    fused = False
            elif schedule.fuse:
                # Reference tiles have no trace to fuse; the block times
                # per-tile with model costs filling the gaps.
                self._degrade(degraded, "unfused")
            if not fused:
                block_cycles += self._time_tiles(
                    caches, schedule, tiles, bindings, traces, reference, kc,
                    stats, degraded,
                )
            sp_pipe.add_cycles(block_cycles)
        return block_cycles

    def _time_tiles(self, caches, schedule, tiles, bindings, traces, reference,
                    kc, stats, degraded):
        """Per-tile timing with model fallback for degraded tiles.

        Reference tiles (and tiles whose scoreboard pass faults) are charged
        the analytic model's full-kernel cost -- coarser than the simulator
        but monotone in the tile shape, so degraded runs stay comparable.
        """
        cycles = 0.0
        for idx in range(len(tiles)):
            if idx in reference:
                cycles += self._model_tile_cycles(tiles[idx], kc, schedule)
                continue
            tpl, bases = bindings[idx]
            try:
                pipeline = PipelineModel(
                    self.chip, caches=caches, launch_cycles=self.launch_cycles
                )
                if idx in traces:
                    timing = pipeline.time_trace(traces[idx])
                else:
                    timing = pipeline.replay_template(tpl, bases)
                    if timing is None:  # template.compile fault latched
                        timing = pipeline.time_trace(
                            template_to_trace(tpl, bases)
                        )
            except _faults.RECOVERABLE_FAULTS:
                self._degrade(degraded, "model_timing")
                cycles += self._model_tile_cycles(tiles[idx], kc, schedule)
                continue
            cycles += timing.cycles
            for lvl, cnt in timing.loads_by_level.items():
                stats["loads"][lvl] += cnt
        return cycles

    def _model_tile_cycles(self, tile, kc, schedule) -> float:
        return self.model.total(
            tile.kernel_mr, tile.kernel_nr, kc, rotate=schedule.rotate
        )

    def _time_fused_block(self, caches, bindings, traces, replayed, stats):
        """Time a fused block: template fusion when every tile has one and
        the fused template compiles, trace fusion otherwise (materialising
        replayed tiles' traces so the boundary interleave is identical
        either way)."""
        pipeline = PipelineModel(
            self.chip, caches=caches, launch_cycles=self.launch_cycles
        )
        timing = None
        if all(tpl is not None for tpl, _ in bindings):
            fused_tpl = self.replay.fused([tpl for tpl, _ in bindings])
            all_bases = tuple(b for _, bases in bindings for b in bases)
            timing = pipeline.replay_template(fused_tpl, all_bases)
        if timing is None:
            # A capture or compile failed somewhere: fall back to trace-level
            # fusion.  Tiles that were functionally replayed still time
            # exactly -- the materialised trace is the interpreted trace by
            # construction.  (With replay disabled this branch is simply the
            # normal path, not a fallback -- keep the counter quiet then.)
            if self.use_replay:
                telemetry.count("replay.fallbacks", max(1, len(replayed)))
            ordered: list[Trace] = []
            for idx, (tpl, bases) in enumerate(bindings):
                if idx in traces:
                    ordered.append(traces[idx])
                else:
                    ordered.append(template_to_trace(tpl, bases))
            timing = pipeline.time_trace(fuse_traces(ordered))
        for lvl, cnt in timing.loads_by_level.items():
            stats["loads"][lvl] += cnt
        return timing.cycles

    def _tile_binding(self, tile, blk_a, blk_b, blk_c):
        """(strides, arg bases, capture regions) for an in-place tile.

        Regions are the parent blocks' full byte intervals: the three blocks
        live in disjoint allocations, so containment uniquely attributes
        every traced address to one operand.
        """
        bases = (
            blk_a.addr(tile.row, 0),
            blk_b.addr(0, tile.col),
            blk_c.addr(tile.row, tile.col),
        )
        strides = (blk_a.ld, blk_b.ld, blk_c.ld)
        regions = [
            (bases[0], blk_a.base, blk_a.base + blk_a.bytes_spanned),
            (bases[1], blk_b.base, blk_b.base + blk_b.bytes_spanned),
            (bases[2], blk_c.base, blk_c.base + blk_c.bytes_spanned),
        ]
        return strides, bases, regions

    def _padded_binding(self, memory, kernel, kc, pad_scratch):
        """(strides, arg bases, capture regions) for a padded tile.

        Allocates the shared pad-scratch buffers if this kernel shape has
        not staged yet -- the replay path must keep the allocation sequence
        identical to the interpreter's, since later allocation addresses
        (and therefore cache behaviour) depend on it.
        """
        pad_a, pad_b, pad_c = self._pad_buffers(memory, kernel.config, kc, pad_scratch)
        bases = (pad_a.base, pad_b.base, pad_c.base)
        strides = (pad_a.ld, pad_b.ld, pad_c.ld)
        regions = [
            (pad_a.base, pad_a.base, pad_a.base + pad_a.bytes_spanned),
            (pad_b.base, pad_b.base, pad_b.base + pad_b.bytes_spanned),
            (pad_c.base, pad_c.base, pad_c.base + pad_c.bytes_spanned),
        ]
        return strides, bases, regions

    @staticmethod
    def _pad_buffers(memory, cfg, kc, pad_scratch):
        scratch_key = (cfg.mr, cfg.nr, kc)
        buffers = pad_scratch.get(scratch_key)
        if buffers is None:
            buffers = (
                memory.alloc_matrix(cfg.mr, kc),
                memory.alloc_matrix(kc, cfg.nr),
                memory.alloc_matrix(cfg.mr, cfg.nr),
            )
            pad_scratch[scratch_key] = buffers
        return buffers

    def _apply_replay_updates(
        self, memory, tiles, blk_a, blk_b, blk_c, kc, accumulate
    ):
        """Vectorized functional effect of replayed tiles, bit-exact with the
        generated kernels.

        Every C element accumulates strictly sequentially over k with
        mul-then-add double rounding (``FmlaElem`` is not fused), and that
        order is independent of the tile decomposition, so stacking tiles of
        equal valid-region shape and looping k once reproduces the kernel's
        float32 result exactly -- including padded tiles, whose padded lanes
        never reach C.  ``accumulate=False`` kernels start from EOR-zeroed
        registers, matching the zero-initialised accumulator here.

        The stack gather/scatter is one fancy-indexed copy per operand for
        the whole group (no per-tile Python slicing), and the per-k step is
        a reduction-free outer-product einsum -- each output element is a
        single IEEE multiply, so it is the same double-rounded value the
        broadcasted multiply produced.  Only the k loop stays sequential:
        collapsing it into one reducing einsum would let BLAS reassociate
        the partial sums and break bit-exactness.
        """
        a_view = memory.view_matrix(blk_a)
        b_view = memory.view_matrix(blk_b)
        c_view = memory.view_matrix(blk_c)
        groups: dict[tuple[int, int], list] = {}
        for t in tiles:
            groups.setdefault((t.rows, t.cols), []).append(t)
        for (rows, cols), group in groups.items():
            r_idx = np.array([t.row for t in group])[:, None] + np.arange(rows)
            c_idx = np.array([t.col for t in group])[:, None] + np.arange(cols)
            a_s = a_view[r_idx]
            b_s = np.ascontiguousarray(b_view[:, c_idx].transpose(1, 0, 2))
            scatter = (r_idx[:, :, None], c_idx[:, None, :])
            if accumulate:
                acc = c_view[scatter]
            else:
                acc = np.zeros((len(group), rows, cols), np.float32)
            tmp = np.empty_like(acc)
            for p in range(kc):
                np.einsum("tr,tc->trc", a_s[:, :, p], b_s[:, p, :], out=tmp)
                np.add(acc, tmp, out=acc)
            c_view[scatter] = acc

    def _tile_args(self, tile, blk_a, blk_b, blk_c):
        return {
            ARG_REGS["A"]: blk_a.addr(tile.row, 0),
            ARG_REGS["B"]: blk_b.addr(0, tile.col),
            ARG_REGS["C"]: blk_c.addr(tile.row, tile.col),
            ARG_REGS["lda"]: blk_a.ld,
            ARG_REGS["ldb"]: blk_b.ld,
            ARG_REGS["ldc"]: blk_c.ld,
        }

    def _run_tile(self, sim, kernel, tile, blk_a, blk_b, blk_c) -> Trace:
        result = sim.run(kernel.program, args=self._tile_args(tile, blk_a, blk_b, blk_c))
        return result.trace

    def _run_padded_tile(self, sim, kernel, tile, blk_a, blk_b, blk_c,
                         pad_scratch) -> Trace:
        """OpenBLAS-style padded edge: run the full kernel on zero-padded
        scratch operands, then copy the valid region back.  The pad copies
        are bookkeeping (hidden in packing on the real library) -- only the
        kernel's own trace is timed, including its redundant FMAs.  Scratch
        buffers are reused across tiles of the same kernel shape (they are
        fully rewritten each call), so scratch stays bounded by the handful
        of distinct shapes a plan uses rather than growing per tile.

        Timing note: because the scratch addresses repeat, they stay warm in
        the per-core cache model, so later padded tiles hit where per-tile
        fresh buffers would miss -- modeling a real library's resident
        packing buffers.  This deliberately lowers ``static_edges='pad'``
        cycles relative to naive fresh-scratch staging; the remaining Fig. 5a
        padding penalty is the redundant FMAs plus the first-touch misses.
        Pinned by ``TestPaddedTimingModel`` in the telemetry integration
        tests."""
        memory = sim.memory
        cfg = kernel.config
        kc = blk_a.cols
        pad_a, pad_b, pad_c = self._pad_buffers(memory, cfg, kc, pad_scratch)
        a_cell = np.zeros((cfg.mr, kc), np.float32)
        b_cell = np.zeros((kc, cfg.nr), np.float32)
        c_cell = np.zeros((cfg.mr, cfg.nr), np.float32)
        for r in range(tile.rows):
            a_cell[r, :] = memory.load_f32(blk_a.addr(tile.row + r, 0), kc)
        for kk in range(kc):
            b_cell[kk, : tile.cols] = memory.load_f32(
                blk_b.addr(kk, tile.col), tile.cols
            )
        if cfg.accumulate:
            for r in range(tile.rows):
                c_cell[r, : tile.cols] = memory.load_f32(
                    blk_c.addr(tile.row + r, tile.col), tile.cols
                )
        memory.write_matrix(pad_a, a_cell)
        memory.write_matrix(pad_b, b_cell)
        memory.write_matrix(pad_c, c_cell)
        args = {
            ARG_REGS["A"]: pad_a.base,
            ARG_REGS["B"]: pad_b.base,
            ARG_REGS["C"]: pad_c.base,
            ARG_REGS["lda"]: pad_a.ld,
            ARG_REGS["ldb"]: pad_b.ld,
            ARG_REGS["ldc"]: pad_c.ld,
        }
        result = sim.run(kernel.program, args=args)
        out = memory.read_matrix(pad_c)
        for r in range(tile.rows):
            memory.store_f32(blk_c.addr(tile.row + r, tile.col), out[r, : tile.cols])
        return result.trace

    # ------------------------------------------------------------------
    def verify(self, result: GemmResult, a, b, c=None, beta: float = 1.0) -> float:
        """Relative error of a run against the numpy reference."""
        from .reference import relative_error

        want = reference_gemm(a, b, c, beta=beta if c is not None else 0.0)
        return relative_error(result.c, want)
