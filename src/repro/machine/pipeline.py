"""Scoreboard timing model: replay a dynamic trace against a chip pipeline.

The model captures the three effects the paper's optimisations target:

* **dependency stalls** -- an instruction issues no earlier than its source
  registers are ready (RAW) and no earlier than the value it overwrites is
  produced (WAW);
* **issue-port throughput** -- each unit class (FMA / load / store / ALU /
  branch / prefetch) sustains ``IPC_unit`` instructions per cycle;
* **reorder window** -- instruction *i* cannot issue until instruction
  *i - ooo_window* has completed (a ROB-occupancy approximation).  A wide
  window lets hardware hide the ``FMA -> LOAD -> FMA`` register-reuse
  dependency that rotating register allocation removes in software, which is
  why that optimisation helps KP920 (window 24) and not M2 (window 512) --
  the Figure 6 trend.

Loads consult a :class:`~repro.machine.cache.CacheHierarchy` for the level
that services each access, so load latency varies with locality; the KP920
L1-overflow cliff in Figure 6 falls out of this.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..faults import plan as _faults
from ..isa.instructions import Label, Unit
from ..isa.program import Trace
from . import native
from .cache import CacheHierarchy
from .chips import ChipSpec
from .compiled import compile_template

__all__ = ["TimingResult", "PipelineModel"]


@dataclass
class TimingResult:
    """Outcome of timing one trace."""

    cycles: float
    instructions: int
    flops: int
    loads_by_level: dict[int, int] = field(default_factory=dict)
    stall_cycles: float = 0.0

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.cycles if self.cycles else 0.0

    def efficiency(self, chip: ChipSpec) -> float:
        """Fraction of the chip's single-core peak achieved."""
        return self.flops_per_cycle / chip.flops_per_cycle

    def gflops(self, chip: ChipSpec) -> float:
        return self.flops_per_cycle * chip.freq_ghz

    def seconds(self, chip: ChipSpec) -> float:
        return self.cycles / (chip.freq_ghz * 1e9)


class PipelineModel:
    """Greedy scoreboard scheduler with a bounded reorder window.

    :meth:`time_trace` times an interpreted trace and is the reference
    oracle; :meth:`replay_template` re-times a captured template through its
    compiled artifact with bit-identical cycles and cache state.
    """

    #: Per-(chip name, interned unit tuple) scheduler tables, shared across
    #: instances: the rt/lat/load_lat floats depend only on the chip spec and
    #: a template's unit interning order, so rebuilding them from
    #: ``chip.ipc``/``chip.latency`` on every signature miss was pure waste.
    _TABLE_CACHE: dict = {}

    def __init__(
        self,
        chip: ChipSpec,
        caches: CacheHierarchy | None = None,
        launch_cycles: float = 0.0,
    ) -> None:
        self.chip = chip
        self.caches = caches if caches is not None else CacheHierarchy(chip)
        self.launch_cycles = launch_cycles

    def time_trace(self, trace: Trace) -> TimingResult:
        if _faults._PLAN is not None:
            _faults.check("pipeline.timing")
        chip = self.chip
        launch = self.launch_cycles
        caches = self.caches
        reg_ready: dict[object, float] = {}
        # Completion times of recent writes per architectural register; a new
        # write stalls until the write `rename_limit` back has completed
        # (finite physical-register / rename-depth approximation).
        write_hist: dict[object, deque[float]] = {}
        rename_limit = max(1, chip.rename_limit)
        unit_free: dict[Unit, float] = {u: launch for u in Unit}
        window: deque[float] = deque()  # completion times, program order
        window_size = max(1, chip.ooo_window)
        completion = launch
        dep_stall = 0.0
        loads_by_level = {lvl: 0 for lvl in caches.level_ids}
        n_instr = 0
        t_fetch = launch
        fetch_step = 1.0 / chip.decode_width

        # Hot-loop hoists: per-unit reciprocal throughput / latency tables,
        # per-level load latencies, and a per-instruction dataflow cache
        # (instructions are immutable and repeat across loop iterations, so
        # their reads()/writes() tuples are computed once).
        rt = {u: 1.0 / chip.ipc(u.value) for u in Unit}
        lat = {u: float(chip.latency(u.value)) for u in Unit}
        load_lat = {lvl: float(chip.load_latency(lvl)) for lvl in (1, 2, 3, 4)}
        store_lat = float(chip.lat_store)
        dataflow: dict[int, tuple[tuple, tuple]] = {}
        LOAD, STORE, PREFETCH = Unit.LOAD, Unit.STORE, Unit.PREFETCH

        for entry in trace.entries:
            instr = entry.instr
            if type(instr) is Label:
                continue
            n_instr += 1
            unit = instr.unit

            flow = dataflow.get(id(instr))
            if flow is None:
                flow = (tuple(instr.reads()), tuple(instr.writes()))
                dataflow[id(instr)] = flow
            reads, writes = flow

            # RAW: sources must be produced.  WAW: overwriting an
            # architectural register stalls once the rename depth for that
            # register is exhausted -- the reuse pressure rotating register
            # allocation relieves in software on shallow-rename cores.
            ready = t_fetch
            for reg in reads:
                t = reg_ready.get(reg, 0.0)
                if t > ready:
                    ready = t
            for reg in writes:
                hist = write_hist.get(reg)
                if hist is not None and len(hist) >= rename_limit:
                    t = hist[0]
                    if t > ready:
                        ready = t

            start = ready if ready > unit_free[unit] else unit_free[unit]
            if len(window) >= window_size and window[0] > start:
                start = window[0]
            if ready > t_fetch:
                dep_stall += ready - t_fetch

            # Latency: loads ask the cache model which level services them.
            address = entry.address
            if unit is LOAD and address is not None:
                level = caches.access(address)
                loads_by_level[level] += 1
                latency = load_lat[level]
            elif unit is PREFETCH and address is not None:
                caches.prefetch(address, getattr(instr, "level", 1))
                latency = 1.0
            elif unit is STORE and address is not None:
                caches.access(address, is_write=True)
                latency = store_lat
            else:
                latency = lat[unit]

            finish = start + latency
            unit_free[unit] = start + rt[unit]
            for reg in writes:
                reg_ready[reg] = finish
                hist = write_hist.get(reg)
                if hist is None:
                    hist = deque()
                    write_hist[reg] = hist
                hist.append(finish)
                if len(hist) > rename_limit:
                    hist.popleft()
            if finish > completion:
                completion = finish

            window.append(finish)
            if len(window) > window_size:
                window.popleft()

            t_fetch += fetch_step

        return TimingResult(
            cycles=completion,
            instructions=n_instr,
            flops=trace.flops,
            loads_by_level=loads_by_level,
            stall_cycles=dep_stall,
        )

    # -- replay fast path ---------------------------------------------------
    def replay_template(
        self, template, bases: tuple[int, ...]
    ) -> TimingResult | None:
        """Re-time a captured trace template at new operand base addresses.

        Lowers the template into its compiled artifact on first use, runs
        every memory op (``base[operand] + delta``) through the cache
        hierarchy in one batched consult -- the sole part of the timing
        model that depends on concrete addresses -- then schedules through
        the identical scoreboard arithmetic as :meth:`time_trace`.  Because
        the scheduler is a pure function of (instruction stream, per-load
        service levels), the schedule is memoised on the level signature:
        replays whose loads hit the same levels in the same order are
        cycle-identical and skip the scoreboard entirely.

        Returns ``None`` when the template cannot be compiled: a fault
        injected at the ``template.compile`` site latches
        ``template.compile_failed`` (counted as
        ``degraded.compile_skipped``) before any cache is consulted, and the
        caller times the same work interpreted instead -- cycle-exact, since
        the interpreter is the reference replay is pinned against.
        """
        if _faults._PLAN is not None:
            _faults.check("pipeline.timing")
        compiled = template.compiled
        if compiled is None:
            if template.compile_failed:
                return None
            try:
                compiled = compile_template(template)
            except _faults.RECOVERABLE_FAULTS:
                template.compile_failed = True
                telemetry.count("degraded.compile_skipped")
                return None
            template.compiled = compiled
            telemetry.count("compile.templates")

        # Cache consults happen in program order, exactly as time_trace
        # interleaves them with scheduling; scheduling never mutates cache
        # state, so consulting first then scheduling is behaviour-preserving.
        signature = compiled.consult(bases, self.caches)
        telemetry.count("replay.compiled_hits")

        memo_store = template.timing_memo
        key = (self.chip.name, self.launch_cycles, signature)
        memo = memo_store.get(key)
        if memo is None:
            memo = self._schedule_compiled(template, compiled, signature)
            memo_store[key] = memo
            telemetry.count("replay.memo_insertions")
            if len(memo_store) > template.memo_cap:
                memo_store.popitem(last=False)
                telemetry.count("replay.memo_evictions")
        else:
            memo_store.move_to_end(key)
        cycles, stall, by_level = memo
        return TimingResult(
            cycles=cycles,
            instructions=template.n_instr,
            flops=template.flops,
            loads_by_level=dict(by_level),
            stall_cycles=stall,
        )

    def _tables(self, units) -> tuple[list, list, list, float]:
        """Per-(chip, unit-interning) scheduler tables, cached class-wide.

        Returns ``(rt, lat, load_lat, store_lat)`` with float values computed
        by the exact expressions ``time_trace`` uses, so cached and uncached
        schedules are bit-identical.  Keyed by chip *name* -- the same
        identity the timing memo already assumes.
        """
        key = (self.chip.name, tuple(units))
        tables = PipelineModel._TABLE_CACHE.get(key)
        if tables is None:
            chip = self.chip
            rt = [1.0 / chip.ipc(u.value) for u in units]
            lat = [float(chip.latency(u.value)) for u in units]
            load_lat = [0.0] + [
                float(chip.load_latency(lvl)) for lvl in (1, 2, 3, 4)
            ]
            store_lat = float(chip.lat_store)
            tables = (rt, lat, load_lat, store_lat)
            PipelineModel._TABLE_CACHE[key] = tables
        return tables

    def _schedule_compiled(
        self, template, compiled, signature: bytes
    ) -> tuple[float, float, dict[int, int]]:
        """Scoreboard pass driven by the compiled artifact's dense arrays.

        Latency selection is fully vectorized -- one gather of the per-unit
        latency table by the instruction's unit id, overwritten at
        store/prefetch positions, and a gather of ``load_lat`` by the load
        signature at load positions -- and the level histogram is a single
        ``bincount``.  The scoreboard recurrence itself (issue times flowing
        through register/unit/window max-chains) is inherently sequential:
        it runs in the native C kernel, or in :meth:`_scoreboard_dense` when
        no toolchain is present.  Both perform :meth:`time_trace`'s float
        operations in identical order on the same doubles its branchy
        latency dispatch picks, so cycles are bit-equal.
        """
        rt, lat, load_lat, store_lat = self._tables(template.units)
        unit_arr, load_pos, store_pos, pref_pos = compiled.sched_tables(template)
        lat_instr = np.asarray(lat, np.float64)[unit_arr]
        if store_pos.size:
            lat_instr[store_pos] = store_lat
        if pref_pos.size:
            lat_instr[pref_pos] = 1.0
        sig_arr = np.frombuffer(signature, np.uint8)
        if load_pos.size:
            lat_instr[load_pos] = np.asarray(load_lat, np.float64)[sig_arr]

        result = self._scoreboard_native(template, compiled, lat_instr)
        if result is None:
            result = self._scoreboard_dense(template, lat_instr.tolist())
        completion, dep_stall = result

        level_count = np.bincount(sig_arr, minlength=5)
        loads_by_level = {
            lvl: int(level_count[lvl]) for lvl in self.caches.level_ids
        }
        return completion, dep_stall, loads_by_level

    def _scoreboard_native(self, template, compiled, lat_instr):
        """Run the scoreboard recurrence in the cffi-built C kernel.

        Returns ``(completion, dep_stall)`` or ``None`` when the native
        kernel is unavailable (no toolchain, ``REPRO_NATIVE=0``) or the
        template exceeds its fixed unit table -- the Python scoreboard then
        serves bit-identically.
        """
        nat = native.get_native()
        if nat is None or len(template.units) > native.MAX_UNITS:
            return None
        ffi, lib = nat
        chip = self.chip
        rt = self._tables(template.units)[0]
        flow_ids, flow_unit, _kind, r_off, r_idx, w_off, w_idx = (
            compiled.flow_tables(template)
        )
        rt_arr = np.asarray(rt, np.float64)
        out = np.empty(2, np.float64)
        rc = lib.repro_scoreboard(
            template.n_instr,
            ffi.from_buffer("int32_t[]", flow_ids),
            ffi.from_buffer("double[]", lat_instr),
            ffi.from_buffer("int32_t[]", flow_unit),
            ffi.from_buffer("int32_t[]", r_off),
            ffi.from_buffer("int32_t[]", r_idx),
            ffi.from_buffer("int32_t[]", w_off),
            ffi.from_buffer("int32_t[]", w_idx),
            ffi.from_buffer("double[]", rt_arr),
            template.n_regs,
            max(1, chip.rename_limit),
            max(1, chip.ooo_window),
            self.launch_cycles,
            1.0 / chip.decode_width,
            ffi.from_buffer("double[]", out),
        )
        if rc != 0:  # pragma: no cover - allocation failure
            return None
        telemetry.count("replay.sched_native")
        return float(out[0]), float(out[1])

    def _scoreboard_dense(
        self, template, lat_list: list
    ) -> tuple[float, float]:
        """The sequential scoreboard recurrence over pre-gathered latencies:
        the Python fallback for :meth:`_scoreboard_native`."""
        chip = self.chip
        launch = self.launch_cycles
        reg_ready = [0.0] * template.n_regs
        write_hist: list = [None] * template.n_regs
        rename_limit = max(1, chip.rename_limit)
        unit_free = [launch] * len(template.units)
        rt = self._tables(template.units)[0]
        window: deque[float] = deque()
        window_size = max(1, chip.ooo_window)
        completion = launch
        dep_stall = 0.0
        t_fetch = launch
        fetch_step = 1.0 / chip.decode_width
        make_hist = deque

        for (ui, reads, writes, _kind), latency in zip(template.sched, lat_list):
            ready = t_fetch
            for reg in reads:
                t = reg_ready[reg]
                if t > ready:
                    ready = t
            for reg in writes:
                hist = write_hist[reg]
                if hist is not None and len(hist) >= rename_limit:
                    t = hist[0]
                    if t > ready:
                        ready = t

            uf = unit_free[ui]
            start = ready if ready > uf else uf
            if len(window) >= window_size and window[0] > start:
                start = window[0]
            if ready > t_fetch:
                dep_stall += ready - t_fetch

            finish = start + latency
            unit_free[ui] = start + rt[ui]
            for reg in writes:
                reg_ready[reg] = finish
                hist = write_hist[reg]
                if hist is None:
                    hist = make_hist()
                    write_hist[reg] = hist
                hist.append(finish)
                if len(hist) > rename_limit:
                    hist.popleft()
            if finish > completion:
                completion = finish

            window.append(finish)
            if len(window) > window_size:
                window.popleft()

            t_fetch += fetch_step

        return completion, dep_stall
