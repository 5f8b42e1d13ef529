"""Functional execution of generated programs, with optional timing replay.

``Simulator.run`` interprets a :class:`~repro.isa.program.Program` against a
:class:`~repro.machine.memory.Memory`, producing the architectural side
effects (the GEMM result lands in simulated memory, where tests compare it to
``numpy``) and a dynamic :class:`~repro.isa.program.Trace`.  ``run_timed``
additionally replays the trace through the chip's scoreboard pipeline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..isa.instructions import Branch, Label, Unit
from ..isa.program import MachineState, Program, Trace, TraceEntry
from ..isa.registers import RegisterFile, XReg
from .cache import CacheHierarchy
from .chips import ChipSpec
from .memory import Memory
from .pipeline import PipelineModel, TimingResult

__all__ = [
    "Simulator",
    "SimulationError",
    "RunResult",
    "TraceTemplate",
    "build_template",
    "template_to_trace",
    "DEFAULT_TIMING_MEMO_CAP",
]

#: Default fuel: generated micro-kernels execute a bounded instruction count;
#: anything past this indicates a broken back-edge.
DEFAULT_FUEL = 50_000_000

#: Default LRU bound on a template's ``timing_memo``: distinct load-level
#: signatures per (chip, launch) pair kept before the least-recently-used
#: entry is dropped.  A steady-state GEMM needs a handful (cold edges + warm
#: interior), so 64 is generous while keeping a long mixed-shape run from
#: accreting schedules without limit.
DEFAULT_TIMING_MEMO_CAP = 64


class SimulationError(RuntimeError):
    """Raised on runaway execution or an undefined branch target."""


#: Memory-op kinds inside a :class:`TraceTemplate` entry.  They mirror the
#: latency dispatch in ``PipelineModel.time_trace`` exactly: PLAIN covers
#: every entry whose address is ``None`` (unit latency from the chip table).
KIND_PLAIN, KIND_LOAD, KIND_STORE, KIND_PREFETCH = 0, 1, 2, 3


class TraceTemplate:
    """A dynamic trace re-expressed with operand-relative addresses.

    The generated kernels are counted loops whose control flow never depends
    on operand values or addresses, and every traced address is affine in
    exactly one of the three operand base registers (A/B/C) for fixed leading
    dimensions.  A template therefore captures one invocation's dynamic
    stream as ``(instr, kind, operand, delta)`` tuples and can be *replayed*
    for any other tile with the same :class:`~repro.gemm.kernel_cache.KernelKey`
    by rebasing ``base[operand] + delta`` -- producing the identical address
    sequence the interpreter would have traced, without executing a single
    instruction.

    ``sched`` pre-extracts what the scoreboard needs per entry (unit, reads,
    writes, kind), and ``timing_memo`` caches scheduler results keyed by the
    per-load cache-level signature: two replays whose loads hit the same
    levels in the same order are cycle-identical by construction.  The memo
    is an LRU bounded by ``memo_cap`` (:data:`DEFAULT_TIMING_MEMO_CAP`).

    ``compiled`` lazily holds the template's structure-of-arrays artifact
    (:class:`~repro.machine.compiled.CompiledTemplate`), built on first
    replay by :meth:`~repro.machine.pipeline.PipelineModel.replay_template`
    and dropped by :meth:`invalidate_compiled`; ``compile_failed`` latches an
    injected compile failure so callers time the template's work interpreted
    without re-attempting compilation on every tile.
    """

    __slots__ = (
        "entries",
        "sched",
        "mem_ops",
        "mem_chunks",
        "n_instr",
        "n_loads",
        "flops",
        "uid",
        "timing_memo",
        "memo_cap",
        "compiled",
        "compile_failed",
        "units",
        "regs",
        "n_regs",
        "sched_periods",
    )

    def __init__(
        self,
        entries: list[tuple[object, int, int, int, int]],
        flops: int,
        uid: int = -1,
    ) -> None:
        self.entries = entries
        self.flops = flops
        self.uid = uid
        self.timing_memo: OrderedDict = OrderedDict()
        self.memo_cap = DEFAULT_TIMING_MEMO_CAP
        self.compiled = None
        self.compile_failed = False
        # Intern units and registers to dense integer ids so the scheduler
        # indexes flat lists instead of hashing enum/register objects (the
        # dominant cost of a dict-based scoreboard at millions of entries).
        # Interning happens per *unique* instruction object -- generated
        # kernels re-execute a few hundred distinct instructions millions of
        # times, so this adds nothing to template-build cost.  ``regs`` is
        # the inverse table (id -> register object) so template fusion can
        # unify architectural registers across tiles.
        sched = []
        mem_ops = []
        dataflow: dict[int, tuple[int, tuple, tuple]] = {}
        reg_ids: dict[object, int] = {}
        regs: list = []
        unit_ids: dict[object, int] = {}
        units: list = []
        n_loads = 0
        for instr, kind, op_idx, delta, plevel in entries:
            flow = dataflow.get(id(instr))
            if flow is None:
                unit = instr.unit
                ui = unit_ids.get(unit)
                if ui is None:
                    ui = len(units)
                    unit_ids[unit] = ui
                    units.append(unit)
                reads = []
                for r in instr.reads():
                    ri = reg_ids.get(r)
                    if ri is None:
                        ri = len(regs)
                        reg_ids[r] = ri
                        regs.append(r)
                    reads.append(ri)
                writes = []
                for r in instr.writes():
                    ri = reg_ids.get(r)
                    if ri is None:
                        ri = len(regs)
                        reg_ids[r] = ri
                        regs.append(r)
                    writes.append(ri)
                flow = (ui, tuple(reads), tuple(writes))
                dataflow[id(instr)] = flow
            sched.append((flow[0], flow[1], flow[2], kind))
            if kind != KIND_PLAIN:
                mem_ops.append((kind, op_idx, delta, plevel))
                if kind == KIND_LOAD:
                    n_loads += 1
        self.sched = sched
        self.mem_ops = mem_ops
        #: Memory ops as ``(operand_slot_offset, op_list)`` chunks; fused
        #: templates carry several chunks so per-tile bodies can share the
        #: source template's op list instead of copying it with shifted slots.
        self.mem_chunks = ((0, mem_ops),)
        self.n_instr = len(sched)
        self.n_loads = n_loads
        self.units = units
        self.regs = regs
        self.n_regs = len(regs)
        #: Optional ``(starts, keys)`` periodic structure of ``sched`` set by
        #: template fusion, one period per fused tile: equal keys name
        #: value-equal segments, so the compiled flow tables build each
        #: distinct segment once, and the artifact checker's interval pass
        #: counts operand slots by it.  ``None`` for plain captured templates.
        self.sched_periods = None

    @classmethod
    def from_parts(
        cls,
        sched: list,
        mem_chunks: list,
        units: list,
        regs: list,
        flops: int,
        n_loads: int,
        sched_periods: tuple | None = None,
    ) -> "TraceTemplate":
        """Assemble a template directly from pre-interned parts.

        Used by :func:`~repro.codegen.fusion.fuse_templates`, which composes
        fused blocks out of the per-tile templates' already-interned
        scheduling streams; such templates have no instruction-level
        ``entries`` (callers needing a materialised trace use the per-tile
        templates instead).
        """
        self = cls.__new__(cls)
        self.entries = None
        self.flops = flops
        self.uid = -1
        self.timing_memo = OrderedDict()
        self.memo_cap = DEFAULT_TIMING_MEMO_CAP
        self.compiled = None
        self.compile_failed = False
        self.sched = sched
        self.mem_ops = None
        self.mem_chunks = mem_chunks
        self.n_instr = len(sched)
        self.n_loads = n_loads
        self.units = units
        self.regs = regs
        self.n_regs = len(regs)
        self.sched_periods = sched_periods
        return self

    def invalidate_compiled(self) -> None:
        """Drop the compiled artifact and memoised schedules.

        Required after any mutation of ``sched`` / ``mem_chunks`` (nothing
        in the shipped stack mutates a captured template, but external
        tooling that edits one must call this): the compiled arrays and the
        memo are both derivations of the template's streams and would
        silently replay the stale program otherwise.
        """
        self.compiled = None
        self.compile_failed = False
        self.timing_memo = OrderedDict()


def build_template(
    trace: Trace, regions: list[tuple[int, int, int]]
) -> TraceTemplate | None:
    """Capture ``trace`` as a replayable template.

    ``regions`` gives, per kernel operand (A, B, C in argument order), the
    tuple ``(arg_base, lo, hi)``: the base address passed in the operand's
    argument register and the half-open byte interval of the parent
    allocation that owns every access the kernel makes through it.  The
    generator never reads or writes past an operand (the mainloop is peeled
    precisely to avoid over-reading B), so containment in ``[lo, hi)``
    uniquely identifies the owning operand.  Returns ``None`` when any
    address cannot be classified -- callers must then keep interpreting.
    """
    entries: list[tuple[object, int, int, int, int]] = []
    for e in trace.entries:
        instr = e.instr
        addr = e.address
        if addr is None:
            entries.append((instr, KIND_PLAIN, 0, 0, 0))
            continue
        unit = instr.unit
        if unit is Unit.LOAD:
            kind = KIND_LOAD
        elif unit is Unit.STORE:
            kind = KIND_STORE
        elif unit is Unit.PREFETCH:
            kind = KIND_PREFETCH
        else:  # pragma: no cover - only memory units record addresses
            entries.append((instr, KIND_PLAIN, 0, 0, 0))
            continue
        for op_idx, (arg_base, lo, hi) in enumerate(regions):
            if lo <= addr < hi:
                entries.append(
                    (instr, kind, op_idx, addr - arg_base, getattr(instr, "level", 1))
                )
                break
        else:
            return None
    return TraceTemplate(entries, trace.flops)


def template_to_trace(template: TraceTemplate, bases: tuple[int, ...]) -> Trace:
    """Materialise the dynamic trace a template represents at given bases.

    Reconstructs the exact instruction stream and addresses an interpreted
    run would have produced, so a trace-level consumer (e.g. trace fusion
    falling back from template fusion) can mix replayed and interpreted
    tiles.  ``TraceEntry.size`` is left 0 -- the timing pipeline keys off
    the address alone.
    """
    if template.entries is None:
        raise ValueError("fused templates carry no entries; materialise per tile")
    trace = Trace()
    entries = trace.entries
    for instr, kind, op_idx, delta, _plevel in template.entries:
        if kind:
            entries.append(TraceEntry(instr, bases[op_idx] + delta, 0))
        else:
            entries.append(TraceEntry(instr))
    trace.fma_lane_ops = template.flops // 2
    return trace


@dataclass
class RunResult:
    """Functional + (optional) timing outcome of one program execution."""

    trace: Trace
    state: MachineState
    timing: TimingResult | None = None


class Simulator:
    """Interpreter for the AArch64 subset."""

    def __init__(self, memory: Memory, vector_lanes: int = 4) -> None:
        self.memory = memory
        self.vector_lanes = vector_lanes

    def fresh_state(self, args: dict[XReg, int] | None = None) -> MachineState:
        """A zeroed machine state with optional pre-set x-registers (the
        ``[A] "r"(A), [B] "r"(B) ...`` operand bindings of the inline asm)."""
        regs = RegisterFile(vector_lanes=self.vector_lanes)
        state = MachineState(regs=regs, memory=self.memory)
        if args:
            for reg, value in args.items():
                regs.write_x(reg, value)
        return state

    def run(
        self,
        program: Program,
        args: dict[XReg, int] | None = None,
        state: MachineState | None = None,
        fuel: int = DEFAULT_FUEL,
    ) -> RunResult:
        """Execute ``program`` to completion; returns trace and final state."""
        st = state if state is not None else self.fresh_state(args)
        pc = 0
        instrs = program.instructions
        n = len(instrs)
        # Hoist the label->index dict so each taken back-edge is one dict
        # lookup, not a method call (hot: once per k-loop iteration).
        labels = program.labels
        executed = 0
        while pc < n:
            instr = instrs[pc]
            if not isinstance(instr, Label):
                before = len(st.trace.entries)
                instr.execute(st)
                # Non-memory instructions record themselves here so the trace
                # is the complete dynamic stream.
                if len(st.trace.entries) == before:
                    st.record_plain(instr)
                executed += 1
                if executed > fuel:
                    raise SimulationError(
                        f"{program.name}: exceeded fuel of {fuel} instructions"
                    )
                if isinstance(instr, Branch):
                    target = st.take_branch_target()
                    if target is not None:
                        pc = labels.get(target, -1)
                        if pc < 0:
                            # Cold path: re-raise with the program context.
                            pc = program.label_index(target)
                        continue
            pc += 1
        return RunResult(trace=st.trace, state=st)

    def run_timed(
        self,
        program: Program,
        chip: ChipSpec,
        args: dict[XReg, int] | None = None,
        caches: CacheHierarchy | None = None,
        launch_cycles: float = 0.0,
        fuel: int = DEFAULT_FUEL,
    ) -> RunResult:
        """Execute functionally, then replay through the timing pipeline."""
        if chip.sigma_lane != self.vector_lanes:
            raise ValueError(
                f"simulator lanes ({self.vector_lanes}) do not match chip "
                f"{chip.name} sigma_lane ({chip.sigma_lane})"
            )
        result = self.run(program, args=args, fuel=fuel)
        pipeline = PipelineModel(chip, caches=caches, launch_cycles=launch_cycles)
        result.timing = pipeline.time_trace(result.trace)
        return result
