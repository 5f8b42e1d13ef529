"""Epilogue-with-next-prologue fusion (paper §III-C2, Figure 4).

When a kernel executes a *sequence* of micro-tiles, each tile's epilogue
(the C stores and remainder FMAs) can overlap the next tile's prologue (its
pointer setup, prefetches and first A/B/C loads): the fused kernel pays the
launch cost once and hides the boundary latency behind arithmetic.

Fusion is an instruction-*scheduling* transformation -- it does not change
what is computed -- so we apply it where the timing pipeline sees it: on the
dynamic trace.  :func:`fuse_traces` concatenates per-tile traces,
interleaving each boundary (previous epilogue stores with next prologue
instructions) so narrow-window cores can overlap them.  The four modes of
Figure 4 (``c_to_c``, ``m_to_m``, ``c_to_m``, ``m_to_c``) describe whether
each side of a boundary is compute- or memory-bound; they emerge from the
tiles' AI classes and are reported for the ablation bench.
"""

from __future__ import annotations

from ..isa.instructions import Unit
from ..isa.program import Trace, TraceEntry
from ..machine.simulator import TraceTemplate
from ..model.perf_model import fusion_kind
from .microkernel import MicroKernel

__all__ = ["split_boundary", "fuse_traces", "fuse_templates", "boundary_modes"]


def split_boundary(trace: Trace) -> tuple[list[TraceEntry], list[TraceEntry], list[TraceEntry]]:
    """Split a kernel trace into ``(prologue, body, epilogue-stores)``.

    The prologue is everything before the first FMA; the epilogue-store
    block is the maximal trailing run of store entries.
    """
    entries = trace.entries
    first_fma = next(
        (i for i, e in enumerate(entries) if e.instr.unit is Unit.FMA), len(entries)
    )
    last = len(entries)
    while last > first_fma and entries[last - 1].instr.unit is Unit.STORE:
        last -= 1
    return entries[:first_fma], entries[first_fma:last], entries[last:]


def _interleave(a: list[TraceEntry], b: list[TraceEntry]) -> list[TraceEntry]:
    """Round-robin merge preserving relative order within each stream."""
    out: list[TraceEntry] = []
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        if ia < len(a):
            out.append(a[ia])
            ia += 1
        if ib < len(b):
            out.append(b[ib])
            ib += 1
    return out


def fuse_traces(traces: list[Trace]) -> Trace:
    """Fuse consecutive micro-kernel traces at their boundaries.

    Each boundary interleaves the previous tile's trailing stores with the
    next tile's prologue (pointer ALU, prefetches, first loads), exactly the
    overlap Figure 4 depicts.  Register dataflow keeps the result causally
    sound in the timing model: the next tile's C loads target the same
    accumulator registers the stores read, and the scoreboard's rename
    tracking orders them relative to the *writes*, the hardware-accurate
    constraint.
    """
    if not traces:
        return Trace()
    fused = Trace()
    fused.fma_lane_ops = sum(t.fma_lane_ops for t in traces)

    pending: list[TraceEntry] = []  # previous tile's epilogue stores
    for trace in traces:
        prologue, body, stores = split_boundary(trace)
        fused.entries.extend(_interleave(pending, prologue))
        fused.entries.extend(body)
        pending = list(stores)
    fused.entries.extend(pending)
    return fused


def _merge_boundary(a, b, out_sched, out_mem):
    """Round-robin two ``(sched, mems, op_off)`` streams (same joint order
    as :func:`_interleave`), appending sched tuples to ``out_sched`` and
    their memory ops -- operand slots shifted by the stream's offset -- to
    ``out_mem`` in the merged program order."""
    a_sched, a_mem, a_off = a
    b_sched, b_mem, b_off = b
    ia = ib = ma = mb = 0
    na, nb = len(a_sched), len(b_sched)
    while ia < na or ib < nb:
        if ia < na:
            e = a_sched[ia]
            ia += 1
            out_sched.append(e)
            if e[3]:
                kind, op_idx, delta, plevel = a_mem[ma]
                ma += 1
                out_mem.append((kind, op_idx + a_off, delta, plevel))
        if ib < nb:
            e = b_sched[ib]
            ib += 1
            out_sched.append(e)
            if e[3]:
                kind, op_idx, delta, plevel = b_mem[mb]
                mb += 1
                out_mem.append((kind, op_idx + b_off, delta, plevel))


def fuse_templates(templates: list[TraceTemplate]) -> TraceTemplate:
    """Fuse trace *templates* with the same boundary interleave as
    :func:`fuse_traces`.

    Applying fusion to templates instead of traces lets the replay fast path
    time a whole fused block without re-interpreting any tile.  Each tile's
    operand slots are shifted to ``3 * tile_index + {0, 1, 2}`` so a fused
    template rebases against the concatenated per-tile (A, B, C) base list.
    The orderings produced here and by ``fuse_traces`` are identical by
    construction (same split, same round-robin), which the equivalence tests
    pin down.

    The fused template is composed directly from the tiles' already-interned
    scheduling streams: a block typically repeats a handful of distinct tile
    templates hundreds of times, so each distinct template is translated
    into the fused (unit, register) id spaces once and its tuples shared by
    every repetition; tile bodies reference the source template's memory-op
    list as an offset chunk instead of copying it.  Only the (small)
    boundary interleaves are materialised.
    """
    if not templates:
        return TraceTemplate([], 0)

    fused_units: list = []
    unit_pos: dict = {}
    fused_regs: list = []
    reg_pos: dict = {}
    parts_by_id: dict[int, tuple] = {}

    def translate(tpl: TraceTemplate):
        parts = parts_by_id.get(id(tpl))
        if parts is not None:
            return parts
        unit_map = []
        for u in tpl.units:
            ui = unit_pos.get(u)
            if ui is None:
                ui = len(fused_units)
                unit_pos[u] = ui
                fused_units.append(u)
            unit_map.append(ui)
        reg_map = []
        for r in tpl.regs:
            ri = reg_pos.get(r)
            if ri is None:
                ri = len(fused_regs)
                reg_pos[r] = ri
                fused_regs.append(r)
            reg_map.append(ri)
        # reads/writes tuples are shared per unique instruction, so the
        # tuple-level translation cache keeps this pass cheap.
        tuple_cache: dict[int, tuple] = {}

        def tr(regs: tuple) -> tuple:
            t = tuple_cache.get(id(regs))
            if t is None:
                t = tuple(reg_map[r] for r in regs)
                tuple_cache[id(regs)] = t
            return t

        sched = [(unit_map[ui], tr(reads), tr(writes), kind) for ui, reads, writes, kind in tpl.sched]

        # Split indices match split_boundary on the underlying trace: the
        # prologue ends at the first FMA, the epilogue is the maximal
        # trailing run of STORE-unit entries.
        fma_ui = unit_pos.get(Unit.FMA, -1)
        store_ui = unit_pos.get(Unit.STORE, -1)
        n = len(sched)
        first_fma = next((i for i, e in enumerate(sched) if e[0] == fma_ui), n)
        last = n
        while last > first_fma and sched[last - 1][0] == store_ui:
            last -= 1
        mems = tpl.mem_ops
        m_pro = sum(1 for e in sched[:first_fma] if e[3])
        m_body_end = len(mems) - sum(1 for e in sched[last:] if e[3])
        parts = (
            (sched[:first_fma], mems[:m_pro]),          # prologue
            (sched[first_fma:last], mems[m_pro:m_body_end]),  # body
            (sched[last:], mems[m_body_end:]),          # epilogue stores
        )
        parts_by_id[id(tpl)] = parts
        return parts

    fused_sched: list = []
    mem_chunks: list = []
    n_loads = 0
    # Period structure for the compiled flow tables' segment reuse: period
    # *i* is the boundary interleave into tile *i* plus tile *i*'s body, and
    # its scheduling-stream content is a pure function of the (previous,
    # current) template identity pair -- `_merge_boundary` round-robins the
    # two source sched lists and `translate` is cached per template object.
    # ``starts[i]`` is where period *i* begins in ``fused_sched``;
    # ``starts[n_tiles]`` is where the trailing epilogue begins.
    period_starts: list = []
    period_keys: list = []
    prev_tpl = None
    pending = ([], [], 0)  # previous tile's epilogue stores (sched, mems, off)
    for tile_idx, tpl in enumerate(templates):
        off = 3 * tile_idx
        (pro_s, pro_m), (body_s, body_m), (sto_s, sto_m) = translate(tpl)
        period_starts.append(len(fused_sched))
        period_keys.append((id(prev_tpl) if prev_tpl is not None else None, id(tpl)))
        boundary_mem: list = []
        _merge_boundary(pending, (pro_s, pro_m, off), fused_sched, boundary_mem)
        if boundary_mem:
            mem_chunks.append((0, boundary_mem))
        fused_sched.extend(body_s)
        if body_m:
            mem_chunks.append((off, body_m))
        pending = (sto_s, sto_m, off)
        prev_tpl = tpl
        n_loads += tpl.n_loads
    sto_s, sto_m, off = pending
    period_starts.append(len(fused_sched))
    fused_sched.extend(sto_s)
    if sto_m:
        mem_chunks.append((off, sto_m))

    return TraceTemplate.from_parts(
        fused_sched,
        mem_chunks,
        fused_units,
        fused_regs,
        sum(t.flops for t in templates),
        n_loads,
        sched_periods=(tuple(period_starts), tuple(period_keys)),
    )


def boundary_modes(kernels: list[MicroKernel]) -> list[str]:
    """Figure 4 mode names for each fusion boundary in a kernel sequence."""
    modes: list[str] = []
    for prev, nxt in zip(kernels, kernels[1:]):
        modes.append(fusion_kind(prev.config.compute_bound, nxt.config.compute_bound))
    return modes
