"""Lowering-equivalence checker for :class:`CompiledTemplate` artifacts.

``compile_template`` and the lazy table builders on the artifact take
several shortcuts for speed -- per-chunk array conversion cached by object
identity, flow dedup keyed by ``id(entry)``, period segments reused by key
-- and a bug in any of them silently corrupts every replay that follows.
This module *re-derives* each lowered structure from the source
:class:`~repro.machine.simulator.TraceTemplate` by the slow, obvious path
(a plain per-op walk over ``mem_chunks``; flow identity keyed by tuple
*value*, never by object id; no segment reuse) and proves the artifact
equal to the re-derivation:

* **memory-op stream** -- the four parallel arrays equal the per-op walk
  with fused operand-slot offsets applied (conservation + program order +
  fused-chunk offset correctness in one element-wise comparison);
* **load mask** -- exactly the load positions of the stream, and the load
  count conserved against the template's own ``n_loads``;
* **flow/CSR tables** -- every instruction's ``(unit, reads, writes,
  kind)`` recovered through ``flow_ids`` + the CSR slices equals the sched
  entry at that position (the artifact may legitimately hold duplicate
  flows -- identity dedup is coarser than value dedup -- so equality is
  checked on the *composition*, not the tables themselves);
* **scheduler tables** -- unit vector and load/store/prefetch positions
  equal a direct scan of ``sched``;
* **period structure** -- ``sched_periods`` is well-formed (starts at 0,
  monotone, covers the stream) and equal keys really do name value-equal
  sched segments, which is what ``flow_tables``'s array reuse assumes.
"""

from __future__ import annotations

import numpy as np

from ..staticcheck.findings import Report, Severity

__all__ = [
    "derive_mem_stream",
    "check_lowering",
    "check_sched_periods",
]

_KIND_PLAIN, _KIND_LOAD, _KIND_STORE, _KIND_PREFETCH = 0, 1, 2, 3

#: Expected dtypes of the four parallel memory-op arrays -- the native
#: consult path hands these buffers to C by dtype, so a drifted dtype is a
#: correctness bug even when the values happen to agree.
_MEM_DTYPES = (np.uint8, np.int32, np.int64, np.uint8)


def derive_mem_stream(template) -> list[tuple[int, int, int, int]]:
    """Independent re-derivation of the compiled memory-op stream.

    A plain per-op walk over ``mem_chunks`` applying each chunk's operand
    slot offset -- deliberately no per-chunk caching, so an aliasing bug in
    ``compile_template``'s ``id(chunk)`` cache cannot hide here.
    """
    stream: list[tuple[int, int, int, int]] = []
    append = stream.append
    for off, chunk in template.mem_chunks:
        for kind, op_idx, delta, plevel in chunk:
            append((kind, op_idx + off, delta, plevel))
    return stream


def _check_mem_stream(template, compiled, report: Report) -> None:
    arrays = (
        compiled.mem_kind,
        compiled.mem_op,
        compiled.mem_delta,
        compiled.mem_plevel,
    )
    names = ("mem_kind", "mem_op", "mem_delta", "mem_plevel")
    n_ops = compiled.n_ops
    layout_ok = True
    for name, arr, want in zip(names, arrays, _MEM_DTYPES):
        if arr.ndim != 1 or arr.size != n_ops or arr.dtype != np.dtype(want):
            report.add(
                "mem-array-layout",
                Severity.ERROR,
                f"{name}: shape {arr.shape} dtype {arr.dtype} "
                f"(expected ({n_ops},) {np.dtype(want).name})",
            )
            layout_ok = False
    mask = compiled.load_mask
    if mask.ndim != 1 or mask.size != n_ops or mask.dtype != np.bool_:
        report.add(
            "mem-array-layout",
            Severity.ERROR,
            f"load_mask: shape {mask.shape} dtype {mask.dtype} "
            f"(expected ({n_ops},) bool)",
        )
        layout_ok = False

    stream = derive_mem_stream(template)
    if len(stream) != n_ops:
        report.add(
            "mem-conservation",
            Severity.ERROR,
            f"artifact holds {n_ops} memory op(s), template chunks hold "
            f"{len(stream)}",
        )
        layout_ok = False

    # The stream must be the non-plain subsequence of ``sched`` in program
    # order -- that alignment is what lets ``consult`` and the scheduler
    # walk two arrays instead of one interleaved list.
    sched_mem = sum(1 for e in template.sched if e[3])
    if len(stream) != sched_mem:
        report.add(
            "mem-conservation",
            Severity.ERROR,
            f"template chunks hold {len(stream)} memory op(s) but sched "
            f"marks {sched_mem} non-plain entr(ies)",
        )

    if not layout_ok:
        return

    n = len(stream)
    ref = [
        np.fromiter((op[col] for op in stream), dt, n)
        for col, dt in enumerate(_MEM_DTYPES)
    ]
    for name, arr, ref_arr in zip(names, arrays, ref):
        if not np.array_equal(arr, ref_arr):
            bad = int(np.flatnonzero(arr != ref_arr)[0])
            report.add(
                "mem-stream-mismatch",
                Severity.ERROR,
                f"{name}[{bad}] = {arr[bad]} but re-derivation gives "
                f"{ref_arr[bad]}",
                index=bad,
            )

    ref_mask = ref[0] == _KIND_LOAD
    if not np.array_equal(mask, ref_mask):
        bad = int(np.flatnonzero(mask != ref_mask)[0])
        report.add(
            "load-mask",
            Severity.ERROR,
            f"load_mask[{bad}] = {bool(mask[bad])} but mem kind there is "
            f"{int(ref[0][bad])}",
            index=bad,
        )
    n_loads_ref = int(np.count_nonzero(ref_mask))
    for label, got in (
        ("artifact n_loads", compiled.n_loads),
        ("template n_loads", template.n_loads),
    ):
        if got != n_loads_ref:
            report.add(
                "load-mask",
                Severity.ERROR,
                f"{label} = {got} but the re-derived stream has "
                f"{n_loads_ref} load(s)",
            )


def _check_flow_tables(template, compiled, report: Report) -> None:
    flow_ids, flow_unit, flow_kind, r_off, r_idx, w_off, w_idx = (
        compiled.flow_tables(template)
    )
    sched = template.sched
    n_instr = template.n_instr
    n_flows = int(flow_unit.size)

    if flow_ids.size != n_instr:
        report.add(
            "flow-ids-range",
            Severity.ERROR,
            f"flow_ids covers {flow_ids.size} instruction(s), sched has "
            f"{n_instr}",
        )
        return
    if flow_ids.size and (
        int(flow_ids.min()) < 0 or int(flow_ids.max()) >= n_flows
    ):
        report.add(
            "flow-ids-range",
            Severity.ERROR,
            f"flow_ids values span [{int(flow_ids.min())}, "
            f"{int(flow_ids.max())}] outside [0, {n_flows})",
        )
        return

    for name, off, idx in (("r", r_off, r_idx), ("w", w_off, w_idx)):
        ok = (
            off.size == n_flows + 1
            and (off.size == 0 or int(off[0]) == 0)
            and bool(np.all(np.diff(off.astype(np.int64)) >= 0))
            and int(off[-1]) == idx.size
        )
        if not ok:
            report.add(
                "csr-structure",
                Severity.ERROR,
                f"{name}_off is not a valid CSR offset array: "
                f"len {off.size} (flows {n_flows}), first "
                f"{int(off[0]) if off.size else 'n/a'}, last "
                f"{int(off[-1]) if off.size else 'n/a'}, "
                f"{name}_idx len {idx.size}, monotone "
                f"{bool(np.all(np.diff(off.astype(np.int64)) >= 0))}",
            )
            return

    # Value-keyed reference flow assignment over sched -- never id()-keyed,
    # so identity-aliasing bugs in the artifact cannot leak in.
    ref_of: dict[tuple, int] = {}
    ref_ids = np.empty(n_instr, np.int64)
    for i, entry in enumerate(sched):
        fid = ref_of.get(entry)
        if fid is None:
            fid = len(ref_of)
            ref_of[entry] = fid
        ref_ids[i] = fid

    # Materialise each artifact flow's content once (flows are few), map it
    # into the reference id space, then compare the full composition.
    remap = np.empty(n_flows, np.int64)
    unknown = 0
    for f in range(n_flows):
        content = (
            int(flow_unit[f]),
            tuple(r_idx[int(r_off[f]) : int(r_off[f + 1])].tolist()),
            tuple(w_idx[int(w_off[f]) : int(w_off[f + 1])].tolist()),
            int(flow_kind[f]),
        )
        fid = ref_of.get(content)
        if fid is None:
            if flow_ids.size and np.any(flow_ids == f):
                report.add(
                    "flow-content-unknown",
                    Severity.ERROR,
                    f"flow {f} content {content} matches no sched entry",
                )
                unknown += 1
            fid = -1
        remap[f] = fid
    if unknown:
        return

    composed = remap[flow_ids]
    if not np.array_equal(composed, ref_ids):
        bad = int(np.flatnonzero(composed != ref_ids)[0])
        f = int(flow_ids[bad])
        report.add(
            "flow-lowering-mismatch",
            Severity.ERROR,
            f"instruction {bad}: flow {f} reconstructs "
            f"(unit={int(flow_unit[f])}, kind={int(flow_kind[f])}, "
            f"reads={r_idx[int(r_off[f]):int(r_off[f + 1])].tolist()}, "
            f"writes={w_idx[int(w_off[f]):int(w_off[f + 1])].tolist()}) "
            f"but sched[{bad}] is {sched[bad]}",
            index=bad,
        )
        return

    # Scheduler tables are a gather through the flow tables; verify the
    # composed result against a direct scan of sched.
    unit_arr, load_pos, store_pos, pref_pos = compiled.sched_tables(template)
    ref_units = np.fromiter((e[0] for e in sched), np.int64, n_instr)
    ref_kinds = np.fromiter((e[3] for e in sched), np.int64, n_instr)
    if not np.array_equal(unit_arr.astype(np.int64), ref_units):
        bad = int(np.flatnonzero(unit_arr != ref_units)[0])
        report.add(
            "sched-table-mismatch",
            Severity.ERROR,
            f"unit_arr[{bad}] = {int(unit_arr[bad])} but sched says "
            f"{int(ref_units[bad])}",
            index=bad,
        )
    for name, pos, kind in (
        ("load", load_pos, _KIND_LOAD),
        ("store", store_pos, _KIND_STORE),
        ("prefetch", pref_pos, _KIND_PREFETCH),
    ):
        want = np.flatnonzero(ref_kinds == kind)
        if not np.array_equal(pos.astype(np.int64), want):
            report.add(
                "sched-table-mismatch",
                Severity.ERROR,
                f"{name} positions disagree with sched: got {pos.size} "
                f"position(s), expected {want.size}",
            )


def check_sched_periods(template, report: Report) -> bool:
    """Validate the fused period structure ``flow_tables`` relies on.

    Returns True when the structure is usable.  ``flow_tables`` consumes
    ``sched[starts[i]:starts[i+1]]`` per period plus the tail after
    ``starts[-1]`` -- so the structure must start at 0, be monotone, stay
    within the stream, and (the reuse invariant) equal keys must name
    value-equal sched segments.
    """
    periods = template.sched_periods
    if periods is None:
        return True
    starts, keys = periods
    n_instr = template.n_instr
    ok = (
        len(starts) == len(keys) + 1
        and (not starts or starts[0] == 0)
        and all(a <= b for a, b in zip(starts, starts[1:]))
        and (not starts or starts[-1] <= n_instr)
    )
    if not ok:
        report.add(
            "period-structure",
            Severity.ERROR,
            f"sched_periods malformed: {len(starts)} start(s) for "
            f"{len(keys)} key(s), first "
            f"{starts[0] if starts else 'n/a'}, last "
            f"{starts[-1] if starts else 'n/a'} (n_instr {n_instr})",
        )
        return False

    sched = template.sched
    first_seen: dict = {}
    for i, key in enumerate(keys):
        s0, s1 = starts[i], starts[i + 1]
        prev = first_seen.get(key)
        if prev is None:
            first_seen[key] = (s0, s1)
            continue
        p0, p1 = prev
        same = (p1 - p0) == (s1 - s0) and all(
            a is b or a == b for a, b in zip(sched[p0:p1], sched[s0:s1])
        )
        if not same:
            report.add(
                "period-key-aliasing",
                Severity.ERROR,
                f"period {i} shares key {key!r} with the segment at "
                f"[{p0}, {p1}) but its sched content differs -- "
                f"flow_tables would replay the wrong segment",
                index=s0,
            )
            return False
    return True


def check_lowering(template, compiled, report: Report) -> None:
    """All lowering-equivalence checks for one (template, artifact) pair."""
    _check_mem_stream(template, compiled, report)
    if check_sched_periods(template, report):
        _check_flow_tables(template, compiled, report)
