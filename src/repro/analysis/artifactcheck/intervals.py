"""Interval analysis over the index arithmetic the native C kernels consume.

``repro_scoreboard`` and ``repro_consult`` (:mod:`repro.machine.native`)
index raw buffers with values taken straight from the compiled artifact:
``reg_ready[r_idx[j]]``, ``unit_free[flow_unit[f]]``, ``rt[flow_unit[f]]``,
``hist[reg * rename_limit + ...]``, and 64-bit address/line arithmetic on
``bases[mem_op] + mem_delta``.  C has no bounds checks, so a single
out-of-range index is silent heap corruption.  This pass proves, from the
arrays alone, that every such access stays in bounds and every integer
expression stays in range **for any input the replay engine can legally
supply** -- after it passes, the kernels cannot read or write out of
bounds regardless of operand bases or cache geometry:

* register indices in ``[0, n_regs)`` and unit ids in ``[0, len(units))``
  (with an advisory when the template exceeds the native kernel's fixed
  ``MAX_UNITS`` table -- legal, just native-ineligible);
* CSR offset arrays structurally sound in plain int64 arithmetic (int32
  cumsum overflow shows up as a negative step, not a crash);
* memory-op operand slots within the fused base tuple, deltas
  non-negative (the capture contract: a region's base is its low bound)
  and, when operand extents are supplied, within each operand's span;
* ``bases[op] + delta`` provably free of int64 overflow for any base
  below :data:`DEFAULT_ADDR_BOUND`;
* the hierarchy's LRU slot arrays well-formed for ``repro_consult``
  (array sizes match the geometry, occupancy within associativity), via
  :func:`check_cache_slots`.
"""

from __future__ import annotations

import numpy as np

from ...machine.native import MAX_UNITS
from ..staticcheck.findings import Report, Severity

__all__ = ["DEFAULT_ADDR_BOUND", "check_intervals", "check_cache_slots"]

_KIND_LOAD, _KIND_STORE, _KIND_PREFETCH = 1, 2, 3

#: Exclusive upper bound assumed for operand base addresses: 2**47 covers
#: the user-space virtual address range of every Arm Linux configuration
#: the paper targets (and the simulator's arena is far smaller).
DEFAULT_ADDR_BOUND = 1 << 47

_INT64_MAX = np.iinfo(np.int64).max


def _bounds_error(
    report: Report, code: str, name: str, arr, lo: int, hi: int
) -> bool:
    """Flag values of ``arr`` outside ``[lo, hi)``; True when clean."""
    if arr.size == 0:
        return True
    amin, amax = int(arr.min()), int(arr.max())
    if amin < lo or amax >= hi:
        bad = int(
            np.flatnonzero((arr < lo) | (arr.astype(np.int64) >= hi))[0]
        )
        report.add(
            code,
            Severity.ERROR,
            f"{name}[{bad}] = {int(arr[bad])} outside [{lo}, {hi}) -- the "
            "C kernels would index out of bounds",
            index=bad,
        )
        return False
    return True


def check_intervals(
    template,
    compiled,
    report: Report,
    addr_bound: int = DEFAULT_ADDR_BOUND,
    extents=None,
) -> None:
    """Prove the artifact's index arithmetic safe for the C kernels.

    ``extents`` optionally maps operand slot -> bytes spanned by that
    operand (a sequence indexed by slot); deltas are then checked against
    the actual operand footprint, not just for sign.
    """
    # -- memory-op stream ------------------------------------------------
    kinds = compiled.mem_kind
    if kinds.size:
        bad_kind = ~np.isin(
            kinds, (_KIND_LOAD, _KIND_STORE, _KIND_PREFETCH)
        )
        if bad_kind.any():
            bad = int(np.flatnonzero(bad_kind)[0])
            report.add(
                "mem-kind-domain",
                Severity.ERROR,
                f"mem_kind[{bad}] = {int(kinds[bad])} is not a "
                "load/store/prefetch",
                index=bad,
            )
        if int(compiled.mem_plevel.max()) > 4:
            bad = int(np.flatnonzero(compiled.mem_plevel > 4)[0])
            report.add(
                "plevel-domain",
                Severity.WARNING,
                f"mem_plevel[{bad}] = {int(compiled.mem_plevel[bad])} "
                "targets no modelled cache level (prefetch becomes a "
                "no-op fill)",
                index=bad,
            )

    periods = template.sched_periods
    n_tiles = len(periods[1]) if periods is not None else 1
    n_bases = 3 * max(1, n_tiles)
    _bounds_error(
        report, "operand-slot-bounds", "mem_op", compiled.mem_op, 0, n_bases
    )

    deltas = compiled.mem_delta
    if deltas.size:
        dmin, dmax = int(deltas.min()), int(deltas.max())
        if dmin < 0:
            bad = int(np.flatnonzero(deltas < 0)[0])
            report.add(
                "negative-delta",
                Severity.WARNING,
                f"mem_delta[{bad}] = {int(deltas[bad])} is negative -- "
                "capture classifies addresses against [base, base+span), "
                "so a negative delta is outside the derivation contract",
                index=bad,
            )
        # bases[op] + delta is int64; prove no wrap for any legal base.
        if dmax > _INT64_MAX - addr_bound:
            report.add(
                "address-overflow",
                Severity.ERROR,
                f"max delta {dmax} + base bound {addr_bound} overflows "
                "int64 address arithmetic",
            )
        if extents is not None:
            ops = compiled.mem_op
            ext = np.asarray(
                [int(e) for e in extents], np.int64
            )
            if ext.size >= n_bases and ops.size:
                over = deltas >= ext[ops]
                if over.any():
                    bad = int(np.flatnonzero(over)[0])
                    report.add(
                        "delta-extent",
                        Severity.ERROR,
                        f"mem_delta[{bad}] = {int(deltas[bad])} reaches "
                        f"past operand slot {int(ops[bad])}'s extent "
                        f"{int(ext[ops[bad]])} byte(s)",
                        index=bad,
                    )
            elif ext.size < n_bases:
                report.add(
                    "delta-extent",
                    Severity.ERROR,
                    f"{ext.size} extent(s) supplied for {n_bases} operand "
                    "slot(s)",
                )

    # -- flow/CSR tables -------------------------------------------------
    flow_ids, flow_unit, flow_kind, r_off, r_idx, w_off, w_idx = (
        compiled.flow_tables(template)
    )
    n_flows = int(flow_unit.size)
    _bounds_error(
        report, "flow-ids-bounds", "flow_ids", flow_ids, 0, max(1, n_flows)
    )
    n_units = len(template.units)
    _bounds_error(
        report, "unit-index-bounds", "flow_unit", flow_unit, 0,
        max(1, n_units),
    )
    if n_units > MAX_UNITS:
        report.add(
            "native-ineligible",
            Severity.ADVICE,
            f"{n_units} interned unit(s) exceed the native kernel's fixed "
            f"table ({MAX_UNITS}); the Python scoreboard serves instead",
        )
    if flow_kind.size and int(flow_kind.max()) > _KIND_PREFETCH:
        bad = int(np.flatnonzero(flow_kind > _KIND_PREFETCH)[0])
        report.add(
            "flow-kind-domain",
            Severity.ERROR,
            f"flow_kind[{bad}] = {int(flow_kind[bad])} is not a known "
            "mem-op kind",
            index=bad,
        )

    n_regs = template.n_regs
    for name, off, idx in (("r", r_off, r_idx), ("w", w_off, w_idx)):
        off64 = off.astype(np.int64)
        ok = (
            off.size == n_flows + 1
            and int(off64[0]) == 0
            and bool(np.all(np.diff(off64) >= 0))
            and int(off64[-1]) == idx.size
        )
        if not ok:
            report.add(
                "csr-bounds",
                Severity.ERROR,
                f"{name}_off is unsafe to slice: len {off.size} for "
                f"{n_flows} flow(s), range "
                f"[{int(off64[0]) if off.size else 'n/a'}, "
                f"{int(off64[-1]) if off.size else 'n/a'}], "
                f"{name}_idx len {idx.size}",
            )
            continue
        _bounds_error(
            report, "reg-index-bounds", f"{name}_idx", idx, 0,
            max(1, n_regs),
        )


def check_cache_slots(caches, report: Report) -> None:
    """Prove a hierarchy's live LRU slot arrays safe for ``repro_consult``.

    The kernel reads level ``l`` set ``s`` at ``tags[tag_base[l] + s * ways]``
    with occupancy ``lens[s]`` and shifts within ``slot[0 .. ways)``.  A tag
    or length array shorter than its geometry implies, or an occupancy
    outside ``[0, ways]``, reads or writes past the array or into a
    neighbouring set's slots.
    """
    n_tags = n_lens = 0
    for lvl, cache in caches.levels:
        sets, ways = cache.num_sets, cache.ways
        n_tags += sets * ways
        n_lens += sets
        if (
            sets < 1
            or ways < 1
            or cache.tags.size != sets * ways
            or cache.lens.size != sets
        ):
            report.add(
                "cache-geometry",
                Severity.ERROR,
                f"L{lvl}: {cache.tags.size} tag slot(s) and "
                f"{cache.lens.size} length(s) for {sets} set(s) x "
                f"{ways} way(s)",
            )
            continue
        lens = cache.lens
        bad = np.flatnonzero((lens < 0) | (lens > ways))
        if bad.size:
            s = int(bad[0])
            report.add(
                "lru-occupancy",
                Severity.ERROR,
                f"L{lvl} set {s}: occupancy {int(lens[s])} outside "
                f"[0, {ways}] -- the kernel would shift into the next "
                "set's slots",
                index=s,
            )
            continue
        resident = np.arange(ways) < lens[:, None]
        negative = (cache.tags.reshape(sets, ways) < 0) & resident
        neg_sets = np.flatnonzero(negative.any(axis=1))
        if neg_sets.size:
            s = int(neg_sets[0])
            report.add(
                "lru-negative-tag",
                Severity.WARNING,
                f"L{lvl} set {s}: negative tag resident -- C floor "
                "division would disagree with Python on this line",
                index=s,
            )
    if caches.tags.size != n_tags or caches.lens.size != n_lens:
        report.add(
            "cache-geometry",
            Severity.ERROR,
            f"hierarchy: {caches.tags.size} tag slot(s) and "
            f"{caches.lens.size} length(s) where its levels need "
            f"{n_tags} and {n_lens}",
        )
