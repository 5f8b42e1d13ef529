"""Mutation self-test for the artifact verifier (compiled-lowering defects).

The same argument as :mod:`repro.analysis.staticcheck.mutation`: a verifier
that reports zero findings on every artifact is indistinguishable from one
that checks nothing.  Known-good templates (captured from the PR 3 mutation
kernel set, plus one fused block) are compiled, the artifacts verified
clean, and then every mutant from six compiled-lowering defect classes --
the corruption modes a bug in ``compile_template`` / ``flow_tables`` /
``fuse_templates`` would actually produce -- must be flagged with at least
one WARNING-or-worse finding:

* ``shuffle-mem-ops``    -- two adjacent memory ops transposed across all
  four parallel arrays (a lost program order), plus a delta-only swap
  (arrays out of column sync);
* ``csr-off-by-one``     -- a CSR offset bumped by one, both mid-table
  (reads migrate between neighbouring flows) and at the tail (slice past
  the index array);
* ``wrong-flow-key``     -- an instruction's flow id repointed at a
  different-content flow, and at a nonexistent flow;
* ``truncate-load-mask`` -- the final load knocked out of the mask, and
  the mask truncated outright;
* ``truncate-mem-stream``-- the op stream's first/last row dropped from
  all four arrays (conservation);
* ``flow-unit-corrupt``  -- a flow's unit id swapped for another unit, and
  for an out-of-range id.

Detection reuses the staticcheck ``MutationReport`` machinery and holds
the same >= 95% acceptance bar (``repro lint-artifacts --mutation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...codegen.fusion import fuse_templates
from ...machine.compiled import CompiledTemplate, compile_template
from ..staticcheck.findings import Severity
from ..staticcheck.mutation import (
    MutationOutcome,
    MutationReport,
    default_mutation_kernels,
)
from ..staticcheck.verifier import _simulate_kernel
from .checker import verify_artifact

__all__ = [
    "ARTIFACT_MUTATION_CLASSES",
    "ArtifactMutant",
    "enumerate_artifact_mutants",
    "run_artifact_mutation_suite",
]

ARTIFACT_MUTATION_CLASSES = (
    "shuffle-mem-ops",
    "csr-off-by-one",
    "wrong-flow-key",
    "truncate-load-mask",
    "truncate-mem-stream",
    "flow-unit-corrupt",
)


@dataclass(frozen=True)
class ArtifactMutant:
    """One injected artifact defect: the mutated compiled form plus
    provenance (duck-compatible with ``staticcheck.mutation.Mutant``)."""

    cls: str
    description: str
    compiled: CompiledTemplate


def _clone(compiled: CompiledTemplate) -> CompiledTemplate:
    """A fresh artifact with copied mem arrays and no cached tables."""
    return CompiledTemplate(
        compiled.mem_kind.copy(),
        compiled.mem_op.copy(),
        compiled.mem_delta.copy(),
        compiled.mem_plevel.copy(),
    )


def _with_flow_tables(compiled: CompiledTemplate, tables) -> CompiledTemplate:
    out = _clone(compiled)
    out._flow_tables = tables
    return out


def _cloned_tables(tables) -> list[np.ndarray]:
    return [arr.copy() for arr in tables]


def enumerate_artifact_mutants(template) -> list[ArtifactMutant]:
    """Every artifact mutant for one template, across all defect classes."""
    baseline = compile_template(template)
    tables = baseline.flow_tables(template)
    flow_ids, flow_unit, flow_kind, r_off, r_idx, w_off, w_idx = tables
    n_ops = baseline.n_ops
    n_flows = int(flow_unit.size)
    mutants: list[ArtifactMutant] = []

    def add(cls: str, desc: str, compiled: CompiledTemplate) -> None:
        mutants.append(ArtifactMutant(cls, desc, compiled))

    # -- shuffle-mem-ops -------------------------------------------------
    # Adjacent transpositions at a handful of positions where the rows
    # actually differ (swapping identical rows is an equivalent mutant,
    # not a defect).
    def rows_differ(i: int) -> bool:
        return any(
            arr[i] != arr[i + 1]
            for arr in (
                baseline.mem_kind, baseline.mem_op,
                baseline.mem_delta, baseline.mem_plevel,
            )
        )

    sites = [i for i in range(n_ops - 1) if rows_differ(i)]
    step = max(1, len(sites) // 8)
    for i in sites[::step][:8]:
        m = _clone(baseline)
        for arr in (m.mem_kind, m.mem_op, m.mem_delta, m.mem_plevel):
            arr[[i, i + 1]] = arr[[i + 1, i]]
        add("shuffle-mem-ops", f"transpose mem ops @{i},{i + 1}", m)
    for i in sites[::step][:4]:
        if baseline.mem_delta[i] == baseline.mem_delta[i + 1]:
            continue
        m = _clone(baseline)
        m.mem_delta[[i, i + 1]] = m.mem_delta[[i + 1, i]]
        add("shuffle-mem-ops", f"swap deltas only @{i},{i + 1}", m)

    # -- truncate-load-mask ---------------------------------------------
    loads = np.flatnonzero(baseline.load_mask)
    if loads.size:
        last = int(loads[-1])
        m = _clone(baseline)
        m.load_mask = m.load_mask.copy()
        m.load_mask[last] = False
        m.n_loads -= 1
        add("truncate-load-mask", f"clear final load @{last}", m)
        m = _clone(baseline)
        m.load_mask = m.load_mask[:-1]
        add("truncate-load-mask", "truncate mask by one entry", m)

    # -- truncate-mem-stream --------------------------------------------
    if n_ops:
        for where, sl in (("last", slice(None, -1)), ("first", slice(1, None))):
            m = CompiledTemplate(
                baseline.mem_kind[sl].copy(),
                baseline.mem_op[sl].copy(),
                baseline.mem_delta[sl].copy(),
                baseline.mem_plevel[sl].copy(),
            )
            add("truncate-mem-stream", f"drop {where} mem op", m)

    # -- csr-off-by-one --------------------------------------------------
    for name, off_pos, idx_pos in (("r", 3, 4), ("w", 5, 6)):
        off = tables[off_pos]
        if off.size < 2:
            continue
        mid = off.size // 2
        for pos, desc in ((mid, f"{name}_off[{mid}] += 1"),
                          (off.size - 1, f"{name}_off[-1] += 1")):
            t = _cloned_tables(tables)
            t[off_pos][pos] += 1
            add("csr-off-by-one", desc, _with_flow_tables(baseline, tuple(t)))

    # -- wrong-flow-key --------------------------------------------------
    if n_flows >= 2 and flow_ids.size:
        # Repoint the first instruction whose flow differs from flow 0's
        # content at flow 0 (guaranteed different content by dedup order).
        content = lambda f: (  # noqa: E731 - tiny local accessor
            int(flow_unit[f]),
            tuple(r_idx[int(r_off[f]):int(r_off[f + 1])].tolist()),
            tuple(w_idx[int(w_off[f]):int(w_off[f + 1])].tolist()),
            int(flow_kind[f]),
        )
        victims = [
            i for i in range(int(flow_ids.size))
            if content(int(flow_ids[i])) != content(0)
        ][:4]
        for i in victims:
            t = _cloned_tables(tables)
            t[0][i] = 0
            add(
                "wrong-flow-key",
                f"flow_ids[{i}] {int(flow_ids[i])} -> 0",
                _with_flow_tables(baseline, tuple(t)),
            )
        t = _cloned_tables(tables)
        t[0][0] = n_flows
        add(
            "wrong-flow-key",
            f"flow_ids[0] -> {n_flows} (out of range)",
            _with_flow_tables(baseline, tuple(t)),
        )

    # -- flow-unit-corrupt -----------------------------------------------
    n_units = len(template.units)
    if n_flows and n_units >= 2:
        f = int(flow_ids[0]) if flow_ids.size else 0
        t = _cloned_tables(tables)
        t[1][f] = (int(t[1][f]) + 1) % n_units
        add(
            "flow-unit-corrupt",
            f"flow_unit[{f}] swapped to another unit",
            _with_flow_tables(baseline, tuple(t)),
        )
    if n_flows:
        f = int(flow_ids[0]) if flow_ids.size else 0
        t = _cloned_tables(tables)
        t[1][f] = n_units
        add(
            "flow-unit-corrupt",
            f"flow_unit[{f}] -> {n_units} (out of range)",
            _with_flow_tables(baseline, tuple(t)),
        )

    return mutants


def default_mutation_templates():
    """Captured templates for the PR 3 mutation kernel set plus one fused
    block (two shapes interleaved over eight tiles, so period structure
    and fused operand-slot offsets are mutation targets too)."""
    templates = []
    for kernel in default_mutation_kernels():
        _trace, tpl, _handles = _simulate_kernel(kernel)
        if tpl is not None:
            templates.append((kernel.config.name, tpl))
    if len(templates) >= 2:
        tiles = [templates[0][1], templates[1][1]] * 4
        templates.append(("fused:8-tile", fuse_templates(tiles)))
    return templates


def run_artifact_mutation_suite() -> MutationReport:
    """Inject every artifact mutant into every template; score detection.

    Baselines are asserted clean at the WARNING bar first, so advisory
    churn can neither mask nor fake a detection -- the same discipline as
    ``run_mutation_suite``.
    """
    report = MutationReport()
    for name, template in default_mutation_templates():
        base = verify_artifact(
            template, compile_template(template),
            name=f"baseline:{name}",
        )
        gating = base.errors + base.warnings
        if gating:
            raise RuntimeError(
                f"baseline artifact {name} is not clean: "
                + "; ".join(f.message for f in gating[:3])
            )
        for mutant in enumerate_artifact_mutants(template):
            rep = verify_artifact(
                template, mutant.compiled,
                name=f"mutant:{name}:{mutant.cls}",
            )
            flagged = tuple(
                f.code for f in rep.findings
                if f.severity >= Severity.WARNING
            )
            report.outcomes.append(
                MutationOutcome(mutant, bool(flagged), flagged)
            )
    return report
