"""Artifact verification entry points: one artifact, the gate, the sweep.

``verify_artifact`` composes the lowering-equivalence checks
(:mod:`lowering`) and the interval pass (:mod:`intervals`) over one
``(TraceTemplate, CompiledTemplate)`` pair into a single
:class:`~repro.analysis.staticcheck.findings.Report`.

``gate_compiled`` is the ``REPRO_STATICCHECK=1`` hook ``compile_template``
calls on every lowering: clean artifacts pass through (counted under
``artifactcheck.verified``), defective ones raise
:class:`~repro.analysis.staticcheck.verifier.StaticCheckError` before the
corrupt artifact can serve a single replay.

``sweep_artifacts`` is the engine behind ``repro lint-artifacts`` and the
CI gate: every generatable Table II shape per ISA is generated,
interpreted once, captured, compiled, and verified -- including operand
extents measured from the simulation's actual allocations -- plus one
fused block per Figure 4 boundary mode (long enough to carry a real
period structure) and the LRU slot-array well-formedness check.
"""

from __future__ import annotations

from collections.abc import Iterable

from ... import telemetry
from ...machine.compiled import compile_template
from ...machine.chips import ChipSpec
from ..staticcheck.findings import Report, Severity
from ..staticcheck.verifier import (
    SWEEP_KC,
    SVE_SWEEP_LANE,
    StaticCheckError,
    _fusion_pair_shapes,
    _simulate_kernel,
)
from .intervals import check_cache_slots, check_intervals
from .lowering import check_lowering

__all__ = ["verify_artifact", "sweep_artifacts", "gate_compiled"]


def verify_artifact(
    template,
    compiled=None,
    *,
    name: str = "artifact",
    extents=None,
    caches=None,
) -> Report:
    """Verify one compiled-replay artifact against its source template.

    ``compiled`` defaults to the template's cached artifact; ``extents``
    (operand slot -> bytes spanned) tightens the delta interval check,
    and ``caches`` adds the LRU slot-array well-formedness pass.
    """
    if compiled is None:
        compiled = template.compiled
    if compiled is None:
        compiled = compile_template(template)
    report = Report(name)
    check_lowering(template, compiled, report)
    check_intervals(template, compiled, report, extents=extents)
    if caches is not None:
        check_cache_slots(caches, report)
    return report.finalize()


def gate_compiled(template, compiled) -> None:
    """The ``REPRO_STATICCHECK=1`` compile gate: verify or refuse.

    Raises :class:`StaticCheckError` on any error-severity finding so a
    defective lowering aborts before its artifact is cached on the
    template; warnings and advice pass through (counted).
    """
    report = verify_artifact(
        template,
        compiled,
        name=f"compiled:uid{template.uid}:{template.n_instr}i",
    )
    telemetry.count("artifactcheck.verified")
    if report.findings:
        telemetry.count(
            "artifactcheck.findings", value=float(len(report.findings))
        )
    if not report.ok:
        raise StaticCheckError(report)


def _capture(kernel):
    """Simulate one kernel and return ``(template, extents)`` -- the
    per-operand byte spans come from the simulation's real allocations, so
    the interval pass checks against the true footprint."""
    _trace, template, handles = _simulate_kernel(kernel)
    if template is None:
        return None, None
    return template, tuple(h.bytes_spanned for h in handles)


def sweep_artifacts(
    isas: Iterable[str] = ("neon", "sve"),
    chip: ChipSpec | None = None,
    kc: int | None = None,
    rotations: Iterable[bool] = (False, True),
    fusion: bool = True,
    progress=None,
) -> list[Report]:
    """Verify compiled artifacts over the generatable kernel family.

    Every generatable Table II shape per ISA is captured and verified for
    each rotation variant (non-generatable shapes have no kernel, hence no
    artifact -- ``lint-kernels`` still budget-checks them analytically).
    With ``fusion=True`` one fused block per Figure 4 boundary mode is
    built per ISA, repeated to eight tiles so the period structure is
    exercised for real.  A ``chip`` contributes one LRU slot-array report for
    a fresh hierarchy.
    """
    from ...codegen.fusion import fuse_templates
    from ...codegen.microkernel import generate_microkernel
    from ...codegen.tiles import GENERATOR_MAX_MR, enumerate_tiles
    from ...model.perf_model import fusion_kind

    reports: list[Report] = []

    def emit(rep: Report) -> None:
        reports.append(rep)
        if progress:
            progress(rep)

    for isa in isas:
        lane = 4 if isa == "neon" else SVE_SWEEP_LANE
        kc_isa = kc if kc is not None else SWEEP_KC[isa]
        for tile in enumerate_tiles(lane, generatable_only=True):
            if tile.mr > GENERATOR_MAX_MR:  # pragma: no cover - filtered
                continue
            for rotate in rotations:
                kernel = generate_microkernel(
                    tile.mr, tile.nr, kc_isa, lane=lane,
                    accumulate=True, rotate=rotate,
                )
                name = (
                    f"{isa}:{tile.mr}x{tile.nr}:"
                    f"{'rotate' if rotate else 'plain'}:artifact"
                )
                template, extents = _capture(kernel)
                if template is None:
                    rep = Report(name)
                    rep.add(
                        "template-capture-failed",
                        Severity.ERROR,
                        f"kernel {kernel.config.name}: trace addresses "
                        "could not be classified against the operand "
                        "regions",
                    )
                    emit(rep.finalize())
                    continue
                emit(
                    verify_artifact(
                        template,
                        compile_template(template),
                        name=name,
                        extents=extents,
                    )
                )

        if fusion:
            cb, mb = _fusion_pair_shapes(isa)
            kern = {
                shape: generate_microkernel(
                    shape[0], shape[1], kc_isa, lane=lane, accumulate=True
                )
                for shape in (cb, mb)
            }
            captured = {shape: _capture(k) for shape, k in kern.items()}
            for first, second in ((cb, cb), (mb, mb), (cb, mb), (mb, cb)):
                mode = fusion_kind(
                    kern[first].config.compute_bound,
                    kern[second].config.compute_bound,
                )
                name = f"{isa}:fusion:{mode}:artifact"
                if any(captured[s][0] is None for s in (first, second)):
                    rep = Report(name)
                    rep.add(
                        "template-capture-failed",
                        Severity.ERROR,
                        "fusion pair capture failed",
                    )
                    emit(rep.finalize())
                    continue
                # Eight tiles: enough repeated periods for the flow
                # tables' segment reuse to be live, small enough to
                # verify in milliseconds.
                sequence = [first, second] * 4
                fused = fuse_templates(
                    [captured[s][0] for s in sequence]
                )
                extents: list[int] = []
                for s in sequence:
                    extents.extend(captured[s][1])
                emit(
                    verify_artifact(
                        fused,
                        compile_template(fused),
                        name=name,
                        extents=tuple(extents),
                    )
                )

    if chip is not None:
        from ...machine.cache import CacheHierarchy

        rep = Report(f"cache-slots:{chip.name}")
        check_cache_slots(CacheHierarchy(chip), rep)
        emit(rep.finalize())
    return reports
