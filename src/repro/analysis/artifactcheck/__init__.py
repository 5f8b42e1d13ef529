"""Static verification of compiled-replay artifacts and native C kernels.

PR 7 made compiled replay the default hot path: every
:class:`~repro.machine.simulator.TraceTemplate` lowers into a
structure-of-arrays :class:`~repro.machine.compiled.CompiledTemplate`, and
the two residual loops run as cffi-built C kernels
(:mod:`repro.machine.native`).  This package proves each lowering step
equivalent instead of only testing it:

* :mod:`lowering` -- reconstructs the memory-op stream, load mask,
  scheduling tables, and CSR flow tables from the artifact's arrays and
  proves them equal to an independent re-derivation from the source
  template (conservation, program order, fused-chunk offset correctness,
  and the ``sched_periods`` structure the flow tables' segment reuse
  relies on -- checked, not assumed);
* :mod:`intervals` -- an interval/abstract-interpretation pass over the
  index arithmetic the C kernels consume: every CSR offset in-bounds,
  int32/int64 delta and address arithmetic provably non-overflowing for
  the template's operand extents, LRU slot arrays well-formed -- so
  ``repro_scoreboard`` / ``repro_consult`` can never read out of bounds
  regardless of inputs;
* :mod:`sanitize` -- an ASan/UBSan build mode for the native kernels
  (``REPRO_NATIVE_SANITIZE=1``) plus a differential harness replaying
  randomized templates through sanitized-C vs Python, diffed bit-for-bit;
* :mod:`mutation` -- the compiled-lowering mutation self-test (shuffled
  mem-op arrays, off-by-one CSR offsets, wrong flow keys, truncated load
  masks, ...) holding the >= 95% detection gate.

Findings reuse the :mod:`repro.analysis.staticcheck` reporting machinery
(:class:`Finding` / :class:`Report` / :class:`StaticCheckError`), and
``compile_template`` gates every lowering through :func:`verify_artifact`
under ``REPRO_STATICCHECK=1``.  See ``docs/static-analysis.md``
("Artifact verification") and the ``repro lint-artifacts`` CLI.
"""

from .checker import sweep_artifacts, verify_artifact
from .intervals import (
    DEFAULT_ADDR_BOUND,
    check_cache_slots,
    check_intervals,
)
from .lowering import check_lowering
from .mutation import (
    ARTIFACT_MUTATION_CLASSES,
    enumerate_artifact_mutants,
    run_artifact_mutation_suite,
)
from .sanitize import DifferentialReport, run_differential, sanitize_enabled

__all__ = [
    "verify_artifact",
    "sweep_artifacts",
    "check_lowering",
    "check_intervals",
    "check_cache_slots",
    "DEFAULT_ADDR_BOUND",
    "ARTIFACT_MUTATION_CLASSES",
    "enumerate_artifact_mutants",
    "run_artifact_mutation_suite",
    "DifferentialReport",
    "run_differential",
    "sanitize_enabled",
]
