"""The public autoGEMM API -- the library the paper describes.

:class:`AutoGEMM` ties the whole stack together for one target chip:

>>> from repro.gemm import AutoGEMM
>>> from repro.machine import GRAVITON2
>>> lib = AutoGEMM(GRAVITON2)
>>> result = lib.gemm(a, b)                    # simulated execution
>>> estimate = lib.estimate(256, 3136, 64)     # large-shape projection
>>> tuned = lib.tune(64, 64, 64)               # TVM-style auto-tuning
>>> print(lib.kernel_source(5, 16, 64))        # the generated C++/asm

``gemm`` runs the generated kernels functionally on the cycle simulator and
returns the numerical result (verified against numpy to the paper's 1e-6
relative-error bar in the test suite) together with simulated timing.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..telemetry.attribution import attribute_gemm
from ..codegen.microkernel import generate_microkernel
from ..faults import plan as _faults
from ..machine.chips import ChipSpec, get_chip
from .estimator import GemmEstimate, GemmEstimator
from .executor import GemmExecutor, GemmResult
from .kernel_cache import KernelCache, ReplayCache
from .packing import packing_cycles
from .schedule import Schedule, default_schedule

__all__ = ["AutoGEMM"]


class AutoGEMM:
    """Irregular-GEMM library for one (simulated) Arm chip."""

    def __init__(
        self,
        chip: ChipSpec | str,
        schedule: Schedule | None = None,
        tuning_records: "str | None" = None,
        log_trials: bool = False,
        use_replay: bool = True,
        registry: "str | ScheduleRegistry | None" = None,
        auto_tune: bool = False,
        tune_budget: int = 32,
        tune_jobs: int = 1,
        family_serve: bool = True,
        family_upgrade: bool = True,
        family_max_distance: float | None = None,
    ) -> None:
        """``tuning_records`` names a JSON-lines file of persisted tuning
        outcomes (see :class:`repro.tuner.records.RecordStore`): known-best
        schedules are replayed without re-searching, and new ``tune`` results
        are appended.  ``log_trials`` additionally persists every evaluated
        trial to the same file so tuning curves can be plotted later.
        ``use_replay=False`` disables the executor's tile-replay fast path
        and re-interprets every tile (the ``--no-replay`` CLI opt-out).

        ``registry`` names a persistent schedule registry file (see
        :class:`repro.tuner.registry.ScheduleRegistry`, or pass an already
        constructed registry): ``gemm``/``estimate`` consult it for a tuned
        schedule *before* any tuning or heuristic, and ``tune`` outcomes are
        published to it, shared across processes through the file.  With
        ``auto_tune=True``, a registry miss on ``gemm`` triggers an inline
        ``tune`` (``tune_budget`` trials on ``tune_jobs`` workers) whose
        winner is registered -- the first call on a new shape pays the
        search, every later call (in any process) is a registry hit with
        zero trials.

        With a registry attached, an *exact* miss additionally consults
        the input-aware family path (``family_serve``, on by default; see
        :mod:`repro.tuner.families`): the nearest same-family tuned entry
        within ``family_max_distance`` (log2 scale) is projected onto the
        query shape and served with zero tuning trials, and
        ``family_upgrade`` enqueues a real background tune whose winner
        atomically upgrades the registry entry."""
        self.chip = get_chip(chip) if isinstance(chip, str) else chip
        self.schedule = schedule
        self._kernels = KernelCache()
        # One replay cache feeds both sides: micro-kernels the estimator
        # times become executor fast-path templates and vice versa.
        self._replay = ReplayCache(self.chip, self._kernels)
        self.executor = GemmExecutor(
            self.chip,
            kernels=self._kernels,
            use_replay=use_replay,
            replay_cache=self._replay,
        )
        self.estimator = GemmEstimator(
            self.chip, kernels=self._kernels, replay_cache=self._replay
        )
        self._tuned: dict[tuple[int, int, int], Schedule] = {}
        self._records = None
        if tuning_records is not None:
            from ..tuner.records import RecordStore

            self._records = RecordStore(tuning_records, log_trials=log_trials)
            for rec in self._records.records():
                if rec.chip == self.chip.name:
                    self._tuned[(rec.m, rec.n, rec.k)] = rec.schedule
        self.registry = None
        if registry is not None:
            from ..tuner.registry import ScheduleRegistry

            self.registry = (
                registry
                if isinstance(registry, ScheduleRegistry)
                else ScheduleRegistry(registry)
            )
        self.auto_tune = auto_tune
        self.tune_budget = tune_budget
        self.tune_jobs = tune_jobs
        self.family_serve = family_serve
        self.family_upgrade = family_upgrade
        self._family_index = None
        self._upgrader = None
        if self.registry is not None and family_serve:
            from ..tuner.families import (
                DEFAULT_MAX_DISTANCE, FamilyIndex, FamilyUpgrader,
            )

            self._family_index = FamilyIndex(
                self.registry,
                self.chip,
                max_distance=(
                    family_max_distance
                    if family_max_distance is not None
                    else DEFAULT_MAX_DISTANCE
                ),
            )
            self._upgrader = FamilyUpgrader(self)
        #: Last registry write failure as "write failed: Type: detail"
        #: (native_status() style), or "ok" -- surfaced by serve stats so a
        #: read-only registry file doesn't silently disable the warm path.
        self._registry_status = "ok"

    # ------------------------------------------------------------------
    def schedule_for(self, m: int, n: int, k: int, threads: int = 1) -> Schedule:
        """The schedule used for a problem, first match wins:
        explicit > registry exact hit (persisted, fingerprint-checked) >
        family projection (input-aware, zero trials) > this session's
        tuned results > ``auto_tune`` search > heuristic."""
        return self._resolve_schedule(m, n, k, threads)[0]

    def _resolve_schedule(
        self, m: int, n: int, k: int, threads: int = 1
    ) -> "tuple[Schedule, str, object | None]":
        """Resolve per the documented order; returns
        ``(schedule, source, FamilyProjection | None)``.

        A served family projection (with ``family_upgrade``) enqueues a
        background tune for the exact key, so the next resolution of this
        shape is a registry exact hit.
        """
        if self.schedule is not None:
            return self.schedule.clipped(m, n, k), "explicit", None
        if self.registry is not None:
            served = self.registry.get(self.chip.name, m, n, k, threads)
            if served is not None:
                return served, "registry", None
            if self._family_index is not None:
                projection = self._family_index.lookup(m, n, k, threads)
                if projection is not None:
                    telemetry.count("family.served")
                    if self.family_upgrade:
                        self.enqueue_upgrade(m, n, k, threads)
                    return projection.schedule, "family", projection
                telemetry.count("family.misses")
        tuned = self._tuned.get((m, n, k))
        if tuned is not None:
            return tuned, "session", None
        if self.auto_tune:
            sched = self.tune(
                m, n, k,
                budget=self.tune_budget,
                jobs=self.tune_jobs,
                threads=threads,
            )
            return sched, "tuned", None
        return default_schedule(m, n, k, self.chip, threads=threads), "heuristic", None

    # -- family upgrades ------------------------------------------------
    def enqueue_upgrade(
        self, m: int, n: int, k: int, threads: int = 1,
        budget: int | None = None, seed: int = 0,
    ) -> bool:
        """Start a background tune that upgrades the registry entry for an
        exact key (no-op without a family path); see
        :class:`repro.tuner.families.FamilyUpgrader`."""
        if self._upgrader is None:
            return False
        return self._upgrader.enqueue(
            m, n, k, threads, budget=budget, seed=seed
        )

    def drain_upgrades(self, timeout: float | None = None) -> bool:
        """Wait for in-flight background upgrades; True when none remain."""
        if self._upgrader is None:
            return True
        return self._upgrader.drain(timeout)

    def registry_report(self) -> dict | None:
        """Serving-facing registry health: path, live-entry count,
        writability, and the last write failure (if any)."""
        if self.registry is None:
            return None
        status = self._registry_status
        if status == "ok" and not self.registry.writable():
            status = "read-only"
        report = {
            "path": str(self.registry.path),
            "entries": len(self.registry),
            "writable": self.registry.writable(),
            "status": status,
        }
        if self._upgrader is not None and self._upgrader.last_error:
            report["upgrade_error"] = self._upgrader.last_error
        return report

    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        alpha: float = 1.0,
        beta: float = 1.0,
        trans_a: bool = False,
        trans_b: bool = False,
        threads: int = 1,
        schedule: Schedule | None = None,
    ) -> GemmResult:
        """``C = alpha * op(A) @ op(B) + beta * C`` (full sgemm semantics).

        The kernels compute ``C += A B`` row-major; transposition and alpha
        are realised as layout/scale transforms on the operand *copies*
        staged into simulated memory (the in-library packing path of a real
        BLAS front end), with the transform's streaming cost added to the
        result's cycle count.
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
        if not np.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
        ka = a.shape[0] if trans_a else a.shape[1]
        kb = b.shape[1] if trans_b else b.shape[0]
        if ka != kb:
            raise ValueError(
                f"inner dimensions differ: op(A) is "
                f"{(a.shape[1] if trans_a else a.shape[0])}x{ka}, op(B) is "
                f"{kb}x{(b.shape[0] if trans_b else b.shape[1])}"
            )
        a = a.astype(np.float32, copy=False)
        b = b.astype(np.float32, copy=False)
        transform_cycles = 0.0
        if trans_a:
            a = np.ascontiguousarray(a.T)
            transform_cycles += packing_cycles(a.shape[0], a.shape[1], self.chip).cycles
        if trans_b:
            b = np.ascontiguousarray(b.T)
            transform_cycles += packing_cycles(b.shape[0], b.shape[1], self.chip).cycles
        if alpha != 1.0:
            a = (np.float32(alpha) * a).astype(np.float32)
            transform_cycles += packing_cycles(a.shape[0], a.shape[1], self.chip).cycles

        m, k = a.shape
        n = b.shape[1]
        # One request id per entry-point call: registry lookups, the
        # executor's span tree, and any inline auto-tune all tag their spans
        # with it -- the per-request unit the serving daemon traces by.
        with telemetry.request("gemm"):
            if schedule is not None:
                sched, source, projection = schedule, "explicit", None
            else:
                sched, source, projection = self._resolve_schedule(
                    m, n, k, threads
                )
            result = self.executor.run(
                a, b, c, schedule=sched, threads=threads, beta=beta
            )
            result.schedule_source = source
            result.family_projection = projection
        if transform_cycles:
            result.cycles += transform_cycles
            result.phase_cycles["transform"] = (
                result.phase_cycles.get("transform", 0.0) + transform_cycles
            )
        result.attribution = attribute_gemm(
            result, replay=self._replay, model=self.executor.model
        )
        return result

    def estimate(
        self,
        m: int,
        n: int,
        k: int,
        threads: int = 1,
        schedule: Schedule | None = None,
    ) -> GemmEstimate:
        """Projected performance without full functional simulation."""
        sched = schedule if schedule is not None else self.schedule_for(m, n, k, threads)
        return self.estimator.estimate(m, n, k, schedule=sched, threads=threads)

    def tune(
        self,
        m: int,
        n: int,
        k: int,
        budget: int = 64,
        seed: int = 0,
        resume: bool = False,
        jobs: int = 1,
        threads: int = 1,
    ) -> Schedule:
        """Auto-tune the schedule for a shape (TVM-style search, §IV-C);
        the result is remembered for subsequent ``gemm``/``estimate`` calls
        (and published to the schedule registry when one is attached).

        With ``resume=True`` (requires ``tuning_records``) the search
        checkpoints every trial to the record store and replays trials a
        previous interrupted run already measured.  ``jobs > 1`` measures
        trials on a process pool (see docs/tuning_guide.md); the selected
        schedule is identical to a serial search for the same seed.
        """
        return self.tune_result(
            m, n, k, budget=budget, seed=seed, resume=resume,
            jobs=jobs, threads=threads,
        ).schedule

    def tune_result(
        self,
        m: int,
        n: int,
        k: int,
        budget: int = 64,
        seed: int = 0,
        resume: bool = False,
        jobs: int = 1,
        threads: int = 1,
    ) -> "TuneResult":
        """Like :meth:`tune`, returning the full
        :class:`~repro.tuner.tuner.TuneResult` (trials, failure accounting,
        convergence curve) instead of just the winning schedule."""
        from ..tuner.tuner import AutoTuner

        tuner = AutoTuner(self.chip, estimator=self.estimator)
        store = self._records if resume else None
        if resume and store is None:
            raise ValueError("resume=True requires tuning_records")
        with telemetry.request("tune"):
            best = tuner.tune(
                m, n, k, budget=budget, seed=seed, resume=store, jobs=jobs
            )
        self._tuned[(m, n, k)] = best.schedule
        if self._records is not None:
            try:
                _faults.retrying(
                    lambda: self._records.add_result(
                        self.chip.name, m, n, k, best,
                        include_trials=False if resume else None,
                    )
                )
            except _faults.RECOVERABLE_FAULTS:
                # The in-memory schedule is already updated; losing the
                # persisted line only costs a future session a re-tune.
                telemetry.count("records.write_failed")
        if self.registry is not None:
            try:
                _faults.retrying(
                    lambda: self.registry.put(
                        self.chip.name, m, n, k, threads,
                        best.schedule, best.cycles,
                    )
                )
            except (*_faults.RECOVERABLE_FAULTS, OSError) as exc:
                # OSError covers the real-world case a fault plan can't: a
                # read-only registry file (PermissionError) must not kill
                # the tune that just produced a perfectly good schedule --
                # it only disables the warm path, which serve stats surface
                # through registry_report().  Keep the detail,
                # native_status() style.
                detail = str(exc).strip().replace("\n", " ")[:160]
                self._registry_status = (
                    f"write failed: {type(exc).__name__}"
                    + (f": {detail}" if detail else "")
                )
                telemetry.count("registry.write_failed")
            else:
                self._registry_status = "ok"
        return best

    def kernel_source(self, mr: int, nr: int, kc: int, rotate: bool = True) -> str:
        """The generated C++ inline-asm source for a micro-kernel shape."""
        kernel = generate_microkernel(
            mr,
            nr,
            kc,
            lane=self.chip.sigma_lane,
            rotate=rotate,
            sigma_ai=self.chip.sigma_ai,
        )
        return kernel.cpp_source()
