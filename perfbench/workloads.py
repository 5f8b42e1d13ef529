"""The in-process workloads: cold-irregular, warm-irregular and tune-infer.

Each workload is a sequence of *rounds* of timed operations.  A round
starts only while the previous round's duration still fits in the
``--seconds`` budget, so the amount of work a run measures does not
depend on where the clock happens to stop.  cold-irregular is the
exception: its rounds are a fixed stream of shapes, sized to take about
``run_seconds``, and a run always measures all of it, so a slower program
cannot shorten the stream and change the shapes behind its figures.  In a
traced run, rounds alternate between untraced and traced; the untraced
ones give the comparison the tracing overhead is measured against.

Every operation is bracketed by host-speed probes (:mod:`hostspeed`),
outside the timed region, and reported at reference speed as well as raw.
Each result is checked against the reference right after its call,
outside the timed region; the simulated statistics each operation leaves
in its :class:`Op` record are checked against the digest after the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import gate
import hostspeed
import inputs
import stats
from layers import Tracer


@dataclass
class Op:
    """One timed operation and what the gate needs to check it."""

    kind: str  # "gemm" | "tune" | "infer"
    key: str  # digest key
    sim: list  # simulated statistics compared with the digest
    wall_s: float = 0.0
    #: ``wall_s`` at the host-speed probe's reference speed.
    ref_s: float = 0.0
    traced: bool = False
    #: (a, b, c, degraded) of a gemm until the gate has checked it against
    #: reference.sgemm, right after the timed call; then the verdict.
    gemm: tuple | None = None
    error: str | None = None
    instructions: int = 0
    trials: int = 0


def _gemm_op(lib, a, b) -> Op:
    m, n, k = a.shape[0], b.shape[1], a.shape[1]
    result = lib.gemm(a, b)
    return Op(
        "gemm", f"{m}x{n}x{k}", [result.cycles, result.instructions],
        gemm=(a, b, result.c, result.degraded),
        instructions=result.instructions,
    )


@dataclass
class Measured:
    ops: list[Op] = field(default_factory=list)
    tracer: Tracer | None = None
    collector: object | None = None
    cache_sizes: dict = field(default_factory=dict)


class InProcess:
    """Shared loop; subclasses define ``setup`` and ``rounds``."""

    name = ""
    #: Measure every round, whatever ``--seconds`` says.
    whole = False

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        raise NotImplementedError

    def rounds(self):
        """Yield lists of zero-argument callables, each returning an Op."""
        raise NotImplementedError

    def engine(self):
        """The engine whose cache sizes the traced run reports."""
        return None

    def teardown(self) -> None:
        pass

    def measure(self, trace: bool) -> Measured:
        from repro import telemetry

        out = Measured()
        if trace:
            out.tracer = Tracer()
            out.collector = telemetry.Collector()
        probe, probes = hostspeed.Probe(), []
        start = time.perf_counter()
        last = 0.0
        # A traced run always gets its second round: the first traced one.
        least = 2 if trace else 1
        for index, ops in enumerate(self.rounds()):
            elapsed = time.perf_counter() - start
            if not self.whole and index >= least and elapsed + last > self.seconds:
                break
            traced = trace and index % 2 == 1
            t_round = time.perf_counter()
            for make in ops:
                probes.append(probe.burst())
                op = self._timed(make, traced, out)
                if op.gemm is not None:
                    # Checked now, outside the timed region, so that the
                    # run keeps no operands: peak RSS is the program's.
                    op.error = gate.check_result(*op.gemm)
                    op.gemm = None
                out.ops.append(op)
            last = time.perf_counter() - t_round
        probes.append(probe.burst())
        ref = hostspeed.scaled([op.wall_s for op in out.ops], probes)
        for op, ref_s in zip(out.ops, ref):
            op.ref_s = ref_s
        lib = self.engine()
        if lib is not None:
            memo = lib.executor.replay.memo_stats()
            out.cache_sizes = {
                "cache.kernels": len(lib.executor.kernels),
                "cache.templates": memo["templates"],
                "cache.memo_entries": memo["entries"],
                "cache.compiled": memo["compiled"],
            }
        return out

    @staticmethod
    def _timed(make, traced: bool, out: Measured) -> Op:
        if not traced:
            t0 = time.perf_counter()
            op = make()
            op.wall_s = time.perf_counter() - t0
            return op
        from repro import telemetry

        with out.tracer.installed(), telemetry.collecting(out.collector):
            t0 = time.perf_counter()
            with out.tracer.op():
                op = make()
            op.wall_s = time.perf_counter() - t0
        op.traced = True
        return op


class ColdIrregular(InProcess):
    """Distinct irregular shapes through one long-lived engine."""

    name = "cold-irregular"
    whole = True

    def setup(self) -> None:
        from repro import AutoGEMM

        self.lib = AutoGEMM(inputs.CHIP)

    def engine(self):
        return self.lib

    def rounds(self):
        for index, shape in enumerate(inputs.cold_stream()):
            a, b = inputs.operands(self.seed, index, *shape)
            yield [lambda a=a, b=b: _gemm_op(self.lib, a, b)]


class WarmIrregular(InProcess):
    """A fixed set of shapes, first contact in set-up, then repeated with
    fresh operands."""

    name = "warm-irregular"

    def setup(self) -> None:
        from repro import AutoGEMM

        self.lib = AutoGEMM(inputs.CHIP)
        for i, shape in enumerate(inputs.WARM_SHAPES):
            self.lib.gemm(*inputs.operands(self.seed, inputs.SETUP_INDEX + i, *shape))

    def engine(self):
        return self.lib

    def rounds(self):
        index = 0
        while True:
            ops = []
            for shape in inputs.WARM_SHAPES:
                a, b = inputs.operands(self.seed, index, *shape)
                ops.append(lambda a=a, b=b: _gemm_op(self.lib, a, b))
                index += 1
            yield ops


class TuneInfer(InProcess):
    """Fixed-budget tunes and a cold BERT-base network estimate, each on a
    fresh engine: model-driven planning without functional simulation."""

    name = "tune-infer"

    def setup(self) -> None:
        from repro import AutoGEMM
        from repro.dnn.models import build_model
        from repro.dnn.runner import NetworkRunner
        from repro.machine.chips import get_chip

        self._engine_cls = AutoGEMM
        self._runner_cls = NetworkRunner
        self._chip = get_chip(inputs.CHIP)
        self._network = build_model(inputs.INFER_MODEL)
        self._last = None

    def engine(self):
        return self._last

    def _tune(self, shape) -> Op:
        self._last = lib = self._engine_cls(inputs.CHIP)
        result = lib.tune_result(
            *shape, budget=inputs.TUNE_BUDGET, seed=inputs.TUNE_SEED
        )
        m, n, k = shape
        return Op(
            "tune", f"tune:{m}x{n}x{k}", [result.cycles, repr(result.schedule)],
            trials=len(result.trials),
        )

    def _infer(self) -> Op:
        timing = self._runner_cls(self._chip).run(self._network)
        return Op("infer", f"infer:{inputs.INFER_MODEL}", [timing.total])

    def rounds(self):
        order = inputs.tune_order(self.seed)
        while True:
            yield [
                (lambda s=s: self._tune(s)) if s != "infer" else self._infer
                for s in order
            ]


WORKLOADS = {w.name: w for w in (ColdIrregular, WarmIrregular, TuneInfer)}


def headline(workload: str, ops: list[Op], raw: bool = False) -> dict:
    """The workload's end-to-end figures under the names the issue tracker
    cites, with their sample counts; at reference speed unless ``raw``."""
    wall = [op.wall_s if raw else op.ref_s for op in ops]
    if workload == TuneInfer.name:
        tunes = [(w, op.trials) for w, op in zip(wall, ops) if op.kind == "tune"]
        infers = [w for w, op in zip(wall, ops) if op.kind == "infer"]
        per_shape: dict[str, list[float]] = {}
        for w, op in zip(wall, ops):
            if op.kind == "tune":
                per_shape.setdefault(op.key, []).append(w)
        return {
            # The mean of per-shape medians: a median over both shapes'
            # samples would fall between the two shapes' clusters.
            "tune_s": stats.mean([stats.median(v) for v in per_shape.values()]),
            "tune_n": len(tunes),
            "infer_s": stats.median(infers),
            "infer_n": len(infers),
            "trials_per_s": sum(t for _, t in tunes) / sum(w for w, _ in tunes),
        }
    gemm = [w * 1e3 for w in wall]
    tail, level = stats.tail(gemm, 0.90)
    return {
        "gemm_ms_p50": stats.median(gemm),
        "gemm_ms_p90": tail,
        "gemm_ms_p90_level": level,
        "gemm_n": len(gemm),
        "sim_instr_per_s": sum(op.instructions for op in ops) / sum(wall),
    }


def contract(workload: str, named: dict) -> dict:
    """``p50_ms``, ``slow_ms`` and ``rate_per_s`` from the named figures."""
    if workload == TuneInfer.name:
        return {
            "p50_ms": named["tune_s"] * 1e3,
            "slow_ms": named["infer_s"] * 1e3,
            "rate_per_s": named["trials_per_s"],
        }
    return {
        "p50_ms": named["gemm_ms_p50"],
        "slow_ms": named["gemm_ms_p90"],
        "rate_per_s": named["sim_instr_per_s"],
    }
