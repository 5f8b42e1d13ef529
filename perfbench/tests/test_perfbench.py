"""The benchmark's own tests, at a tiny size.

    python3 -m pytest perfbench/tests -q

They check that inputs are a pure function of the seed, that the layer
wrappers are gone after a traced run, and that the gate reports a wrong
result or a wrong cycle count as a failure.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from workloads import ColdIrregular  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def program():
    run.prepare()


class Tiny(ColdIrregular):
    """Two one-gemm rounds of the cold stream: the first untraced, the
    second traced."""

    def rounds(self):
        return itertools.islice(super().rounds(), 2)


def tiny(seed: int, trace: bool, seconds: float = 1e9):
    w = Tiny(seed, seconds)
    w.setup()
    return w.measure(trace)


def test_cold_stream_is_measured_whole():
    """The time budget does not cut the cold stream short."""
    assert len(tiny(3, False, seconds=0).ops) == 2


def test_cold_set_is_drawn_from_the_program_classes():
    from repro.workloads.resnet50 import LayerShape

    shapes = inputs.cold_set()
    assert list(shapes) == list(inputs.COLD_CLASSES)
    for cls, group in shapes.items():
        assert len(group) == inputs.COLD_PER_CLASS
        for m, n, k in group:
            assert LayerShape("cold", m, n, k).kind == cls
            assert m * n * k <= inputs.COLD_MAX_MNK
    stream = inputs.cold_stream()
    assert len(set(stream)) == len(stream) == 3 * inputs.COLD_PER_CLASS


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert inputs.cold_stream() == inputs.cold_stream()
    a5, b5 = inputs.operands(5, 3, 8, 9, 10)
    a5b, b5b = inputs.operands(5, 3, 8, 9, 10)
    a6, _ = inputs.operands(6, 3, 8, 9, 10)
    assert np.array_equal(a5, a5b) and np.array_equal(b5, b5b)
    assert not np.array_equal(a5, a6)
    assert len({tuple(map(str, inputs.tune_order(s))) for s in range(10)}) > 1


def test_same_seed_reproduces_digest():
    """Simulated statistics do not depend on operand values, so the digest
    of a run is the same for every seed of a workload whose shapes are
    fixed; the operands differ (checked above)."""
    first, again, other = tiny(3, False), tiny(3, False), tiny(4, False)
    records = [[(op.key, op.sim) for op in m.ops] for m in (first, again, other)]
    assert gate.run_digest(records[0]) == gate.run_digest(records[1])
    assert gate.run_digest(records[0]) == gate.run_digest(records[2])
    for measured in (first, other):
        failed, messages, _ = run.check_ops(measured.ops)
        assert failed == 0, messages


def test_wrappers_removed_after_traced_run():
    from layers import patched_entry_points

    measured = tiny(3, True)
    assert [op.traced for op in measured.ops] == [False, True]
    assert patched_entry_points() == []
    reduction = measured.tracer.reduce()
    assert reduction["layers"]["other"]["calls"] == 1
    assert reduction["layers"]["tiling.dmt"]["calls"] >= 1
    layers, problems = run.layer_metrics(
        reduction, 1e3 * measured.ops[1].wall_s,
        measured.collector.counters, measured.cache_sizes,
    )
    assert problems == [], problems
    assert layers["trace.closure_err_pct"][0] < run.CLOSURE_PCT


def test_wrappers_removed_when_an_operation_raises():
    from layers import Tracer, patched_entry_points
    from repro.tiling.dmt import DynamicMicroTiler

    with pytest.raises(ValueError):
        with Tracer().installed():
            DynamicMicroTiler.tile(None, 0, 0, 0)
    assert patched_entry_points() == []


def test_corrupted_result_and_cycles_fail_the_gate():
    from repro import AutoGEMM

    (op,) = tiny(3, False).ops[:1]
    assert op.gemm is None and op.error is None
    m, n, k = map(int, op.key.split("x"))
    a, b = inputs.operands(3, 0, m, n, k)
    c = AutoGEMM(inputs.CHIP).gemm(a, b).c
    bad_c = c.copy()
    bad_c.view(np.uint32)[0, 0] ^= 1  # one ulp
    assert gate.check_result(a, b, c, False) is None
    assert gate.check_result(a, b, bad_c, False)
    assert gate.check_result(a, b, c, True)
    bad_cycles = [op.sim[0] + 1, op.sim[1]]
    for bad in (replace(op, sim=bad_cycles),
                replace(op, error=gate.check_result(a, b, bad_c, False))):
        failed, messages, _ = run.check_ops([bad])
        assert failed == 1 and messages
    assert run.check_ops([op])[0] == 0


def test_refuses_fault_injection():
    env = dict(os.environ, REPRO_FAULTS="seed=1;p=0.1;mode=transient")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cold-irregular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
