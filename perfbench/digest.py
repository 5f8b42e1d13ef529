"""Recompute ``digest.json``: the simulated statistics of every input any
seed can draw, straight from the library (``run.py --write-digest``).

Entries are keyed as the gate looks them up:

* ``MxNxK`` -- ``[cycles, instructions]`` of one ``gemm`` (cold set and
  warm shapes, heuristic schedules);
* ``tune:MxNxK`` -- ``[cycles, schedule]`` of the fixed-budget tune winner;
* ``infer:N6`` -- ``[simulated seconds]`` of the network estimate.

Only a change to the simulated machine, the code generator or the
schedule choice may change these numbers; regenerate the file only then,
and say so in the change.
"""

from __future__ import annotations

import json

import inputs
from gate import DIGEST

#: Fresh engine every this many cold shapes, to bound memory.
CHUNK = 40


def _gemm_entries() -> dict:
    from repro import AutoGEMM

    shapes = [s for group in inputs.cold_set().values() for s in group]
    shapes += [s for s in inputs.WARM_SHAPES if s not in shapes]
    out = {}
    for start in range(0, len(shapes), CHUNK):
        lib = AutoGEMM(inputs.CHIP)
        for i, (m, n, k) in enumerate(shapes[start:start + CHUNK], start):
            result = lib.gemm(*inputs.operands(0, i, m, n, k))
            out[f"{m}x{n}x{k}"] = [result.cycles, result.instructions]
    return out


def _planning_entries() -> dict:
    from repro import AutoGEMM
    from repro.dnn.models import build_model
    from repro.dnn.runner import NetworkRunner

    out = {}
    for m, n, k in inputs.TUNE_SHAPES:
        result = AutoGEMM(inputs.CHIP).tune_result(
            m, n, k, budget=inputs.TUNE_BUDGET, seed=inputs.TUNE_SEED
        )
        out[f"tune:{m}x{n}x{k}"] = [result.cycles, repr(result.schedule)]
    runner = NetworkRunner(AutoGEMM(inputs.CHIP).chip)
    out[f"infer:{inputs.INFER_MODEL}"] = [
        runner.run(build_model(inputs.INFER_MODEL)).total
    ]
    return out


def write() -> None:
    entries = {**_gemm_entries(), **_planning_entries()}
    DIGEST.write_text(json.dumps(
        {"chip": inputs.CHIP, "entries": dict(sorted(entries.items()))},
        indent=0,
    ) + "\n")
