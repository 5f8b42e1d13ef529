"""Seeded inputs for every workload.

Everything a workload feeds the program comes from here, as a pure
function of the ``--seed`` argument (and of fixed shape sets that are part
of the benchmark's definition).  The shape sets are finite so that the
committed digest (``digest.json``) can hold the simulated statistics of
every input any seed can produce.
"""

from __future__ import annotations

import random

import numpy as np

CHIP = "KP920"

# -- cold-irregular ----------------------------------------------------------
#: Fixed seed of the cold shape draws.  The set and its order are part of
#: the benchmark's definition and the run seed draws only the operands: the
#: order decides which kernels an earlier shape has already generated for a
#: later one, and seeding it moved the median call by 14% between seeds.
POOL_SEED = 20241117
COLD_CLASSES = ("tall-skinny", "long-rectangle", "small")
#: Shapes per class.
COLD_PER_CLASS = 19
#: Largest ``m * n * k`` of a cold shape, so that a cold ``gemm`` takes at
#: most about a second on the simulator.
COLD_MAX_MNK = 1 << 22
#: Draws per class from the generator; enough to reach every distinct
#: shape under the cap.
COLD_DRAWS = 2000


def cold_set() -> dict[str, list[tuple[int, int, int]]]:
    """Per class, distinct shapes in draw order from the program's own
    generators (``repro.workloads.irregular``, paper §II-A), keeping those
    under :data:`COLD_MAX_MNK` whose ``LayerShape.kind`` is their class."""
    from repro.workloads import irregular

    draws = {
        "tall-skinny": irregular.tall_skinny(COLD_DRAWS, POOL_SEED),
        "long-rectangle": irregular.long_rectangle(COLD_DRAWS, POOL_SEED + 1),
        "small": irregular.small_matrices(COLD_DRAWS, POOL_SEED + 2),
    }
    out: dict[str, list[tuple[int, int, int]]] = {}
    for cls in COLD_CLASSES:
        picked: list[tuple[int, int, int]] = []
        for s in draws[cls]:
            shape = (s.m, s.n, s.k)
            if s.kind == cls and s.m * s.n * s.k <= COLD_MAX_MNK and shape not in picked:
                picked.append(shape)
        out[cls] = picked[:COLD_PER_CLASS]
    return out


def cold_stream() -> list[tuple[int, int, int]]:
    """The cold stream: the whole set, classes interleaved."""
    return [shape for group in zip(*cold_set().values()) for shape in group]


# -- warm-irregular ----------------------------------------------------------
#: Two tall-skinny, two long-rectangle and three small shapes; an odd count
#: puts the median inside one shape's samples, not between two.
WARM_SHAPES = (
    (16, 256, 32),
    (24, 192, 48),
    (256, 16, 64),
    (192, 24, 32),
    (50, 25, 43),
    (64, 64, 64),
    (78, 24, 59),
)

# -- tune-infer --------------------------------------------------------------
#: Trials per tune.  Each tune then takes about 1 s, so a run fits about
#: six rounds, and with them six samples of the multi-second network
#: estimate for its median.
TUNE_BUDGET = 4
TUNE_SEED = 0
#: One long-rectangle and one small shape.
TUNE_SHAPES = ((240, 16, 64), (48, 25, 43))
INFER_MODEL = "N6"  # BERT-base encoder


def tune_order(seed: int) -> list:
    """The run's round: both tunes and the network estimate, in a seeded
    order.  The tunes themselves are fixed-budget and fixed-seed, so this
    order is the only input the seed changes here."""
    return random.Random(seed).sample([*TUNE_SHAPES, "infer"], 3)


# -- operands ----------------------------------------------------------------
#: Operand index of set-up calls, far above any timed call's index.
SETUP_INDEX = 1 << 30


def operands(seed: int, index: int, m: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Float32 operands in [-1, 1) for the ``index``-th call of a run."""
    rng = np.random.default_rng([seed, index])
    a = rng.uniform(-1, 1, (m, k)).astype(np.float32)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float32)
    return a, b
