"""The correctness gate: results against the reference, simulated
statistics against the committed digest.

Simulated cycles and instructions are the paper's clock, not the host's:
they must stay identical across every host-side change, so a run whose
simulated statistics differ from ``digest.json`` measured a different
program and fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DIGEST = Path(__file__).with_name("digest.json")


def load_digest(path: Path = DIGEST) -> dict:
    with open(path) as fh:
        return json.load(fh)["entries"]


def bit_equal(got: np.ndarray, want: np.ndarray) -> bool:
    got = np.ascontiguousarray(got, dtype=np.float32)
    want = np.ascontiguousarray(want, dtype=np.float32)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint32), want.view(np.uint32)
    )


def check_result(a, b, c, degraded: bool) -> str | None:
    """Why a gemm result is wrong, or None: ``C`` must be bit-equal to
    ``reference.sgemm`` and no fallback may have engaged."""
    from repro.gemm.reference import sgemm

    if degraded:
        return "degraded result"
    if not bit_equal(c, sgemm(a, b)):
        return "C differs from reference.sgemm"
    return None


def check_sim(entries: dict, key: str, sim: list) -> str | None:
    """Why an operation's simulated statistics are wrong, or None."""
    want = entries.get(key)
    if want is None:
        return f"{key}: no digest entry"
    if want != sim:
        return f"{key}: simulated {sim} != digest {want}"
    return None


def run_digest(records: list[tuple[str, list]]) -> str:
    """Digest of one run's ordered ``(key, simulated stats)`` records."""
    blob = json.dumps(records, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
