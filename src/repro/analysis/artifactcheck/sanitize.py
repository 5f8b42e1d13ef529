"""Sanitizer wiring: ASan/UBSan native builds + a differential harness.

``REPRO_NATIVE_SANITIZE=1`` makes :mod:`repro.machine.native` compile its
kernels with ``-fsanitize=address,undefined`` (its own cache slot, so
sanitized and plain builds never collide).  Loading an ASan-instrumented
extension into a stock CPython needs the runtime preloaded::

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) \\
    ASAN_OPTIONS=detect_leaks=0 \\
    REPRO_NATIVE_SANITIZE=1 python -m repro.analysis.artifactcheck.sanitize

(leak detection is off because CPython itself holds allocations for the
process lifetime; every out-of-bounds read/write and UB report still
aborts the run).

The harness here replays *randomized* templates -- plain captured kernels
and fused multi-tile blocks of random shape/length -- through the native
kernels and through the pure-Python paths, and diffs the results
bit-for-bit: cycles, stall cycles, per-level load histograms, and the
complete post-replay LRU cache state.  Under a sanitized build this is the
"zero sanitizer reports" acceptance leg; under a plain build it doubles as
a native-vs-Python equivalence fuzz.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from ...machine import native
from ...machine.cache import CacheHierarchy
from ...machine.chips import get_chip
from ...machine.pipeline import PipelineModel

__all__ = ["DifferentialReport", "run_differential", "sanitize_enabled"]

#: Shape pool per ISA the randomized cases draw from -- all generatable,
#: mixing compute-bound, memory-bound, paired-load and rotated variants.
_SHAPE_POOL = {
    "neon": ((1, 4), (2, 8), (4, 8), (4, 4), (3, 4)),
    "sve": ((1, 16), (2, 32), (4, 32)),
}
_LANES = {"neon": 4, "sve": 16}


def sanitize_enabled() -> bool:
    """True when native kernels build with ``-fsanitize=address,undefined``."""
    return os.environ.get("REPRO_NATIVE_SANITIZE") == "1"


@dataclass
class DifferentialReport:
    """Outcome of one sanitized-C vs Python differential run."""

    cases: list[dict] = field(default_factory=list)
    skipped: str | None = None

    @property
    def mismatches(self) -> list[dict]:
        return [c for c in self.cases if not c["match"]]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "sanitized_build": sanitize_enabled(),
            "native_status": native.native_status(),
            "cases": self.cases,
            "total": len(self.cases),
            "mismatches": len(self.mismatches),
            "skipped": self.skipped,
            "ok": self.ok,
        }

    def summary(self) -> str:
        if self.skipped:
            return f"differential: skipped ({self.skipped})"
        return (
            f"differential: {len(self.cases)} case(s), "
            f"{len(self.mismatches)} mismatch(es), native "
            f"{native.native_status()}"
            f"{', sanitized' if sanitize_enabled() else ''}"
        )


def _cache_state(caches: CacheHierarchy) -> list:
    """The complete LRU state, order-sensitively, for bit-for-bit diffs."""
    return [
        (lvl, [cache.resident(s) for s in range(cache.num_sets)])
        for lvl, cache in caches.levels
    ]


def _replay(chip, template, bases, *, use_native: bool):
    """One replay leg on fresh caches; returns (timing fields, cache state).

    The template's artifact and memo are dropped first so both legs do the
    full consult + schedule work instead of serving each other's memo.
    """
    saved = (native._native, native._failed, native._status)
    try:
        if not use_native:
            native._native = None
            native._failed = True
            native._status = "forced off (differential)"
        template.invalidate_compiled()
        caches = CacheHierarchy(chip)
        model = PipelineModel(chip, caches=caches)
        result = model.replay_template(template, bases)
        return (
            {
                "cycles": result.cycles,
                "stall_cycles": result.stall_cycles,
                "instructions": result.instructions,
                "flops": result.flops,
                "loads_by_level": dict(result.loads_by_level),
            },
            _cache_state(caches),
        )
    finally:
        native._native, native._failed, native._status = saved


def _random_cases(rng, n_cases: int):
    """Randomized (name, template, bases) triples: plain kernels and fused
    blocks over random shapes, k-depths, rotation, and block lengths."""
    from ...codegen.fusion import fuse_templates
    from ...codegen.microkernel import generate_microkernel
    from ..staticcheck.verifier import _simulate_kernel

    captured: dict = {}

    def capture(isa: str, shape, kc: int, rotate: bool):
        key = (isa, shape, kc, rotate)
        if key not in captured:
            kernel = generate_microkernel(
                shape[0], shape[1], kc, lane=_LANES[isa],
                accumulate=True, rotate=rotate,
            )
            _trace, tpl, handles = _simulate_kernel(kernel)
            captured[key] = (tpl, tuple(h.base for h in handles))
        return captured[key]

    cases = []
    for i in range(n_cases):
        isa = ("neon", "sve")[int(rng.integers(2))]
        pool = _SHAPE_POOL[isa]
        kc = int(rng.integers(8, 21))
        if rng.random() < 0.5:
            shape = pool[int(rng.integers(len(pool)))]
            rotate = bool(rng.random() < 0.5) and shape[0] <= 2
            tpl, bases = capture(isa, shape, kc, rotate)
            if tpl is None:
                continue
            name = (
                f"{isa}:{shape[0]}x{shape[1]}:kc{kc}"
                f"{':rot' if rotate else ''}"
            )
            cases.append((name, tpl, bases))
        else:
            n_tiles = int(rng.integers(2, 11))
            shapes = [
                pool[int(rng.integers(len(pool)))] for _ in range(n_tiles)
            ]
            parts = [capture(isa, s, kc, False) for s in shapes]
            if any(tpl is None for tpl, _bases in parts):
                continue
            fused = fuse_templates([tpl for tpl, _bases in parts])
            bases: tuple = ()
            for _tpl, b in parts:
                bases += b
            cases.append((f"{isa}:fused:{n_tiles}t:kc{kc}", fused, bases))
    return cases


def run_differential(
    n_cases: int = 12, seed: int = 0, chip_name: str = "Graviton2"
) -> DifferentialReport:
    """Replay randomized templates native vs Python; diff bit-for-bit."""
    report = DifferentialReport()
    if native.get_native() is None:
        report.skipped = f"native kernel unavailable: {native.native_status()}"
        return report
    chip = get_chip(chip_name)
    rng = np.random.default_rng(seed)
    for name, template, bases in _random_cases(rng, n_cases):
        nat_timing, nat_state = _replay(
            chip, template, bases, use_native=True
        )
        py_timing, py_state = _replay(
            chip, template, bases, use_native=False
        )
        match = nat_timing == py_timing and nat_state == py_state
        case = {"name": name, "match": match}
        if not match:
            case["native"] = nat_timing
            case["python"] = py_timing
            case["cache_state_match"] = nat_state == py_state
        report.cases.append(case)
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="native-vs-Python differential replay harness"
    )
    parser.add_argument("--cases", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chip", default="Graviton2")
    parser.add_argument(
        "--require-native",
        action="store_true",
        help="fail (exit 2) when the native kernel cannot be built -- the "
        "sanitized CI leg must not silently pass by skipping",
    )
    args = parser.parse_args(argv)
    report = run_differential(
        n_cases=args.cases, seed=args.seed, chip_name=args.chip
    )
    print(json.dumps(report.to_dict(), indent=2))
    if report.skipped:
        return 2 if args.require_native else 0
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
