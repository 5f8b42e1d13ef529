"""Wall-clock benchmark: compiled replay vs. full interpretation.

Runs the same GEMM through the executor twice -- with compiled replay (the
default) and with ``use_replay=False`` (the ``--no-replay`` instruction
interpreter) -- and reports host wall-clock seconds, the speedup, and the
replay counters.  Both runs must agree bit-exactly on ``C`` and on every
simulated metric; any divergence is a hard failure (nonzero exit), which CI
uses as a regression gate.

Results land in ``BENCH_executor.json`` at the repository root:

    PYTHONPATH=src python benchmarks/bench_wallclock.py            # 512^3
    PYTHONPATH=src python benchmarks/bench_wallclock.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_wallclock.py 384 384 256

The full-size run (multi-block 512^3 DMT schedule) is the configuration
the speedup claim is measured on: ``speedup`` (compiled replay over the
instruction interpreter, gated at >=25x).  ``--smoke`` keeps the exactness
gate cheap enough for CI and skips the speedup threshold (the interpreted
baseline is too short to amortise template capture).

``--chaos`` switches to the robustness variant (results in
``BENCH_chaos.json``): a clean run that must not engage the
graceful-degradation fallback chain (its no-fault overhead is two
attribute loads per site -- the clean wall-clock doubles as the
regression gate for that), the same problem under transient fault noise
(must stay bit-exact while degrading), and the timed ``repro chaos``
site sweep.  See docs/robustness.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from _bench_utils import finalize_payload  # noqa: E402
from repro import telemetry  # noqa: E402
from repro.gemm import AutoGEMM  # noqa: E402
from repro.machine.chips import get_chip  # noqa: E402


def run_once(chip, a, b, use_replay: bool):
    lib = AutoGEMM(chip, use_replay=use_replay)
    with telemetry.collecting() as col:
        t0 = time.perf_counter()
        result = lib.gemm(a, b)
        seconds = time.perf_counter() - t0
    counters = {
        name: value
        for name, value in sorted(col.counters.items())
        if name.startswith(("replay.", "compile."))
    }
    return result, seconds, counters


def run_chaos_bench(args, chip, m, n, k, a, b) -> int:
    """The --chaos variant: no-fault overhead, faulted bit-exactness, and
    the timed fault-site sweep."""
    from repro.faults import plan as faults
    from repro.faults.chaos import run_chaos

    print(f"[bench_wallclock] {chip.name} {m}x{n}x{k}: clean run ...", flush=True)
    clean, clean_s, _ = run_once(chip, a, b, use_replay=True)

    # Same problem under transient noise on the replay-path sites: the
    # fallback chain must absorb every fault without touching C.
    plan = faults.FaultPlan(
        [
            faults.FaultSpec("replay.apply", probability=0.05),
            faults.FaultSpec("trace.capture", probability=0.25),
        ],
        seed=11,
    )
    print(f"[bench_wallclock]   {clean_s:.2f}s   now under faults ...", flush=True)
    with faults.injecting(plan):
        lib = AutoGEMM(chip)
        t0 = time.perf_counter()
        faulted = lib.gemm(a, b)
        faulted_s = time.perf_counter() - t0

    budget = 10 if args.smoke else 40
    print(f"[bench_wallclock]   {faulted_s:.2f}s   chaos sweep "
          f"(budget {budget}) ...", flush=True)
    t0 = time.perf_counter()
    report = run_chaos(chip=chip.name, budget=budget)
    sweep_s = time.perf_counter() - t0

    exact = faulted.c.tobytes() == clean.c.tobytes()
    payload = {
        "benchmark": "chaos_wallclock",
        "chip": chip.name,
        "shape": {"m": m, "n": n, "k": k},
        "smoke": args.smoke,
        "clean_seconds": round(clean_s, 3),
        "clean_degraded": clean.degraded,
        "faulted_seconds": round(faulted_s, 3),
        "faulted_exact": exact,
        "faulted_injected": plan.total_injected(),
        "faulted_degradations": dict(faulted.degradations),
        "sweep_seconds": round(sweep_s, 3),
        "sweep_ok": report.ok,
        "sweep_sites": {s.site: s.ok for s in report.sites},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    finalize_payload(payload)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_wallclock] clean {clean_s:.2f}s  faulted {faulted_s:.2f}s "
          f"(injected {plan.total_injected()}, exact={exact})  "
          f"sweep {sweep_s:.2f}s ok={report.ok}  -> {args.output}")

    if clean.degraded:
        print("[bench_wallclock] fallback chain engaged on a fault-free run: "
              f"{clean.degradations}", file=sys.stderr)
        return 1
    if not exact or plan.total_injected() == 0:
        print("[bench_wallclock] faulted run diverged or no faults fired",
              file=sys.stderr)
        return 1
    if not report.ok:
        bad = [s.site for s in report.sites if not s.ok]
        print(f"[bench_wallclock] chaos sweep failed at: {', '.join(bad)}",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shape", nargs="*", type=int, default=[],
                        metavar="M N K",
                        help="problem shape (default 512 512 512; 96^3 "
                             "under --smoke/--chaos)")
    parser.add_argument("--chip", default="graviton2")
    parser.add_argument("--smoke", action="store_true",
                        help="small shape for CI; exactness gate only")
    parser.add_argument("--min-speedup", type=float, default=25.0,
                        help="required compiled-replay-over-interpreter "
                             "speedup on full-size runs")
    parser.add_argument("--chaos", action="store_true",
                        help="robustness variant: no-fault overhead, faulted "
                             "bit-exactness, and the timed chaos sweep")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.output is None:
        args.output = REPO_ROOT / (
            "BENCH_chaos.json" if args.chaos else "BENCH_executor.json"
        )

    if args.smoke:
        m, n, k = 96, 96, 96
    elif len(args.shape) == 3:
        m, n, k = args.shape
    elif args.shape:
        parser.error("shape must be three integers: M N K")
    elif args.chaos:
        m, n, k = 96, 96, 96
    else:
        m, n, k = 512, 512, 512

    chip = get_chip(args.chip)
    rng = np.random.default_rng(2024)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)

    if args.chaos:
        return run_chaos_bench(args, chip, m, n, k, a, b)

    print(f"[bench_wallclock] {chip.name} {m}x{n}x{k}: compiled replay ...",
          flush=True)
    compiled, compiled_s, counters = run_once(chip, a, b, use_replay=True)
    print(f"[bench_wallclock]   {compiled_s:.2f}s   now --no-replay ...",
          flush=True)
    slow, slow_s, _ = run_once(chip, a, b, use_replay=False)

    mismatches = [
        name
        for name, want, got in [
            ("c_bytes", compiled.c.tobytes(), slow.c.tobytes()),
            ("cycles", compiled.cycles, slow.cycles),
            ("instructions", compiled.instructions, slow.instructions),
            ("loads_by_level", compiled.loads_by_level, slow.loads_by_level),
            ("phase_cycles", compiled.phase_cycles, slow.phase_cycles),
        ]
        if got != want
    ]
    speedup = slow_s / compiled_s if compiled_s else float("inf")

    payload = {
        "benchmark": "tile_replay_wallclock",
        "chip": chip.name,
        "shape": {"m": m, "n": n, "k": k},
        "smoke": args.smoke,
        "compiled_seconds": round(compiled_s, 3),
        "interpret_seconds": round(slow_s, 3),
        "speedup": round(speedup, 2),
        "exact": not mismatches,
        "mismatched_fields": mismatches,
        "simulated_cycles": compiled.cycles,
        "instructions": compiled.instructions,
        "replay_counters": counters,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    finalize_payload(payload)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_wallclock] compiled {compiled_s:.2f}s  "
          f"interpret {slow_s:.2f}s  speedup {speedup:.2f}x  "
          f"exact={not mismatches}  -> {args.output}")

    if mismatches:
        print(f"[bench_wallclock] DIVERGENCE in: {', '.join(mismatches)}",
              file=sys.stderr)
        return 1
    if not args.smoke and speedup < args.min_speedup:
        print(f"[bench_wallclock] speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
