"""perfbench: the repository's benchmark of host wall time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cold-irregular, warm-irregular and tune-infer (see
``perfbench/README.md`` for why each exists and what every metric means).
Run from the root of a checkout; the program is imported from ``src/``
and the native kernels are built into ``.perfbench/`` on first use.

With ``--trace 0`` the run measures with tracing off and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics, the tracing overhead and
the layer counters.  Every operation is checked (results bit-equal to
``reference.sgemm``, simulated statistics equal to ``digest.json``); the
last line of standard output is one JSON object, and the exit code is 0
only when every check passed.

``--write-digest`` recomputes ``digest.json`` from the program instead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".perfbench"
#: A number from the Python fallback, or under injected faults or static
#: verification, measures a different program: refuse to report it.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_STATICCHECK", "REPRO_NATIVE_SANITIZE")
#: Set-ups per run: the run's own, plus fresh processes; setup_s is their median.
SETUP_REPEATS = 3
#: Largest tolerated gap between the per-layer parts and the wall total.
CLOSURE_PCT = 1.0


class Refused(Exception):
    """The environment cannot give a valid measurement (exit code 3)."""


def prepare() -> str:
    """Check the environment, point the program's scratch space into the
    checkout, and load the native kernels; returns ``native_status()``."""
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        raise Refused(f"{', '.join(refused)} set")
    if not (ROOT / "src" / "repro").is_dir():
        raise Refused(f"no program sources at {ROOT / 'src'}")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_DIR"] = str(BUILD / "native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))
    from repro.machine.native import get_native, native_status

    get_native()
    status = native_status()
    if status != "built":
        raise Refused(f"native kernels {status!r}, not 'built'")
    return status


def repeat_setups(args, count: int) -> list[float]:
    """Set the workload up ``count`` more times, each in a fresh process."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# -- checks -------------------------------------------------------------------
def check_ops(ops: list) -> tuple[int, list[str], list]:
    """Gate every in-process operation; returns (failed, messages, records)."""
    import gate

    entries = gate.load_digest()
    failed, messages, records = 0, [], []
    for op in ops:
        errors = [e for e in (gate.check_sim(entries, op.key, op.sim), op.error) if e]
        records.append((op.key, op.sim))
        if errors:
            failed += 1
            messages.extend(errors)
    return failed, messages, records


# -- per-layer metrics ----------------------------------------------------------
def layer_metrics(reduction: dict, op_wall_ms: float, counters: dict,
                  cache_sizes: dict) -> tuple[dict, list[str]]:
    """Per-layer figures of a traced run, plus the closure check."""
    from layers import LAYER_NAMES

    out: dict = {}
    total = sum(row["self_ms"] for row in reduction["layers"].values())
    for name in LAYER_NAMES:
        row = reduction["layers"][name]
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_ms"] = (row["self_ms"], "ms")
        out[f"{name}.self_pct"] = (100 * row["self_ms"] / total if total else 0.0, "%")
    out["codegen.misses"] = (reduction["codegen_misses"], "count")
    closure = 100 * abs(total - op_wall_ms) / op_wall_ms if op_wall_ms else 0.0
    out["trace.wall_ms"] = (op_wall_ms, "ms")
    out["trace.closure_err_pct"] = (closure, "%")
    for name in ("plan_cache", "replay"):
        hits = counters.get(f"{name}.hits", 0.0)
        attempts = hits + counters.get(f"{name}.misses", 0.0)
        out[f"{name}.attempts"] = (attempts, "count")
        out[f"{name}.hit_ratio"] = (hits / attempts if attempts else 0.0, "ratio")
    out["replay.consult_native"] = (counters.get("replay.consult_native", 0.0), "count")
    out["executor.tiles_executed"] = (counters.get("executor.tiles_executed", 0.0), "count")
    degraded = sum(v for k, v in counters.items() if k.startswith("degraded."))
    out["degraded.count"] = (degraded, "count")
    for name in ("cache.kernels", "cache.templates", "cache.memo_entries", "cache.compiled"):
        out[name] = (cache_sizes.get(name, 0), "count")
    problems = []
    if closure > CLOSURE_PCT:
        problems.append(f"layer self times miss the wall total by {closure:.2f}%")
    if degraded:
        problems.append(f"{degraded:.0f} degraded fallbacks engaged")
    return out, problems


# -- the run ------------------------------------------------------------------
def in_process_results(workload: str, result, rss_mb: float,
                       trace: bool) -> tuple[dict, dict, int, int, list[str], list]:
    import workloads

    failed, problems, records = check_ops(result.ops)
    untraced = [op for op in result.ops if not op.traced]
    named = workloads.headline(workload, untraced)
    named["raw"] = workloads.headline(workload, untraced, raw=True)
    named["peak_rss_mb"] = rss_mb
    if not trace:
        metrics = {
            name: (value, unit) for (name, value), unit in zip(
                workloads.contract(workload, named).items(), ("ms", "ms", "1/s"))
        }
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        return metrics, named, len(result.ops), failed, problems, records
    traced = [op for op in result.ops if op.traced]
    metrics, more = layer_metrics(
        result.tracer.reduce(), 1e3 * sum(op.wall_s for op in traced),
        result.collector.counters, result.cache_sizes,
    )
    metrics.update(overhead(*(
        workloads.contract(workload, workloads.headline(workload, ops))["p50_ms"]
        for ops in (untraced, traced)
    )))
    return metrics, named, len(result.ops), failed, problems + more, records


def overhead(untraced_p50: float, traced_p50: float) -> dict:
    return {
        "trace.p50_ms_untraced": (untraced_p50, "ms"),
        "trace.p50_ms_traced": (traced_p50, "ms"),
        "trace.overhead_pct": (100 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
    }


def measure(args) -> tuple[dict, dict, int, int, list[str], list]:
    """Set up, measure and check one workload.  Returns (metrics, named
    figures, attempted, failed, problems, digest records)."""
    import hostspeed
    import stats

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        w.setup()
        setup_s = time.perf_counter() - T_START
        probe = hostspeed.Probe()
        setup_s *= hostspeed.REFERENCE_S / stats.median(probe.burst())
        if args.setup_only:
            return {"setup_s": (setup_s, "s")}, {}, 1, 0, [], []
        result = w.measure(bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        w.teardown()

    metrics, named, attempted, failed, problems, records = in_process_results(
        args.workload, result, rss_mb, bool(args.trace))
    named["failed_ratio"] = failed / attempted
    if args.trace:
        metrics["failed_ratio"] = (named["failed_ratio"], "ratio")
    else:
        setups = [setup_s] + repeat_setups(args, SETUP_REPEATS - 1)
        named["setup_s_samples"] = setups
        metrics["setup_s"] = (stats.median(setups), "s")
    return metrics, named, attempted, failed, problems, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("cold-irregular", "warm-irregular", "tune-infer"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print setup_s, exit")
    parser.add_argument("--write-digest", action="store_true",
                        help="recompute digest.json from the program")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.write_digest and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(HERE))
    try:
        native = prepare()
    except Refused as exc:
        print(f"perfbench: refusing to measure: {exc}", file=sys.stderr)
        return 3
    if args.write_digest:
        import digest

        digest.write()
        return 0

    metrics, named, attempted, failed, problems, records = measure(args)
    if args.setup_only:
        print(json.dumps({"setup_s": metrics["setup_s"][0]}))
        return 0
    import gate
    from repro.telemetry.history import machine_fingerprint

    correct = failed == 0 and not problems
    for message in problems[:20]:
        print(f"perfbench: FAIL {message}")
    print("perfbench: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "native_status": native, "machine": machine_fingerprint(),
        "run_digest": gate.run_digest(records), "named": named,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
