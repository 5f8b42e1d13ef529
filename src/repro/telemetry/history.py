"""Benchmark history: shared payload schema + regression comparison.

Every committed ``BENCH_*.json`` (and every payload the benchmark scripts
emit) carries the same envelope::

    {
      "benchmark": "tile_replay_wallclock",
      "schema_version": 1,
      "machine": {"cpus": 1, "platform": "linux", "machine": "x86_64",
                   "python": "3.11", "git_sha": "14043ed"},
      ... metric fields ...
    }

so a wall-clock figure is never read without knowing what host produced it
(the 1-CPU-container caveat from the tuning benchmarks, machine-readable).

:func:`compare` evaluates a new payload against an old one metric by metric
with per-metric directions and thresholds, and *skips* (rather than fails)
when the two machine fingerprints or benchmark configurations differ --
cross-machine wall-clock comparisons are noise, not regressions.  The CLI
surface is ``repro bench compare OLD NEW`` (exit 22 on regression), wired
into CI against the committed baselines.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
import sys
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA_VERSION",
    "MetricSpec",
    "Verdict",
    "CompareReport",
    "machine_fingerprint",
    "attach_fingerprint",
    "fingerprints_comparable",
    "compare",
    "BENCH_METRICS",
]

SCHEMA_VERSION = 1

#: Fingerprint fields that must match for wall-clock numbers to be
#: comparable.  Python version and git sha are recorded but not gating:
#: comparing across commits is the entire point of the store.
_FINGERPRINT_KEYS = ("cpus", "platform", "machine")

#: Config fields that select *what* was measured; payloads disagreeing on
#: any present-in-both key are different experiments, not regressions.
_CONFIG_KEYS = ("chip", "shape", "smoke", "budget", "seed", "jobs", "batch")


def git_sha() -> str | None:
    """Short sha of the repo containing this file, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def machine_fingerprint() -> dict:
    """Who produced this number: host shape + toolchain + source revision."""
    return {
        "cpus": os.cpu_count() or 1,
        "platform": sys.platform,
        "machine": platform.machine(),
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "git_sha": git_sha(),
    }


def attach_fingerprint(payload: dict) -> dict:
    """Stamp the shared envelope onto a benchmark payload, in place."""
    payload.setdefault("schema_version", SCHEMA_VERSION)
    payload["machine"] = machine_fingerprint()
    return payload


def fingerprints_comparable(old: dict | None, new: dict | None) -> bool:
    """True when wall-clock numbers from the two hosts can be compared."""
    if not old or not new:
        return False
    return all(old.get(key) == new.get(key) for key in _FINGERPRINT_KEYS)


@dataclass(frozen=True)
class MetricSpec:
    """How one metric of a benchmark payload is judged.

    ``direction`` is ``"lower"`` (wall time), ``"higher"`` (speedups), or
    ``"equal"`` (determinism flags and pinned simulated metrics, which must
    not drift at all).  ``threshold`` is the relative change tolerated
    before a verdict flips; None uses :func:`compare`'s default.
    """

    path: str  # dotted path into the payload, e.g. "registry.registry_speedup"
    direction: str = "lower"
    threshold: float | None = None


#: One metric schema per benchmark name.  Wall-clock metrics get generous
#: thresholds (same-host runs still jitter); simulated metrics are exact.
BENCH_METRICS: dict[str, list[MetricSpec]] = {
    "tile_replay_wallclock": [
        MetricSpec("compiled_seconds", "lower", 0.5),
        MetricSpec("speedup", "higher", 0.3),
        MetricSpec("exact", "equal"),
        MetricSpec("simulated_cycles", "equal"),
        MetricSpec("instructions", "equal"),
    ],
    "tuner_wallclock": [
        MetricSpec("serial_seconds", "lower", 0.5),
        MetricSpec("parallel_speedup", "higher", 0.3),
        MetricSpec("best_identical", "equal"),
        MetricSpec("best_cycles", "equal"),
        MetricSpec("registry.registry_speedup", "higher", 0.5),
        MetricSpec("registry.second_call_trials", "equal"),
        MetricSpec("coldstart.coldstart_speedup", "higher", 0.5),
        MetricSpec("coldstart.projection_trials", "equal"),
        MetricSpec("coldstart.upgrade_converged", "equal"),
        MetricSpec("coldstart.quality_ratio", "lower", 0.5),
    ],
    "chaos_wallclock": [
        MetricSpec("clean_seconds", "lower", 0.5),
        MetricSpec("faulted_exact", "equal"),
        MetricSpec("sweep_ok", "equal"),
        MetricSpec("sweep_seconds", "lower", 0.5),
    ],
    "serve_load": [
        MetricSpec("p50_ms", "lower", 0.5),
        MetricSpec("p99_ms", "lower", 0.75),
        MetricSpec("throughput_rps", "higher", 0.5),
        MetricSpec("registry_hit_ratio", "higher", 0.5),
        MetricSpec("all_explicit", "equal"),
        MetricSpec("chaos.bitexact", "equal"),
        MetricSpec("chaos.all_explicit", "equal"),
        MetricSpec("chaos.daemon_exit", "equal"),
        MetricSpec("chaos.registry_intact", "equal"),
    ],
}


@dataclass(frozen=True)
class Verdict:
    """One metric's comparison outcome."""

    metric: str
    direction: str
    old: object
    new: object
    change: float | None  # relative change, for numeric metrics
    status: str  # ok | improved | regression | missing
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "old": self.old,
            "new": self.new,
            "change": self.change,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class CompareReport:
    """Outcome of :func:`compare` over one benchmark pair."""

    benchmark: str
    skipped: bool = False
    reason: str = ""
    verdicts: list[Verdict] = field(default_factory=list)
    threshold: float = 0.1

    @property
    def regressions(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def ok(self) -> bool:
        """True unless a metric regressed (a skipped comparison is ok)."""
        return self.skipped or not self.regressions

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "skipped": self.skipped,
            "reason": self.reason,
            "ok": self.ok,
            "threshold": self.threshold,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def summary(self) -> str:
        lines = [f"benchmark: {self.benchmark}"]
        if self.skipped:
            lines.append(f"SKIPPED: {self.reason}")
            return "\n".join(lines)
        for v in self.verdicts:
            change = (
                f"{v.change:+.1%}" if isinstance(v.change, float) else "-"
            )
            lines.append(
                f"  {v.status.upper():<10} {v.metric:<32} "
                f"{v.old!r:>14} -> {v.new!r:<14} ({change})"
                + (f"  [{v.note}]" if v.note else "")
            )
        verdict = "OK" if self.ok else f"{len(self.regressions)} REGRESSION(S)"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def _lookup(payload: dict, path: str):
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _judge(spec: MetricSpec, old, new, default_threshold: float) -> Verdict:
    threshold = spec.threshold if spec.threshold is not None else default_threshold
    if old is None or new is None:
        return Verdict(
            spec.path, spec.direction, old, new, None, "missing",
            "metric absent from " + ("both" if old is None and new is None
                                     else "old" if old is None else "new"),
        )
    if spec.direction == "equal":
        if old == new:
            return Verdict(spec.path, spec.direction, old, new, None, "ok")
        # A flag flipping True -> False (exactness lost) or any drift in a
        # pinned simulated metric is a regression; False -> True improved.
        if old is False and new is True:
            return Verdict(spec.path, spec.direction, old, new, None, "improved")
        return Verdict(
            spec.path, spec.direction, old, new, None, "regression",
            "exact-match metric changed",
        )
    if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
        return Verdict(
            spec.path, spec.direction, old, new, None, "missing",
            "non-numeric value for numeric metric",
        )
    if old == 0:
        return Verdict(spec.path, spec.direction, old, new, None, "ok",
                       "old value is zero; no relative change defined")
    change = (new - old) / abs(old)
    worse = change > threshold if spec.direction == "lower" else -change > threshold
    better = -change > threshold if spec.direction == "lower" else change > threshold
    status = "regression" if worse else "improved" if better else "ok"
    return Verdict(spec.path, spec.direction, old, new, change, status)


def compare(
    old: dict,
    new: dict,
    threshold: float = 0.1,
    ignore_machine: bool = False,
) -> CompareReport:
    """Judge ``new`` against baseline ``old`` under the benchmark's schema.

    Returns a skipped (never failing) report when the benchmarks differ in
    name or configuration, when no metric schema is known, or -- unless
    ``ignore_machine`` -- when the machine fingerprints differ.
    """
    name_old = old.get("benchmark", "?")
    name_new = new.get("benchmark", "?")
    if name_old != name_new:
        return CompareReport(
            benchmark=f"{name_old} vs {name_new}",
            skipped=True,
            reason=f"different benchmarks: {name_old!r} vs {name_new!r}",
            threshold=threshold,
        )
    specs = BENCH_METRICS.get(name_old)
    if specs is None:
        return CompareReport(
            benchmark=name_old,
            skipped=True,
            reason=f"no metric schema registered for {name_old!r}",
            threshold=threshold,
        )
    if not ignore_machine and not fingerprints_comparable(
        old.get("machine"), new.get("machine")
    ):
        return CompareReport(
            benchmark=name_old,
            skipped=True,
            reason=(
                "machine fingerprints differ "
                f"(old={old.get('machine')}, new={new.get('machine')}); "
                "wall-clock numbers are not comparable across hosts"
            ),
            threshold=threshold,
        )
    for key in _CONFIG_KEYS:
        if key in old and key in new and old[key] != new[key]:
            return CompareReport(
                benchmark=name_old,
                skipped=True,
                reason=(
                    f"benchmark config differs on {key!r}: "
                    f"{old[key]!r} vs {new[key]!r}"
                ),
                threshold=threshold,
            )
    verdicts = [
        _judge(spec, _lookup(old, spec.path), _lookup(new, spec.path), threshold)
        for spec in specs
    ]
    return CompareReport(
        benchmark=name_old, verdicts=verdicts, threshold=threshold
    )
