"""Benchmark history schema + regression comparison (``repro bench``)."""

import json
import pathlib

import pytest

from repro.telemetry.history import (
    BENCH_METRICS,
    SCHEMA_VERSION,
    MetricSpec,
    attach_fingerprint,
    compare,
    fingerprints_comparable,
    machine_fingerprint,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def make_payload(**overrides):
    payload = {
        "benchmark": "tile_replay_wallclock",
        "schema_version": SCHEMA_VERSION,
        "machine": machine_fingerprint(),
        "chip": "Graviton2",
        "shape": {"m": 512, "n": 512, "k": 512},
        "smoke": False,
        "compiled_seconds": 5.0,
        "speedup": 12.0,
        "exact": True,
        "simulated_cycles": 123456.5,
        "instructions": 789,
    }
    payload.update(overrides)
    return payload


class TestFingerprint:
    def test_contains_host_identity(self):
        fp = machine_fingerprint()
        assert fp["cpus"] >= 1
        assert fp["platform"]
        assert fp["machine"]
        assert fp["python"].count(".") == 1

    def test_attach_sets_envelope(self):
        payload = {"benchmark": "x"}
        attach_fingerprint(payload)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["machine"] == machine_fingerprint()

    def test_comparable_requires_matching_host(self):
        fp = machine_fingerprint()
        assert fingerprints_comparable(fp, dict(fp))
        other = dict(fp, cpus=fp["cpus"] + 63)
        assert not fingerprints_comparable(fp, other)
        assert not fingerprints_comparable(None, fp)

    def test_git_sha_is_not_gating(self):
        fp = machine_fingerprint()
        other = dict(fp, git_sha="deadbeef")
        assert fingerprints_comparable(fp, other)


class TestCompare:
    def test_identical_payloads_are_ok(self):
        report = compare(make_payload(), make_payload())
        assert not report.skipped
        assert report.ok
        assert not report.regressions

    def test_slower_wallclock_is_a_regression(self):
        report = compare(
            make_payload(), make_payload(compiled_seconds=15.0)
        )
        assert not report.ok
        assert [v.metric for v in report.regressions] == ["compiled_seconds"]

    def test_wallclock_jitter_within_threshold_is_ok(self):
        report = compare(
            make_payload(), make_payload(compiled_seconds=5.5)
        )
        assert report.ok

    def test_lower_speedup_is_a_regression(self):
        report = compare(make_payload(), make_payload(speedup=2.0))
        assert not report.ok
        assert report.regressions[0].metric == "speedup"

    def test_exactness_flag_flip_is_a_regression(self):
        report = compare(make_payload(), make_payload(exact=False))
        assert not report.ok
        assert report.regressions[0].metric == "exact"

    def test_pinned_simulated_metric_drift_is_a_regression(self):
        report = compare(
            make_payload(), make_payload(simulated_cycles=123457.0)
        )
        assert not report.ok

    def test_faster_run_is_improved_not_regression(self):
        report = compare(make_payload(), make_payload(compiled_seconds=1.5))
        assert report.ok
        improved = [v for v in report.verdicts if v.status == "improved"]
        assert [v.metric for v in improved] == ["compiled_seconds"]

    def test_fingerprint_mismatch_skips(self):
        fp = machine_fingerprint()
        report = compare(
            make_payload(),
            make_payload(machine=dict(fp, cpus=fp["cpus"] + 1)),
        )
        assert report.skipped
        assert report.ok
        assert "fingerprint" in report.reason

    def test_ignore_machine_forces_comparison(self):
        fp = machine_fingerprint()
        report = compare(
            make_payload(),
            make_payload(machine=dict(fp, cpus=fp["cpus"] + 1)),
            ignore_machine=True,
        )
        assert not report.skipped

    def test_config_mismatch_skips(self):
        report = compare(
            make_payload(),
            make_payload(shape={"m": 96, "n": 96, "k": 96}),
        )
        assert report.skipped
        assert report.ok

    def test_different_benchmark_names_skip(self):
        report = compare(
            make_payload(), make_payload(benchmark="tuner_wallclock")
        )
        assert report.skipped

    def test_unknown_schema_skips(self):
        report = compare(
            make_payload(benchmark="novel"), make_payload(benchmark="novel")
        )
        assert report.skipped

    def test_missing_metric_is_flagged_not_failed(self):
        new = make_payload()
        del new["speedup"]
        report = compare(make_payload(), new)
        assert report.ok
        missing = [v for v in report.verdicts if v.status == "missing"]
        assert [v.metric for v in missing] == ["speedup"]

    def test_dotted_paths_reach_nested_metrics(self):
        assert any(
            "." in spec.path for spec in BENCH_METRICS["tuner_wallclock"]
        )
        old = {
            "benchmark": "tuner_wallclock",
            "machine": machine_fingerprint(),
            "registry": {"registry_speedup": 10.0, "second_call_trials": 0},
        }
        new = json.loads(json.dumps(old))
        new["registry"]["second_call_trials"] = 5
        report = compare(old, new)
        assert not report.ok
        assert report.regressions[0].metric == "registry.second_call_trials"

    def test_report_round_trips_through_json(self):
        report = compare(make_payload(), make_payload(compiled_seconds=15.0))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        assert payload["benchmark"] == "tile_replay_wallclock"
        assert "regression" in report.summary().lower()


class TestCommittedBaselines:
    @pytest.mark.parametrize(
        "name", ["BENCH_executor.json", "BENCH_tuner.json", "BENCH_chaos.json"]
    )
    def test_committed_bench_files_carry_the_envelope(self, name):
        payload = json.loads((REPO_ROOT / name).read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        machine = payload["machine"]
        assert set(machine) >= {
            "cpus", "platform", "machine", "python", "git_sha"
        }
        assert payload["benchmark"] in BENCH_METRICS

    def test_every_schema_spec_direction_is_valid(self):
        for specs in BENCH_METRICS.values():
            for spec in specs:
                assert isinstance(spec, MetricSpec)
                assert spec.direction in ("lower", "higher", "equal")
