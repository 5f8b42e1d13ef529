"""CLI surface: --json output, --metrics counters, and the profile command."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGemmJson:
    def test_json_output_parses(self, capsys):
        code, out = run_cli(capsys, "gemm", "16", "16", "16", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "gemm"
        assert (payload["m"], payload["n"], payload["k"]) == (16, 16, 16)
        assert payload["chip"] == "Graviton2"
        assert payload["cycles"] > 0
        assert payload["gflops"] > 0
        assert payload["relative_error"] < 1e-4
        assert sum(payload["phase_cycles"].values()) == pytest.approx(
            payload["cycles"]
        )

    def test_json_with_metrics_embeds_counters(self, capsys):
        code, out = run_cli(
            capsys, "gemm", "16", "16", "16", "--json", "--metrics"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["executor.tiles_executed"] == payload[
            "kernel_calls"
        ]

    def test_human_output_without_json(self, capsys):
        code, out = run_cli(capsys, "gemm", "16", "16", "16")
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "GFLOP/s" in out


class TestEstimateJson:
    def test_json_output_parses(self, capsys):
        code, out = run_cli(
            capsys, "estimate", "64", "64", "64", "--chip", "KP920", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "estimate"
        assert payload["chip"] == "KP920"
        assert payload["cycles"] > 0
        assert set(payload["residency"]) == {"a", "b", "c"}

    def test_metrics_flag_prints_counters(self, capsys):
        code, out = run_cli(
            capsys, "estimate", "64", "64", "64", "--metrics"
        )
        assert code == 0
        assert "counters:" in out
        assert "plan_cache." in out


class TestProfile:
    def test_writes_valid_chrome_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, out = run_cli(
            capsys,
            "profile", "26", "36", "17",
            "--trace-out", str(trace),
        )
        assert code == 0
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert events
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "gemm" in names and "tile" in names
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert any(c.startswith("kernel_cache.") for c in counters)
        assert "phase breakdown" in out

    def test_metrics_out_dump(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code, _ = run_cli(
            capsys,
            "profile", "16", "16", "16",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
        )
        assert code == 0
        data = json.loads(metrics.read_text())
        assert data["counters"]["executor.tiles_executed"] > 0
        assert "gemm" in data["spans"]


class TestDmtMetrics:
    def test_dmt_metrics_flag(self, capsys):
        code, out = run_cli(capsys, "dmt", "26", "36", "--kc", "32", "--metrics")
        assert code == 0
        assert "dmt.tile_calls" in out


class TestExplain:
    def test_acceptance_shape_names_constraint_per_phase(self, capsys):
        code, out = run_cli(
            capsys, "explain", "384", "2", "512", "--chip", "KP920", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["chip"] == "KP920"
        assert (payload["m"], payload["n"], payload["k"]) == (384, 2, 512)
        assert payload["bound"]
        assert payload["phases"]
        for phase in payload["phases"]:
            assert phase["constraint"]
        assert sum(p["fraction"] for p in payload["phases"]) == pytest.approx(
            1.0, abs=1e-9
        )
        assert payload["rooflines"]["compute"] > 0
        # The estimator primes the replay cache, so calibration residuals
        # are always present on the CLI path.
        assert payload["calibration"]
        assert payload["model_divergence"] is not None

    def test_artifacts_and_annotated_trace(self, capsys, tmp_path):
        out_json = tmp_path / "attr.json"
        out_trace = tmp_path / "trace.json"
        code, out = run_cli(
            capsys,
            "explain", "32", "24", "48",
            "--out", str(out_json),
            "--trace-out", str(out_trace),
        )
        assert code == 0
        assert "bound:" in out
        assert "rooflines" in out
        payload = json.loads(out_json.read_text())
        assert payload["command"] == "explain"
        trace = json.loads(out_trace.read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["attribution"]["bound"] == payload["bound"]

    def test_explain_failure_returns_its_code(self, capsys):
        from repro.cli import FAIL_CODES

        code = main(["explain", "16", "16", "16", "--threads", "0"])
        err = capsys.readouterr().err
        assert code == FAIL_CODES["explain"]
        assert "repro explain: error:" in err


class TestBenchCompare:
    @staticmethod
    def _payload():
        from repro.telemetry.history import attach_fingerprint

        return attach_fingerprint({
            "benchmark": "tile_replay_wallclock",
            "chip": "Graviton2",
            "compiled_seconds": 30.0,
            "speedup": 12.0,
            "exact": True,
            "simulated_cycles": 100.5,
            "instructions": 42,
        })

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identical_payloads_exit_zero(self, capsys, tmp_path):
        old = self._write(tmp_path, "old.json", self._payload())
        new = self._write(tmp_path, "new.json", self._payload())
        code, out = run_cli(capsys, "bench", "compare", old, new)
        assert code == 0
        assert "verdict: OK" in out

    def test_regression_exits_22(self, capsys, tmp_path):
        old = self._write(tmp_path, "old.json", self._payload())
        worse = self._payload()
        worse["compiled_seconds"] = 90.0
        new = self._write(tmp_path, "new.json", worse)
        code, out = run_cli(capsys, "bench", "compare", old, new, "--json")
        assert code == 22
        payload = json.loads(out)
        assert payload["ok"] is False
        assert any(
            v["status"] == "regression" for v in payload["verdicts"]
        )

    def test_fingerprint_mismatch_skips_with_exit_zero(self, capsys, tmp_path):
        old = self._write(tmp_path, "old.json", self._payload())
        foreign = self._payload()
        foreign["machine"]["cpus"] += 7
        foreign["compiled_seconds"] = 900.0
        new = self._write(tmp_path, "new.json", foreign)
        code, out = run_cli(capsys, "bench", "compare", old, new)
        assert code == 0
        assert "SKIPPED" in out

    def test_missing_file_returns_bench_code(self, capsys, tmp_path):
        from repro.cli import FAIL_CODES

        code = main([
            "bench", "compare", str(tmp_path / "absent.json"),
            str(tmp_path / "absent.json"),
        ])
        err = capsys.readouterr().err
        assert code == FAIL_CODES["bench"] == 22
        assert "repro bench: error:" in err


class TestParser:
    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "8", "8", "8"])
        assert args.trace_out == "trace.json"
        assert args.metrics_out is None
        assert args.threads == 1

    def test_gemm_flags_default_off(self):
        args = build_parser().parse_args(["gemm", "8", "8", "8"])
        assert args.json is False
        assert args.metrics is False


class TestExitCodes:
    """Every subcommand owns a distinct non-zero failure exit code."""

    def test_codes_distinct_and_nonzero(self):
        from repro.cli import FAIL_CODES, build_parser

        assert all(code > 2 for code in FAIL_CODES.values())
        assert len(set(FAIL_CODES.values())) == len(FAIL_CODES)
        sub = build_parser()._subparsers._group_actions[0]
        assert set(FAIL_CODES) == set(sub.choices)

    def test_kernel_failure_returns_its_code(self, capsys):
        from repro.cli import FAIL_CODES

        # mr above the generator's pointer-register ceiling raises.
        code = main(["kernel", "40", "8", "16"])
        err = capsys.readouterr().err
        assert code == FAIL_CODES["kernel"]
        assert "repro kernel: error:" in err

    def test_gemm_failure_returns_its_code(self, capsys):
        from repro.cli import FAIL_CODES

        code = main(["gemm", "16", "16", "16", "--threads", "0"])
        err = capsys.readouterr().err
        assert code == FAIL_CODES["gemm"]
        assert "repro gemm: error:" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["gemm", "not-a-number", "16", "16"])
        assert exc_info.value.code == 2


class TestLintKernels:
    def test_json_sweep_is_clean(self, capsys):
        code, out = run_cli(
            capsys, "lint-kernels", "--isa", "neon", "--kc", "6", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "lint-kernels"
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["total_reports"] == len(payload["reports"])
        names = [r["name"] for r in payload["reports"]]
        assert "neon:4x8:rotate" in names
        assert any(n.startswith("neon:fusion:") for n in names)

    def test_human_output_and_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "lint.json"
        code, out = run_cli(
            capsys,
            "lint-kernels", "--isa", "neon", "--kc", "6", "--no-fusion",
            "--out", str(artifact),
        )
        assert code == 0
        assert "lint-kernels:" in out and "0 error(s)" in out
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True
        assert all(
            not n.startswith("neon:fusion")
            for n in (r["name"] for r in payload["reports"])
        )

    def test_chip_enables_advisory_lints(self, capsys):
        code, out = run_cli(
            capsys,
            "lint-kernels", "--isa", "neon", "--kc", "6", "--no-fusion",
            "--chip", "Graviton2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["advice"] > 0


class TestChaos:
    """The fault-injection sweep; a full sweep is exercised in CI, so the
    tests here drive one cheap site end to end."""

    def test_single_site_json_sweep(self, capsys, tmp_path):
        artifact = tmp_path / "chaos.json"
        code, out = run_cli(
            capsys,
            "chaos", "--sites", "records.io",
            "--m", "24", "--n", "16", "--k", "32", "--budget", "6",
            "--json", "--out", str(artifact),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "chaos"
        assert payload["ok"] is True
        assert len(payload["sites"]) == 1
        site = payload["sites"][0]
        assert site["site"] == "records.io"
        assert site["injected"] > 0
        assert site["gemm_bitexact"] is True
        assert site["tune_completed"] is True
        assert json.loads(artifact.read_text()) == payload

    def test_unknown_site_fails_with_chaos_code(self, capsys):
        from repro.cli import FAIL_CODES

        code = main(["chaos", "--sites", "no.such.site"])
        err = capsys.readouterr().err
        assert code == FAIL_CODES["chaos"] == 19
        assert "repro chaos: error:" in err
        assert "unknown fault site" in err


class TestTune:
    def test_json_output_parses(self, capsys):
        code, out = run_cli(
            capsys, "tune", "32", "32", "32", "--chip", "KP920",
            "--budget", "6", "--seed", "5", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "tune"
        assert payload["chip"] == "KP920"
        assert payload["attempted"] == 6
        assert payload["best_cycles"] > 0
        assert payload["best_schedule"]["mc"] >= 1

    def test_parallel_selects_serial_winner(self, capsys):
        base = ["tune", "32", "32", "32", "--chip", "KP920",
                "--budget", "6", "--seed", "5", "--json"]
        _, serial_out = run_cli(capsys, *base, "--jobs", "1")
        _, parallel_out = run_cli(capsys, *base, "--jobs", "2")
        serial = json.loads(serial_out)
        parallel = json.loads(parallel_out)
        assert parallel["best_schedule"] == serial["best_schedule"]
        assert parallel["best_cycles"] == serial["best_cycles"]

    def test_tune_failure_returns_its_code(self, capsys):
        from repro.cli import FAIL_CODES

        code = main(["tune", "32", "32", "32", "--budget", "0"])
        err = capsys.readouterr().err
        assert code == FAIL_CODES["tune"]
        assert "repro tune: error:" in err


class TestRegistry:
    def seed_registry(self, capsys, tmp_path):
        path = tmp_path / "registry.jsonl"
        code, _ = run_cli(
            capsys, "tune", "16", "16", "16", "--chip", "KP920",
            "--budget", "4", "--registry", str(path),
        )
        assert code == 0
        return path

    def test_tune_publishes_then_list_shows_live_entry(self, capsys, tmp_path):
        path = self.seed_registry(capsys, tmp_path)
        code, out = run_cli(
            capsys, "registry", "list", "--registry", str(path), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "registry list"
        (entry,) = payload["entries"]
        assert (entry["chip"], entry["m"], entry["n"], entry["k"]) == (
            "KP920", 16, 16, 16,
        )
        assert entry["stale"] is False
        assert entry["fingerprint"] == payload["fingerprint"]

    def test_evict_empties_the_registry(self, capsys, tmp_path):
        path = self.seed_registry(capsys, tmp_path)
        code, out = run_cli(
            capsys, "registry", "evict", "--registry", str(path),
            "--shape", "16x16x16", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["evicted"] == 1
        assert payload["remaining"] == 0

    def test_export_writes_a_loadable_registry(self, capsys, tmp_path):
        from repro.tuner.registry import ScheduleRegistry

        path = self.seed_registry(capsys, tmp_path)
        out_path = tmp_path / "shipped.jsonl"
        code, out = run_cli(
            capsys, "registry", "export", "--registry", str(path),
            "--out", str(out_path), "--json",
        )
        assert code == 0
        assert json.loads(out)["exported"] == 1
        assert ScheduleRegistry(out_path).get("KP920", 16, 16, 16) is not None

    def test_bad_shape_fails_with_registry_code(self, capsys, tmp_path):
        from repro.cli import FAIL_CODES

        path = self.seed_registry(capsys, tmp_path)
        code = main(["registry", "evict", "--registry", str(path),
                     "--shape", "16x16"])
        err = capsys.readouterr().err
        assert code == FAIL_CODES["registry"]
        assert "MxNxK" in err

    def test_warm_populates_families_and_is_idempotent(self, capsys, tmp_path):
        from repro.tuner.registry import ScheduleRegistry

        path = tmp_path / "warm.jsonl"
        code, out = run_cli(
            capsys, "registry", "warm", "--registry", str(path),
            "--limit", "1", "--budget", "2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "registry warm"
        (shape,) = payload["tuned"]
        # Smallest-FLOPs ResNet-50 layer first, with its family band.
        assert (shape["m"], shape["n"], shape["k"]) == (64, 3136, 64)
        assert shape["family"] == "tall-skinny"
        assert payload["entries"] == 1
        assert ScheduleRegistry(path).get("KP920", 64, 3136, 64) is not None

        # Re-running skips the already-warm shape instead of re-tuning.
        code, out = run_cli(
            capsys, "registry", "warm", "--registry", str(path),
            "--limit", "1", "--budget", "2", "--json",
        )
        assert code == 0
        again = json.loads(out)
        assert again["tuned"] == []
        assert again["skipped"] == ["L2"]
