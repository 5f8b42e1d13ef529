"""Artifact verification: the compiled-replay lowering must be *provably*
equivalent to its source template, not just tested against it.

Covers the three checker families in ``repro.analysis.artifactcheck``
(lowering equivalence, interval safety for the native C kernels, LRU
export well-formedness), the ``REPRO_STATICCHECK=1`` compile gate, the
``lint-artifacts`` sweep + CLI, the compiled-lowering mutation self-test
(>= 95% detection bar), and the native-vs-Python differential harness.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.analysis.artifactcheck import (
    ARTIFACT_MUTATION_CLASSES,
    check_cache_slots,
    run_artifact_mutation_suite,
    run_differential,
    sweep_artifacts,
    verify_artifact,
)
from repro.analysis.staticcheck.findings import Report, Severity
from repro.analysis.staticcheck.verifier import (
    StaticCheckError,
    _simulate_kernel,
)
from repro.cli import FAIL_CODES, main as cli_main
from repro.codegen.fusion import fuse_templates
from repro.codegen.microkernel import generate_microkernel
from repro.machine.cache import CacheHierarchy
from repro.machine.chips import GRAVITON2
from repro.machine.compiled import CompiledTemplate, compile_template


def capture(mr, nr, kc, lane=4, rotate=False):
    """Generate + interpret one kernel; returns (template, operand extents)."""
    kernel = generate_microkernel(
        mr, nr, kc, lane=lane, accumulate=True, rotate=rotate
    )
    _trace, tpl, handles = _simulate_kernel(kernel)
    assert tpl is not None
    return tpl, tuple(h.bytes_spanned for h in handles)


def clone(compiled):
    """A fresh artifact with copied arrays (mutation target)."""
    return CompiledTemplate(
        compiled.mem_kind.copy(),
        compiled.mem_op.copy(),
        compiled.mem_delta.copy(),
        compiled.mem_plevel.copy(),
    )


@pytest.fixture(scope="module")
def plain():
    tpl, extents = capture(4, 8, 10)
    return tpl, compile_template(tpl), extents


@pytest.fixture(scope="module")
def fused():
    t0, e0 = capture(4, 8, 10)
    t1, e1 = capture(1, 4, 10)
    tpl = fuse_templates([t0, t1] * 4)
    return tpl, compile_template(tpl), (e0 + e1) * 4


class TestVerifyArtifact:
    def test_clean_plain(self, plain):
        tpl, compiled, extents = plain
        rep = verify_artifact(tpl, compiled, extents=extents)
        assert rep.ok and not rep.warnings

    def test_clean_fused(self, fused):
        tpl, compiled, extents = fused
        assert tpl.sched_periods is not None
        rep = verify_artifact(tpl, compiled, extents=extents)
        assert rep.ok and not rep.warnings

    def test_detects_reordered_stream(self, plain):
        tpl, compiled, _ = plain
        bad = clone(compiled)
        bad.mem_delta[:] = bad.mem_delta[::-1].copy()
        rep = verify_artifact(tpl, bad)
        assert not rep.ok
        assert any(f.code == "mem-stream-mismatch" for f in rep.errors)

    def test_detects_lost_op(self, plain):
        tpl, compiled, _ = plain
        bad = CompiledTemplate(
            compiled.mem_kind[:-1].copy(),
            compiled.mem_op[:-1].copy(),
            compiled.mem_delta[:-1].copy(),
            compiled.mem_plevel[:-1].copy(),
        )
        rep = verify_artifact(tpl, bad)
        assert any(f.code == "mem-conservation" for f in rep.errors)

    def test_detects_truncated_load_mask(self, plain):
        tpl, compiled, _ = plain
        bad = clone(compiled)
        bad.load_mask = bad.load_mask.copy()
        bad.load_mask[np.flatnonzero(bad.load_mask)[-1]] = False
        bad.n_loads -= 1
        rep = verify_artifact(tpl, bad)
        assert any(f.code == "load-mask" for f in rep.errors)


class TestIntervals:
    def test_operand_slot_out_of_bounds(self, plain):
        tpl, compiled, _ = plain
        bad = clone(compiled)
        bad.mem_op[0] = 3  # plain template has slots {0, 1, 2}
        rep = verify_artifact(tpl, bad)
        assert any(f.code == "operand-slot-bounds" for f in rep.errors)

    def test_address_overflow(self, plain):
        tpl, compiled, _ = plain
        bad = clone(compiled)
        bad.mem_delta[0] = np.iinfo(np.int64).max - 1
        rep = verify_artifact(tpl, bad)
        assert any(f.code == "address-overflow" for f in rep.errors)

    def test_delta_past_operand_extent(self, plain):
        tpl, compiled, _ = plain
        # Claim every operand spans a single byte: every non-zero delta
        # now provably reaches outside its operand.
        rep = verify_artifact(tpl, compiled, extents=(1, 1, 1))
        assert any(f.code == "delta-extent" for f in rep.errors)

    def test_csr_tail_off_by_one(self, plain):
        tpl, compiled, _ = plain
        tables = [
            arr.copy() for arr in compiled.flow_tables(tpl)
        ]
        tables[3][-1] += 1  # r_off[-1] slices past r_idx
        bad = clone(compiled)
        bad._flow_tables = tuple(tables)
        rep = verify_artifact(tpl, bad)
        assert any(f.code == "csr-bounds" for f in rep.errors)

    def test_lru_export_well_formed(self):
        caches = CacheHierarchy(GRAVITON2)
        rep = Report("cache")
        check_cache_slots(caches, rep)
        assert rep.finalize().ok

    def test_lru_overfull_set_detected(self):
        caches = CacheHierarchy(GRAVITON2)
        _lvl, l1 = caches.levels[0]
        l1.lens[0] = l1.ways + 1  # one past associativity
        rep = Report("cache")
        check_cache_slots(caches, rep)
        assert any(f.code == "lru-occupancy" for f in rep.finalize().errors)

    def test_lru_truncated_tag_array_detected(self):
        caches = CacheHierarchy(GRAVITON2)
        caches.tags = caches.tags[:-1]  # the last set's last slot is gone
        rep = Report("cache")
        check_cache_slots(caches, rep)
        assert any(f.code == "cache-geometry" for f in rep.finalize().errors)


class TestCompileGate:
    def test_gate_passes_clean_lowering(self, monkeypatch):
        monkeypatch.setenv("REPRO_STATICCHECK", "1")
        tpl, _ = capture(2, 8, 8)
        with telemetry.collecting() as col:
            compile_template(tpl)
        assert col.counters.get("artifactcheck.verified", 0) >= 1

    def test_gate_aborts_corrupt_lowering(self, monkeypatch):
        from repro.machine import compiled as compiled_mod

        class Corrupt(CompiledTemplate):
            def __init__(self, mem_kind, mem_op, mem_delta, mem_plevel):
                super().__init__(
                    mem_kind, mem_op, mem_delta[::-1].copy(), mem_plevel
                )

        monkeypatch.setenv("REPRO_STATICCHECK", "1")
        monkeypatch.setattr(compiled_mod, "CompiledTemplate", Corrupt)
        tpl, _ = capture(4, 8, 8)
        with pytest.raises(StaticCheckError, match="mem"):
            compiled_mod.compile_template(tpl)

    def test_gate_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STATICCHECK", raising=False)
        tpl, _ = capture(2, 8, 8)
        with telemetry.collecting() as col:
            compile_template(tpl)
        assert "artifactcheck.verified" not in col.counters


class TestSweep:
    def test_neon_family_clean(self):
        reports = sweep_artifacts(
            isas=("neon",), chip=GRAVITON2, kc=6, fusion=True
        )
        assert len(reports) > 10
        assert all(not r.errors and not r.warnings for r in reports)
        names = [r.name for r in reports]
        assert any("fusion" in n for n in names)
        assert any(n.startswith("cache-slots") for n in names)


class TestMutationSelfTest:
    def test_detection_rate_holds_the_bar(self):
        report = run_artifact_mutation_suite()
        assert report.total >= 50
        assert set(o.mutant.cls for o in report.outcomes) == set(
            ARTIFACT_MUTATION_CLASSES
        )
        assert report.detection_rate >= 0.95, report.summary()


class TestCli:
    def test_lint_artifacts_json(self, capsys):
        code = cli_main(
            ["lint-artifacts", "--isa", "neon", "--kc", "6", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["command"] == "lint-artifacts"
        assert payload["ok"] and payload["errors"] == 0
        assert payload["total_reports"] > 10

    def test_lint_artifacts_exit_code_on_errors(self, monkeypatch, capsys):
        import repro.analysis.artifactcheck as ac

        def forced_failure(**_kwargs):
            rep = Report("forced")
            rep.add("mem-conservation", Severity.ERROR, "forced defect")
            return [rep.finalize()]

        monkeypatch.setattr(ac, "sweep_artifacts", forced_failure)
        code = cli_main(["lint-artifacts", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == FAIL_CODES["lint-artifacts"] == 24
        assert not payload["ok"] and payload["errors"] == 1


class TestDifferentialHarness:
    def test_native_matches_python_bit_for_bit(self):
        report = run_differential(n_cases=4, seed=3)
        if report.skipped:
            pytest.skip(report.skipped)
        assert report.cases and report.ok, report.to_dict()
        payload = report.to_dict()
        assert payload["mismatches"] == 0
        assert "native_status" in payload
