"""Compiled trace templates: bit-exact equivalence with the interpreter.

Replay runs through compiled artifacts and has one exactness contract:
compiled = interpreter.  For any problem, replay (the default) must produce
byte-identical ``C`` and identical ``cycles`` / ``instructions`` /
``loads_by_level`` / ``phase_cycles`` to full interpretation
(``use_replay=False``).  These tests pin that contract across the same
matrix the replay tests cover, compiled replay against the ``time_trace``
oracle, the batched cache consult's state equality against the scalar
methods, the native kernels against their Python fallbacks, the
timing-memo LRU bound, and the compiled -> interpret -> reference
degradation chain.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.faults import plan as faults
from repro.gemm import AutoGEMM, GemmExecutor, KernelKey, ReplayCache, Residency
from repro.gemm.reference import sgemm
from repro.gemm.schedule import Schedule
from repro.machine.cache import CacheHierarchy
from repro.machine.chips import A64FX, GRAVITON2, KP920
from repro.machine.compiled import compile_template
from repro.machine.pipeline import PipelineModel
from repro.machine.simulator import DEFAULT_TIMING_MEMO_CAP, template_to_trace


def result_fields(r):
    return (
        r.c.tobytes(),
        r.cycles,
        r.instructions,
        r.loads_by_level,
        r.phase_cycles,
    )


def assert_equivalent(chip, m, n, k, schedule=None, beta=1.0, threads=1, warm=True):
    """Two-way equality: compiled replay == interpreter."""
    rng = np.random.default_rng(m * 1_000_003 + n * 1_009 + k)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    c = rng.standard_normal((m, n)).astype(np.float32) if beta != 0.0 else None
    kwargs = dict(schedule=schedule, beta=beta, threads=threads, warm=warm)
    compiled = GemmExecutor(chip, use_replay=True).run(a, b, c, **kwargs)
    interp = GemmExecutor(chip, use_replay=False).run(a, b, c, **kwargs)
    assert result_fields(compiled) == result_fields(interp)
    return compiled


class TestBitExactness:
    @pytest.mark.parametrize("chip", [GRAVITON2, KP920, A64FX], ids=lambda c: c.name)
    @pytest.mark.parametrize("m,n,k", [(48, 40, 56), (33, 47, 29)])
    def test_chips_and_shapes(self, chip, m, n, k):
        assert_equivalent(chip, m, n, k)

    @pytest.mark.parametrize("fuse", [True, False])
    def test_fusion_modes(self, fuse):
        sched = Schedule(mc=32, nc=32, kc=32, fuse=fuse)
        assert_equivalent(GRAVITON2, 64, 64, 64, schedule=sched)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.5])
    def test_beta(self, beta):
        assert_equivalent(GRAVITON2, 48, 36, 40, beta=beta)

    def test_padded_edge_tiles(self):
        sched = Schedule(mc=32, nc=32, kc=32, static_edges="pad")
        assert_equivalent(GRAVITON2, 60, 52, 44, schedule=sched)

    def test_multi_k_blocks_accumulate_key(self):
        sched = Schedule(mc=32, nc=32, kc=16)
        assert_equivalent(GRAVITON2, 64, 48, 64, schedule=sched)

    def test_threads_cold_cache(self):
        assert_equivalent(GRAVITON2, 96, 96, 96, threads=4, warm=False)


class TestConsultBatch:
    """The batched consult must leave the hierarchy in the scalar methods'
    exact state -- LRU order included -- and report the same levels/stats."""

    @staticmethod
    def _streams(chip, seed, n_ops=4000):
        """A mixed op stream with heavy same-line runs (the elision case),
        set-conflict strides, and interleaved prefetches/stores."""
        rng = np.random.default_rng(seed)
        line = chip.cache_line
        addrs, kinds, plevels = [], [], []
        cursor = 64
        for _ in range(n_ops):
            roll = rng.integers(0, 10)
            if roll < 5:  # same-line run (unit-stride lane loads)
                for i in range(int(rng.integers(1, 5))):
                    addrs.append(cursor + 4 * i)
                    kinds.append(1)
                    plevels.append(0)
            elif roll < 7:  # store
                addrs.append(cursor)
                kinds.append(2)
                plevels.append(0)
            elif roll < 8:  # prefetch (breaks elision for its successor)
                addrs.append(cursor + line)
                kinds.append(3)
                plevels.append(int(rng.integers(1, 3)))
            else:  # conflict-stride jump
                cursor = int(rng.integers(0, 1 << 22)) * 4
                addrs.append(cursor)
                kinds.append(1)
                plevels.append(0)
            cursor += line if roll == 9 else 0
        return (
            np.asarray(addrs, np.int64),
            np.asarray(kinds, np.uint8),
            np.asarray(plevels, np.uint8),
        )

    @staticmethod
    def _state(h):
        return [
            [cache.resident(s) for s in range(cache.num_sets)]
            for _, cache in h.levels
        ]

    @pytest.mark.parametrize("chip", [GRAVITON2, KP920, A64FX], ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_and_levels_equal_scalar(self, monkeypatch, chip, seed):
        # Two batched legs: the default (native kernel when it builds) and
        # REPRO_NATIVE=0, where elision composes with the Python walk.
        from repro.machine import native

        addrs, kinds, plevels = self._streams(chip, seed)
        batched = CacheHierarchy(chip)
        got = batched.consult_batch(addrs, kinds, plevels)

        with monkeypatch.context() as m:
            m.setattr(native, "_native", None)
            m.setattr(native, "_failed", False)
            m.setattr(native, "_status", "unbuilt")
            m.setenv("REPRO_NATIVE", "0")
            fallback = CacheHierarchy(chip)
            got_fallback = fallback.consult_batch(addrs, kinds, plevels)
            assert native.native_status() == "disabled"

        scalar = CacheHierarchy(chip)
        want = np.ones(len(addrs), np.uint8)
        for i, (addr, kind) in enumerate(zip(addrs.tolist(), kinds.tolist())):
            if kind == 1:
                want[i] = scalar.access(addr)
            elif kind == 2:
                scalar.access(addr, is_write=True)
            else:
                scalar.prefetch(addr, int(plevels[i]))

        load = kinds == 1
        want_state = self._state(scalar)
        for h, levels in ((batched, got), (fallback, got_fallback)):
            assert levels[load].tobytes() == want[load].tobytes()
            assert h.stats.hits == scalar.stats.hits
            assert self._state(h) == want_state

    def test_empty_stream(self):
        h = CacheHierarchy(GRAVITON2)
        out = h.consult_batch(
            np.empty(0, np.int64), np.empty(0, np.uint8), np.empty(0, np.uint8)
        )
        assert len(out) == 0
        assert h.stats.accesses == 0

    def test_fault_plan_falls_back_to_scalar_polls(self):
        # With a plan installed every demand access must poll cache.access
        # -- same call count as the interpreted walk would make.
        addrs, kinds, plevels = self._streams(GRAVITON2, 3, n_ops=200)
        demand = int((kinds != 3).sum())
        plan = faults.FaultPlan([faults.FaultSpec("cache.access", nth=10**9)])
        with faults.injecting(plan):
            CacheHierarchy(GRAVITON2).consult_batch(addrs, kinds, plevels)
        assert plan.calls("cache.access") == demand


class TestCompiledArtifact:
    @staticmethod
    def _template(chip=GRAVITON2, kc=32):
        cache = ReplayCache(chip)
        key = KernelKey(mr=4, nr=16, kc=kc, lane=chip.sigma_lane)
        cache.cycles(key, Residency(1, 1, 1))  # interpret + capture
        (tpl,) = cache._templates.values()
        return tpl

    def test_compile_matches_template_streams(self):
        tpl = self._template()
        art = compile_template(tpl)
        assert art.n_ops == sum(len(ops) for _, ops in tpl.mem_chunks)
        assert art.n_loads == tpl.n_loads
        flat = [
            (kind, off + op, delta, pl)
            for off, ops in tpl.mem_chunks
            for kind, op, delta, pl in ops
        ]
        assert art.mem_kind.tolist() == [f[0] for f in flat]
        assert art.mem_op.tolist() == [f[1] for f in flat]
        assert art.mem_delta.tolist() == [f[2] for f in flat]

    def test_replay_matches_time_trace_oracle(self):
        """Compiled replay == ``time_trace`` of the materialised trace, on
        fresh caches, over a cold then a warm replay of the same tile."""
        tpl = self._template()
        bases = (64, 8256, 12352)
        tpl.timing_memo.clear()  # force the replay through the scoreboard
        replay = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        oracle = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        for _ in range(2):
            got = replay.replay_template(tpl, bases)
            want = oracle.time_trace(template_to_trace(tpl, bases))
            assert got.cycles == want.cycles
            assert got.stall_cycles == want.stall_cycles
            assert got.loads_by_level == want.loads_by_level
            assert TestConsultBatch._state(replay.caches) == (
                TestConsultBatch._state(oracle.caches)
            )

    def test_invalidate_compiled(self):
        tpl = self._template()
        model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        model.replay_template(tpl, (64, 8256, 12352))
        assert tpl.compiled is not None and tpl.timing_memo
        tpl.invalidate_compiled()
        assert tpl.compiled is None
        assert not tpl.compile_failed
        assert not tpl.timing_memo

    def test_compile_counters(self):
        tpl = self._template()
        model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        with telemetry.collecting() as col:
            model.replay_template(tpl, (64, 8256, 12352))
            model.replay_template(tpl, (64, 8256, 12352))
        assert col.counters.get("compile.templates") == 1  # compiled once
        assert col.counters.get("replay.compiled_hits") == 2


class TestMemoLRU:
    def test_cap_and_eviction_counters(self):
        tpl = TestCompiledArtifact._template()
        tpl.memo_cap = 4
        model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        with telemetry.collecting() as col:
            for i in range(10):
                # Distinct launch_cycles values force distinct memo keys.
                model.launch_cycles = float(i)
                model.replay_template(tpl, (64, 8256, 12352))
        assert len(tpl.timing_memo) == 4
        assert col.counters.get("replay.memo_insertions") == 10
        assert col.counters.get("replay.memo_evictions") == 6

    def test_lru_keeps_recent(self):
        tpl = TestCompiledArtifact._template()
        tpl.memo_cap = 2
        model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        for i in (0.0, 1.0, 0.0, 2.0):  # re-touch 0.0 before inserting 2.0
            model.launch_cycles = i
            model.replay_template(tpl, (64, 8256, 12352))
        kept = {key[1] for key in tpl.timing_memo}
        assert kept == {0.0, 2.0}  # 1.0 was the least recently used

    def test_default_cap(self):
        tpl = TestCompiledArtifact._template()
        assert tpl.memo_cap == DEFAULT_TIMING_MEMO_CAP == 64

    def test_memo_stats(self):
        cache = ReplayCache(GRAVITON2)
        key = KernelKey(mr=4, nr=16, kc=32, lane=GRAVITON2.sigma_lane)
        cache.cycles(key, Residency(1, 1, 1))
        cache.cycles(key, Residency(2, 2, 2))
        stats = cache.memo_stats()
        assert stats["templates"] == 1
        assert stats["entries"] >= 1
        assert stats["capacity"] == DEFAULT_TIMING_MEMO_CAP
        assert stats["compiled"] == 1


class TestDegradationChain:
    def test_compile_fault_degrades_to_interpreted_replay(self):
        """Rung 1: a compile fault times per-tile templates and fused blocks
        interpreted -- C, cycles, loads and phases identical to a fault-free
        run, for the heuristic schedule and a fused one."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((64, 48)).astype(np.float32)
        b = rng.standard_normal((48, 40)).astype(np.float32)
        for schedule in (None, Schedule(mc=32, nc=32, kc=48, fuse=True)):
            clean = AutoGEMM(GRAVITON2).gemm(a, b, schedule=schedule)
            plan = faults.FaultPlan(
                [faults.FaultSpec("template.compile", probability=1.0)]
            )
            with faults.injecting(plan), telemetry.collecting() as col:
                faulted = AutoGEMM(GRAVITON2).gemm(a, b, schedule=schedule)
            assert plan.total_injected() > 0
            assert result_fields(faulted) == result_fields(clean)
            assert col.counters.get("degraded.compile_skipped", 0) > 0
            assert col.counters.get("replay.compiled_hits", 0) == 0

    def test_chain_to_interpret_and_reference(self):
        """Rungs 2..4: faults on compile + capture + replay-apply push tiles
        down to interpretation, and generation faults to the numpy
        reference; C stays bit-exact against sgemm throughout."""
        rng = np.random.default_rng(12)
        a = rng.standard_normal((48, 40)).astype(np.float32)
        b = rng.standard_normal((40, 36)).astype(np.float32)
        want = sgemm(a, b)
        plan = faults.FaultPlan(
            [
                faults.FaultSpec("template.compile", probability=1.0),
                faults.FaultSpec("trace.capture", probability=0.5),
                faults.FaultSpec("replay.apply", probability=0.5),
                faults.FaultSpec("kernel.generate", nth=2, mode="permanent"),
            ],
            seed=3,
        )
        with faults.injecting(plan):
            result = AutoGEMM(GRAVITON2).gemm(a, b)
        assert plan.total_injected() > 0
        assert result.c.tobytes() == want.tobytes()
        assert result.degraded


class TestNativeKernels:
    """The cffi-built C kernels must be bit-equal to their Python loops and
    must degrade to them silently when unavailable."""

    @staticmethod
    def _native_off(monkeypatch):
        from repro.machine import native

        monkeypatch.setattr(native, "_native", None)
        monkeypatch.setattr(native, "_failed", True)

    @staticmethod
    def _require_native():
        from repro.machine import native

        if native.get_native() is None:
            pytest.skip(f"native kernel unavailable: {native.native_status()}")

    def test_consult_native_matches_python_loop(self, monkeypatch):
        self._require_native()
        addrs, kinds, plevels = TestConsultBatch._streams(GRAVITON2, 7)
        h_native = CacheHierarchy(GRAVITON2)
        with telemetry.collecting() as col:
            got = h_native.consult_batch(addrs, kinds, plevels)
        assert col.counters.get("replay.consult_native", 0) >= 1

        h_python = CacheHierarchy(GRAVITON2)
        self._native_off(monkeypatch)
        want = h_python.consult_batch(addrs, kinds, plevels)

        assert got.tobytes() == want.tobytes()
        assert h_native.stats.hits == h_python.stats.hits
        assert TestConsultBatch._state(h_native) == TestConsultBatch._state(
            h_python
        )

    def test_consult_native_interleaves_with_scalar_walks(self, monkeypatch):
        # warm_range calls land between fused blocks' consults; both must
        # mutate the same slot arrays the scalar walk would, and only the
        # consults count as native consult batches.
        self._require_native()
        streams = [TestConsultBatch._streams(GRAVITON2, s) for s in (11, 12)]
        h_native = CacheHierarchy(GRAVITON2)
        with telemetry.collecting() as col:
            for addrs, kinds, plevels in streams:
                h_native.consult_batch(addrs, kinds, plevels)
                h_native.warm_range(1 << 20, 4096, 1)
        assert col.counters.get("replay.consult_native") == len(streams)

        h_python = CacheHierarchy(GRAVITON2)
        self._native_off(monkeypatch)
        for addrs, kinds, plevels in streams:
            h_python.consult_batch(addrs, kinds, plevels)
            h_python.warm_range(1 << 20, 4096, 1)

        assert h_native.stats.hits == h_python.stats.hits
        assert TestConsultBatch._state(h_native) == TestConsultBatch._state(
            h_python
        )

    @pytest.mark.parametrize("chip", [GRAVITON2, KP920, A64FX], ids=lambda c: c.name)
    def test_scoreboard_native_matches_python(self, monkeypatch, chip):
        """C scoreboard == ``_scoreboard_dense`` on fused blocks of eight or
        more tiles, including KP920's non-dyadic reciprocal throughputs."""
        self._require_native()
        rng = np.random.default_rng(5)
        a = rng.standard_normal((64, 32)).astype(np.float32)
        b = rng.standard_normal((32, 64)).astype(np.float32)
        schedule = Schedule(mc=64, nc=64, kc=32, fuse=True)

        native_run = GemmExecutor(chip)
        with telemetry.collecting() as col:
            fast = native_run.run(a, b, schedule=schedule)
        assert col.counters.get("replay.sched_native", 0) >= 1
        assert any(
            len(tpl.sched_periods[1]) >= 8
            for tpl in native_run.replay._fused.values()
        )

        self._native_off(monkeypatch)
        with telemetry.collecting() as col:
            slow = GemmExecutor(chip).run(a, b, schedule=schedule)
        assert "replay.sched_native" not in col.counters
        assert result_fields(fast) == result_fields(slow)

    def test_env_knob_latches_native_off(self, monkeypatch):
        from repro.machine import native

        monkeypatch.setattr(native, "_native", None)
        monkeypatch.setattr(native, "_failed", False)
        monkeypatch.setattr(native, "_status", "unbuilt")
        monkeypatch.setenv("REPRO_NATIVE", "0")
        with telemetry.collecting() as col:
            assert native.get_native() is None
        assert native.native_status() == "disabled"
        assert col.counters.get("native.latched", 0) == 1
        # Latched: even after the env var goes away, no re-probe (and no
        # second count -- the latch fires once per process).
        monkeypatch.delenv("REPRO_NATIVE")
        with telemetry.collecting() as col:
            assert native.get_native() is None
        assert "native.latched" not in col.counters

    @staticmethod
    def _unbuilt(monkeypatch):
        from repro.machine import native

        monkeypatch.setattr(native, "_native", None)
        monkeypatch.setattr(native, "_failed", False)
        monkeypatch.setattr(native, "_status", "unbuilt")

    def _latched_run_matches_python(self, monkeypatch):
        """The current latched state must replay bit-identically to an
        explicit ``REPRO_NATIVE=0`` run."""
        rng = np.random.default_rng(9)
        a = rng.standard_normal((32, 24)).astype(np.float32)
        b = rng.standard_normal((24, 32)).astype(np.float32)
        latched = GemmExecutor(GRAVITON2).run(a, b)
        self._unbuilt(monkeypatch)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        forced_off = GemmExecutor(GRAVITON2).run(a, b)
        assert result_fields(latched) == result_fields(forced_off)

    def test_unwritable_cache_dir_latches(self, monkeypatch, tmp_path):
        # REPRO_NATIVE_DIR pointing at a regular *file* makes the cache
        # publish step fail on any platform (even running as root, where a
        # read-only directory would not): os.makedirs refuses the path.
        from repro.machine import native

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        self._unbuilt(monkeypatch)
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(blocker))
        with telemetry.collecting() as col:
            assert native.get_native() is None
        assert native.native_status().startswith("unavailable:")
        assert col.counters.get("native.latched", 0) == 1
        # Latched for the process: a later call with a writable dir does
        # not re-probe.
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "fine"))
        assert native.get_native() is None
        self._latched_run_matches_python(monkeypatch)

    def test_corrupted_cached_so_latches(self, monkeypatch, tmp_path):
        # A truncated/garbage .so in the cache is found by the cache probe
        # and fails at dlopen; the latch (not a crash) must absorb it.
        from repro.machine import native

        bad = tmp_path / f"{native._module_name()}.so"
        bad.write_bytes(b"\x7fELF garbage, not a loadable object")
        self._unbuilt(monkeypatch)
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        with telemetry.collecting() as col:
            assert native.get_native() is None
        assert native.native_status().startswith("unavailable:")
        assert col.counters.get("native.latched", 0) == 1
        self._latched_run_matches_python(monkeypatch)
