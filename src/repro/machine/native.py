"""Native replay kernels, JIT-built with cffi and the system C toolchain.

Two parts of compiled replay cannot be vectorized and so dominate its
Python cost: the scoreboard recurrence (issue times flowing through
register / unit / reorder-window max-chains -- each instruction's start
depends on earlier finish times) and the cache consult walk (every access
mutates LRU state the next access observes).  Both are tiny loops over
flat arrays, so this module lowers them to C once per machine and reuses
the shared object from a disk cache afterwards.

Bit-exactness: the scoreboard kernel performs the *identical* IEEE-754
binary64 operations in the identical order as the Python loop in
``PipelineModel._scoreboard_dense`` -- only additions and comparisons, no
contractible multiply-add pairs -- so results are bit-equal on any platform
where CPython floats are hardware doubles (everywhere we run).  The kernel is
compiled with ``-fno-fast-math`` to keep the compiler from re-associating.
The consult kernel is integer-only (set/tag arithmetic and LRU reordering)
and mutates the hierarchy's slot arrays in place, so its equality with the
scalar ``CacheHierarchy.access`` / ``prefetch`` walk (``cache._walk``) is
purely a matter of control flow.

Everything degrades gracefully: no compiler, no ``cffi``, an unwritable
cache directory, or ``REPRO_NATIVE=0`` simply latches the native path off
and the Python paths -- ``PipelineModel._scoreboard_dense`` and
``cache._walk`` -- serve instead, bit-identically.  Each latch bumps the ``native.latched``
counter and records why in :func:`native_status`, so CI logs show the
reason the C kernels are off instead of a silent fallback.

``REPRO_NATIVE_SANITIZE=1`` compiles the kernels with
``-fsanitize=address,undefined`` into a separate cache slot -- the
ASan/UBSan differential leg (``repro.analysis.artifactcheck.sanitize``)
runs the bit-exactness matrix against that build.  Loading it requires the
sanitizer runtime preloaded (``LD_PRELOAD=libasan.so``); without it the
import fails and latches gracefully like any other build failure.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

from .. import telemetry

__all__ = ["get_native", "native_status"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* Scoreboard recurrence over pre-gathered per-instruction latencies.
   Mirrors repro.machine.pipeline.PipelineModel._scoreboard_dense exactly:
   same doubles, same operation order, same ring-buffer (deque) semantics.
   Returns 0 on success, -1 on allocation failure (caller falls back). */
int repro_scoreboard(
    int64_t n_instr,
    const int32_t *flow_ids,     /* per-instruction flow index */
    const double *latency,       /* per-instruction gathered latency */
    const int32_t *flow_unit,    /* per-flow unit id */
    const int32_t *r_off,        /* per-flow read-register CSR offsets */
    const int32_t *r_idx,
    const int32_t *w_off,        /* per-flow write-register CSR offsets */
    const int32_t *w_idx,
    const double *rt,            /* per-unit reciprocal throughput */
    int32_t n_regs,
    int32_t rename_limit,
    int32_t window_size,
    double launch,
    double fetch_step,
    double *out)                 /* out[0]=completion, out[1]=dep_stall */
{
    double *reg_ready = NULL, *hist = NULL, *unit_free = NULL, *window = NULL;
    int32_t *hist_len = NULL, *hist_head = NULL;
    int n_alloc_regs = n_regs > 0 ? n_regs : 1;

    reg_ready = (double *)calloc(n_alloc_regs, sizeof(double));
    hist = (double *)malloc((size_t)n_alloc_regs * rename_limit * sizeof(double));
    hist_len = (int32_t *)calloc(n_alloc_regs, sizeof(int32_t));
    hist_head = (int32_t *)calloc(n_alloc_regs, sizeof(int32_t));
    unit_free = (double *)malloc(64 * sizeof(double));
    window = (double *)malloc((size_t)window_size * sizeof(double));
    if (!reg_ready || !hist || !hist_len || !hist_head || !unit_free || !window) {
        free(reg_ready); free(hist); free(hist_len); free(hist_head);
        free(unit_free); free(window);
        return -1;
    }
    for (int u = 0; u < 64; u++) unit_free[u] = launch;

    double completion = launch;
    double dep_stall = 0.0;
    double t_fetch = launch;
    int win_len = 0, win_head = 0;

    for (int64_t i = 0; i < n_instr; i++) {
        int32_t f = flow_ids[i];
        double ready = t_fetch;
        for (int32_t j = r_off[f]; j < r_off[f + 1]; j++) {
            double t = reg_ready[r_idx[j]];
            if (t > ready) ready = t;
        }
        for (int32_t j = w_off[f]; j < w_off[f + 1]; j++) {
            int32_t reg = w_idx[j];
            if (hist_len[reg] >= rename_limit) {
                double t = hist[(size_t)reg * rename_limit + hist_head[reg]];
                if (t > ready) ready = t;
            }
        }

        int32_t u = flow_unit[f];
        double uf = unit_free[u];
        double start = ready > uf ? ready : uf;
        if (win_len >= window_size && window[win_head] > start)
            start = window[win_head];
        if (ready > t_fetch) dep_stall += ready - t_fetch;

        double finish = start + latency[i];
        unit_free[u] = start + rt[u];
        for (int32_t j = w_off[f]; j < w_off[f + 1]; j++) {
            int32_t reg = w_idx[j];
            reg_ready[reg] = finish;
            /* deque append + conditional popleft == ring overwrite */
            int32_t len = hist_len[reg], head = hist_head[reg];
            if (len < rename_limit) {
                int32_t pos = head + len;
                if (pos >= rename_limit) pos -= rename_limit;
                hist[(size_t)reg * rename_limit + pos] = finish;
                hist_len[reg] = len + 1;
            } else {
                hist[(size_t)reg * rename_limit + head] = finish;
                head += 1;
                if (head >= rename_limit) head = 0;
                hist_head[reg] = head;
            }
        }
        if (finish > completion) completion = finish;

        if (win_len < window_size) {
            int32_t pos = win_head + win_len;
            if (pos >= window_size) pos -= window_size;
            window[pos] = finish;
            win_len += 1;
        } else {
            window[win_head] = finish;
            win_head += 1;
            if (win_head >= window_size) win_head = 0;
        }

        t_fetch += fetch_step;
    }

    out[0] = completion;
    out[1] = dep_stall;
    free(reg_ready); free(hist); free(hist_len); free(hist_head);
    free(unit_free); free(window);
    return 0;
}

/* --- set-associative LRU consult kernel ------------------------------- */

/* One cache set is a slot array ordered LRU-first (index 0 = next victim,
   index len-1 = MRU).  Touch moves a resident tag to MRU and returns 1;
   otherwise it installs the tag at MRU, evicting slot 0 when the set is
   full, and returns 0.  All state is integers, so equality with the Python
   walk is just "same control flow". */

static int consult_touch(int64_t *slot, int32_t *len, int32_t ways, int64_t tag)
{
    int32_t n = *len, j = 0;
    while (j < n && slot[j] != tag) j++;
    int hit = j < n;
    if (!hit) {
        if (n < ways) {
            slot[n] = tag;
            *len = n + 1;
            return 0;
        }
        j = 0;
    }
    for (; j < n - 1; j++) slot[j] = slot[j + 1];
    slot[n - 1] = tag;
    return hit;
}

/* Service a cache-line op stream in program order.  Mirrors
   repro.machine.cache._walk, the walk behind CacheHierarchy.access and
   prefetch: a demand access touches L1, L2, ... and stops at the first
   level that held the line (4 = DRAM when none did); a prefetch touches
   every level at or below its target.  Cache lines must be non-negative
   (the caller guards) so C division matches Python floor division.  State
   arrays are strided per level: level l's set s lives at
   tags[tag_base[l] + s*n_ways[l]] with occupancy set_len[len_base[l]+s]. */
int repro_consult(
    int64_t n_ops,
    const int64_t *lines,        /* cache-line ids */
    const uint8_t *kinds,        /* 1=load 2=store 3=prefetch */
    const uint8_t *plevels,      /* prefetch target level */
    int32_t n_levels,
    const int32_t *level_id,     /* per level: 1..3 */
    const int32_t *num_sets,
    const int32_t *n_ways,
    const int64_t *tag_base,     /* per level: offset into tags */
    const int64_t *len_base,     /* per level: offset into set_len */
    int64_t *tags,               /* concatenated strided slot arrays */
    int32_t *set_len,            /* concatenated per-set occupancy */
    uint8_t *out_levels)         /* per-op service level (prefetch: 1) */
{
    for (int64_t i = 0; i < n_ops; i++) {
        int64_t line = lines[i];
        int demand = kinds[i] != 3;
        int32_t first = demand ? 1 : (int32_t)plevels[i];
        uint8_t served = demand ? 4 : 1;
        for (int32_t l = 0; l < n_levels; l++) {
            if (level_id[l] < first) continue;
            int64_t s = line % num_sets[l];
            if (consult_touch(tags + tag_base[l] + s * n_ways[l],
                              set_len + len_base[l] + s, n_ways[l],
                              line / num_sets[l]) && demand) {
                served = (uint8_t)level_id[l];
                break;
            }
        }
        out_levels[i] = served;
    }
    return 0;
}
"""

_CDEF = """
int repro_scoreboard(
    int64_t n_instr,
    const int32_t *flow_ids,
    const double *latency,
    const int32_t *flow_unit,
    const int32_t *r_off,
    const int32_t *r_idx,
    const int32_t *w_off,
    const int32_t *w_idx,
    const double *rt,
    int32_t n_regs,
    int32_t rename_limit,
    int32_t window_size,
    double launch,
    double fetch_step,
    double *out);
int repro_consult(
    int64_t n_ops,
    const int64_t *lines,
    const uint8_t *kinds,
    const uint8_t *plevels,
    int32_t n_levels,
    const int32_t *level_id,
    const int32_t *num_sets,
    const int32_t *n_ways,
    const int64_t *tag_base,
    const int64_t *len_base,
    int64_t *tags,
    int32_t *set_len,
    uint8_t *out_levels);
"""

#: Maximum unit-id the kernel's fixed unit_free table supports; templates
#: intern a handful of units, so 64 is far above anything real.
MAX_UNITS = 64

_native = None
_failed = False
_status = "unbuilt"


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_DIR")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-native")


def _sanitize_enabled() -> bool:
    return os.environ.get("REPRO_NATIVE_SANITIZE") == "1"


def _module_name() -> str:
    digest = hashlib.sha1(_SOURCE.encode()).hexdigest()[:12]
    # Sanitized builds get their own cache slot: the instrumented .so needs
    # the ASan runtime preloaded, so it must never shadow the plain build.
    suffix = "_san" if _sanitize_enabled() else ""
    return f"_repro_sched_{digest}{suffix}"


def _load_so(path: str):
    import importlib.machinery
    import importlib.util

    name = _module_name()
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


def _build():
    """Compile (or load from cache) the scoreboard kernel; returns (ffi, lib)."""
    from cffi import FFI

    name = _module_name()
    cache = _cache_dir()
    cached = None
    if os.path.isdir(cache):
        for fn in os.listdir(cache):
            if fn.startswith(name) and fn.endswith(".so"):
                cached = os.path.join(cache, fn)
                break
    if cached is None:
        compile_args = ["-O2", "-fno-fast-math"]
        link_args: list[str] = []
        if _sanitize_enabled():
            san = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
            compile_args += san + ["-g"]
            link_args = list(san)
        ffi = FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(
            name,
            _SOURCE,
            extra_compile_args=compile_args,
            extra_link_args=link_args,
        )
        build_dir = tempfile.mkdtemp(prefix="repro-native-")
        try:
            so_path = ffi.compile(tmpdir=build_dir)
            os.makedirs(cache, exist_ok=True)
            cached = os.path.join(cache, os.path.basename(so_path))
            tmp_target = cached + f".tmp{os.getpid()}"
            shutil.copy2(so_path, tmp_target)
            os.replace(tmp_target, cached)
        finally:
            shutil.rmtree(build_dir, ignore_errors=True)
    mod = _load_so(cached)
    return mod.ffi, mod.lib


def get_native():
    """The ``(ffi, lib)`` pair for the native kernel, or ``None``.

    Builds lazily on first call; any failure (missing compiler, read-only
    filesystem, ``REPRO_NATIVE=0``) latches the native path off for the
    process so the Python scoreboard serves without re-probing.
    """
    global _native, _failed, _status
    if _native is not None:
        return _native
    if _failed:
        return None
    if os.environ.get("REPRO_NATIVE", "1") in ("0", "false", "no"):
        _failed = True
        _status = "disabled"
        telemetry.count("native.latched")
        return None
    try:
        _native = _build()
        _status = "built (sanitized)" if _sanitize_enabled() else "built"
    except Exception as exc:  # no toolchain / no cffi / unwritable cache
        _failed = True
        detail = str(exc).strip().replace("\n", " ")[:160]
        _status = f"unavailable: {type(exc).__name__}" + (
            f": {detail}" if detail else ""
        )
        telemetry.count("native.latched")
        return None
    return _native


def native_status() -> str:
    """Human-readable state of the native kernel (for diagnostics)."""
    return _status
