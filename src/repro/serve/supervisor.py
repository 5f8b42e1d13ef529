"""Supervised worker pool for the serving daemon.

The daemon never runs a client's GEMM in its own process: each request is
shipped over a :class:`multiprocessing.Pipe` to one of a fixed pool of
**forked** worker processes, each holding the same warmed
:class:`~repro.gemm.AutoGEMM` engine (workers fork *after* the supervisor
builds the engine, so the kernel/replay caches and the loaded
:class:`~repro.tuner.registry.ScheduleRegistry` are inherited
copy-on-write -- one process-wide warm state, many isolated executors).
Isolation is the point: a worker that crashes, hangs, or gets
``kill -9``-ed takes one request with it, not the daemon.

Failure policy, in the order a request meets it:

* **Circuit breaker** -- a shape key ``(m, n, k, threads)`` whose requests
  repeatedly crash workers is *quarantined* after
  ``breaker_threshold`` consecutive failures.  Quarantined GEMMs are
  served inline from the degraded NumPy-reference rung
  (:func:`repro.gemm.reference.sgemm` -- still **bit-exact**, just
  unsimulated: no cycle estimate), so a poison shape cannot grind the
  worker pool into a crash loop; quarantined ``tune`` requests are
  refused outright.  After ``breaker_cooldown`` seconds the breaker goes
  half-open: requests reach workers again, and the first failure
  re-opens the circuit while a success closes it.
* **Deadline** -- the remaining per-request budget rides into the worker
  (which refuses to start expired work) and bounds every parent-side
  wait: queueing for an idle worker, and :meth:`Connection.poll` on the
  result.  A worker that blows the deadline is presumed wedged: it is
  killed and respawned, and the client gets an explicit ``deadline``
  error.  This is the hang-timeout -- the daemon never waits on a worker
  longer than the request's own budget.
* **Retry with exponential backoff** -- transient worker faults and
  worker deaths are retried up to ``retries`` times with doubling
  backoff (``backoff_ms`` base), deadline permitting.  Permanent faults
  are not retried (retrying is futile by definition).
* **Respawn** -- any worker death (injected :class:`KillFault`, real
  crash, deadline kill) is followed by a fork of a fresh worker before
  the failure is even reported, so pool capacity survives arbitrary
  worker mortality.

Telemetry: workers run each request under a scoped collector whose
snapshot rides home with the reply and is adopted into the daemon's
collector (the PR-6 cross-process stitching), so worker spans land under
the daemon's ``serve`` request ids and worker-side ``faults.injected.*``
counters aggregate in the parent.  Supervisor counters:
``serve.retried``, ``serve.worker_respawns``, ``serve.deadline_exceeded``,
``serve.quarantined``, ``serve.breaker_opened``.

Input-aware serving: a worker whose registry lookup missed but whose
family projection served (``family.served``, reply carries the ``family``
block) triggers a supervisor-side background upgrade
(``family.upgrades_enqueued`` / ``family.upgrades_completed``) -- the
real tune runs in the daemon off the request path and publishes through
the shared registry file, so the shape's next request is an exact hit in
every worker.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal as _signal
import threading
import time

from .. import telemetry
from ..faults import plan as _faults
from . import protocol

__all__ = [
    "ServeConfig",
    "ServeError",
    "DeadlineExceeded",
    "WorkerCrash",
    "Quarantined",
    "RequestFault",
    "Supervisor",
]


class ServeError(RuntimeError):
    """Base of supervisor-level request failures; carries a protocol code."""

    code = "internal"


class DeadlineExceeded(ServeError):
    code = "deadline"


class WorkerCrash(ServeError):
    code = "crash"


class Quarantined(ServeError):
    code = "quarantined"


class RequestFault(ServeError):
    """A non-retryable (or retry-exhausted) injected/infrastructure fault."""

    code = "fault"


class ServeConfig:
    """Daemon configuration (one object so worker forks see one source of
    truth).  ``deadline_ms`` is the default when a request does not carry
    its own."""

    def __init__(
        self,
        chip: str = "kunpeng920",
        registry: str | None = None,
        workers: int = 2,
        queue_depth: int = 32,
        deadline_ms: int = 30_000,
        retries: int = 2,
        backoff_ms: int = 10,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        use_replay: bool = True,
        family_serve: bool = True,
        upgrade_budget: int = 8,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.chip = chip
        self.registry = registry
        self.workers = workers
        self.queue_depth = queue_depth
        self.deadline_ms = deadline_ms
        self.retries = retries
        self.backoff_ms = backoff_ms
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.use_replay = use_replay
        self.family_serve = family_serve
        self.upgrade_budget = upgrade_budget


def _build_engine(config: ServeConfig):
    from ..gemm import AutoGEMM

    # family_upgrade=False: workers must never spawn tuning threads of
    # their own -- a projection-serving worker reports the projection in
    # its reply and the *supervisor* enqueues the one background upgrade
    # (off the request path, deduped across workers), whose winner every
    # worker observes through the shared registry file.
    return AutoGEMM(
        config.chip,
        registry=config.registry,
        use_replay=config.use_replay,
        family_serve=config.family_serve,
        family_upgrade=False,
        tune_budget=config.upgrade_budget,
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _execute_task(engine, task: dict) -> tuple[str, dict]:
    """Run one validated request against the worker's engine.

    Returns the reply ``(status, payload)``; raises nothing but
    :class:`KillFault` (handled by the caller as process death).
    """
    _faults.check("serve.worker")  # crash/hang/kill/transient seam
    req = task["req"]
    deadline_ms = task["deadline_ms"]
    if deadline_ms is not None and deadline_ms <= 0:
        return ("error", {"code": "deadline", "message": "expired before start"})
    if req["op"] == "tune":
        result = engine.tune_result(
            req["m"], req["n"], req["k"],
            budget=req["budget"], seed=req["seed"], threads=req["threads"],
        )
        return (
            "ok",
            {
                "op": "tune",
                "cycles": result.cycles,
                "trials": len(result.trials),
                "schedule": {
                    "mc": result.schedule.mc,
                    "nc": result.schedule.nc,
                    "kc": result.schedule.kc,
                },
                "worker_pid": os.getpid(),
            },
        )
    a, b = protocol.request_operands(req)
    result = engine.gemm(a, b, threads=req["threads"])
    payload = {
        "op": "gemm",
        "c_b64": protocol.array_to_b64(result.c),
        "cycles": result.cycles,
        "flops": result.flops,
        "degraded": result.degraded,
        "rung": "simulated",
        "schedule_source": result.schedule_source,
        "worker_pid": os.getpid(),
    }
    projection = result.family_projection
    if projection is not None:
        src = projection.source
        payload["family"] = {
            "family": projection.family,
            "distance": round(projection.distance, 4),
            "confidence": round(projection.confidence, 4),
            "source": f"{src.m}x{src.n}x{src.k}t{src.threads}",
        }
    return ("ok", payload)


def _worker_main(conn, config: ServeConfig, engine=None) -> None:
    """Worker loop: recv task, execute, send ``(status, payload, snapshot)``.

    ``engine`` is the supervisor's warmed :class:`AutoGEMM`, inherited
    copy-on-write under the ``fork`` start method (the process-wide
    replay-cache/registry sharing); without fork each worker builds its
    own cold engine.  SIGTERM/SIGINT are ignored -- shutdown is the
    supervisor's job (drain sends a ``None`` sentinel; abandonment closes
    the pipe), and a signal broadcast to the daemon's process group must
    not kill workers mid-request.
    """
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    _signal.signal(_signal.SIGTERM, _signal.SIG_IGN)
    if engine is None:  # pragma: no cover - non-fork platforms only
        engine = _build_engine(config)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:  # drain sentinel
            break
        ctx = task.get("ctx")
        collector = telemetry.Collector() if ctx is not None else None
        snapshot = None
        try:
            if collector is not None:
                with telemetry.collecting(collector):
                    collector.set_request(ctx.request)
                    with telemetry.span(
                        "serve_worker",
                        op=task["req"]["op"],
                        worker_pid=os.getpid(),
                        trace_id=ctx.trace_id,
                    ) as sp:
                        status, payload = _execute_task(engine, task)
                        sp.set(status=status)
                snapshot = collector.snapshot()
            else:
                status, payload = _execute_task(engine, task)
        except _faults.KillFault:
            # Simulated kill -9 of this worker: die for real (uncleanly),
            # so the parent sees EOF on the pipe exactly as it would for a
            # genuine crash.
            os._exit(9)
        except _faults.HangFault:
            # Simulated wedge: stop responding.  The parent's deadline
            # poll times out, kills us, and respawns.
            while True:
                time.sleep(60)
        except _faults.TransientFault as exc:
            status, payload = ("fault", {"mode": "transient", "message": str(exc)})
            snapshot = collector.snapshot() if collector is not None else None
        except _faults.PermanentFault as exc:
            status, payload = ("fault", {"mode": "permanent", "message": str(exc)})
            snapshot = collector.snapshot() if collector is not None else None
        except protocol.ProtocolError as exc:
            status, payload = ("error", {"code": "invalid", "message": str(exc)})
            snapshot = collector.snapshot() if collector is not None else None
        except Exception as exc:  # engine bug surface: explicit, never fatal
            status, payload = (
                "error",
                {"code": "internal", "message": f"{type(exc).__name__}: {exc}"},
            )
            snapshot = collector.snapshot() if collector is not None else None
        try:
            conn.send((status, payload, snapshot))
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _WorkerHandle:
    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class _CircuitBreaker:
    """Consecutive-failure breaker per shape key, with half-open probing."""

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self._failures: dict[tuple, int] = {}
        self._opened_at: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def is_open(self, key: tuple) -> bool:
        """True while the key is quarantined.  After ``cooldown`` seconds
        the circuit half-opens: this returns False (one probe request may
        flow) but the failure count stays at the threshold, so a single
        further failure re-opens it instantly."""
        with self._lock:
            opened = self._opened_at.get(key)
            if opened is None:
                return False
            if time.monotonic() - opened >= self.cooldown:
                del self._opened_at[key]  # half-open: let a probe through
                return False
            return True

    def record_failure(self, key: tuple) -> bool:
        """Count one failure; returns True if this opened the circuit."""
        with self._lock:
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count >= self.threshold and key not in self._opened_at:
                self._opened_at[key] = time.monotonic()
                return True
            return False

    def record_success(self, key: tuple) -> None:
        with self._lock:
            self._failures.pop(key, None)
            self._opened_at.pop(key, None)

    def open_keys(self) -> list[tuple]:
        with self._lock:
            now = time.monotonic()
            return [
                k for k, t in self._opened_at.items()
                if now - t < self.cooldown
            ]


class Supervisor:
    """Owns the worker pool; :meth:`execute` is the request path.

    Thread-safe: the server calls :meth:`execute` from one dispatcher
    thread per worker, and idle workers are handed out through a queue.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        # Build the engine (kernel caches, registry load) BEFORE forking:
        # every worker inherits this exact warm state copy-on-write.
        self.engine = _build_engine(config)
        try:
            self._mp = multiprocessing.get_context("fork")
            self._fork = True
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._mp = multiprocessing.get_context()
            self._fork = False
        self.breaker = _CircuitBreaker(
            config.breaker_threshold, config.breaker_cooldown
        )
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        self._workers: list[_WorkerHandle] = []
        self._lock = threading.Lock()
        self._closed = False
        for _ in range(config.workers):
            self._idle.put(self._spawn())

    # -- pool plumbing -----------------------------------------------------
    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        # Under fork, Process args are inherited (not pickled), so the
        # child gets the parent's already-warm engine for free.
        process = self._mp.Process(
            target=_worker_main,
            args=(child_conn, self.config, self.engine if self._fork else None),
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        with self._lock:
            self._workers.append(handle)
        return handle

    def _replace(self, handle: _WorkerHandle) -> _WorkerHandle:
        """Kill a (presumed dead or wedged) worker and fork a fresh one."""
        handle.kill()
        with self._lock:
            if handle in self._workers:
                self._workers.remove(handle)
        telemetry.count("serve.worker_respawns")
        return self._spawn()

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [h.pid for h in self._workers]

    # -- the request path --------------------------------------------------
    def execute(self, req: dict, deadline: float, ctx=None) -> dict:
        """Run one validated gemm/tune request to an explicit outcome.

        ``deadline`` is an absolute :func:`time.monotonic` instant bounding
        everything: queueing for a worker, worker execution, retries and
        their backoff.  Returns the worker's result payload; raises a
        :class:`ServeError` subclass (mapping to a protocol error code)
        for every failure -- never hangs, never returns None.
        """
        key = (req["m"], req["n"], req["k"], req["threads"])
        if self.breaker.is_open(key):
            return self._quarantined(req, key)
        attempt = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                telemetry.count("serve.deadline_exceeded")
                raise DeadlineExceeded(f"deadline expired for {req['op']} {key}")
            try:
                handle = self._idle.get(timeout=remaining)
            except queue.Empty:
                telemetry.count("serve.deadline_exceeded")
                raise DeadlineExceeded(
                    f"no worker free within deadline for {req['op']} {key}"
                ) from None
            release = handle  # which handle goes back to the idle queue
            try:
                outcome = self._attempt(handle, req, deadline, ctx)
            except _faults.TransientFault as exc:
                # Dispatch-site transient: the worker never saw the task;
                # treat like a transient worker fault (retry with backoff).
                outcome = ("fault", {"mode": "transient", "message": str(exc)})
            except (_faults.PermanentFault, _faults.HangFault) as exc:
                outcome = ("fault", {"mode": "permanent", "message": str(exc)})
            except _WorkerDied:
                release = self._replace(handle)
                outcome = ("died", None)
            except _WorkerWedged:
                release = self._replace(handle)
                telemetry.count("serve.deadline_exceeded")
                self._count_failure(key)
                raise DeadlineExceeded(
                    f"worker hang-timeout for {req['op']} {key}"
                ) from None
            finally:
                if not self._closed:
                    self._idle.put(release)
            status, payload = outcome
            if status == "ok":
                self.breaker.record_success(key)
                if payload.get("family") is not None:
                    self._enqueue_upgrade(req)
                return payload
            if status == "error":
                # Worker-reported explicit failure (bad request, engine
                # bug): not a crash, the worker is fine.  Internal errors
                # count against the breaker, invalid requests do not.
                if payload["code"] == "internal":
                    self._count_failure(key)
                raise _error_for(payload)
            # status in ("died", "fault"): maybe retry.
            retryable = status == "died" or payload["mode"] == "transient"
            self._count_failure(key)
            if not retryable:
                raise RequestFault(
                    f"permanent fault serving {req['op']} {key}: "
                    f"{payload['message']}"
                )
            if attempt >= self.config.retries:
                if status == "died":
                    raise WorkerCrash(
                        f"worker died {attempt + 1}x serving {req['op']} {key}"
                    )
                raise RequestFault(
                    f"transient fault persisted through {attempt + 1} attempts "
                    f"serving {req['op']} {key}"
                )
            backoff = (self.config.backoff_ms / 1000.0) * (2 ** attempt)
            attempt += 1
            telemetry.count("serve.retried")
            if deadline - time.monotonic() <= backoff:
                telemetry.count("serve.deadline_exceeded")
                raise DeadlineExceeded(
                    f"deadline leaves no room for retry backoff on "
                    f"{req['op']} {key}"
                )
            time.sleep(backoff)

    def _attempt(self, handle: _WorkerHandle, req: dict, deadline: float, ctx):
        """One round-trip to one worker.  Returns the worker reply tuple
        minus the adopted snapshot; raises ``_WorkerDied``/``_WorkerWedged``
        for the two kinds of worker loss."""
        _faults.check("serve.dispatch")
        remaining_ms = int((deadline - time.monotonic()) * 1000)
        task = {"req": req, "deadline_ms": remaining_ms, "ctx": ctx}
        try:
            handle.conn.send(task)
        except (BrokenPipeError, OSError):
            raise _WorkerDied() from None
        timeout = max(deadline - time.monotonic(), 0.0)
        if not handle.conn.poll(timeout):
            raise _WorkerWedged()
        try:
            status, payload, snapshot = handle.conn.recv()
        except (EOFError, OSError):
            raise _WorkerDied() from None
        if snapshot is not None:
            telemetry.adopt(snapshot)
        return (status, payload)

    def _enqueue_upgrade(self, req: dict) -> None:
        """A worker served a family projection: run the real tune in the
        supervisor (off the request path) so the registry entry upgrades
        to an exact hit every worker sees through the shared file.  Best
        effort -- an upgrade failure never fails the request it rode on."""
        try:
            self.engine.enqueue_upgrade(
                req["m"], req["n"], req["k"], req["threads"],
                budget=self.config.upgrade_budget,
            )
        except Exception:  # pragma: no cover - defensive
            telemetry.count("family.upgrade_failed")

    def _count_failure(self, key: tuple) -> None:
        if self.breaker.record_failure(key):
            telemetry.count("serve.breaker_opened")

    def _quarantined(self, req: dict, key: tuple) -> dict:
        """Serve a quarantined shape from the degraded reference rung."""
        telemetry.count("serve.quarantined")
        if req["op"] != "gemm":
            raise Quarantined(
                f"shape {key} is quarantined (circuit open); tune refused"
            )
        from ..gemm.reference import sgemm

        a, b = protocol.request_operands(req)
        c = sgemm(a, b)
        return {
            "op": "gemm",
            "c_b64": protocol.array_to_b64(c),
            "cycles": None,  # reference rung: bit-exact result, no timing
            "flops": 2 * req["m"] * req["n"] * req["k"],
            "degraded": True,
            "rung": "reference",
            "quarantined": True,
            "worker_pid": os.getpid(),
        }

    # -- shutdown ----------------------------------------------------------
    def close(self, graceful: bool = True) -> None:
        """Tear the pool down.  ``graceful`` sends each worker the drain
        sentinel and joins it (and gives in-flight background upgrades a
        short window to publish); otherwise workers are killed."""
        self._closed = True
        if graceful:
            self.engine.drain_upgrades(timeout=10.0)
        with self._lock:
            workers = list(self._workers)
            self._workers.clear()
        for handle in workers:
            if graceful:
                try:
                    handle.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.kill()
            else:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
        while True:  # drop stale idle references
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break


class _WorkerDied(Exception):
    """Internal: pipe EOF/EPIPE -- the worker process is gone."""


class _WorkerWedged(Exception):
    """Internal: the worker blew the deadline; presumed hung."""


def _error_for(payload: dict) -> ServeError:
    code = payload.get("code", "internal")
    message = payload.get("message", "worker error")
    if code == "deadline":
        telemetry.count("serve.deadline_exceeded")
        return DeadlineExceeded(message)
    if code == "invalid":
        err = ServeError(message)
        err.code = "invalid"
        return err
    err = ServeError(message)
    err.code = "internal"
    return err
