"""Multi-process sharded serving: :class:`ShardedQueryService`.

PR 6's :class:`~repro.service.service.QueryService` funnels every
pipeline-backed endpoint through one lock-guarded pipeline, so
*distinct*-instance loads serialize.  The paper's closure machinery
says they need not: ``T_I`` is computed independently per instance
(Theorem 4.3), so a corpus partitions cleanly.  This module partitions
it across worker *processes*:

* **Routing** — instances are assigned to shards by consistent hashing
  on ``instance_key`` (:class:`~repro.service.router.HashRing`); the
  same content always lands on the same shard, so each shard's
  pipeline cache and compiled-universe memos stay hot for exactly its
  slice of the corpus.
* **Shard workers** — each shard is a forked process running a
  :class:`ShardServer`: a private :class:`~repro.pipeline.InvariantPipeline`
  (own pools, own cache, no cross-shard lock) plus the logic
  evaluators, speaking a length-prefixed pickle protocol over a
  ``socketpair``.  Geometry ships once, at registration, as the
  ``io/array_io.py`` RAI1 columnar buffer (JSON fallback for region
  classes the columnar codec does not cover); requests afterwards
  carry only content keys and sentences.
* **Batching** — the router's :class:`~repro.service.router.Batcher`
  conflates concurrent distinct invariant lookups bound for one shard
  into a single message, and the worker turns them into **one**
  ``compute_batch`` call instead of N serialized ``compute``\\ s.
* **Resilience** — a dead worker (crash or torn pipe; the
  ``shard_worker_crash`` / ``shard_pipe_drop`` fault points model
  both) is respawned up to ``max_shard_respawns`` times with its
  registrations replayed; requests lost with it are retried once on
  the fresh worker, then failed with a structured
  :class:`~repro.errors.WorkerError`.  A shard whose respawn budget is
  exhausted fails fast with :class:`~repro.errors.ShardDownError`
  (503) while the other shards keep serving.

The front-end semantics are unchanged: coalescing, admission control,
and deadlines all run in the parent exactly as in the single-process
service — ``_launch_compute`` is the only seam, swapping the executor
closure for a shard dispatch.  Answers are therefore bit-identical to
the single-process service (the differential suite in
``tests/service/test_shard_differential.py`` holds it to that): the
invariant crosses the process boundary through the canonical JSON
codec, whose round-trip the PR 1 suite proves exact.

The parent additionally keeps a small read-through cache of *decoded*
invariants (content-addressed, so never stale), which turns repeat
``invariant_of`` traffic into a sub-microsecond dictionary hit instead
of an IPC round-trip — the closed-loop throughput rows in
``BENCH_service.json`` come from this path plus the removed pipeline
lock.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import socket
import struct
import threading
from time import perf_counter

from .. import faults
from ..errors import (
    ComputeError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ShardDownError,
    TimeoutError,
    UnknownInstanceError,
    WorkerError,
)
from ..instrument import Deadline
from ..invariant import are_isomorphic
from ..io import (
    instance_from_json,
    instance_to_json,
    invariant_from_json,
    invariant_to_json,
)
from ..io.array_io import instance_from_buffer, instance_to_buffer
from ..pipeline import InvariantCache, InvariantPipeline
from .metrics import counters
from .router import Batcher, HashRing
from .service import QueryAnswer, QueryService, evaluate_logic

__all__ = ["ShardServer", "ShardedQueryService"]

try:
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    _MP = None

_LEN = struct.Struct("<Q")
_MAX_MSG = 1 << 31


# -- wire protocol -----------------------------------------------------------


def _send_msg(sock: socket.socket, obj) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_msg(sock: socket.socket):
    """One framed message, or None on EOF / a torn frame."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > _MAX_MSG:
        return None
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def _encode_instance(instance) -> tuple[str, object]:
    """Geometry for the wire: the RAI1 columnar buffer when the
    instance's region classes support it, canonical JSON otherwise."""
    buf = instance_to_buffer(instance)
    if buf is not None:
        return ("rai1", buf)
    return ("json", instance_to_json(instance))


def _decode_instance(payload: tuple[str, object]):
    codec, body = payload
    if codec == "rai1":
        return instance_from_buffer(body)
    return instance_from_json(body)


def _error_tree(cls: type) -> list[type]:
    """*cls* and every class derived from it."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_error_tree(sub))
    return out


#: Structured error classes that may cross the shard boundary: every
#: :class:`~repro.errors.ReproError` class.  The worker sends ``(type
#: name, message, attrs)``; the parent rebuilds the same class so
#: callers see identical exception types whether the evaluation ran
#: locally or in a shard.
_WIRE_ERRORS = {cls.__name__: cls for cls in _error_tree(ReproError)}
_WIRE_ATTRS = ("key", "stage", "attempts", "endpoint", "shard")


def _encode_error(exc: BaseException) -> dict:
    name = type(exc).__name__
    if name not in _WIRE_ERRORS:
        return {
            "type": "ComputeError",
            "message": f"{name}: {exc}",
            "attrs": {},
        }
    attrs = {}
    for attr in _WIRE_ATTRS:
        value = getattr(exc, attr, None)
        if value is not None:
            attrs[attr] = value
    return {"type": name, "message": str(exc), "attrs": attrs}


def _decode_error(payload: dict) -> BaseException:
    cls = _WIRE_ERRORS.get(payload.get("type"), ComputeError)
    try:
        exc = cls(payload.get("message", "shard error"))
    except TypeError:  # pragma: no cover - defensive
        exc = ComputeError(payload.get("message", "shard error"))
    for attr, value in payload.get("attrs", {}).items():
        try:
            setattr(exc, attr, value)
        except AttributeError:  # pragma: no cover - slotted subclass
            pass
    return exc


# -- the worker side ---------------------------------------------------------


class ShardServer:
    """One shard's evaluation state: the registered slice of the
    corpus and a private pipeline.  Pure request/response — no
    sockets — so the protocol semantics are unit-testable in-process;
    ``_shard_worker_main`` is the thin I/O loop around it."""

    def __init__(self, config: dict | None = None):
        config = config or {}
        self.pipeline = InvariantPipeline(
            backend=config.get("backend", "serial"),
            workers=config.get("workers"),
            cache_size=config.get("cache_size", 1024),
            retry=config.get("retry"),
            task_timeout=config.get("task_timeout"),
        )
        self._instances: dict[str, object] = {}

    def register(self, key: str, payload: tuple[str, object]) -> None:
        self._instances[key] = _decode_instance(payload)

    def registered(self) -> int:
        return len(self._instances)

    def handle_batch(self, items: list) -> list:
        """Evaluate ``[(rid, wire_spec), ...]`` → ``[(rid, ok,
        payload)]``.  Every invariant request in the batch funnels
        into **one** ``compute_batch`` call — the batching window's
        whole purpose — with per-item fault isolation
        (``on_error="collect"``)."""
        results: list = []
        inv_items = [
            (rid, spec) for rid, spec in items if spec["kind"] == "invariant"
        ]
        other = [
            (rid, spec) for rid, spec in items if spec["kind"] != "invariant"
        ]
        if inv_items:
            results.extend(self._handle_invariants(inv_items))
        for rid, spec in other:
            ok, payload = self._eval_one(spec)
            results.append((rid, ok, payload))
        return results

    def _handle_invariants(self, inv_items: list) -> list:
        keys: list[str] = []
        insts: list = []
        immediate: dict[int, tuple[bool, object]] = {}
        for rid, spec in inv_items:
            key = spec["key"]
            budget = spec.get("budget")
            if budget is not None and budget <= 0:
                immediate[rid] = (
                    False,
                    _encode_error(
                        TimeoutError(
                            "invariant request arrived at its shard "
                            "with an expired budget",
                            key=key,
                            stage="invariant",
                        )
                    ),
                )
                continue
            inst = self._instances.get(key)
            if inst is None:
                immediate[rid] = (
                    False,
                    _encode_error(
                        UnknownInstanceError(
                            f"shard holds no instance for key {key[:12]}…",
                            endpoint="invariant",
                        )
                    ),
                )
                continue
            if key not in keys:
                keys.append(key)
                insts.append(inst)
        by_key: dict[str, tuple[bool, object]] = {}
        if keys:
            try:
                batch = self.pipeline.compute_batch(
                    insts, on_error="collect", keys=keys
                )
            except ReproError as exc:
                err = _encode_error(exc)
                by_key = {key: (False, err) for key in keys}
            else:
                for outcome in batch.outcomes:
                    if outcome.ok:
                        by_key[outcome.key] = (
                            True,
                            invariant_to_json(outcome.value),
                        )
                    else:
                        by_key[outcome.key] = (
                            False,
                            _encode_error(outcome.error),
                        )
        results = []
        for rid, spec in inv_items:
            if rid in immediate:
                ok, payload = immediate[rid]
            else:
                ok, payload = by_key[spec["key"]]
            results.append((rid, ok, payload))
        return results

    def _eval_one(self, spec: dict) -> tuple[bool, object]:
        kind = spec["kind"]
        key = spec.get("key")
        inst = self._instances.get(key)
        if inst is None:
            return False, _encode_error(
                UnknownInstanceError(
                    f"shard holds no instance for key {str(key)[:12]}…",
                    endpoint=kind,
                )
            )
        budget = spec.get("budget")
        if budget is not None and budget <= 0:
            return False, _encode_error(
                TimeoutError(
                    f"{kind} request arrived at its shard with an "
                    "expired budget",
                    key=key,
                    stage=kind,
                )
            )
        try:
            return True, evaluate_logic(spec, inst, Deadline(budget))
        except ReproError as exc:
            return False, _encode_error(exc)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            return False, _encode_error(
                ComputeError(
                    f"shard evaluation of {kind} failed: "
                    f"{type(exc).__name__}: {exc}",
                    key=key,
                    stage=kind,
                )
            )

    def close(self) -> None:
        self.pipeline.close()


def _shard_worker_main(child_sock: socket.socket, config: dict) -> None:
    """The forked shard worker's I/O loop (never returns)."""
    # The fork inherited the parent's installed fault plans; shard
    # faults are drawn parent-side and shipped with the batch, so the
    # worker must not double-draw from a shared schedule.
    with faults._lock:
        faults._stack.clear()
    server = ShardServer(config)
    code = 0
    try:
        while True:
            msg = _recv_msg(child_sock)
            if msg is None or msg[0] == "close":
                break
            if msg[0] == "register":
                _, key, payload = msg
                try:
                    server.register(key, payload)
                except Exception:  # noqa: BLE001 - keep serving
                    # A rotten payload leaves the key unregistered;
                    # requests for it get UnknownInstanceError.
                    pass
            elif msg[0] == "batch":
                _, bid, items, fault = msg
                if fault and fault.get("point") == "shard_worker_crash":
                    os._exit(13)
                results = server.handle_batch(items)
                _send_msg(child_sock, ("batch_result", bid, results))
    except Exception:  # noqa: BLE001 - a torn pipe is a normal exit
        code = 1
    finally:
        try:
            server.close()
        except Exception:  # noqa: BLE001
            pass
        try:
            child_sock.close()
        except OSError:
            pass
        os._exit(code)


# -- the parent side ---------------------------------------------------------


class _PendingRequest:
    """One dispatched request: its wire spec, the future the service
    awaits, and how many workers have died holding it."""

    __slots__ = ("key", "wire", "future", "deadline", "attempts")

    def __init__(self, key, wire, future, deadline):
        self.key = key
        self.wire = wire
        self.future = future
        self.deadline = deadline
        self.attempts = 0

    def budgeted_wire(self) -> dict:
        wire = dict(self.wire)
        wire["budget"] = self.deadline.remaining()
        return wire


class _ShardHandle:
    """The parent's view of one shard worker: process, socket, reader
    thread, in-flight batches, and the respawn budget.  Connection
    state is guarded by a lock because registration (any thread) and
    batch dispatch (the event loop) both send."""

    def __init__(self, shard_id: int, config: dict, service):
        self.shard_id = shard_id
        self.config = config
        self.service = service
        self.generation = 0
        self.respawns = 0
        self.down = False
        self.inflight: dict[int, list] = {}
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._proc = None
        self._conn_dead = True
        self._spawn_locked()

    # -- lifecycle ----------------------------------------------------------

    def _spawn_locked(self) -> None:
        with self._lock:
            self._spawn_inner()

    def _spawn_inner(self) -> None:
        if _MP is None:  # pragma: no cover - non-POSIX platforms
            raise ServiceError(
                "sharded serving requires the fork start method"
            )
        parent_sock, child_sock = socket.socketpair()
        proc = _MP.Process(
            target=_shard_worker_main,
            args=(child_sock, self.config),
            daemon=True,
            name=f"repro-shard-{self.shard_id}",
        )
        proc.start()
        child_sock.close()
        self._sock = parent_sock
        self._proc = proc
        self._conn_dead = False
        self.generation += 1
        gen = self.generation
        reader = threading.Thread(
            target=self._read_loop,
            args=(parent_sock, gen),
            daemon=True,
            name=f"repro-shard-{self.shard_id}-reader",
        )
        reader.start()

    @property
    def pid(self) -> int | None:
        proc = self._proc
        return proc.pid if proc is not None else None

    def alive(self) -> bool:
        with self._lock:
            return (
                not self._conn_dead
                and self._proc is not None
                and self._proc.is_alive()
            )

    def ensure_up(self) -> bool:
        """Respawn a dead worker within budget (synchronous path, used
        by registration before any event loop exists).  Returns
        whether the shard is usable."""
        with self._lock:
            if self.down:
                return False
            if not self._conn_dead and self._proc is not None \
                    and self._proc.is_alive():
                return True
            return self._respawn_inner()

    def _respawn_inner(self) -> bool:
        self._teardown_conn()
        if self.respawns >= self.service.max_shard_respawns:
            self.down = True
            return False
        self.respawns += 1
        counters.count("shard_respawns")
        self._spawn_inner()
        self.service._replay_registrations(self)
        return True

    def respawn(self) -> bool:
        """Loop-side respawn after a disconnect; same budget."""
        with self._lock:
            if self.down:
                return False
            return self._respawn_inner()

    def _teardown_conn(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._conn_dead = True
        if self._proc is not None:
            self._proc.join(timeout=1.0)
            if self._proc.is_alive():  # pragma: no cover - stuck worker
                self._proc.terminate()
                self._proc.join(timeout=1.0)
            self._proc = None

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    _send_msg(self._sock, ("close",))
                except OSError:
                    pass
            self._teardown_conn()
            self.down = True

    # -- I/O ----------------------------------------------------------------

    def send(self, msg) -> None:
        with self._lock:
            if self._sock is None or self._conn_dead:
                raise BrokenPipeError(
                    f"shard {self.shard_id} connection is down"
                )
            _send_msg(self._sock, msg)

    def kill_connection(self) -> None:
        """Sever the pipe (the ``shard_pipe_drop`` fault): the reader
        observes EOF and the normal disconnect path takes over."""
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
            self._conn_dead = True

    def _read_loop(self, sock: socket.socket, gen: int) -> None:
        try:
            while True:
                msg = _recv_msg(sock)
                if msg is None:
                    break
                self.service._deliver(self, gen, msg)
        except OSError:
            pass
        with self._lock:
            if self.generation == gen:
                self._conn_dead = True
        self.service._deliver_disconnect(self, gen)


class ShardedQueryService(QueryService):
    """A :class:`QueryService` whose evaluations run in N shard worker
    processes instead of the local executor.

    Parameters (beyond :class:`QueryService`'s)
    -------------------------------------------
    n_shards:
        Worker process count; instances partition across them by
        consistent hashing on ``instance_key``.
    shard_backend / shard_workers / shard_cache_size / shard_task_timeout:
        Each shard's private :class:`~repro.pipeline.InvariantPipeline`
        construction knobs.
    window / max_batch:
        The batching discipline (:class:`~repro.service.router.Batcher`):
        ``window=0`` (default) conflates — no added latency, batches
        form while a shard is busy; ``window>0`` collects for that
        many seconds (or ``max_batch`` items) before dispatching.
    max_shard_respawns:
        Worker deaths tolerated per shard before it is marked down
        and its requests fail fast with
        :class:`~repro.errors.ShardDownError`.
    invariant_cache_size:
        Entries (at least 1) in the parent's decoded-invariant
        read-through cache, a memory-only
        :class:`~repro.pipeline.InvariantCache` (content-addressed,
        hence never stale).
    schedule:
        Injectable ``schedule(delay, callback)`` for the batching
        window timer (tests drive it with a manual clock).
    """

    def __init__(
        self,
        n_shards: int = 2,
        shard_backend: str = "serial",
        shard_workers: int | None = None,
        shard_cache_size: int = 1024,
        shard_task_timeout: float | None = None,
        window: float = 0.0,
        max_batch: int = 32,
        vnodes: int = 64,
        max_shard_respawns: int = 2,
        invariant_cache_size: int = 4096,
        schedule=None,
        **kwargs,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        super().__init__(**kwargs)
        self.n_shards = int(n_shards)
        self.max_shard_respawns = int(max_shard_respawns)
        self._ring = HashRing(self.n_shards, vnodes=vnodes)
        self._batcher = Batcher(
            self._flush_batch,
            window=window,
            max_batch=max_batch,
            schedule=schedule,
        )
        self._shard_config = {
            "backend": shard_backend,
            "workers": shard_workers,
            "cache_size": shard_cache_size,
            "task_timeout": shard_task_timeout,
        }
        self._registry: list[dict[str, tuple[str, object]]] = [
            {} for _ in range(self.n_shards)
        ]
        self._inv_cache = InvariantCache(maxsize=int(invariant_cache_size))
        self._loop: asyncio.AbstractEventLoop | None = None
        self._batch_seq = 0
        self._handles = [
            _ShardHandle(i, self._shard_config, self)
            for i in range(self.n_shards)
        ]

    # -- registration --------------------------------------------------------

    def register(self, name: str, instance) -> str:
        key = super().register(name, instance)
        shard = self._ring.shard_for(key)
        if key not in self._registry[shard]:
            payload = _encode_instance(instance)
            self._registry[shard][key] = payload
            self._send_registration(shard, key, payload)
        return key

    def _send_registration(
        self, shard: int, key: str, payload: tuple[str, object]
    ) -> None:
        handle = self._handles[shard]
        for _ in range(2):
            if not handle.ensure_up():
                return  # down: requests will fast-fail with ShardDownError
            try:
                handle.send(("register", key, payload))
                return
            except OSError:
                continue

    def _replay_registrations(self, handle: _ShardHandle) -> None:
        """Re-ship a respawned worker its slice of the corpus.  Called
        under the handle lock from the respawn path."""
        sock = handle._sock
        if sock is None:  # pragma: no cover - defensive
            return
        for key, payload in self._registry[handle.shard_id].items():
            _send_msg(sock, ("register", key, payload))

    # -- the shard compute path ---------------------------------------------

    def _launch_compute(self, spec, deadline: Deadline) -> asyncio.Future:
        if callable(spec):
            return super()._launch_compute(spec, deadline)
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        kind = spec["kind"]
        if kind == "equivalent":
            coro = self._remote_equivalent(spec, deadline)
        elif kind == "invariant":
            coro = self._remote_invariant(spec["key"], deadline)
        else:
            coro = self._remote_eval(spec, deadline)
        return asyncio.ensure_future(coro)

    async def _remote_eval(self, spec: dict, deadline: Deadline):
        wire = {
            k: spec[k]
            for k in ("kind", "key", "formula", "refinement")
            if k in spec
        }
        return await self._dispatch(spec["kind"], spec["key"], wire, deadline)

    async def _remote_invariant(self, key: str, deadline: Deadline):
        inv = self._inv_cache.get(key)
        if inv is not None:
            counters.count("shard_cache_hits")
            return inv
        payload = await self._dispatch(
            "invariant", key, {"kind": "invariant", "key": key}, deadline
        )
        loop = asyncio.get_running_loop()
        inv = await loop.run_in_executor(
            self._executor, invariant_from_json, payload
        )
        self._inv_cache.put(key, inv)
        return inv

    async def _remote_equivalent(self, spec: dict, deadline: Deadline):
        key_a, key_b = spec["key"], spec["key_b"]
        if key_a == key_b:
            return True
        inv_a, inv_b = await asyncio.gather(
            self._remote_invariant(key_a, deadline),
            self._remote_invariant(key_b, deadline),
        )
        deadline.check("equivalent")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, are_isomorphic, inv_a, inv_b
        )

    def _dispatch(
        self, endpoint: str, key: str, wire: dict, deadline: Deadline
    ) -> asyncio.Future:
        shard = self._ring.shard_for(key)
        handle = self._handles[shard]
        if handle.down:
            counters.count("shard_fast_fails")
            raise ShardDownError(
                f"shard {shard} is down (respawn budget exhausted); "
                f"cannot serve instance {key[:12]}…",
                endpoint=endpoint,
                shard=shard,
            )
        future = asyncio.get_running_loop().create_future()
        item = _PendingRequest(key, wire, future, deadline)
        self._batcher.add(shard, item)
        return future

    def _flush_batch(self, shard: int, items: list) -> None:
        handle = self._handles[shard]
        counters.count("shard_batches")
        counters.count("shard_batch_items", len(items))
        self._batch_seq += 1
        bid = self._batch_seq
        key0 = items[0].key
        crash = faults.draw("shard_worker_crash", key0)
        drop = faults.draw("shard_pipe_drop", key0)
        handle.inflight[bid] = items
        gen = handle.generation
        if drop:
            handle.kill_connection()
        wire = [(rid, item.budgeted_wire()) for rid, item in enumerate(items)]
        try:
            handle.send(("batch", bid, wire, crash))
        except OSError:
            # The reader thread observes the same EOF, but it may have
            # exited before this batch entered ``inflight`` — run the
            # (idempotent, generation-guarded) failure path here too.
            self._on_disconnect(handle, gen)

    # -- message plumbing (reader threads → event loop) ---------------------

    def _deliver(self, handle: _ShardHandle, gen: int, msg) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._on_message, handle, gen, msg)
        except RuntimeError:  # pragma: no cover - loop shut down
            pass

    def _deliver_disconnect(self, handle: _ShardHandle, gen: int) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._on_disconnect, handle, gen)
        except RuntimeError:  # pragma: no cover - loop shut down
            pass

    def _on_message(self, handle: _ShardHandle, gen: int, msg) -> None:
        if msg[0] != "batch_result" or handle.generation != gen:
            return
        _, bid, results = msg
        items = handle.inflight.pop(bid, None)
        if items is None:
            return
        for rid, ok, payload in results:
            future = items[rid].future
            if future.done():
                continue
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(_decode_error(payload))
        self._batcher.batch_done(handle.shard_id)

    def _on_disconnect(self, handle: _ShardHandle, gen: int) -> None:
        """A shard connection died (crash, pipe drop, or torn send).
        Generation-guarded so the send path and the reader thread can
        both report the same event."""
        if handle.generation != gen:
            return
        counters.count("shard_pipe_failures")
        lost = list(handle.inflight.items())
        handle.inflight.clear()
        alive = False
        if not (self._closed or self._draining):
            alive = handle.respawn()
        else:
            handle.close()
        shard = handle.shard_id
        for _bid, items in lost:
            self._batcher.batch_done(shard)
        retry: list[_PendingRequest] = []
        for _bid, items in lost:
            for item in items:
                if item.future.done():
                    continue
                item.attempts += 1
                if alive and item.attempts <= 1:
                    retry.append(item)
                elif self._closed or self._draining:
                    item.future.set_exception(
                        ServiceClosedError(
                            "service shut down with the request in "
                            "flight on a failed shard"
                        )
                    )
                elif not alive:
                    item.future.set_exception(
                        ShardDownError(
                            f"shard {shard} is down (respawn budget "
                            "exhausted) and took this request with it",
                            shard=shard,
                        )
                    )
                else:
                    item.future.set_exception(
                        WorkerError(
                            f"shard {shard} worker died twice while "
                            "holding this request",
                            key=item.key,
                            stage=item.wire.get("kind", "shard"),
                            attempts=item.attempts,
                        )
                    )
        if retry:
            counters.count("shard_retries", len(retry))
            for item in retry:
                self._batcher.add(shard, item)
        if not alive:
            # Pending (not yet flushed) requests for this shard can
            # never be served; fail them now rather than letting them
            # hang in the batcher.
            for item in self._batcher.drain(shard).get(shard, []):
                if not item.future.done():
                    item.future.set_exception(
                        ShardDownError(
                            f"shard {shard} is down (respawn budget "
                            "exhausted)",
                            shard=shard,
                        )
                    )

    # -- the parent-side invariant cache ------------------------------------

    async def invariant_of(self, name: str, timeout=None) -> QueryAnswer:
        """The stored instance's ``T_I``, with a read-through fast
        path: a decoded invariant already in the parent cache is
        returned without admission, batching, or IPC — it is a pure
        memory read of a content-addressed value, so none of those
        disciplines have anything left to bound."""
        t0 = perf_counter()
        if not (self._closed or self._draining):
            entry = self._instances.get(name)
            if entry is not None:
                inv = self._inv_cache.get(entry[1])
                if inv is not None:
                    counters.count("requests")
                    counters.count("shard_cache_hits")
                    seconds = perf_counter() - t0
                    self.stats.record_request("invariant", seconds, "ok")
                    return QueryAnswer("invariant", inv, False, seconds)
        return await super().invariant_of(name, timeout)

    # -- health / lifecycle --------------------------------------------------

    def shard_status(self) -> list[dict]:
        """Per-shard liveness for :meth:`health`."""
        return [
            {
                "shard": handle.shard_id,
                "up": not handle.down and handle.alive(),
                "pid": handle.pid,
                "respawns": handle.respawns,
                "inflight_batches": self._batcher.inflight(handle.shard_id),
                "pending": self._batcher.pending(handle.shard_id),
                "registered": len(self._registry[handle.shard_id]),
            }
            for handle in self._handles
        ]

    def health(self) -> dict:
        snapshot = super().health()
        shards = self.shard_status()
        snapshot["shards"] = shards
        if snapshot["status"] == "ok" and any(
            not shard["up"] for shard in shards
        ):
            snapshot["status"] = "degraded"
        return snapshot

    def readiness(self) -> dict:
        ready = super().readiness()
        if not any(
            not handle.down and handle.alive() for handle in self._handles
        ):
            ready["reasons"].append("all shards down")
            ready["ready"] = False
        return ready

    def _shutdown_shards(self) -> None:
        for shard, items in self._batcher.drain().items():
            for item in items:
                if not item.future.done():
                    item.future.set_exception(
                        ServiceClosedError("service closed")
                    )
        for handle in self._handles:
            for _bid, items in list(handle.inflight.items()):
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(
                            ServiceClosedError("service closed")
                        )
            handle.inflight.clear()
            handle.close()

    async def aclose(self) -> None:
        if self._closed:
            return
        await super().aclose()
        self._shutdown_shards()

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._shutdown_shards()
