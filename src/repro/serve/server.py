"""Asyncio front-end: newline-delimited JSON over TCP or stdio.

One :class:`QueryServer` multiplexes any number of clients onto a shared
:class:`~repro.serve.session.SessionManager`.  The protocol is one JSON
object per line in each direction::

    → {"op": "create", "session": "s1",
       "spec": {"schema": {"R": 1},
                "family": {"kind": "geometric", "first": 0.3, "ratio": 0.9},
                "query": "EXISTS x. R(x)"}}
    ← {"ok": true, "result": {"name": "s1", ...}}

    → {"op": "query", "session": "s1", "epsilon": 0.01}
    ← {"ok": true, "result": {"value": ..., "epsilon": 0.01, ...},
       "partial": false}

Every response carries ``"ok"``; failures carry ``"error"`` with the
message of the :class:`~repro.errors.ReproError` that caused them and
``"error_type"`` with its class name — a bad request never kills the
connection, let alone the server.  An
:class:`~repro.errors.ApproximationError` whose truncation search ran
out of budget also carries ``"achieved_tail"``, the certified tail mass
it reached::

    ← {"ok": false, "error": "cannot certify epsilon=1e-09: ...",
       "error_type": "ApproximationError", "achieved_tail": 0.0031}

Blocking work (refinement, sweeps, snapshot pickling) runs on a small
thread pool via ``run_in_executor``, so slow refinements never stall the
event loop and concurrent clients genuinely overlap — which is exactly
what the cache-locking work underneath exists to make safe.  When a
``query`` is admitted as *queued* (ε tighter than the session budget,
see :meth:`ManagedSession.submit
<repro.serve.session.ManagedSession.submit>`), the client gets the
current best answer immediately with ``"partial": true`` and a per-
session drain task works the queue loosest-first in the background;
``"wait": true`` opts out and blocks for the full refinement.

Operations: ``ping``, ``create``, ``query``, ``sweep``, ``marginals``,
``best``, ``sessions``, ``stats``, ``drop``, ``snapshot``, ``restore``,
``shutdown``.

Answer fan-out: a ``marginals`` request on a safe query over a TI
truncation is one in-process grouped lifted pass.  For compiled
fan-outs, a server started with ``shard_workers=k > 1`` holds one
process-wide :class:`~repro.parallel.pool.ShardPool` (via
:func:`~repro.parallel.pool.get_shared_pool`) that *every* session's
``marginals`` requests fan out on — each of the pool's workers starts
with the first fan-out that reaches its slot, then caches each
session's truncation table (delta-shipped as it grows) and worker-side
compiled diagrams, shared across all sessions and requests.  The
``stats`` op reports the pool as ``"shard_pool": {"workers": k,
"live": n}`` (``null`` without one), ``n`` counting started workers.
"""

from __future__ import annotations

import asyncio
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from repro.errors import ReproError, ServeError
from repro.serve.session import ManagedSession, SessionManager, result_to_json
from repro.serve.snapshot import load_snapshot, save_snapshot

DEFAULT_PORT = 7532


def error_response(err: ReproError) -> Dict:
    """The wire form of a failed request: the message, the error class
    and, for an exhausted truncation search, the tail it achieved.

    >>> from repro.errors import ApproximationError
    >>> error_response(ApproximationError("budget", achieved_tail=0.25))
    {'ok': False, 'error': 'budget', 'error_type': 'ApproximationError', 'achieved_tail': 0.25}
    """
    response = {
        "ok": False, "error": str(err), "error_type": type(err).__name__}
    achieved = getattr(err, "achieved_tail", None)
    if achieved is not None:
        response["achieved_tail"] = achieved
    return response


class QueryServer:
    """The serve-layer front-end over one shared session manager."""

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        max_workers: int = 4,
        snapshot_path: Optional[str] = None,
        shard_workers: Optional[int] = None,
    ):
        self.manager = manager if manager is not None else SessionManager()
        #: Where ``{"op": "snapshot"}`` / ``{"op": "restore"}`` default
        #: to, and where a final snapshot lands on shutdown.
        self.snapshot_path = snapshot_path
        #: One shard pool shared by all sessions' compiled answer
        #: fan-outs (``marginals`` op), owned by the process-wide
        #: registry, which keeps it across server restarts in one
        #: process and shuts it down at interpreter exit.  It starts no
        #: process here: each worker forks, from a request thread, with
        #: the first fan-out that ships to its slot.
        self.shard_pool = None
        if shard_workers is not None and int(shard_workers) > 1:
            from repro.parallel import get_shared_pool

            self.shard_pool = get_shared_pool(int(shard_workers))
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve")
        self._draining: set = set()
        self._drain_tasks: set = set()
        self._shutdown = asyncio.Event()

    # ----------------------------------------------------------- dispatching
    async def dispatch(self, request) -> Dict:
        """One request object → one response object (never raises for
        protocol-level errors)."""
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if op is None or handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return await handler(request)
        except ReproError as err:
            return error_response(err)

    async def dispatch_line(self, line) -> Dict:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        try:
            request = json.loads(line)
        except json.JSONDecodeError as err:
            return {"ok": False, "error": f"bad JSON: {err}"}
        return await self.dispatch(request)

    async def _blocking(self, func, *args, **kwargs):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, functools.partial(func, *args, **kwargs))

    def _session(self, request) -> ManagedSession:
        name = request.get("session")
        if not name:
            raise ServeError("request needs a 'session' name")
        return self.manager.get(name)

    # ------------------------------------------------------------ operations
    async def _op_ping(self, request) -> Dict:
        return {"ok": True, "result": "pong"}

    async def _op_create(self, request) -> Dict:
        name = request.get("session")
        spec = request.get("spec")
        if not name or not isinstance(spec, dict):
            raise ServeError("create needs 'session' and an object 'spec'")
        managed = await self._blocking(self.manager.create, name, spec)
        return {"ok": True, "result": managed.summary()}

    async def _op_query(self, request) -> Dict:
        managed = self._session(request)
        epsilon = request.get("epsilon")
        if epsilon is None:
            raise ServeError("query needs an 'epsilon'")
        wait = bool(request.get("wait", False))
        result, partial = await self._blocking(
            managed.submit, float(epsilon), wait=wait)
        if partial:
            self._kick_drain(managed)
        return {
            "ok": True,
            "result": result_to_json(result),
            "partial": partial,
        }

    async def _op_sweep(self, request) -> Dict:
        managed = self._session(request)
        epsilons = request.get("epsilons")
        if not isinstance(epsilons, list) or not epsilons:
            raise ServeError("sweep needs a non-empty 'epsilons' list")
        results = await self._blocking(managed.sweep, epsilons)
        return {
            "ok": True,
            "result": [
                dict(result_to_json(result), requested_epsilon=epsilon)
                for epsilon, result in results.items()
            ],
        }

    async def _op_marginals(self, request) -> Dict:
        managed = self._session(request)
        epsilon = request.get("epsilon")
        if epsilon is None:
            raise ServeError("marginals needs an 'epsilon'")
        results = await self._blocking(
            managed.marginals, float(epsilon), pool=self.shard_pool)
        return {
            "ok": True,
            "result": [
                dict(result_to_json(result), answer=list(answer))
                for answer, result in results.items()
            ],
        }

    async def _op_best(self, request) -> Dict:
        managed = self._session(request)
        best = managed.best
        return {
            "ok": True,
            "result": result_to_json(best) if best is not None else None,
            "pending": len(managed.pending),
        }

    async def _op_sessions(self, request) -> Dict:
        return {"ok": True, "result": self.manager.summaries()}

    async def _op_stats(self, request) -> Dict:
        pool = self.shard_pool
        shard_pool = None if pool is None else {
            "workers": pool.workers, "live": len(pool.worker_pids())}
        return {"ok": True,
                "result": dict(self.manager.stats(), shard_pool=shard_pool)}

    async def _op_drop(self, request) -> Dict:
        name = request.get("session")
        if not name:
            raise ServeError("drop needs a 'session' name")
        self.manager.drop(name)
        return {"ok": True, "result": {"dropped": name}}

    async def _op_snapshot(self, request) -> Dict:
        path = request.get("path") or self.snapshot_path
        if not path:
            raise ServeError(
                "snapshot needs a 'path' (or start the server with "
                "--snapshot)")
        size = await self._blocking(save_snapshot, self.manager, path)
        return {"ok": True, "result": {"path": path, "bytes": size}}

    async def _op_restore(self, request) -> Dict:
        path = request.get("path") or self.snapshot_path
        if not path:
            raise ServeError(
                "restore needs a 'path' (or start the server with "
                "--snapshot)")
        manager = await self._blocking(load_snapshot, path)
        self.manager = manager
        return {"ok": True, "result": self.manager.stats()}

    async def _op_shutdown(self, request) -> Dict:
        self._shutdown.set()
        return {"ok": True, "result": "shutting down"}

    # ------------------------------------------------------------ drain loop
    def _kick_drain(self, managed: ManagedSession) -> None:
        """Start (at most one) background drain task for a session with
        queued guarantees."""
        if managed.name in self._draining:
            return
        self._draining.add(managed.name)
        task = asyncio.get_running_loop().create_task(self._drain(managed))
        self._drain_tasks.add(task)
        task.add_done_callback(self._drain_tasks.discard)

    async def _drain(self, managed: ManagedSession) -> None:
        try:
            while True:
                result = await self._blocking(managed.drain_one)
                if result is None:
                    return
        finally:
            self._draining.discard(managed.name)

    async def _settle(self) -> None:
        """Let in-flight drain tasks finish (shutdown path)."""
        if self._drain_tasks:
            await asyncio.gather(
                *list(self._drain_tasks), return_exceptions=True)

    # -------------------------------------------------------------- transports
    async def handle_connection(self, reader, writer) -> None:
        try:
            while not self._shutdown.is_set():
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                response = await self.dispatch_line(line)
                writer.write(
                    (json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        ready=None,
    ) -> None:
        """Serve until a ``shutdown`` op arrives.  ``ready(port)`` is
        called with the *bound* port (pass ``port=0`` for an ephemeral
        one — how the tests avoid port collisions)."""
        server = await asyncio.start_server(
            self.handle_connection, host, port)
        bound = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready(bound)
        async with server:
            await self._shutdown.wait()
        await self._settle()
        await self._final_snapshot()

    async def serve_stdio(self, infile=None, outfile=None) -> None:
        """Serve one client over stdin/stdout (the pipe-friendly mode:
        ``echo '{"op":"ping"}' | python -m repro serve --stdio``)."""
        infile = infile if infile is not None else sys.stdin
        outfile = outfile if outfile is not None else sys.stdout
        loop = asyncio.get_running_loop()
        while not self._shutdown.is_set():
            line = await loop.run_in_executor(None, infile.readline)
            if not line:
                break
            if not line.strip():
                continue
            response = await self.dispatch_line(line)
            outfile.write(json.dumps(response) + "\n")
            outfile.flush()
        await self._settle()
        await self._final_snapshot()

    async def _final_snapshot(self) -> None:
        if self.snapshot_path and len(self.manager):
            await self._blocking(
                save_snapshot, self.manager, self.snapshot_path)

    def close(self) -> None:
        self._pool.shutdown(wait=False)


def request_over_tcp(host: str, port: int, requests):
    """Tiny synchronous client: send each request dict, return the
    response dicts.  Used by tests and the CI smoke step; also the
    reference for writing real clients."""
    import socket

    responses = []
    with socket.create_connection((host, port)) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        for request in requests:
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            line = stream.readline()
            if not line:
                raise ServeError("server closed the connection")
            responses.append(json.loads(line))
    return responses
