"""A small stdlib-only HTTP server over a resident :class:`QueryEngine`.

Protocol (all bodies JSON, all responses either JSON or NDJSON):

``POST /sql``
    Request body::

        {"sql": "Select ...",            -- required
         "trace": false,                 -- per-request span tracing
         "options": {                    -- per-query QueryOptions fields
             "mode": "parallel",         -- central | parallel | adaptive
             "fanouts": [5, 4],
             "adaptation": {...},        -- AdaptationParams fields
             "retries": 0,
             "on_error": "retry",
             "cache": true,              -- or {"max_entries": N, "ttl": T}
             "name": "Query",
             "optimize": "cost",         -- heuristic | cost (planner level)
             "limit_pushdown": true,
             "tenant": "analytics",      -- fair-queue identity (adaptive admission)
             "deadline_ms": 60000}}      -- model-ms deadline; unmeetable -> 429

    Any other top-level field is a 400.

    Under ``--admission adaptive`` a query shed by the deadline policy
    gets ``429 Too Many Requests`` with a ``Retry-After`` header (the
    controller's wait estimate, whole seconds).

    Response is ``application/x-ndjson`` streamed as chunked transfer
    encoding: one header line carrying the column names, one line per
    result row, and one trailer line with the execution statistics (and,
    for traced requests, the path of the exported Chrome trace file)::

        {"columns": ["placename", "state"]}
        ["Decatur", "GA"]
        ...
        {"rows": 360, "elapsed": 48.3, "total_calls": 311, ...}

``GET /stats``
    The engine's resident-state snapshot
    (:meth:`repro.engine.QueryEngine.stats`) as JSON.

``GET /healthz``
    Liveness probe.

The server's accept loop runs *inside* the engine's resident kernel
(``engine.kernel.run(server.run())``), so queries execute on the same
event loop that owns the warm pools — including the OS worker fleet when
the kernel is a :class:`~repro.runtime.multiprocess.ProcessKernel`
(``repro serve --kernel process``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import re
from typing import Any, Optional

from repro.algebra.plan import AdaptationParams
from repro.cache import CacheConfig
from repro.engine import AdmissionRejected, EngineClosed
from repro.obs import TraceRecorder, write_chrome_trace
from repro.util.errors import ReproError
from repro.wsmed.options import QueryOptions

_MAX_BODY = 4 * 1024 * 1024
_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class QueryServer:
    """HTTP front end bound to one resident :class:`QueryEngine`.

    ``port=0`` binds an ephemeral port (``self.port`` holds the real one
    after :meth:`start`).  ``trace_dir`` is where per-request Chrome
    trace files land for ``"trace": true`` requests.  ``default_optimize``
    is the planner level used when a request doesn't set ``"optimize"``
    (``repro serve --optimize cost`` makes the cost-based optimizer the
    server default).
    """

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_dir: str = "traces",
        default_optimize: str = "heuristic",
    ) -> None:
        if default_optimize not in ("heuristic", "cost"):
            raise ReproError(
                f'default_optimize must be "heuristic" or "cost", '
                f"got {default_optimize!r}"
            )
        self.engine = engine
        self.host = host
        self.port = port
        self.trace_dir = trace_dir
        self.default_optimize = default_optimize
        self.requests_served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._trace_ids = itertools.count(1)
        # Live connection-handler tasks; run() drains them at shutdown so
        # no query dies mid-NDJSON-stream when the kernel goes down.
        self._handlers: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (inside the kernel's event loop)."""
        if self._server is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> None:
        """Serve until :meth:`stop` is called; the ``repro serve`` body.

        Shutdown closes the listener first (no new connections), then
        waits for in-flight handlers to finish their streams — the caller
        tears the engine down only after ``run`` returns, so a query that
        was mid-NDJSON-stream when stop() fired still ends with its
        trailer and terminating chunk instead of a severed body.
        """
        await self.start()
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            if self._handlers:
                await asyncio.gather(
                    *list(self._handlers), return_exceptions=True
                )
            self._server = None

    def stop(self) -> None:
        """Request shutdown; safe to call from any thread (or a signal)."""
        if self._loop is None or self._stop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # loop already closed

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as error:
                await self._send_json(
                    writer, error.status, {"error": str(error)}
                )
                return
            self.requests_served += 1
            try:
                if method == "POST" and path == "/sql":
                    await self._serve_sql(writer, body)
                elif method == "GET" and path == "/stats":
                    await self._send_json(
                        writer, 200, self.engine.stats().as_dict()
                    )
                elif method == "GET" and path == "/healthz":
                    await self._send_json(
                        writer,
                        200,
                        {"status": "ok", "queries": self.engine.stats().queries},
                    )
                elif path in ("/sql", "/stats", "/healthz"):
                    raise _HttpError(405, f"method {method} not allowed on {path}")
                else:
                    raise _HttpError(404, f"no such endpoint: {path}")
            except _HttpError as error:
                await self._send_json(writer, error.status, {"error": str(error)})
            except AdmissionRejected as error:
                # Load shed: tell the client when a retry could make it.
                await self._send_json(
                    writer,
                    429,
                    {
                        "error": str(error),
                        "tenant": error.tenant,
                        "retry_after": error.retry_after,
                    },
                    headers={
                        "Retry-After": str(
                            max(1, math.ceil(error.retry_after))
                        )
                    },
                )
            except EngineClosed as error:
                await self._send_json(writer, 503, {"error": str(error)})
            except ReproError as error:
                await self._send_json(writer, 400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 - report, keep serving
                await self._send_json(
                    writer, 500, {"error": f"{type(error).__name__}: {error}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise _HttpError(400, "malformed HTTP request") from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(
                400, f"malformed Content-Length: {raw_length!r}"
            ) from None
        if length < 0:
            raise _HttpError(
                400, f"negative Content-Length: {raw_length!r}"
            )
        if length > _MAX_BODY:
            raise _HttpError(413, f"request body over {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    # -- endpoints ---------------------------------------------------------

    async def _serve_sql(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        if not body:
            raise _HttpError(400, "POST /sql requires a JSON request body")
        sql_text, trace, option_kwargs = self._parse_sql_request(body)
        recorder = TraceRecorder() if trace else None
        if recorder is not None:
            option_kwargs["obs"] = recorder
        if getattr(self.engine, "_closed", False):
            raise _HttpError(503, "engine is shut down")
        try:
            options = QueryOptions(**option_kwargs)
        except TypeError as error:
            raise _HttpError(400, f"bad query options: {error}")
        result = await self.engine.sql_async(sql_text, options=options)

        trace_file = None
        if recorder is not None and result.spans is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            stem = _SAFE_NAME.sub("-", option_kwargs.get("name", "query")) or "query"
            trace_file = os.path.join(
                self.trace_dir, f"{stem}-{next(self._trace_ids)}.trace.json"
            )
            write_chrome_trace(result.spans, trace_file)

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        writer.write(_chunk(self._line({"columns": list(result.columns)})))
        await writer.drain()
        # Past this point the 200 header is on the wire: any failure —
        # including cancellation when the kernel shuts down mid-stream —
        # must still end the body with a well-formed error trailer and
        # the terminating chunk, never a severed stream.
        sent = 0
        error_trailer: str | None = None
        interrupted: BaseException | None = None
        try:
            for index, row in enumerate(result.rows):
                writer.write(_chunk(self._line(list(row))))
                sent = index + 1
                if index % 100 == 99:
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            raise  # client is gone; there is nobody to finish the body for
        except BaseException as error:  # noqa: BLE001 - trailer then re-raise
            error_trailer = (
                "stream interrupted"
                if isinstance(error, asyncio.CancelledError)
                else f"{type(error).__name__}: {error}"
            )
            interrupted = error
        if error_trailer is not None:
            trailer: dict[str, Any] = {
                "error": error_trailer,
                "rows_sent": sent,
                "rows": len(result.rows),
            }
        else:
            trailer = {
                "rows": len(result.rows),
                "elapsed": result.elapsed,
                "total_calls": result.total_calls,
                "mode": result.mode,
            }
            if result.cache_stats is not None:
                trailer["cache"] = result.cache_stats.as_dict()
            if trace_file is not None:
                trailer["trace_file"] = trace_file
        writer.write(_chunk(self._line(trailer)))
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        if isinstance(interrupted, asyncio.CancelledError):
            raise interrupted

    @staticmethod
    def _line(payload: Any) -> bytes:
        return (json.dumps(payload, default=str) + "\n").encode("utf-8")

    #: QueryOptions fields expressible in the nested ``"options"`` object
    #: of the POST /sql JSON schema.
    _OPTION_FIELDS = frozenset(
        {
            "mode",
            "fanouts",
            "adaptation",
            "retries",
            "cache",
            "on_error",
            "name",
            "optimize",
            "limit_pushdown",
            "tenant",
            "deadline_ms",
        }
    )

    def _parse_sql_request(self, body: bytes) -> tuple[str, bool, dict]:
        """Returns ``(sql, trace, option_kwargs)`` for :class:`QueryOptions`.

        The top level holds only ``sql``, ``trace`` and ``options``; every
        per-query knob lives in the nested ``"options"`` object.
        """
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}")
        if not isinstance(request, dict) or not isinstance(
            request.get("sql"), str
        ):
            raise _HttpError(400, 'request must be a JSON object with a "sql" string')
        unknown = set(request) - {"sql", "trace", "options"}
        if unknown:
            raise _HttpError(400, f"unknown request fields: {sorted(unknown)}")
        options = request.get("options", {})
        if not isinstance(options, dict):
            raise _HttpError(400, '"options" must be a JSON object')
        unknown = set(options) - self._OPTION_FIELDS
        if unknown:
            raise _HttpError(400, f"unknown options fields: {sorted(unknown)}")
        merged = dict(options)
        tenant = merged.get("tenant")
        if tenant is not None and (
            not isinstance(tenant, str) or not tenant.strip()
        ):
            raise _HttpError(400, f"bad tenant field: {tenant!r}")
        deadline = merged.get("deadline_ms")
        if deadline is not None:
            if isinstance(deadline, bool) or not isinstance(
                deadline, (int, float)
            ) or deadline <= 0:
                raise _HttpError(
                    400, f"deadline_ms must be a positive number: {deadline!r}"
                )
        optimize = merged.setdefault("optimize", self.default_optimize)
        if optimize not in ("heuristic", "cost"):
            raise _HttpError(
                400,
                f'optimize must be "heuristic" or "cost": {optimize!r}',
            )
        limit_pushdown = merged.get("limit_pushdown")
        if limit_pushdown is not None and not isinstance(limit_pushdown, bool):
            raise _HttpError(
                400, f"limit_pushdown must be a boolean: {limit_pushdown!r}"
            )
        adaptation = merged.get("adaptation")
        if isinstance(adaptation, dict):
            try:
                merged["adaptation"] = AdaptationParams(**adaptation)
            except TypeError as error:
                raise _HttpError(400, f"bad adaptation config: {error}")
        elif adaptation is not None:
            raise _HttpError(400, f"bad adaptation field: {adaptation!r}")
        cache = merged.get("cache")
        if cache is True:
            merged["cache"] = CacheConfig(enabled=True)
        elif isinstance(cache, dict):
            try:
                merged["cache"] = CacheConfig(enabled=True, **cache)
            except (TypeError, ReproError) as error:
                raise _HttpError(400, f"bad cache config: {error}")
        elif cache in (False, None):
            merged.pop("cache", None)
        else:
            raise _HttpError(400, f"bad cache field: {cache!r}")
        for name in ("tenant", "deadline_ms"):
            if merged.get(name) is None:
                merged.pop(name, None)
        return request["sql"], bool(request.get("trace", False)), merged

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        text = _STATUS_TEXT.get(status, "Error")
        extra = "".join(
            f"{key}: {value}\r\n" for key, value in (headers or {}).items()
        )
        writer.write(
            f"HTTP/1.1 {status} {text}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n".encode("ascii")
        )
        writer.write(body)
        await writer.drain()
