"""World-as-a-service: the asyncio HTTP gateway.

A deliberately dependency-free HTTP/1.1 server (stdlib ``asyncio``
only — the toolchain bakes in no web framework) exposing live worlds:

====== =============================== =====================================
Method Path                            Meaning
====== =============================== =====================================
GET    ``/healthz``                    liveness + hosted-world count
POST   ``/worlds``                     create a world from a ``WorldSpec``
GET    ``/worlds``                     list hosted worlds
GET    ``/worlds/{id}``                barrier-consistent world snapshot
DELETE ``/worlds/{id}``                graceful drain + close
POST   ``/worlds/{id}/launch``         admit one ``LaunchSpec`` (429 on
                                       admission overflow, with
                                       ``Retry-After``)
GET    ``/worlds/{id}/agents/{agent}`` one agent's record snapshot
GET    ``/worlds/{id}/events``         Server-Sent Events telemetry stream
====== =============================== =====================================

The SSE stream carries the host's event feed (``world``, ``launch``,
``epoch`` — one per journal commit marker, in commit order — ``agent``,
``timeline``, ``metrics``, ``drain``) as ``event:``/``id:``/``data:``
frames, in ``seq`` order, one socket write per batch of events the
stepper handed over (typically one barrier's).  A client disconnect
cancels only that subscription; the world and every other subscriber
keep running.

``POST /worlds/{id}/launch`` runs admission and the enqueue on the
event loop (:meth:`~repro.service.host.WorldHost.submit`) and awaits
the stepper's future: the ``202`` goes out when the launch is applied
at a barrier, and no executor thread is parked while it waits.

Shutdown (SIGTERM/SIGINT under ``python -m repro serve``, or
:meth:`Gateway.shutdown`) drains every host — finish the epoch, final
journal fsync, stop the worker processes — before the sockets close.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Optional

from repro.errors import UsageError
from repro.service.host import AdmissionFull, HostClosed, WorldHost
from repro.service.worlds import LaunchSpec, WorldSpec

_MAX_BODY = 1 << 20
_MAX_HEADER = 64 * 1024
#: Seconds the request reader waits for the head, then again for the body.
_READ_TIMEOUT = 30.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: Optional[dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


_REASONS = {
    200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _response(status: int, body: bytes, content_type: str,
              extra: Optional[dict[str, str]] = None) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    headers = [f"HTTP/1.1 {status} {reason}",
               f"Content-Type: {content_type}",
               f"Content-Length: {len(body)}",
               "Connection: close"]
    for key, value in (extra or {}).items():
        headers.append(f"{key}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


def _json_response(status: int, payload: Any,
                   extra: Optional[dict[str, str]] = None) -> bytes:
    body = (json.dumps(payload, default=repr) + "\n").encode("utf-8")
    return _response(status, body, "application/json", extra)


class Gateway:
    """The service: hosted worlds + the HTTP server around them."""

    def __init__(self, *, max_inflight: int = 8, max_pending: int = 64,
                 retry_after: float = 1.0, metrics_every: int = 16,
                 drain_timeout: float = 30.0):
        self.max_inflight = max_inflight
        self.max_pending = max_pending
        self.retry_after = retry_after
        self.metrics_every = metrics_every
        self.drain_timeout = drain_timeout
        self.hosts: dict[str, WorldHost] = {}
        self._world_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutting_down = False

    # -- world management ---------------------------------------------------------

    def create_world(self, spec: WorldSpec) -> WorldHost:
        if self._shutting_down:
            raise _HttpError(503, "gateway is shutting down")
        self._world_seq += 1
        world_id = f"w{self._world_seq}"
        host = WorldHost(world_id, spec,
                         max_inflight=self.max_inflight,
                         max_pending=self.max_pending,
                         retry_after=self.retry_after,
                         metrics_every=self.metrics_every)
        self.hosts[world_id] = host
        host.start()
        return host

    def host_of(self, world_id: str) -> WorldHost:
        host = self.hosts.get(world_id)
        if host is None:
            raise _HttpError(404, f"no world {world_id!r}")
        return host

    async def shutdown(self) -> None:
        """Drain every host, then stop accepting connections."""
        if self._shutting_down:
            return
        self._shutting_down = True
        loop = asyncio.get_running_loop()
        for host in list(self.hosts.values()):
            await loop.run_in_executor(None, host.drain,
                                       self.drain_timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- server -------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        # The reader's limit is the head cap: a longer head overruns it.
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=_MAX_HEADER)
        sock = self._server.sockets[0]
        bound = sock.getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, headers, body = await self._read_request(
                    reader)
            except _HttpError as exc:
                writer.write(_json_response(
                    exc.status, {"error": str(exc)}, exc.headers))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                # Closed before its head was complete: nothing to answer.
                return
            await self._dispatch(method, path, headers, body, writer)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> tuple[str, str, dict[str, str], bytes]:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=_READ_TIMEOUT)
        except asyncio.LimitOverrunError:
            raise _HttpError(413, f"request head exceeds {_MAX_HEADER} "
                                  f"bytes") from None
        except asyncio.TimeoutError:
            raise _HttpError(408, f"request head not complete within "
                                  f"{_READ_TIMEOUT} s") from None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line "
                                  f"{lines[0]!r}") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        field = headers.get("content-length", "0") or "0"
        if not (field.isascii() and field.isdigit()):
            raise _HttpError(400, f"malformed Content-Length {field!r}")
        length = int(field)
        if length > _MAX_BODY:
            raise _HttpError(413, f"body of {length} bytes exceeds "
                                  f"{_MAX_BODY}")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(reader.readexactly(length),
                                              timeout=_READ_TIMEOUT)
            except asyncio.TimeoutError:
                raise _HttpError(408, f"request body not complete within "
                                      f"{_READ_TIMEOUT} s") from None
            except asyncio.IncompleteReadError as exc:
                raise _HttpError(400, f"body truncated: got "
                                      f"{len(exc.partial)} of {length} "
                                      f"bytes") from None
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return data

    async def _dispatch(self, method: str, path: str,
                        headers: dict[str, str], body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        try:
            parts = [p for p in path.split("/") if p]
            if path == "/healthz" and method == "GET":
                payload: Any = {"ok": True, "worlds": len(self.hosts),
                                "shutting_down": self._shutting_down}
                writer.write(_json_response(200, payload))
            elif path == "/worlds" and method == "POST":
                spec = WorldSpec.from_json(self._json_body(body))
                host = await self._offload(self.create_world, spec)
                writer.write(_json_response(
                    201, {"world": host.world_id,
                          "spec": spec.to_json()}))
            elif path == "/worlds" and method == "GET":
                writer.write(_json_response(200, {
                    "worlds": [{"world": wid,
                                "spec": h.spec.to_json(),
                                "draining": h.draining}
                               for wid, h in self.hosts.items()]}))
            elif len(parts) == 2 and parts[0] == "worlds":
                await self._dispatch_world(method, parts[1], writer)
            elif len(parts) == 3 and parts[0] == "worlds" \
                    and parts[2] == "launch" and method == "POST":
                await self._handle_launch(parts[1], headers, body, writer)
            elif len(parts) == 3 and parts[0] == "worlds" \
                    and parts[2] == "events" and method == "GET":
                await self._handle_events(parts[1], writer)
            elif len(parts) == 4 and parts[0] == "worlds" \
                    and parts[2] == "agents" and method == "GET":
                host = self.host_of(parts[1])
                snap = await self._offload(host.agent_snapshot, parts[3])
                writer.write(_json_response(200, snap))
            else:
                raise _HttpError(404, f"no route {method} {path}")
        except _HttpError as exc:
            writer.write(_json_response(exc.status, {"error": str(exc)},
                                        exc.headers))
        except UsageError as exc:
            writer.write(_json_response(400, {"error": str(exc)}))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            writer.write(_json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}))
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _dispatch_world(self, method: str, world_id: str,
                              writer: asyncio.StreamWriter) -> None:
        host = self.host_of(world_id)
        if method == "GET":
            writer.write(_json_response(
                200, await self._offload(host.snapshot)))
        elif method == "DELETE":
            snap = await self._offload(host.drain, self.drain_timeout)
            self.hosts.pop(world_id, None)
            writer.write(_json_response(200, snap))
        else:
            raise _HttpError(405, f"{method} not allowed on a world")

    async def _handle_launch(self, world_id: str,
                             headers: dict[str, str], body: bytes,
                             writer: asyncio.StreamWriter) -> None:
        host = self.host_of(world_id)
        data = self._json_body(body)
        if "tenant" not in data and "x-tenant" in headers:
            data["tenant"] = headers["x-tenant"]
        spec = LaunchSpec.from_json(data)
        try:
            # Resolved by the stepper when it applies or refuses it.
            result = await asyncio.wrap_future(host.submit(spec))
        except AdmissionFull as exc:
            raise _HttpError(
                429, str(exc),
                {"Retry-After": f"{exc.retry_after:g}"}) from None
        except HostClosed as exc:
            raise _HttpError(503, str(exc)) from None
        writer.write(_json_response(202, result))

    async def _handle_events(self, world_id: str,
                             writer: asyncio.StreamWriter) -> None:
        host = self.host_of(world_id)
        loop = asyncio.get_running_loop()
        sub = host.subscribe(loop=loop, replay=True)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        try:
            await writer.drain()
            ended = False
            while not ended:
                frames = []
                for item in await sub.batch():
                    if item is None:
                        frames.append("event: end\r\ndata: {}\r\n\r\n")
                        ended = True
                        break
                    frames.append(
                        f"event: {item['event']}\r\n"
                        f"id: {item['seq']}\r\n"
                        f"data: {json.dumps(item['data'], default=repr)}"
                        f"\r\n\r\n")
                # One write per batch: a barrier's events leave in one
                # send, in ``seq`` order.
                writer.write("".join(frames).encode("utf-8"))
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # This subscriber went away; the world keeps running and
            # every other stream is untouched.
            pass
        finally:
            host.unsubscribe(sub)

    @staticmethod
    async def _offload(fn, *args):
        """Run a blocking host call off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, lambda: fn(*args))


async def serve(host: str = "127.0.0.1", port: int = 8472, *,
                max_inflight: int = 8, max_pending: int = 64,
                retry_after: float = 1.0, metrics_every: int = 16,
                drain_timeout: float = 30.0,
                ready: Optional[Any] = None) -> None:
    """Run the gateway until SIGTERM/SIGINT, then drain gracefully.

    ``ready`` (optional) is called with the bound ``(host, port)`` once
    the socket is listening — the smoke tests use it instead of
    polling.
    """
    gateway = Gateway(max_inflight=max_inflight, max_pending=max_pending,
                      retry_after=retry_after, metrics_every=metrics_every,
                      drain_timeout=drain_timeout)
    bound_host, bound_port = await gateway.start(host, port)
    print(f"repro service listening on http://{bound_host}:{bound_port}",
          flush=True)
    if ready is not None:
        ready((bound_host, bound_port))
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread / platform without signal support
    server_task = asyncio.ensure_future(gateway.serve_forever())
    await stop.wait()
    print("repro service draining...", flush=True)
    await gateway.shutdown()
    server_task.cancel()
    try:
        await server_task
    except asyncio.CancelledError:  # pragma: no cover - py<3.13 quirk
        pass
    print("repro service drained", flush=True)
