"""Prometheus text exposition for the metrics registry, plus an HTTP endpoint.

PR 7 turned the Figure-10 recipe into a long-lived
:class:`~repro.serving.MatchService` with ``serve:*`` latency histograms —
but those metrics lived and died inside the process. This module makes
them scrapeable:

* :func:`render_prometheus` — renders a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot in the Prometheus
  text exposition format (version 0.0.4): counters as ``*_total``,
  gauges, and histograms with *cumulative* ``le``-labelled buckets plus
  ``_sum``/``_count`` — computed from the registry's per-bucket counts,
  so a scrape and the in-process quantile estimates describe the same
  distribution.
* :class:`MetricsServer` — a stdlib :class:`~http.server.ThreadingHTTPServer`
  serving ``GET /metrics`` (the rendered registry) and ``GET /healthz``
  (a JSON liveness probe), bound by default to localhost with an
  OS-assigned port. No third-party client library is involved anywhere.

Rendering is deterministic (metrics sorted by name, ``%g`` float
formatting) so endpoint output is diffable across scrapes modulo the
metric values themselves.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

#: Content type mandated by the Prometheus text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def prometheus_name(name: str) -> str:
    """Sanitize a registry metric name for exposition.

    Prometheus metric names allow ``[a-zA-Z_:][a-zA-Z0-9_:]*`` — colons
    included, so the registry's ``serve:match_seconds`` style names pass
    through unchanged; anything else (spaces, dashes, dots) becomes
    ``_``, and a leading digit gets a ``_`` prefix.
    """
    cleaned = "".join(ch if ch in _NAME_OK else "_" for ch in name)
    if not cleaned:
        return "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _fmt(value: float) -> str:
    """Prometheus sample-value formatting: integers stay bare, other values
    render as the shortest string that reads back as the same float."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(registry: Any) -> str:
    """The registry's current state in Prometheus text exposition format.

    Counters render as ``<name>_total``; gauges with no recorded value
    are skipped (Prometheus has no "unset" sample); histograms render
    their fixed buckets *cumulatively* with ``le`` labels, an ``+Inf``
    bucket equal to the observation count, and ``_sum``/``_count``
    series. Output is sorted by metric name and ends with a newline.
    """
    lines: list[str] = []
    for name, counter in sorted(registry.counters.items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric}_total counter")
        lines.append(f"{metric}_total {_fmt(counter.value)}")
    for name, gauge in sorted(registry.gauges.items()):
        if gauge.value is None:
            continue
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(gauge.value)}")
    for name, histogram in sorted(registry.histograms.items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram.buckets, histogram.bucket_counts):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_fmt(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to a metrics source via the server object."""

    server: "MetricsServer._Server"  # type: ignore[assignment]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                body = self.server.render().encode("utf-8")
            except Exception as exc:
                self._respond(500, "text/plain", f"render failed: {exc}\n".encode())
                return
            self._respond(200, CONTENT_TYPE, body)
        elif path == "/healthz":
            body = json.dumps({"ok": True}).encode("utf-8") + b"\n"
            self._respond(200, "application/json", body)
        else:
            self._respond(404, "text/plain", b"not found\n")

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes every few seconds would otherwise spam stderr


class MetricsServer:
    """A background ``/metrics`` + ``/healthz`` HTTP endpoint.

    Parameters
    ----------
    source:
        Either a :class:`~repro.obs.metrics.MetricsRegistry` (rendered
        via :func:`render_prometheus` per scrape) or a zero-argument
        callable returning the exposition text — a
        :class:`~repro.serving.MatchService`'s ``metrics_text`` bound
        method slots straight in.
    host / port:
        Bind address; ``port=0`` (the default) lets the OS pick — read
        the bound port back from :attr:`port` after :meth:`start`.

    The serving thread is a daemon and each request gets its own thread
    (:class:`~http.server.ThreadingHTTPServer`), so a slow scrape never
    blocks a health check. ``start``/``stop`` are idempotent; usable as
    a context manager.
    """

    class _Server(ThreadingHTTPServer):
        daemon_threads = True
        render: Callable[[], str]

    def __init__(self, source: Any, host: str = "127.0.0.1", port: int = 0) -> None:
        if callable(source):
            self._render = source
        else:
            self._render = lambda: render_prometheus(source)
        self.host = host
        self._requested_port = int(port)
        self._server: MetricsServer._Server | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0`` after start)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._server is not None:
            return self
        server = self._Server((self.host, self._requested_port), _Handler)
        server.render = self._render
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-metrics-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
