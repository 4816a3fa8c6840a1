"""``python -m repro.observability.httpstat`` — live stats endpoint.

A minimal scrape target for serving workers and the ``warmstart``
fleet: a daemon HTTP server (standard-library ``http.server``, no new
dependencies) exposing the live in-process registry while the
workload runs.

Endpoints:

* ``/metrics``  — Prometheus text exposition
  (:func:`repro.observability.cli.prometheus_text` over the live
  registry; scrape-ready),
* ``/health``   — speculation-health JSON: per-function state /
  diagnosis / hit ratio plus the serving layer's windowed SLO view
  (request-latency and queue-wait percentiles over the trailing
  window, rejection rate),
* ``/requests`` — the flight recorder's post-mortem exemplars (the N
  slowest and all failed/fallback requests, with their captured
  spans),
* ``/``         — a plain-text index.

Embed it in a serving process::

    from repro.observability.httpstat import StatsServer
    stats = StatsServer(port=9095)          # port=0 picks an ephemeral one
    stats.start()
    ... serve traffic ...
    stats.stop()

or run standalone against a demo workload (used by ``make stats-serve``)::

    python -m repro.observability.httpstat --port 0 --smoke

``--smoke`` starts the server on an ephemeral port, drives a small
serving workload in-process so the registry is populated, scrapes
``/metrics`` and ``/health`` over real HTTP, asserts both parse, and
exits 0 — the CI gate that the live endpoint actually serves.
"""

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .cli import prometheus_text
from .health import HEALTH
from .reqtrace import RECORDER
from .serving import SERVING

__all__ = ["StatsServer", "health_payload", "main"]


def health_payload():
    """The ``/health`` JSON: speculation + serving health, live."""
    return {
        "status": "ok",
        "functions": [fn.summary() for fn in HEALTH.functions()],
        "serving": SERVING.summary(),
        "requests_recorded": RECORDER.completed,
        "requests_failed": RECORDER.failures,
    }


class _StatsHandler(BaseHTTPRequestHandler):
    """Routes the three read-only endpoints; everything else is 404."""

    server_version = "janus-httpstat/1"

    def do_GET(self):
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            body = prometheus_text().encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/health":
            body = (json.dumps(health_payload(), indent=1) + "\n") \
                .encode("utf-8")
            ctype = "application/json"
        elif path == "/requests":
            body = (json.dumps(RECORDER.snapshot(), indent=1) + "\n") \
                .encode("utf-8")
            ctype = "application/json"
        elif path == "/":
            body = (b"janus-httpstat: /metrics (prometheus), "
                    b"/health (json), /requests (json)\n")
            ctype = "text/plain; charset=utf-8"
        else:
            self.send_error(404, "no such endpoint (try /metrics, "
                                 "/health, /requests)")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):   # quiet by default
        pass


class StatsServer:
    """A daemon-threaded live stats server over the global registry."""

    def __init__(self, host="127.0.0.1", port=0):
        self.host = host
        self._requested_port = port
        self._httpd = None
        self._thread = None

    def start(self):
        if self._httpd is not None:
            return self
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _StatsHandler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="janus-httpstat", daemon=True)
        self._thread.start()
        return self

    @property
    def port(self):
        """The bound port (resolves port=0 to the ephemeral choice)."""
        return self._httpd.server_address[1] if self._httpd else None

    @property
    def url(self):
        return "http://%s:%s" % (self.host, self.port)

    def stop(self):
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


# -- smoke workload + CLI ----------------------------------------------------

def _drive_demo_workload():
    """Populate the registry with a tiny real serving run."""
    import numpy as np

    import repro as R
    from repro import janus
    from repro.observability import set_metrics_enabled
    from repro.serving import Server, ServingConfig

    set_metrics_enabled(True)

    @janus.function(config=janus.JanusConfig(profile_runs=1))
    def predict(x):
        return R.reduce_sum(x * 2.0, axis=1)

    with Server(ServingConfig(max_batch_size=4,
                              batch_linger_s=0.001)) as server:
        server.register("predict", predict)
        rng = np.random.default_rng(0)
        for _ in range(12):
            server.call("predict", R.constant(
                rng.standard_normal((2, 4)).astype(np.float32)))


def _fetch(url, timeout=10.0):
    from urllib.request import urlopen
    with urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def _smoke(server):
    """Scrape /metrics and /health over HTTP; raise on anything empty."""
    _drive_demo_workload()
    metrics = _fetch(server.url + "/metrics")
    samples = [line for line in metrics.splitlines()
               if line and not line.startswith("#")]
    if not samples:
        raise AssertionError("/metrics served no samples")
    health = json.loads(_fetch(server.url + "/health"))
    if health.get("status") != "ok" or not health.get("functions"):
        raise AssertionError("/health missing function health: %r"
                             % health)
    requests = json.loads(_fetch(server.url + "/requests"))
    if not requests.get("completed"):
        raise AssertionError("/requests recorded no requests")
    print("httpstat smoke ok: %d metric samples, %d functions, "
          "%d requests recorded"
          % (len(samples), len(health["functions"]),
             requests["completed"]))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.httpstat",
        description="Serve live janus stats over HTTP "
                    "(/metrics, /health, /requests).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9095,
                        help="0 picks an ephemeral port")
    parser.add_argument(
        "--smoke", action="store_true",
        help="drive a demo workload, scrape /metrics and /health once, "
             "then exit (CI gate)")
    args = parser.parse_args(argv)

    server = StatsServer(host=args.host, port=args.port)
    server.start()
    print("janus-httpstat listening on %s" % server.url, file=sys.stderr)
    try:
        if args.smoke:
            _smoke(server)
            return 0
        threading.Event().wait()     # serve until interrupted
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
