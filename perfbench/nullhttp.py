"""Null query server: the HTTP exchange of ``repro serve`` without it.

It runs the same stdlib stack as ``repro serve`` (a ``ThreadingHTTPServer``
speaking HTTP/1.1 with daemon handler threads) and answers every
``POST /query`` with one fixed JSON document.  ``run.py`` interleaves
exchanges with it among the serve-mix queries, on the same CPU, so
their time is what the host charges right now for a connection, a
handler thread and a JSON round trip, with no program code in it.

    python3 perfbench/nullhttp.py --port 8123

It serves until SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: About the size of a ``metrics`` answer from ``repro serve``.
ANSWER = json.dumps({
    "status": "exact", "tier": "exact", "detail": "", "wall_ms": 0.0,
    "payload": {f"metric_{i}": i / 7.0 for i in range(40)},
}).encode()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (stdlib name)
        length = int(self.headers.get("Content-Length", "0"))
        json.loads(self.rfile.read(length) or b"{}")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(ANSWER)))
        self.end_headers()
        self.wfile.write(ANSWER)

    def log_message(self, *args) -> None:
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    port = parser.parse_args().port
    httpd = _Server(("127.0.0.1", port), _Handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
