"""End-to-end smoke for the measurement service (the ``make serve-smoke`` gate).

Starts ``python -m repro serve`` as a real subprocess on an ephemeral
port, then drives it exactly as a client would: liveness, the
experiment registry, one cold build, the warm cache hit (same ETag,
``x-repro-key``), conditional revalidation (304), one dated request
(``&at=``, answered by a live world advanced to that instant under its
own key), the metrics snapshot (hit/miss counters must reflect the
requests just made), and finally a clean SIGINT shutdown.  Any
deviation is a non-zero exit — this is the one gate that exercises the
CLI entry point, the spawn build pool and the wire protocol together.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.http import http_get  # noqa: E402


def fail(message: str) -> None:
    raise SystemExit(f"serve smoke FAILED: {message}")


async def drive(host: str, port: int, scale: float) -> None:
    status, _headers, body = await http_get(host, port, "/healthz", timeout=30)
    health = json.loads(body)
    if status != 200 or health.get("status") != "ok":
        fail(f"/healthz returned {status}: {body!r}")
    print(f"healthz ok (store: {health.get('store')})")

    status, _headers, body = await http_get(host, port, "/experiments")
    names = [e["name"] for e in json.loads(body)["experiments"]]
    if status != 200 or "fig2" not in names:
        fail(f"/experiments returned {status} with {names}")
    print(f"registry ok ({len(names)} experiments)")

    target = f"/experiments/fig2?scale={scale:g}&seed=1"
    status, cold_headers, cold_body = await http_get(
        host, port, target, timeout=300
    )
    if status != 200:
        fail(f"cold GET {target} returned {status}: {cold_body[:200]!r}")
    payload = json.loads(cold_body)
    if payload.get("experiment") != "fig2" or not payload.get("result"):
        fail(f"cold payload malformed: {sorted(payload)}")
    print(f"cold build ok (key {cold_headers.get('x-repro-key', '?')[:16]})")

    status, warm_headers, warm_body = await http_get(host, port, target)
    if status != 200 or warm_body != cold_body:
        fail(f"warm GET diverged: status {status}")
    if warm_headers.get("etag") != cold_headers.get("etag"):
        fail("warm ETag does not match cold ETag")
    print("warm hit ok (same body, same ETag)")

    status, headers, body = await http_get(
        host, port, target, headers={"if-none-match": cold_headers["etag"]}
    )
    if status != 304 or body:
        fail(f"revalidation returned {status} with {len(body)} body bytes")
    print("conditional GET ok (304, empty body)")

    at = "2021-06-01"
    status, at_headers, at_body = await http_get(
        host, port, f"{target}&at={at}", timeout=300
    )
    if status != 200:
        fail(f"GET {target}&at={at} returned {status}: {at_body[:200]!r}")
    if json.loads(at_body).get("at") != at:
        fail(f"dated payload does not answer for {at}")
    if at_headers.get("x-repro-key") == cold_headers.get("x-repro-key"):
        fail("dated request shares the undated request's key")
    print(f"dated GET ok (at={at}, key {at_headers['x-repro-key'][:16]})")

    status, _headers, body = await http_get(host, port, "/metrics")
    counters = json.loads(body)["metrics"]["counters"]
    if counters.get("serve.misses", 0) < 1 or counters.get("serve.hits", 0) < 1:
        fail(f"metrics counters incomplete: {counters}")
    print(
        f"metrics ok (hits={counters['serve.hits']} "
        f"misses={counters['serve.misses']})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                tmp,
                "--workers",
                "1",
            ],
            cwd=REPO_ROOT,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
            },
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            announce = process.stdout.readline().strip()
            if not announce.startswith("serving on http://"):
                fail(f"unexpected announce line: {announce!r}")
            host, _, port = announce.rsplit("/", 1)[-1].partition(":")
            print(announce)
            asyncio.run(drive(host, int(port), args.scale))
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                fail("server did not shut down on SIGINT")
        if process.returncode != 0:
            fail(f"server exited {process.returncode} after SIGINT")
        print("shutdown ok (SIGINT, exit 0)")
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
