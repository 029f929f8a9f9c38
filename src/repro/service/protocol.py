"""The service wire protocol: newline-delimited JSON over TCP.

Every message is one JSON object on one line (one parseable unit per
line, nothing to resynchronize).
The coordinator listens on localhost with an ephemeral port and
advertises the endpoint in ``<state_dir>/service.json``, so clients and
worker agents discover it from the state directory alone.

Message vocabulary (``type`` field):

======================  =============================================
client -> coordinator
----------------------------------------------------------------------
``ping``                liveness + identity probe
``submit``              a campaign spec (``spec`` dict, ``priority``,
                        ``client``) -> ``submitted`` with the sub id
``status``              one submission (``sub``) or the whole service
``fetch``               the finished campaign document of ``sub``
``cancel``              stop dispatching ``sub``'s pending trials
``shutdown``            drain-free coordinator stop
----------------------------------------------------------------------
agent -> coordinator
----------------------------------------------------------------------
``attach``              join the fleet (``agent`` name) ->
                        ``attached`` with the incarnation-tagged
                        worker id
``next``                request work -> ``trial`` / ``idle`` /
                        ``shutdown``
``report``              a finished trial record (``sub``, ``hash``,
                        ``token``, ``record``) -> ``ack``
======================  =============================================

Replies carry ``type`` of ``error`` (with an ``error`` string) when a
request cannot be honored; transport-level garbage raises
:class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path
from typing import Optional

from repro.bench.store import atomic_write_json
from repro.errors import ServiceError

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_HOST",
    "send_msg",
    "recv_msg",
    "connect",
    "request",
    "write_endpoint",
    "read_endpoint",
    "ENDPOINT_FILE",
]

PROTOCOL_VERSION = 1

#: The coordinator serves the local fleet; nothing binds beyond loopback.
DEFAULT_HOST = "127.0.0.1"

#: Endpoint discovery file written into the coordinator's state dir.
ENDPOINT_FILE = "service.json"


def send_msg(wfile, msg: dict) -> None:
    """Write one message as a single line and flush it."""
    wfile.write((json.dumps(msg, sort_keys=True) + "\n").encode())
    wfile.flush()


def recv_msg(rfile) -> Optional[dict]:
    """Read one message; ``None`` on a clean EOF (peer closed)."""
    line = rfile.readline()
    if not line:
        return None
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"undecodable protocol line: {exc}") from None
    if not isinstance(msg, dict) or "type" not in msg:
        raise ServiceError(f"protocol message without a type: {msg!r}")
    return msg


def connect(host: str, port: int, timeout: Optional[float] = 10.0):
    """Open a connection; returns ``(sock, rfile, wfile)``."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ServiceError(
            f"cannot reach coordinator at {host}:{port}: {exc}"
        ) from None
    # The timeout above bounds connect; reads block until the reply
    # (trial execution happens coordinator-side of a fetch, never here).
    sock.settimeout(timeout)
    return sock, sock.makefile("rb"), sock.makefile("wb")


def request(host: str, port: int, msg: dict, timeout: Optional[float] = 30.0) -> dict:
    """One-shot request/response on a fresh connection."""
    sock, rfile, wfile = connect(host, port, timeout=timeout)
    try:
        send_msg(wfile, msg)
        reply = recv_msg(rfile)
    finally:
        # The file objects hold the descriptor open until they close
        # too: only then does the peer see EOF.
        for handle in (wfile, rfile, sock):
            try:
                handle.close()
            except OSError:
                pass
    if reply is None:
        raise ServiceError(
            f"coordinator at {host}:{port} closed the connection without "
            f"replying to {msg.get('type')!r}"
        )
    return reply


def write_endpoint(state_dir: str | Path, host: str, port: int, name: str) -> Path:
    """Advertise a running coordinator in ``<state_dir>/service.json``."""
    path = Path(state_dir) / ENDPOINT_FILE
    atomic_write_json(path, {
        "version": PROTOCOL_VERSION,
        "kind": "service-endpoint",
        "name": name,
        "host": host,
        "port": int(port),
        "pid": os.getpid(),
    })
    return path


def read_endpoint(state_dir: str | Path) -> dict:
    """The advertised endpoint, or raise with a start hint."""
    path = Path(state_dir) / ENDPOINT_FILE
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ServiceError(
            f"no {ENDPOINT_FILE} in {state_dir!r} — is a coordinator "
            "running there? (repro-bench service start)"
        ) from None
    except json.JSONDecodeError as exc:
        raise ServiceError(f"unreadable {path}: {exc}") from None
    if not isinstance(doc, dict) or "host" not in doc or "port" not in doc:
        raise ServiceError(f"malformed endpoint file {path}: {doc!r}")
    return doc
