"""Wire protocol: JSONL framing, EOF semantics, endpoint discovery."""

import io
import json
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    connect,
    read_endpoint,
    recv_msg,
    request,
    send_msg,
    write_endpoint,
)


def pipe():
    """An in-memory (rfile, wfile) pair sharing one buffer."""
    buf = io.BytesIO()

    class W(io.BytesIO):
        def flush(self):
            buf.write(self.getvalue())
            self.seek(0)
            self.truncate()

    return buf, W()


def roundtrip(msg):
    rfile, wfile = pipe()
    send_msg(wfile, msg)
    rfile.seek(0)
    return recv_msg(rfile)


def test_send_recv_roundtrip():
    msg = {"type": "status", "nested": {"a": [1, 2.5, None]}, "s": "héllo"}
    assert roundtrip(msg) == msg


def test_one_line_per_message():
    rfile, wfile = pipe()
    send_msg(wfile, {"type": "a"})
    send_msg(wfile, {"type": "b"})
    rfile.seek(0)
    assert recv_msg(rfile)["type"] == "a"
    assert recv_msg(rfile)["type"] == "b"
    assert recv_msg(rfile) is None  # clean EOF


def test_eof_returns_none():
    assert recv_msg(io.BytesIO(b"")) is None


def test_garbage_line_raises():
    with pytest.raises(ServiceError):
        recv_msg(io.BytesIO(b"not json\n"))


def test_message_without_type_raises():
    with pytest.raises(ServiceError):
        recv_msg(io.BytesIO(json.dumps({"no": "type"}).encode() + b"\n"))


def test_non_object_message_raises():
    with pytest.raises(ServiceError):
        recv_msg(io.BytesIO(b"[1, 2]\n"))


def test_embedded_newlines_stay_framed():
    msg = {"type": "report", "error": "line one\nline two"}
    assert roundtrip(msg) == msg  # json escapes the newline


# ----------------------------------------------------------- over a socket
def echo_server():
    """One-connection echo server; returns (port, thread)."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]

    def serve():
        conn, _ = srv.accept()
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        while True:
            msg = recv_msg(rfile)
            if msg is None:
                break
            send_msg(wfile, {"type": "echo", "got": msg})
        for handle in (wfile, rfile, conn, srv):
            handle.close()

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    return port, t


def test_connect_and_request():
    port, t = echo_server()
    sock, rfile, wfile = connect("127.0.0.1", port)
    send_msg(wfile, {"type": "ping"})
    assert recv_msg(rfile) == {"type": "echo", "got": {"type": "ping"}}
    # The descriptor stays open until every file object over it closes;
    # only then does the server read EOF and exit.
    for handle in (wfile, rfile, sock):
        handle.close()
    t.join(timeout=5)
    assert not t.is_alive(), "echo server never saw EOF"


def test_request_one_shot(monkeypatch):
    import repro.service.protocol as protocol

    # Keep request()'s file objects referenced past its return, so the
    # connection closes only if request() closes them itself.
    opened = []

    def connect_and_keep(*args, **kwargs):
        handles = connect(*args, **kwargs)
        opened.append(handles)
        return handles

    monkeypatch.setattr(protocol, "connect", connect_and_keep)
    port, t = echo_server()
    reply = request("127.0.0.1", port, {"type": "ping", "v": PROTOCOL_VERSION})
    assert reply["got"]["v"] == PROTOCOL_VERSION
    _, rfile, wfile = opened[0]
    assert rfile.closed and wfile.closed
    t.join(timeout=5)
    assert not t.is_alive(), "echo server never saw EOF"


def test_connect_refused():
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    srv.close()  # nothing listening here
    with pytest.raises(ServiceError, match="cannot reach coordinator"):
        connect("127.0.0.1", port, timeout=0.5)


# ------------------------------------------------------ endpoint discovery
def test_endpoint_roundtrip(tmp_path):
    write_endpoint(tmp_path, "127.0.0.1", 12345, "svc")
    ep = read_endpoint(tmp_path)
    assert (ep["host"], ep["port"], ep["name"]) == ("127.0.0.1", 12345, "svc")
    assert ep["pid"] > 0


def test_endpoint_missing_names_the_fix(tmp_path):
    with pytest.raises(ServiceError, match="service start"):
        read_endpoint(tmp_path / "nowhere")


def test_endpoint_overwrite_is_atomic(tmp_path):
    write_endpoint(tmp_path, "127.0.0.1", 1, "old")
    write_endpoint(tmp_path, "127.0.0.1", 2, "new")
    assert read_endpoint(tmp_path)["port"] == 2
    assert [p.name for p in tmp_path.iterdir()] == ["service.json"]
