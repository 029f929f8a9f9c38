"""Worker agents: incarnation-tagged lease consumers over the socket.

One loop serves both agent flavors.  The coordinator spawns *local*
agents as forked processes of its own; operators attach *external*
agents with ``repro-bench service worker`` from any shell on the same
host.  Either way the agent speaks the same three-message protocol —
``attach`` (get an incarnation-tagged worker id), ``next`` (pull one
trial), ``report`` (return the record) — and executes trials through
:func:`repro.campaign.executor.run_trial`, which never raises: a
deterministic failure travels back as a ``status: "failed"`` record
and consumes the submission's retry budget, while an agent that *dies*
(chaos SIGKILL, OOM) just drops its socket, which the coordinator
treats as the death notice and requeues for free.

Agents never touch the result store; the coordinator is its sole
writer.  That keeps the agent a pure function from config to record —
attachable from any process that can reach the socket.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.campaign.executor import POOL_KILL_ENV, run_trial
from repro.errors import ServiceError
from repro.service.protocol import connect, recv_msg, send_msg

__all__ = ["agent_loop"]


def agent_loop(
    host: str,
    port: int,
    name: str = "agent",
    *,
    defuse_chaos: bool = False,
    poll: float = 0.05,
    trace_dir: Optional[str] = None,
    max_trials: Optional[int] = None,
    max_wall: Optional[float] = None,
) -> int:
    """Attach to a coordinator and pull trials until told to stop.

    Returns the number of trials executed.  ``defuse_chaos`` strips the
    ``REPRO_CHAOS_KILL`` trigger from this process — the coordinator
    sets it when respawning a slot the hook already killed, so injected
    deaths happen exactly once per slot instead of forever.
    ``max_trials`` / ``max_wall`` bound the loop for tests and for
    batch-style external agents.
    """
    if defuse_chaos:
        os.environ.pop(POOL_KILL_ENV, None)
    sock, rfile, wfile = connect(host, port, timeout=30.0)
    sock.settimeout(None)  # "next" replies may wait on the coordinator
    t0 = time.time()
    ran = 0
    try:
        send_msg(wfile, {"type": "attach", "agent": name})
        hello = recv_msg(rfile)
        if hello is None or hello.get("type") != "attached":
            raise ServiceError(f"attach refused: {hello!r}")
        worker_id = hello["worker"]
        while True:
            if max_trials is not None and ran >= max_trials:
                break
            if max_wall is not None and time.time() - t0 > max_wall:
                break
            send_msg(wfile, {"type": "next", "worker": worker_id})
            msg = recv_msg(rfile)
            if msg is None or msg["type"] == "shutdown":
                break
            if msg["type"] == "idle":
                time.sleep(poll)
                continue
            if msg["type"] != "trial":
                raise ServiceError(f"unexpected dispatch reply: {msg!r}")
            record = run_trial(msg["config"], trace_dir)
            send_msg(wfile, {
                "type": "report",
                "worker": worker_id,
                "sub": msg["sub"],
                "hash": msg["hash"],
                "attempt": msg["attempt"],
                "token": msg["token"],
                "record": record,
            })
            ack = recv_msg(rfile)
            if ack is None:
                break
            ran += 1
    finally:
        try:
            sock.close()
        except OSError:
            pass
    return ran


def _local_agent_main(
    host: str, port: int, name: str, defuse_chaos: bool,
    trace_dir: Optional[str],
) -> None:
    """Process target for coordinator-spawned local agents."""
    try:
        agent_loop(
            host, port, name,
            defuse_chaos=defuse_chaos, trace_dir=trace_dir,
        )
    except ServiceError:
        # The coordinator went away (shutdown race); nothing to clean
        # up — our leases requeue via the dropped socket.
        pass
