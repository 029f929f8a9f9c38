"""``repro-bench service`` — operate the campaign coordinator.

Actions::

    service start   --state-dir results/service --workers 2
    service submit  --state-dir results/service --backends default,knem \\
                    --sizes 64K,256K --seeds 3 --wait --out doc.json
    service status  --state-dir results/service [--sub sub1]
    service watch   --state-dir results/service --sub sub1
    service cancel  --state-dir results/service --sub sub1
    service fetch   --state-dir results/service --sub sub1 --out doc.json
    service worker  --state-dir results/service --name bench-node2

``start`` runs the daemon in the foreground (Ctrl-C or a client
``shutdown`` stops it); every other action discovers the endpoint from
the state directory's ``service.json``.  The spec axes of ``submit``
are exactly the ``campaign`` subcommand's, so the same flags produce
the same trial hashes — resubmitting a spec the fleet already ran is
100 % store hits.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench service",
        description="Long-running campaign coordinator: submit specs "
        "over a socket, shard trials across worker agents, serve many "
        "concurrent clients off one deduplicating result store.",
    )
    p.add_argument(
        "action",
        choices=["start", "submit", "status", "watch", "cancel", "fetch",
                 "worker"],
        help="what to do (see the module examples)",
    )
    p.add_argument(
        "--state-dir",
        metavar="DIR",
        default="results/service",
        help="coordinator state: endpoint file, journals, telemetry "
        "(default: results/service)",
    )
    start = p.add_argument_group("start")
    start.add_argument(
        "--store",
        metavar="URL",
        help="result store backing: a directory path, sqlite:<file> (or "
        "any *.db path), or mem: (default: <state-dir>/results)",
    )
    start.add_argument(
        "--port", type=int, default=0,
        help="listen port (default: ephemeral, advertised in service.json)",
    )
    start.add_argument(
        "--workers", type=int, default=2,
        help="local worker agents the coordinator spawns (default: 2)",
    )
    start.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="per-trial wall-clock watchdog budget in seconds",
    )
    start.add_argument(
        "--retry-budget", type=int, default=3,
        help="deterministic failures before a trial is quarantined",
    )
    start.add_argument(
        "--max-wall", type=float, default=None,
        help="stop the coordinator after this many seconds (CI harness)",
    )
    sub = p.add_argument_group("submit")
    from repro.bench.cli import _add_spec_axes

    _add_spec_axes(p)
    sub.add_argument(
        "--priority",
        choices=["interactive", "bulk"],
        default="bulk",
        help="dispatch class: interactive preempts bulk at the next "
        "trial boundary (default: bulk)",
    )
    sub.add_argument(
        "--client", default="cli",
        help="client identity for per-client metrics (default: cli)",
    )
    sub.add_argument(
        "--wait", action="store_true",
        help="submit: block until the submission settles",
    )
    multi = p.add_argument_group("submit/status/watch/cancel/fetch")
    multi.add_argument("--sub", metavar="ID", help="submission id")
    multi.add_argument(
        "--out", metavar="FILE",
        help="write the fetched campaign document (submit --wait, fetch)",
    )
    multi.add_argument(
        "--interval", type=float, default=0.5,
        help="watch poll interval in seconds (default: 0.5)",
    )
    multi.add_argument(
        "--timeout", type=float, default=300.0,
        help="watch/--wait settle timeout in seconds (default: 300)",
    )
    agent = p.add_argument_group("worker")
    agent.add_argument(
        "--agent-name", default="worker",
        help="agent name (the coordinator tags it with an incarnation)",
    )
    agent.add_argument(
        "--max-trials", type=int, default=None,
        help="detach after this many trials (default: until shutdown)",
    )
    return p


def _format_sub_status(s: dict) -> str:
    return (
        f"{s['sub']} [{s['priority']}] {s['client']}/{s['name']}: "
        f"{s['done']}/{s['trials']} done "
        f"({s['hits']} store hits, {s['leased']} leased, "
        f"{s['pending']} pending, {s['quarantined']} quarantined) "
        f"{s['state']}"
    )


def _run_start(args) -> int:
    from repro.service.coordinator import Coordinator
    from repro.service.stores import open_store

    store = open_store(args.store) if args.store else str(
        Path(args.state_dir) / "results"
    )
    co = Coordinator(
        store,
        args.state_dir,
        port=args.port,
        local_workers=args.workers,
        lease_ttl=args.lease_ttl,
        retry_budget=args.retry_budget,
        name=args.name,
    )
    co.start()
    print(
        f"coordinator {args.name!r} listening on {co.host}:{co.port} "
        f"({co.local_workers} local agents, "
        f"{co.cache.store.kind} store at {co.cache.url}) — "
        f"endpoint in {args.state_dir}/service.json",
        file=sys.stderr,
    )

    # Foreground until stopped: Ctrl-C / SIGTERM / a client "shutdown".
    signal.signal(signal.SIGTERM, lambda *_: co.stop())
    t0 = time.time()
    try:
        while not co.stopping:
            if args.max_wall is not None and time.time() - t0 > args.max_wall:
                print("coordinator max-wall reached; stopping", file=sys.stderr)
                break
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    co.stop()
    print("coordinator stopped", file=sys.stderr)
    return 0


def _run_submit(args) -> int:
    from repro.bench.cli import _campaign_spec
    from repro.bench.store import atomic_write_json
    from repro.service.client import ServiceClient

    spec = _campaign_spec(args)
    client = ServiceClient(args.state_dir, client=args.client)
    reply = client.submit(spec, priority=args.priority)
    print(
        f"submitted {reply['sub']}: {reply['trials']} trials "
        f"({reply['hits']} store hits, {reply['pending']} to run) "
        f"priority={args.priority}"
    )
    if not (args.wait or args.out):
        return 0
    status = client.watch(
        reply["sub"], interval=args.interval, timeout=args.timeout,
        on_update=lambda s: print(_format_sub_status(s), file=sys.stderr),
    )
    if args.out:
        doc = client.fetch(reply["sub"])
        atomic_write_json(args.out, doc)
        print(f"saved campaign document to {args.out}", file=sys.stderr)
    return 0 if status["quarantined"] == 0 else 1


def _run_status(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.state_dir)
    if args.sub:
        print(_format_sub_status(client.status(args.sub)))
        return 0
    doc = client.status()
    store = doc["store"]
    print(
        f"service {doc['name']!r}: up {doc['uptime']:.1f}s | "
        f"{len(doc['submissions'])} submission(s) | "
        f"{doc['inflight']} in flight | agents: "
        f"{', '.join(doc['agents']) or 'none'}"
    )
    print(
        f"store [{store['kind']}]: {store['records']} records | "
        f"{store['hits']} hits | {store['misses']} misses"
    )
    for s in doc["submissions"]:
        print("  " + _format_sub_status(s))
    return 0


def _run_watch(args) -> int:
    from repro.service.client import ServiceClient

    if not args.sub:
        print("service watch needs --sub ID", file=sys.stderr)
        return 2
    client = ServiceClient(args.state_dir)
    status = client.watch(
        args.sub, interval=args.interval, timeout=args.timeout,
        on_update=lambda s: print(_format_sub_status(s)),
    )
    return 0 if status["state"] != "cancelled" else 1


def _run_cancel(args) -> int:
    from repro.service.client import ServiceClient

    if not args.sub:
        print("service cancel needs --sub ID", file=sys.stderr)
        return 2
    reply = ServiceClient(args.state_dir).cancel(args.sub)
    print(f"{reply['sub']}: {reply['state']}")
    return 0


def _run_fetch(args) -> int:
    from repro.bench.store import atomic_write_json
    from repro.service.client import ServiceClient

    if not args.sub:
        print("service fetch needs --sub ID", file=sys.stderr)
        return 2
    doc = ServiceClient(args.state_dir).fetch(args.sub)
    if args.out:
        atomic_write_json(args.out, doc)
        print(f"saved campaign document to {args.out}", file=sys.stderr)
    else:
        json.dump(doc, sys.stdout, indent=2)
        print()
    return 0


def _run_worker(args) -> int:
    from repro.service.protocol import read_endpoint
    from repro.service.worker import agent_loop

    endpoint = read_endpoint(args.state_dir)
    print(
        f"agent {args.agent_name!r} attaching to "
        f"{endpoint['host']}:{endpoint['port']}",
        file=sys.stderr,
    )
    ran = agent_loop(
        endpoint["host"], int(endpoint["port"]), args.agent_name,
        trace_dir=args.trace_dir, max_trials=args.max_trials,
    )
    print(f"agent {args.agent_name!r} detached after {ran} trial(s)",
          file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    from repro.errors import BenchmarkError, ServiceError

    actions = {
        "start": _run_start,
        "submit": _run_submit,
        "status": _run_status,
        "watch": _run_watch,
        "cancel": _run_cancel,
        "fetch": _run_fetch,
        "worker": _run_worker,
    }
    try:
        return actions[args.action](args)
    except (BenchmarkError, ServiceError) as exc:
        print(f"service {args.action}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
