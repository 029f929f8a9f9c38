"""The wall-clock flight recorder: profiling the harness itself.

Everything else in :mod:`repro.obs` observes *simulated* time; this
module observes the *simulator* — where the host's wall-clock
microseconds go while the event loop runs.  The ROADMAP's "10x faster
engine" item is blocked on exactly this attribution: engine dispatch
vs extent-LRU cache ops vs per-chunk copy accounting.

Design constraints (the same contract as spans and the tracer):

* **off = free** — with profiling disabled every instrumentation site
  pays one attribute load and a falsy branch, allocates nothing, and
  never calls ``perf_counter``;
* **on = harmless** — wall timing never feeds back into simulated
  decisions, so timelines, trial content hashes, and every sim-time
  metric are byte-identical with profiling on or off (pinned by
  ``tests/obs/test_prof.py`` and the campaign determinism tests);
* **exclusive attribution** — the profiler keeps a frame stack and
  subtracts child time from parents, so per-key seconds are *self*
  time and subsystem shares sum to the profiled total instead of
  double-counting nested work (a cache sweep inside a copy chunk
  inside an engine dispatch counts once, as cache time).

Keys are dotted, and the first dotted component is the *subsystem*:
``engine.dispatch.<handler>`` (one key per callback qualname),
``cache.access`` / ``cache.peek`` / ``cache.invalidate`` /
``cache.downgrade``, ``copy.chunk`` / ``copy.move`` /
``copy.stream``.  Anything else rolls up into ``other``.

Published metrics live under the ``wall.*`` namespace (see
:data:`repro.obs.metrics.WALL_PREFIX`): they are *expected* to differ
between runs and hosts, and every determinism comparison must exclude
them — :meth:`~repro.obs.metrics.MetricsRegistry.sim_snapshot` is the
documented way to do that.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Optional

__all__ = ["WallProfiler", "SUBSYSTEMS"]

#: Subsystem roll-up order for wall-share reporting.  Keys whose first
#: dotted component is not listed here are attributed to ``other``.
SUBSYSTEMS = ("engine", "cache", "copy")


class WallProfiler:
    """Low-overhead exclusive wall-time accumulator with a frame stack.

    Frames are plain lists ``[key, path, t0, child_seconds]`` — the
    cheapest mutable record Python has.  ``push`` returns the frame
    (or ``None`` when disabled) and ``pop`` closes it; call sites guard
    with ``if prof.enabled:`` so the disabled path never constructs
    anything.
    """

    __slots__ = (
        "enabled",
        "clock",
        "seconds",
        "calls",
        "collapsed",
        "_stack",
        "_fn_keys",
    )

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = bool(enabled)
        self.clock = clock
        #: Exclusive (self) wall seconds per key.
        self.seconds: dict[str, float] = {}
        #: Call counts per key.
        self.calls: dict[str, int] = {}
        #: Collapsed-stack self seconds per ``;``-joined frame path
        #: (flamegraph food; see :meth:`collapsed_lines`).
        self.collapsed: dict[str, float] = {}
        self._stack: list[list] = []
        self._fn_keys: dict = {}

    # -------------------------------------------------------- frames
    def push(self, key: str) -> Optional[list]:
        """Open a frame for ``key``; returns the frame to pass to
        :meth:`pop` (``None`` when disabled)."""
        if not self.enabled:
            return None
        stack = self._stack
        path = f"{stack[-1][1]};{key}" if stack else key
        frame = [key, path, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def pop(self, frame: Optional[list]) -> None:
        """Close ``frame``; no-op on ``None`` (the disabled path)."""
        if frame is None:
            return
        key, path, t0, child = frame
        elapsed = self.clock() - t0
        self._stack.pop()
        self_seconds = elapsed - child
        if self_seconds < 0.0:  # clock granularity jitter
            self_seconds = 0.0
        self.seconds[key] = self.seconds.get(key, 0.0) + self_seconds
        self.calls[key] = self.calls.get(key, 0) + 1
        self.collapsed[path] = self.collapsed.get(path, 0.0) + self_seconds
        if self._stack:
            self._stack[-1][3] += elapsed

    def handler_key(self, fn) -> str:
        """The dispatch key for an engine callback (memoized).

        The memo is keyed by the handler's code object, after unwrapping
        ``functools.partial`` (``.func``) and bound methods
        (``__func__``).  A fresh partial, bound method or closure per
        scheduled callback therefore shares one entry per callback
        *kind*, and the memo pins no process or event.
        """
        f = fn.func if type(fn) is partial else fn
        f = getattr(f, "__func__", f)
        code = getattr(f, "__code__", f)
        try:
            key = self._fn_keys.get(code)
        except TypeError:  # unhashable callable — build the key each time
            return f"engine.dispatch.{type(fn).__name__}"
        if key is None:
            qualname = getattr(f, "__qualname__", None) or type(fn).__name__
            key = f"engine.dispatch.{qualname}"
            self._fn_keys[code] = key
        return key

    # ------------------------------------------------------- reports
    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def subsystem_seconds(self) -> dict[str, float]:
        """Exclusive seconds rolled up by first dotted key component;
        unknown subsystems land in ``other``."""
        out = {name: 0.0 for name in SUBSYSTEMS}
        out["other"] = 0.0
        for key, secs in self.seconds.items():
            head = key.split(".", 1)[0]
            out[head if head in out else "other"] += secs
        return out

    def shares(self, wall_seconds: Optional[float] = None) -> dict[str, float]:
        """Per-subsystem wall shares.

        Relative to ``wall_seconds`` when given (the workload's total
        wall time, so un-instrumented code shows up as ``other``);
        otherwise relative to the profiled total.  All-zero input
        yields all-zero shares.
        """
        subs = self.subsystem_seconds()
        profiled = sum(subs.values())
        denom = wall_seconds if wall_seconds else profiled
        if denom <= 0.0:
            return {name: 0.0 for name in subs}
        if wall_seconds:
            subs["other"] += max(0.0, wall_seconds - profiled)
        return {name: secs / denom for name, secs in subs.items()}

    def publish(self, metrics) -> None:
        """Write the recording into a
        :class:`~repro.obs.metrics.MetricsRegistry` under ``wall.*``.

        Per-key ``wall.<key>.seconds`` / ``wall.<key>.calls`` counters,
        subsystem totals ``wall.subsystem.<name>.seconds``, and the
        grand total ``wall.total_seconds`` — all host-dependent by
        nature and therefore excluded from
        :meth:`~repro.obs.metrics.MetricsRegistry.sim_snapshot`.
        """
        for key, secs in self.seconds.items():
            metrics.counter(f"wall.{key}.seconds").set(secs)
            metrics.counter(f"wall.{key}.calls").set(self.calls[key])
        for name, secs in self.subsystem_seconds().items():
            metrics.counter(f"wall.subsystem.{name}.seconds").set(secs)
        metrics.counter("wall.total_seconds").set(self.total_seconds)

    def collapsed_lines(self, prefix: str = "") -> list[str]:
        """Flamegraph collapsed-stack lines: ``path count`` with the
        count in integer microseconds of *self* time (sorted by path so
        output is stable).  ``prefix`` prepends a root frame (e.g. the
        workload name) to every path."""
        out = []
        for path in sorted(self.collapsed):
            us = int(round(self.collapsed[path] * 1e6))
            full = f"{prefix};{path}" if prefix else path
            out.append(f"{full} {us}")
        return out

    def merge(self, other: "WallProfiler") -> "WallProfiler":
        """Fold another recording into this one (suite aggregation)."""
        for key, secs in other.seconds.items():
            self.seconds[key] = self.seconds.get(key, 0.0) + secs
            self.calls[key] = self.calls.get(key, 0) + other.calls[key]
        for path, secs in other.collapsed.items():
            self.collapsed[path] = self.collapsed.get(path, 0.0) + secs
        return self

    def to_dict(self) -> dict:
        """JSON/pickle-friendly recording (crosses the worker-pool
        boundary; feed back in with :meth:`merge_dict`)."""
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "collapsed": dict(self.collapsed),
        }

    def merge_dict(self, payload: dict) -> "WallProfiler":
        """Fold a :meth:`to_dict` recording into this one."""
        for key, secs in payload.get("seconds", {}).items():
            self.seconds[key] = self.seconds.get(key, 0.0) + secs
        for key, count in payload.get("calls", {}).items():
            self.calls[key] = self.calls.get(key, 0) + count
        for path, secs in payload.get("collapsed", {}).items():
            self.collapsed[path] = self.collapsed.get(path, 0.0) + secs
        return self
