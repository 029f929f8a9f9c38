"""Per-layer wall-time attribution, measured from outside the program.

:class:`Tracer` replaces chosen functions and methods of ``repro`` with
timing wrappers; nothing under ``src/`` changes.  The wrappers share
one exclusive frame stack, so a layer's ``self_s`` excludes the time of
wrapped calls made beneath it and the self times of one call tree sum
to its outer total.  A call that returns a generator gets back a proxy
generator that times each ``send``/``throw`` into the original, so a
simulated process is charged only for the body time between its
yields, never for the simulated waits in between.

:meth:`Tracer.install` rebinds a module-level function in every loaded
module that holds the identical object (``cpu_copy`` is imported by
name into a dozen modules) and a method on its class;
:meth:`Tracer.uninstall` puts the originals back.

:func:`probes` lists the wrapped entry points and :func:`layer_metrics`
turns the counts into the ``per_layer`` metrics of ``BENCHMARK.json``
(which holds their units).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import GeneratorType

import repro.campaign.executor as executor
import repro.campaign.stats as stats
import repro.kernel.copy as kernel_copy
import repro.mpi.coll  # noqa: F401 - imports the collective modules
import repro.mpi.coll.hier  # noqa: F401 - which import this one lazily
from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec
from repro.campaign.stats import _quantile
from repro.core.lmt import LmtBackend
from repro.core.policy import LmtPolicy
from repro.hw.cache import ExtentLRUCache
from repro.hw.coherence import CoherenceDomain
from repro.hw.dma import DmaEngine
from repro.hw.machine import Machine
from repro.hw.memory import MemorySystem
from repro.kernel.knem import KnemDevice
from repro.kernel.pipes import Pipe
from repro.mpi.communicator import Communicator
from repro.mpi.nemesis import Endpoint
from repro.mpi.world import MpiWorld
from repro.sim.engine import Engine
from repro.sim.resources import ProcessorSharing

#: Extent-stack depth is sampled at every n-th cache access: counting
#: through the public ``iter_extents`` costs O(extents) per sample.
EXTENT_SAMPLE_EVERY = 8


class Stat:
    """What the wrappers of one layer (or one entry point) accumulated."""

    __slots__ = ("calls", "self_s", "counts", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}
        self.samples: list[float] = []

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)


class Tracer:
    """Exclusive-time wrappers over one shared frame stack.

    Each stack frame holds the time its wrapped children took; a
    wrapper charges its stat ``elapsed - children`` and adds
    ``elapsed`` to its parent's frame.  ``on_result(stat, args,
    result)`` hooks count work from the arguments and the result (for a
    generator, its return value); their own run time is kept out of
    every layer and summed in :attr:`hook_s`.

    :class:`repro.obs.prof.WallProfiler` keeps the same kind of stack
    but is not used here, for two reasons.  Its ``push`` builds a
    collapsed-path string for every frame, which made a wrapped
    two-level call tree cost 1.5-2.3 times as much host time as this
    stack does (2-vCPU Xeon, 2.1 GHz, Python 3.11), and the wrappers
    run millions of times a round.  And it counts a call per frame,
    whereas a generator proxy opens a frame at every resumption but
    should count one call.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.hook_s = 0.0
        self._stack: list[list[float]] = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # ------------------------------------------------------------ wrappers
    def wrap(self, fn, name: str, on_result=None):
        """A timing wrapper around ``fn`` charging the stat ``name``."""
        stat = self.stat(name)
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                stack[-1][0] += elapsed
            if type(result) is GeneratorType:
                proxy = self._proxy(result, stat, args, on_result)
                # Process names default to the generator's name.
                proxy.__name__ = result.__name__
                proxy.__qualname__ = result.__qualname__
                return proxy
            if on_result is not None:
                self._hook(on_result, stat, args, result)
            return result

        return timed

    def _proxy(self, gen, stat: Stat, args: tuple, on_result):
        """Drive ``gen`` like ``yield from`` would, timing each step."""
        clock, stack = self.clock, self._stack
        value, error = None, None
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                result = stop.value
                break
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.self_s += elapsed - frame[0]
                stack[-1][0] += elapsed
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, like yield from
                value, error = None, exc
        if on_result is not None:
            self._hook(on_result, stat, args, result)
        return result

    def _hook(self, on_result, stat: Stat, args: tuple, result) -> None:
        t0 = self.clock()
        on_result(stat, args, result)
        spent = self.clock() - t0
        self.hook_s += spent
        self._stack[-1][0] += spent

    # -------------------------------------------------------- installation
    def install(self, targets) -> None:
        """Wrap every ``(stat name, owner, attribute, on_result)`` target.

        ``owner`` is a class (the method is replaced on it) or a module
        (the function is replaced wherever a loaded module holds it).
        """
        for name, owner, attr, on_result in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(original, name, on_result))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, on_result)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is None:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def attributed_s(self) -> float:
        """Self time charged to all stats together."""
        return sum(s.self_s for s in self.stats.values())


# ------------------------------------------------------------------ hooks
def _executed(stat, args, result):
    if result:
        stat.add("executed", 1)


def _load(stat, args, result):
    stat.samples.append(args[0].load)


def _lines(stat, args, result):
    stat.add("lines", result.lines)


def _useful_peek(stat, args, result):
    if result:
        stat.add("useful", 1)


def _access(stat, args, result):
    stat.add("hits", result.hits)
    stat.add("lines", result.lines)
    if stat.calls % EXTENT_SAMPLE_EVERY == 0:
        stat.samples.append(sum(1 for _ in args[0].iter_extents()))


def _dma_bytes(stat, args, result):
    stat.add("bytes", args[1].nbytes)


def _returned_bytes(stat, args, result):
    stat.add("bytes", result)


def _cache_hit(stat, args, result):
    if result is not None:
        stat.add("hits", 1)


def _public_functions(owner):
    """Public plain functions defined in ``owner`` (a class or module)."""
    return [
        attr
        for attr, value in vars(owner).items()
        if not attr.startswith("_")
        and inspect.isfunction(value)
        and (isinstance(owner, type) or value.__module__ == owner.__name__)
    ]


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def probes() -> list[tuple]:
    """The wrapped entry points, as :meth:`Tracer.install` targets."""
    targets = [
        ("sim.engine.step", Engine, "step", _executed),
        ("sim.engine.schedule", Engine, "schedule", None),
        ("sim.resources", ProcessorSharing, "request", _load),
        # The completion timer, looked up on the class when scheduled.
        ("sim.resources", ProcessorSharing, "_complete", None),
        ("hw.coherence", CoherenceDomain, "read", _lines),
        ("hw.coherence", CoherenceDomain, "write", _lines),
        ("hw.coherence.dma", CoherenceDomain, "dma_read", None),
        ("hw.coherence.dma", CoherenceDomain, "dma_write", None),
        ("hw.cache.peek", ExtentLRUCache, "peek", _useful_peek),
        ("hw.cache.access", ExtentLRUCache, "access", _access),
        ("hw.cache.invalidate", ExtentLRUCache, "invalidate", None),
        ("hw.cache.downgrade", ExtentLRUCache, "downgrade", None),
        ("hw.dma", DmaEngine, "submit", _dma_bytes),
        ("hw.memory", MemorySystem, "dram_transfer", None),
        ("hw.memory", MemorySystem, "fsb_transfer", None),
        ("hw.machine.init", Machine, "__init__", None),
        ("mpi.world.init", MpiWorld, "__init__", None),
        ("kernel.copy", kernel_copy, "cpu_copy", _returned_bytes),
        ("kernel.copy.stream", kernel_copy, "stream_access", _returned_bytes),
        ("core.policy", LmtPolicy, "select", None),
        ("campaign.spec", CampaignSpec, "trials", None),
        ("campaign.executor", executor, "run_campaign", None),
        ("campaign.cache.get", ResultCache, "get", _cache_hit),
        ("campaign.cache.put", ResultCache, "put", None),
        ("campaign.stats", stats, "aggregate", None),
    ]
    targets += [
        ("kernel.pipes", Pipe, m, None)
        for m in ("writev", "vmsplice", "readv", "detach")
    ]
    targets += [("kernel.knem", KnemDevice, m, None) for m in ("send_cmd", "recv_cmd")]
    hooks = ("sender_start", "sender_on_cts", "receiver_prepare", "receiver_transfer")
    targets += [
        ("core.lmt", cls, m, None)
        for cls in _subclasses(LmtBackend)
        if cls.__module__.startswith("repro.core.")
        for m in hooks
        if m in cls.__dict__
    ]
    targets += [
        ("mpi.communicator", Communicator, m, None)
        for m in _public_functions(Communicator)
    ]
    targets += [
        ("mpi.nemesis", Endpoint, m, None)
        for m in ("dispatch", "post_recv", "iprobe")
    ]
    coll = [m for name, m in sys.modules.items() if name.startswith("repro.mpi.coll.")]
    targets += [
        ("mpi.coll", module, fn, None)
        for module in coll
        for fn in _public_functions(module)
    ]
    return targets


# ----------------------------------------------------------------- metrics
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(samples: list[float], q: float) -> float:
    return _quantile(sorted(samples), q) if samples else 0.0


def layer_metrics(
    tracer: Tracer, rounds: int, traced_round_s: float, untraced_round_s: float
) -> dict[str, float]:
    """The ``per_layer`` metrics of ``rounds`` traced rounds.

    Counts and times are per round.  ``traced_round_s`` is the mean
    traced round wall and ``untraced_round_s`` the wall of one round
    without wrappers.
    """
    s = tracer.stat
    step, schedule = s("sim.engine.step"), s("sim.engine.schedule")
    peek, access = s("hw.cache.peek"), s("hw.cache.access")
    resources, get = s("sim.resources"), s("campaign.cache.get")
    totals = {
        "sim.engine.events": step.count("executed"),
        "sim.engine.self_s": step.self_s + schedule.self_s,
        "hw.coherence.lines": s("hw.coherence").count("lines"),
        "hw.coherence.dma_calls": s("hw.coherence.dma").calls,
        "hw.coherence.dma_self_s": s("hw.coherence.dma").self_s,
        "hw.dma.bytes": s("hw.dma").count("bytes"),
        "hw.machine.init_s": s("hw.machine.init").self_s,
        "mpi.world.init_s": s("mpi.world.init").self_s,
        "kernel.copy.bytes": s("kernel.copy").count("bytes"),
        "kernel.copy.stream_bytes": s("kernel.copy.stream").count("bytes"),
        "kernel.copy.stream_self_s": s("kernel.copy.stream").self_s,
        "campaign.spec.self_s": s("campaign.spec").self_s,
        "campaign.executor.self_s": s("campaign.executor").self_s,
        "campaign.stats.self_s": s("campaign.stats").self_s,
        "other.self_s": traced_round_s * rounds - tracer.attributed_s() - tracer.hook_s,
    }
    for layer in (
        "sim.resources", "hw.coherence", "hw.cache.peek", "hw.cache.access",
        "hw.cache.invalidate", "hw.cache.downgrade", "hw.dma", "hw.memory",
        "kernel.copy", "kernel.pipes", "kernel.knem", "core.lmt", "core.policy",
        "mpi.communicator", "mpi.nemesis", "mpi.coll",
        "campaign.cache.get", "campaign.cache.put",
    ):
        totals[f"{layer}.calls"] = s(layer).calls
        totals[f"{layer}.self_s"] = s(layer).self_s
    m = {name: value / rounds for name, value in totals.items()}
    m.update({
        "sim.engine.useful_ratio": _ratio(step.count("executed"), schedule.calls),
        "sim.engine.us_per_event": _ratio(1e6 * untraced_round_s, m["sim.engine.events"]),
        "sim.resources.load_mean": _ratio(sum(resources.samples), len(resources.samples)),
        "hw.cache.peek.useful_ratio": _ratio(peek.count("useful"), peek.calls),
        "hw.cache.access.hit_ratio": _ratio(access.count("hits"), access.count("lines")),
        "hw.cache.extents_p50": _percentile(access.samples, 0.5),
        "hw.cache.extents_p90": _percentile(access.samples, 0.9),
        "campaign.cache.hit_ratio": _ratio(get.count("hits"), get.calls),
        "trace.overhead_ratio": _ratio(traced_round_s, untraced_round_s),
    })
    return m
