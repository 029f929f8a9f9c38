"""Causal spans over simulated time, and the collector that owns them.

A :class:`Span` is one interval of sim-time with a *parent link*: the
rendezvous send that caused the CTS wait that caused the KNEM cookie
that caused each DMA descriptor.  Because every layer threads its
parent explicitly (packet fields, ``TransferSide.span``,
``DmaRequest.span``, ``NicRequest.span``, ``parent=`` kwargs), one
message's journey through the stack is a single connected tree.

The :class:`ObsCollector` is the per-engine owner of spans and the
:class:`~repro.obs.metrics.MetricsRegistry`.  Disabled (the default),
``collector.enabled`` is ``False`` and every instrumentation site
skips span construction entirely: one attribute check, no allocation.

Span taxonomy (``Span.kind``):

========== ============================================================
kind       meaning / export style
========== ============================================================
``msg``    one point-to-point message (root of the tree)     [async]
``coll``   one collective call on one rank                   [async]
``handshake`` RTS->CTS / transfer->DONE waits                [async]
``cmd``    a device command (KNEM declare/recv, RDMA write)  [async]
``chunk``  one pipelined chunk of an LMT transfer            [async]
``attempt`` one NIC transmission attempt (retries=siblings)  [async]
``copy``   CPU memcpy work on a core                         [sync B/E]
``syscall`` kernel entry/exit cost on a core                 [sync B/E]
``pin``    page pinning (get_user_pages / NIC register)      [sync B/E]
``dma``    one DMA descriptor on an I/OAT channel            [sync B/E]
``wire``   one descriptor's flight time on the fabric        [sync B/E]
``compute`` application compute (stream_access)              [sync B/E]
========== ============================================================

"sync" kinds are leaf *work* — they nest properly per track and are
what :func:`repro.obs.phases.phase_breakdown` sums.  "async" kinds are
structure; they may overlap arbitrarily on a track (a ``Sendrecv``
holds a send and a receive open on one core at once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "SpanContext", "ObsCollector"]

#: The configuration of a run given no ``obs=`` (frozen, so shared).
_DEFAULT_CONFIG = ObsConfig()


@dataclass(frozen=True)
class SpanContext:
    """The durable identity of a span: what children link against.

    Kept separate from :class:`Span` so producers can hand a parent
    reference across process/packet boundaries without exposing the
    mutable record (and so a bounded collector can drop the record
    while links stay meaningful).
    """

    span_id: int
    trace_id: int


@dataclass
class Span:
    """One interval of sim-time in the causal tree.

    ``start``/``end`` are engine sim-time seconds (``end is None``
    while open).  ``track`` names the resource lane for exporters:
    ``core0``..``coreN``, ``dma.ch0``.., ``nic0``.., ``wire``.
    """

    span_id: int
    trace_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    track: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.span_id, self.trace_id)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} (id={self.span_id}) still open")
        return self.end - self.start


def _span_context(parent: Any) -> Optional[SpanContext]:
    """Accept a Span, a SpanContext, or None as a parent reference."""
    if parent is None:
        return None
    if isinstance(parent, SpanContext):
        return parent
    return parent.context


class ObsCollector:
    """Owns a run's spans and metrics; attached to the engine as ``engine.obs``.

    Producers call the pattern::

        span = None
        if obs.enabled:
            span = obs.begin("knem.recv", kind="cmd", track=f"core{core}",
                             parent=parent, nbytes=total)
        ...
        obs.end(span, status="ok")

    ``begin`` returns ``None`` when disabled and ``end``/``annotate``
    no-op on ``None``, so call sites never branch twice.

    Retention: with ``config.max_spans`` set, the *newest* spans are
    kept and :attr:`dropped_spans` counts evictions.  A dropped parent
    orphans its surviving children in the exported tree (the parent
    link still names its id).  Open spans mutate in place, so an open
    span that is bounded out is still closed correctly by ``end`` —
    only its record is gone from :meth:`spans`.
    """

    def __init__(self, config=None, clock: Optional[Callable[[], float]] = None):
        self.config = config if config is not None else _DEFAULT_CONFIG
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.enabled: bool = bool(self.config.spans)
        self.metrics = MetricsRegistry()
        self._spans: deque = deque(maxlen=self.config.max_spans)
        self.dropped_spans = 0
        self._next_span_id = 0
        self._next_trace_id = 0
        self.finalized = False

    # -------------------------------------------------------- attach
    @classmethod
    def attach(cls, obj, clock: Callable[[], float]) -> "ObsCollector":
        """Coerce an ``obs=`` argument into a collector bound to ``clock``.

        Accepts ``None`` (inert collector), an
        :class:`~repro.obs.config.ObsConfig`, or a ready-made
        collector (rebinds its clock to the new engine).
        """
        if isinstance(obj, cls):
            obj.clock = clock
            return obj
        collector = cls(config=obj, clock=clock)
        return collector

    # --------------------------------------------------------- emit
    def begin(
        self,
        name: str,
        kind: str,
        track: str,
        parent: Any = None,
        trace_id: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Open a span now; returns ``None`` when spans are disabled.

        A span with no parent and no explicit ``trace_id`` starts a new
        trace (one trace == one message/collective tree).
        """
        if not self.enabled:
            return None
        ctx = _span_context(parent)
        if trace_id is None:
            trace_id = ctx.trace_id if ctx is not None else self._new_trace_id()
        span = Span(
            span_id=self._new_span_id(),
            trace_id=trace_id,
            parent_id=ctx.span_id if ctx is not None else None,
            name=name,
            kind=kind,
            track=track,
            start=self.clock(),
            attrs=attrs,
        )
        self._store(span)
        return span

    def end(self, span: Optional[Span], **attrs: Any) -> None:
        """Close ``span`` now; no-op on ``None`` (the disabled path)."""
        if span is None:
            return
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        name: str,
        track: str,
        parent: Any = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """A zero-duration marker (retransmit fired, packet delivered)."""
        span = self.begin(name, kind="instant", track=track, parent=parent, **attrs)
        self.end(span)
        return span

    def annotate(self, span: Optional[Span], **attrs: Any) -> None:
        if span is None:
            return
        span.attrs.update(attrs)

    def _new_span_id(self) -> int:
        self._next_span_id += 1
        return self._next_span_id

    def _new_trace_id(self) -> int:
        self._next_trace_id += 1
        return self._next_trace_id

    def _store(self, span: Span) -> None:
        if self._spans.maxlen is not None and len(self._spans) == self._spans.maxlen:
            self.dropped_spans += 1
        self._spans.append(span)

    # ------------------------------------------------------- access
    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def roots(self) -> List[Span]:
        """Spans whose parent is absent from retention (tree roots)."""
        present = {s.span_id for s in self._spans}
        return [s for s in self._spans if s.parent_id not in present]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def trace(self, trace_id: int) -> List[Span]:
        return [s for s in self._spans if s.trace_id == trace_id]

    def find(self, name: str) -> List[Span]:
        return [s for s in self._spans if s.name == name]

    def iter_descendants(self, span: Span) -> Iterator[Span]:
        """Depth-first walk below ``span`` (excluding it)."""
        stack = self.children(span)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children(node))

    # ----------------------------------------------------- finalize
    def finalize(self, world=None) -> "ObsCollector":
        """End-of-run hook: absorb metrics, write configured exports.

        Called by ``run_mpi``/``run_cluster``; idempotent per world
        (absorption replaces values), and the file exports rewrite.
        """
        if self.config.metrics and world is not None:
            self.metrics.absorb_world(world)
            if self.enabled:
                self.metrics.absorb_spans(self._spans)
        if self.dropped_spans:
            self.metrics.counter("obs.dropped_spans").set(self.dropped_spans)
        if self.config.chrome_path:
            self.write_chrome_trace(self.config.chrome_path)
        if self.config.jsonl_path:
            self.write_jsonl(self.config.jsonl_path)
        self.finalized = True
        return self

    # ------------------------------------------------- conveniences
    def chrome_trace(self) -> dict:
        from repro.obs.export import chrome_trace

        return chrome_trace(self.spans)

    def write_chrome_trace(self, path) -> None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self.spans, path)

    def write_jsonl(self, path) -> None:
        from repro.obs.export import write_jsonl

        write_jsonl(self.spans, path)

    def phase_breakdown(self) -> dict:
        from repro.obs.phases import phase_breakdown

        return phase_breakdown(self.spans)
