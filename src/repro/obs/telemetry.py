"""The process-wide telemetry handle: spans, metrics, flight dumps.

Design constraints, in priority order:

1. **Bit-identical when disabled.**  Telemetry never touches the
   simulation's randomness or event ordering, and instrumented sites
   guard on :func:`active` (or a captured handle) being ``None`` — the
   disabled path costs one attribute check.
2. **Cheap when enabled.**  The truly hot counters (``RouteCache``,
   simulator event kinds) are *pulled* from their owners at snapshot
   time through registered providers instead of being pushed per hit;
   spans are recorded only at moderate-frequency sites (phases,
   controller iterations, legitimacy probes, store and fabric
   operations).
3. **Everything serializes.**  :meth:`Telemetry.snapshot` and
   :meth:`Telemetry.span_records` produce plain-JSON documents — the
   payload of the store's content-addressed TRACE records and the input
   of the Chrome trace-event exporter.

Wall timestamps are seconds since the handle's creation
(``time.perf_counter`` based), so exported traces start at t=0.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Default flight-recorder depth: the last N executed simulator events
#: kept in the bounded ring and shipped with a dump.
DEFAULT_FLIGHT_CAPACITY = 256


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value metric (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Power-of-two bucketed distribution with exact count/sum/extrema.

    Buckets hold values in ``(2^(i-1), 2^i] * scale`` with ``scale`` the
    smallest bucket bound; good enough for latency distributions without
    per-observation allocation.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "scale")

    def __init__(self, scale: float = 1e-6) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}
        self.scale = scale

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = 0
        bound = self.scale
        while value > bound and index < 64:
            bound *= 2.0
            index += 1
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "scale": self.scale,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


@dataclass
class Span:
    """One timed operation: wall-clock interval plus virtual-time stamp.

    ``t_wall``/``dur_wall`` are seconds relative to the telemetry
    handle's epoch; ``t_sim`` is the simulation clock at the span's
    start (``None`` for host-side spans such as store reads).
    """

    name: str
    cat: str
    t_wall: float
    dur_wall: float
    t_sim: Optional[float] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.cat,
            "t_wall": self.t_wall,
            "dur_wall": self.dur_wall,
            "t_sim": self.t_sim,
            "args": dict(self.args),
        }


def _jsonable(value: Any) -> Any:
    """Fold a mark/arg value to a JSON-representable leaf (named tuples by repr)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if type(value) in (list, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class Telemetry:
    """One recording session: the sink every instrumented layer feeds.

    ``flight_capacity`` bounds the simulator event ring a live
    :class:`~repro.sim.network_sim.NetworkSimulation` keeps while this
    handle is active; the ring's tail becomes a flight dump on
    non-convergence or harness failure.
    """

    def __init__(self, flight_capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if flight_capacity < 1:
            raise ValueError(f"flight_capacity must be >= 1 (got {flight_capacity})")
        self.flight_capacity = flight_capacity
        self.spans: List[Span] = []
        self.marks: List[Tuple[float, Optional[float], str, Any]] = []
        self.flight_dumps: List[Dict[str, Any]] = []
        #: Causal-provenance logs, one per completed simulation run:
        #: ``{"source": str, "events": [[eid, t_sim, kind, note, cause,
        #: tags], ...]}``.  Rows carry only virtual times and seq ids, so
        #: seeded reruns serialize identically.
        self.causal_logs: List[Dict[str, Any]] = []
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._providers: List[Callable[[], Dict[str, int]]] = []
        self._epoch = time.perf_counter()
        #: Absolute unix time of the epoch — lets the trace stitcher place
        #: several processes' relative wall clocks on one global timeline.
        self.epoch_unix = time.time()

    # -- clocks ------------------------------------------------------------

    def now(self) -> float:
        """Wall seconds since this handle was created."""
        return time.perf_counter() - self._epoch

    # -- registry ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    def add_provider(self, provider: Callable[[], Dict[str, int]]) -> None:
        """Register a pull-style metrics source.

        A provider returns ``{counter_name: value}`` at snapshot time;
        values from several providers under one name are summed.  This is
        how the hot layers (``RouteCache``, the simulator's event-kind
        tally) report without paying any per-hit instrumentation cost.
        """
        self._providers.append(provider)

    def counters(self) -> Dict[str, int]:
        """Pushed counters merged with every provider's current values."""
        merged = {name: c.value for name, c in self._counters.items()}
        for provider in self._providers:
            for name, value in provider().items():
                merged[name] = merged.get(name, 0) + int(value)
        return merged

    # -- spans -------------------------------------------------------------

    def record_span(
        self,
        name: str,
        cat: str,
        t_wall: float,
        dur_wall: float,
        t_sim: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append a completed span (the low-overhead site API: callers
        take their own ``now()`` stamps around the timed region)."""
        self.spans.append(
            Span(
                name=name,
                cat=cat,
                t_wall=t_wall,
                dur_wall=dur_wall,
                t_sim=t_sim,
                args=dict(args) if args else {},
            )
        )

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "",
        t_sim: Optional[float] = None,
        **args: Any,
    ) -> Iterator[None]:
        """Context-manager span for coarse sites (phases, CLI commands)."""
        start = self.now()
        try:
            yield
        finally:
            self.record_span(
                name, cat, start, self.now() - start, t_sim=t_sim, args=args
            )

    # -- marks (metrics-recorder milestones) -------------------------------

    def mark(self, t_sim: float, name: str, value: Any = None) -> None:
        """Record a simulation milestone (fault, convergence, ...)."""
        self.marks.append((self.now(), t_sim, name, _jsonable(value)))

    # -- flight recorder ---------------------------------------------------

    def record_flight_dump(
        self,
        reason: str,
        events: List[Tuple[float, Any, str]],
        t_sim: Optional[float] = None,
        source: str = "",
    ) -> Dict[str, Any]:
        """Capture the simulator event ring's tail.

        ``events`` are ``(time, kind, note)`` tuples as the engine traces
        them; enum kinds are folded to their values so the dump is pure
        JSON.
        """
        dump = {
            "reason": reason,
            "source": source,
            "t_wall": self.now(),
            "t_sim": t_sim,
            "n_events": len(events),
            "events": [
                [t, getattr(kind, "value", str(kind)), note]
                for t, kind, note in events
            ],
        }
        self.flight_dumps.append(dump)
        return dump

    # -- causal provenance -------------------------------------------------

    def record_causal_log(
        self, events: List[Tuple], source: str = ""
    ) -> Dict[str, Any]:
        """Capture a simulator's happens-before rows as pure JSON.

        ``events`` are the engine's ``(eid, t_sim, kind, note, cause,
        tags)`` rows; enum kinds fold to their values, tags through
        :func:`_jsonable`.  Goes into the TRACE record's ``causal`` block
        (not the summary snapshot, which predates this field and must stay
        byte-stable).
        """
        log = {
            "source": source,
            "events": [
                [
                    eid,
                    t,
                    getattr(kind, "value", str(kind)),
                    note,
                    cause,
                    _jsonable(tags) if tags else None,
                ]
                for eid, t, kind, note, cause, tags in events
            ],
        }
        self.causal_logs.append(log)
        return log

    # -- serialization -----------------------------------------------------

    def span_records(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    def snapshot(self) -> Dict[str, Any]:
        """The JSON-able state of the whole session: counters (providers
        included), gauges, histograms, milestone marks, flight dumps, and
        a span tally.  This is the TRACE record's summary block."""
        return {
            "counters": dict(sorted(self.counters().items())),
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.as_dict() for name, h in sorted(self._histograms.items())
            },
            "marks": [
                {"t_wall": tw, "t_sim": ts, "name": name, "value": value}
                for tw, ts, name, value in self.marks
            ],
            "flight_dumps": [dict(dump) for dump in self.flight_dumps],
            "n_spans": len(self.spans),
        }


# ---------------------------------------------------------------------------
# active-telemetry context (mirrors repro.store.store.use_store)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The telemetry handle instrumented layers currently feed, if any.

    Hot call sites capture the result once (e.g. at simulation
    construction) and guard on it being ``None``; when no handle is
    active the instrumentation is a single comparison.
    """
    return _ACTIVE


@contextmanager
def use_telemetry(telemetry: Optional[Telemetry]) -> Iterator[Optional[Telemetry]]:
    """Make ``telemetry`` the process-wide active handle for the scope.

    Simulations constructed inside the scope attach their flight ring and
    metric providers to it; store and fabric operations inside the scope
    record spans and counters on it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "Telemetry",
    "active",
    "use_telemetry",
]
