"""Per-layer spans, taken from outside.

Nothing under ``src/`` knows it is being traced: :class:`Tracer`
replaces *public* callables of the layers (class attributes and
module-level functions) with timing wrappers for the duration of a
traced run and puts the originals back afterwards.  A span is
``(name, start, end, parent, op)``; spans are kept in memory in flat
``array('d')`` buffers, one per thread, and reduced when the run ends.

Self time
    A span's *self time* is its duration minus the durations of its
    direct children.  Children in the span's own thread nest and never
    overlap, so that is exactly "the part of the interval its child
    spans cover".  The wrapper's own cost (two clock reads and an array
    append, ~1 us) lands partly in the span and partly in its parent's
    self time; ``trace.overhead_share`` says how much it adds up to.

Lanes
    ``VirtualLanePool.run`` fans work out to lane threads that take
    strict turns.  A parked lane keeps its spans open while other lanes
    run, so child intervals from different threads overlap and cannot
    simply be subtracted.  Instead ``lane_wait``/``lane_advance`` spans
    are *waits*: their self time is reported as time waited, never as
    time busy, and the pool span's self time is its duration minus the
    busy self time of every span beneath it in any thread — the
    scheduling and hand-off cost nobody else accounts for.  Pools do
    not nest in this codebase and the reduction does not support it.
"""

from __future__ import annotations

import itertools
import sys
import threading
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

FIELDS = 5  # name, start, end, parent, op
_SLOT = 1 << 32  # span id = thread slot * _SLOT + index within the thread
NO_PARENT = -1.0

#: Span names whose self time is time *waited*, not time busy.
WAIT_NAMES = frozenset({"net.lane_wait"})
#: Span names whose children run in other threads.
POOL_NAMES = frozenset({"net.lane_run"})


@dataclass
class SpanTable:
    """Spans of one phase of a run, all threads merged.

    Column ``parent`` holds a row index or -1.  Within a thread, rows
    are in the order the spans were opened, so a parent precedes its
    same-thread children.
    """

    names: list[str]
    name: list[int] = field(default_factory=list)
    start: list[float] = field(default_factory=list)
    end: list[float] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    op: list[int] = field(default_factory=list)
    thread: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.name)

    @classmethod
    def from_rows(cls, rows) -> "SpanTable":
        """Build from ``(name, start, end, parent_row, op, thread)`` rows."""
        table = cls([])
        for name, start, end, parent, op, thread in rows:
            if name not in table.names:
                table.names.append(name)
            table.name.append(table.names.index(name))
            table.start.append(start)
            table.end.append(end)
            table.parent.append(parent)
            table.op.append(op)
            table.thread.append(thread)
        return table

    def rows(self):
        """``(name, start, end, parent_row, op, thread)`` per span."""
        for i in range(len(self)):
            yield (
                self.names[self.name[i]], self.start[i], self.end[i],
                self.parent[i], self.op[i], self.thread[i],
            )


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    wait_s: float = 0.0


def reduce_self_times(table: SpanTable) -> dict[str, LayerTotals]:
    """Per span name: call count, busy self time and waited time."""
    n = len(table)
    duration = [table.end[i] - table.start[i] for i in range(n)]
    own = list(duration)
    is_wait = [table.names[k] in WAIT_NAMES for k in table.name]
    is_pool = [table.names[k] in POOL_NAMES for k in table.name]
    #: nearest pool span above each span, through any thread
    pool_above = [-1] * n
    for i in range(n):
        parent = table.parent[i]
        if parent < 0:
            continue
        if table.thread[parent] == table.thread[i]:
            own[parent] -= duration[i]
            pool_above[i] = parent if is_pool[parent] else pool_above[parent]
        else:
            pool_above[i] = parent  # only a pool span has children elsewhere
    if any(is_pool):
        beneath = [0.0] * n
        for i in range(n):
            if pool_above[i] >= 0 and not is_wait[i]:
                beneath[pool_above[i]] += own[i]
        for i in range(n):
            if is_pool[i]:
                own[i] = duration[i] - beneath[i]
    totals = {name: LayerTotals() for name in table.names}
    for i in range(n):
        entry = totals[table.names[table.name[i]]]
        entry.calls += 1
        if is_wait[i]:
            entry.wait_s += own[i]
        else:
            entry.busy_s += own[i]
    return totals


def root_time(table: SpanTable) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(
        table.end[i] - table.start[i]
        for i in range(len(table))
        if table.parent[i] < 0
    )


class _ThreadState:
    __slots__ = ("slot", "buf", "stack", "n", "op")

    def __init__(self, slot: int):
        self.slot = slot
        self.buf = array("d")
        self.stack: list[float] = []
        self.n = 0
        self.op = -1.0


class Tracer:
    """Installs span wrappers on public callables and collects spans."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ops = itertools.count()
        self._pool_span = NO_PARENT
        self._patches: list[tuple[object, str, object]] = []
        #: False while the benchmark does work of its own (making
        #: inputs, checking outputs) through the wrapped callables.
        self.recording = True
        #: Plain call counters of the ``counting`` wrappers.
        self.counts: dict[str, int] = {}
        #: Calls of a ``hits=True`` wrapper that returned non-None.
        self.hits: dict[str, int] = {}
        #: Receivers (``self``) seen by ``collect=True`` wrappers.
        self.seen: dict[int, object] = {}

    # -- recording -----------------------------------------------------------

    def _new_state(self) -> _ThreadState:
        with self._lock:
            state = _ThreadState(len(self._states))
            self._states.append(state)
        self._tls.state = state
        return state

    def wrap(self, fn, name: str, *, op_root=False, hits=False, collect=False, pool=False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``op_root`` starts a new op id when none is open in the thread;
        ``hits`` counts non-None results; ``collect`` remembers the
        receiver; ``pool`` makes the span the parent of the spans other
        threads open while it runs.
        """
        if name not in self.names:
            self.names.append(name)
        name_id = float(self.names.index(name))
        tls, new_state, clock = self._tls, self._new_state, perf_counter
        tracer = self
        if hits:
            self.hits.setdefault(name, 0)

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            try:
                state = tls.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            n = state.n
            state.n = n + 1
            opened_op = op_root and state.op < 0
            if opened_op:
                state.op = float(next(tracer._ops))
            if collect:
                tracer.seen.setdefault(id(args[0]), args[0])
            span_id = float(state.slot * _SLOT + n)
            parent = stack[-1] if stack else tracer._pool_span
            stack.append(span_id)
            if pool:
                tracer._pool_span = span_id
            buf = state.buf
            buf.extend((name_id, clock(), 0.0, parent, state.op))
            try:
                result = fn(*args, **kwargs)
                if hits and result is not None:
                    tracer.hits[name] += 1
                return result
            finally:
                buf[n * FIELDS + 2] = clock()
                stack.pop()
                if pool:
                    tracer._pool_span = NO_PARENT
                if opened_op:
                    state.op = -1.0

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, name: str):
        """Wrap ``fn`` to count calls only — for bodies so small that a
        timing wrapper would cost more than what it measures."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def call(self, name: str, fn, *args, **kwargs):
        """A span around a call the benchmark itself makes into a layer."""
        return self.wrap(fn, name)(*args, **kwargs)

    @contextmanager
    def paused(self):
        """No spans for what the benchmark does on its own account."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- patching ------------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, *, count_only=False, **flags):
        """Replace ``cls.attr`` (method, classmethod or staticmethod)."""
        raw = cls.__dict__[attr]

        def make(fn):
            return self.counting(fn, name) if count_only else self.wrap(fn, name, **flags)

        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def patch_function(self, module, attr: str, name: str, **flags):
        """Replace a module-level function everywhere ``repro`` bound it
        (``from x import f`` copies the reference into the importer)."""
        original = getattr(module, attr)
        replacement = self.wrap(original, name, **flags)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def span_count(self) -> int:
        return sum(state.n for state in self._states)

    def drain(self) -> SpanTable:
        """Merge every thread's spans into one table and forget them.

        Call only between phases, when no span is open: span ids do not
        survive a drain.
        """
        with self._lock:
            states = [state for state in self._states if state.n]
        table = SpanTable(list(self.names))
        offsets: dict[int, int] = {}
        total = 0
        for state in states:
            if state.stack:
                raise RuntimeError("drain() while a span is open")
            offsets[state.slot] = total
            total += state.n
        for state in states:
            buf = state.buf
            table.name.extend(int(v) for v in buf[0::FIELDS])
            table.start.extend(buf[1::FIELDS])
            table.end.extend(buf[2::FIELDS])
            for value in buf[3::FIELDS]:
                if value < 0:
                    table.parent.append(-1)
                else:
                    slot, index = divmod(int(value), _SLOT)
                    table.parent.append(offsets[slot] + index)
            table.op.extend(int(v) for v in buf[4::FIELDS])
            table.thread.extend([state.slot] * state.n)
            state.buf = array("d")
            state.n = 0
        return table


class NullTracer:
    """Stands in when tracing is off: calls go straight through."""

    enabled = False

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def uninstall(self) -> None:
        pass

    def paused(self):
        return nullcontext()
