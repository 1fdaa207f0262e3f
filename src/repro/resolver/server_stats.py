"""Per-server quality memory: SRTT, timeouts, and lameness penalties.

Real resolvers survive flaky authorities because they *remember*: BIND
keeps a smoothed RTT per server address and tries the best one first;
both BIND and Unbound maintain a lame/dead-server cache so a known-bad
address is deprioritized for a while instead of burning a timeout on
every resolution.  :class:`ServerStatsBook` gives the iterative engine
the same memory, driven entirely by the virtual clock so hardened runs
stay deterministic.

The engine ranks by this book only while a chaos policy is installed
on the fabric; otherwise it keeps referral order.  The ranking is
conservative too: servers the book knows nothing about keep their
referral order (stable sort).

The knobs follow BIND's adb.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.clock import Clock

#: EWMA weight of a new RTT sample: srtt = (1-alpha)*srtt + alpha*rtt.
RTT_ALPHA = 0.3
#: Optimistic starting SRTT for a never-tried server, seconds.
INITIAL_SRTT = 0.05
#: A timeout multiplies the server's SRTT by this factor…
TIMEOUT_FACTOR = 2.0
#: …capped here, so one bad streak cannot exile a server forever.
SRTT_CAP = 8.0
#: How long a lame/dead mark deprioritizes a server, seconds.
LAME_TTL = 900.0
#: Idle SRTT decay: every ``DECAY_INTERVAL`` seconds without an
#: update, effective SRTT shrinks by ``DECAY_FACTOR`` so unused
#: servers are eventually retried (BIND does the same).
DECAY_INTERVAL = 30.0
DECAY_FACTOR = 0.98


@dataclass
class ServerStat:
    """Everything the book remembers about one server address."""

    srtt: float
    last_update: float
    successes: int = 0
    timeouts: int = 0
    failures: int = 0  # lame marks: bad RCODEs, unreachable
    lame_until: float = 0.0


class ServerStatsBook:
    """SRTT-smoothed, lameness-aware server ranking for one engine.

    An optional ``listener`` (duck-typed: ``on_success(server)`` /
    ``on_failure(server)``) mirrors every observation — this is how the
    resilience layer's circuit breakers ride on the same signal stream
    without the engine calling two books everywhere.
    """

    def __init__(self, clock: Clock, listener=None):
        self._clock = clock
        self.listener = listener
        self._stats: dict[str, ServerStat] = {}

    # -- observations ------------------------------------------------------------

    def _entry(self, server: str) -> ServerStat:
        stat = self._stats.get(server)
        if stat is None:
            stat = ServerStat(
                srtt=INITIAL_SRTT, last_update=self._clock.now()
            )
            self._stats[server] = stat
        return stat

    def note_rtt(self, server: str, rtt: float) -> None:
        stat = self._entry(server)
        stat.srtt = (1 - RTT_ALPHA) * stat.srtt + RTT_ALPHA * max(0.0, rtt)
        stat.successes += 1
        stat.last_update = self._clock.now()
        if self.listener is not None:
            self.listener.on_success(server)

    def note_timeout(self, server: str) -> None:
        stat = self._entry(server)
        stat.srtt = min(SRTT_CAP, stat.srtt * TIMEOUT_FACTOR)
        stat.timeouts += 1
        stat.last_update = self._clock.now()
        if self.listener is not None:
            self.listener.on_failure(server)

    def note_lame(self, server: str, duration: float | None = None) -> None:
        """Penalty-box a server that answered lame (REFUSED, NOTAUTH,
        SERVFAIL, FORMERR) or proved unreachable."""
        stat = self._entry(server)
        stat.failures += 1
        stat.lame_until = max(
            stat.lame_until,
            self._clock.now() + (LAME_TTL if duration is None else duration),
        )
        stat.last_update = self._clock.now()
        if self.listener is not None:
            self.listener.on_failure(server)

    # -- queries -----------------------------------------------------------------

    def is_lame(self, server: str, now: float | None = None) -> bool:
        stat = self._stats.get(server)
        if stat is None:
            return False
        return stat.lame_until > (self._clock.now() if now is None else now)

    def effective_srtt(self, server: str, now: float | None = None) -> float:
        """SRTT with idle decay applied (never mutates the entry)."""
        stat = self._stats.get(server)
        if stat is None:
            return INITIAL_SRTT
        now = self._clock.now() if now is None else now
        idle = max(0.0, now - stat.last_update)
        intervals = idle / DECAY_INTERVAL
        if intervals <= 0:
            return stat.srtt
        decayed = stat.srtt * (DECAY_FACTOR ** intervals)
        return max(decayed, INITIAL_SRTT * 0.1)

    def order(self, servers: list[str], now: float | None = None) -> list[str]:
        """Best-server-first ordering: non-lame before lame, then by
        effective SRTT.  The sort is stable, so servers with identical
        quality keep their referral order."""
        if len(servers) < 2:
            return list(servers)
        now = self._clock.now() if now is None else now
        return sorted(
            servers,
            key=lambda s: (self.is_lame(s, now), self.effective_srtt(s, now)),
        )

    def snapshot(self) -> dict[str, ServerStat]:
        """A shallow copy for inspection/reporting."""
        return dict(self._stats)

    def __len__(self) -> int:
        return len(self._stats)
