"""Scriptable fault injection for the network fabric.

The paper's EDE codes are observations of *failure* — timeouts,
unreachable glue, flapping authorities (Section 3.3 groups 6-7, the
wild scan's No Reachable Authority / Network Error categories) — so a
credible reproduction needs failure itself to be a first-class,
testable dimension.  A :class:`ChaosPolicy` attaches to a
:class:`~repro.net.fabric.NetworkFabric` and perturbs deliveries with:

* time-windowed :class:`Outage`\\ s and periodic :class:`LinkFlap`\\ s,
  both driven by the *virtual* clock;
* per-target :class:`Impairment`\\ s: probabilistic loss, jittered
  latency, duplicated datagrams, reordered (stale) responses, corrupted
  response bytes, and a REFUSED-after-N-qps rate limit.

Every probabilistic decision comes from one seeded RNG consumed in a
fixed order, so a chaos run is exactly replayable: same seed, same
schedule, same virtual-clock trace ⇒ byte-identical event streams.
When no policy is installed the fabric's behaviour (including its RNG
stream) is untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, Sequence, Union

#: What a fault targets: ``None`` (everything), an exact address, a
#: ``"43.*"``-style prefix, or an arbitrary predicate over addresses.
TargetSpec = Union[None, str, Callable[[str], bool]]


def target_matches(spec: TargetSpec, address: str) -> bool:
    if spec is None:
        return True
    if callable(spec):
        return bool(spec(address))
    if spec.endswith("*"):
        return address.startswith(spec[:-1])
    return address == spec


@dataclass(frozen=True)
class Outage:
    """A hard down-window: matching targets time out while active.

    ``start``/``end`` are seconds *since the policy was attached* (i.e.
    virtual-scan time, not absolute epoch seconds).
    """

    start: float
    end: float
    target: TargetSpec = None

    def active(self, elapsed: float) -> bool:
        return self.start <= elapsed < self.end


@dataclass(frozen=True)
class LinkFlap:
    """Periodic up/down cycling of matching targets.

    The link is up for the first ``up_fraction`` of every ``period``
    seconds (shifted by ``phase``) and times out for the rest.
    """

    period: float
    up_fraction: float = 0.5
    target: TargetSpec = None
    phase: float = 0.0

    def up(self, elapsed: float) -> bool:
        if self.period <= 0:
            return True
        position = ((elapsed + self.phase) % self.period) / self.period
        return position < self.up_fraction


@dataclass(frozen=True)
class Impairment:
    """Probabilistic per-delivery damage for matching targets."""

    target: TargetSpec = None
    #: Fraction of datagrams silently dropped (resolver sees a timeout).
    loss_rate: float = 0.0
    #: Max extra one-way latency, uniform in [0, latency_jitter].
    latency_jitter: float = 0.0
    #: Fraction of queries delivered twice (stateful servers notice).
    duplicate_rate: float = 0.0
    #: Fraction of responses swapped with the previous response from the
    #: same target — the resolver observes a mismatched message ID.
    reorder_rate: float = 0.0
    #: Fraction of responses with flipped bytes (parse errors/FORMERR).
    corrupt_rate: float = 0.0
    #: When set, queries beyond this many per virtual second per target
    #: are answered REFUSED — the classic authoritative rate limiter.
    rate_limit_qps: float | None = None


class ChaosAction(Enum):
    DELIVER = auto()
    DROP = auto()  # silent loss / outage → the sender times out
    REFUSE = auto()  # rate limiter synthesizes a REFUSED response


@dataclass
class ChaosDecision:
    action: ChaosAction = ChaosAction.DELIVER
    extra_latency: float = 0.0
    duplicate: bool = False


@dataclass
class ChaosStats:
    decisions: int = 0
    outage_drops: int = 0
    flap_drops: int = 0
    datagrams_lost: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0
    rate_limited: int = 0
    extra_latency_total: float = 0.0


class ChaosPolicy:
    """One deterministic fault schedule, installable on a fabric."""

    def __init__(
        self,
        seed: int = 0,
        impairments: Sequence[Impairment] = (),
        outages: Sequence[Outage] = (),
        flaps: Sequence[LinkFlap] = (),
        epoch: float | None = None,
    ):
        self.seed = seed
        self.impairments = list(impairments)
        self.outages = list(outages)
        self.flaps = list(flaps)
        self._epoch = epoch
        self._rng = random.Random(seed)
        #: last response seen per target, for reorder swaps
        self._held: dict[str, bytes] = {}
        #: per-target rate-limit window: address -> [window_start, count]
        self._qps: dict[str, list[float]] = {}
        self.stats = ChaosStats()

    @classmethod
    def uniform(cls, seed: int = 0, target: TargetSpec = None, **knobs) -> "ChaosPolicy":
        """One impairment applied to ``target`` (default: everything)."""
        return cls(seed=seed, impairments=[Impairment(target=target, **knobs)])

    # -- lifecycle ----------------------------------------------------------------

    def attach(self, clock) -> None:
        """Pin the schedule's t=0 to the moment of installation."""
        if self._epoch is None:
            self._epoch = clock.now()

    def elapsed(self, now: float) -> float:
        return now - (self._epoch if self._epoch is not None else now)

    # -- per-delivery hooks --------------------------------------------------------

    def on_send(self, address: str, now: float) -> ChaosDecision:
        """Decide the fate of one query about to be delivered."""
        self.stats.decisions += 1
        elapsed = self.elapsed(now)
        decision = ChaosDecision()

        for outage in self.outages:
            if outage.active(elapsed) and target_matches(outage.target, address):
                self.stats.outage_drops += 1
                decision.action = ChaosAction.DROP
                return decision
        for flap in self.flaps:
            if target_matches(flap.target, address) and not flap.up(elapsed):
                self.stats.flap_drops += 1
                decision.action = ChaosAction.DROP
                return decision

        for impairment in self.impairments:
            if not target_matches(impairment.target, address):
                continue
            if impairment.rate_limit_qps is not None:
                window = self._qps.setdefault(address, [now, 0.0])
                if now - window[0] >= 1.0:
                    window[0], window[1] = now, 0.0
                window[1] += 1
                if window[1] > impairment.rate_limit_qps:
                    self.stats.rate_limited += 1
                    decision.action = ChaosAction.REFUSE
                    return decision
            if impairment.loss_rate and self._rng.random() < impairment.loss_rate:
                self.stats.datagrams_lost += 1
                decision.action = ChaosAction.DROP
                return decision
            if impairment.latency_jitter:
                extra = self._rng.random() * impairment.latency_jitter
                decision.extra_latency += extra
                self.stats.extra_latency_total += extra
            if impairment.duplicate_rate and self._rng.random() < impairment.duplicate_rate:
                self.stats.duplicated += 1
                decision.duplicate = True
        return decision

    def on_response(self, address: str, wire: bytes) -> bytes:
        """Perturb a response wire (reorder swap, byte corruption)."""
        for impairment in self.impairments:
            if not target_matches(impairment.target, address):
                continue
            if impairment.reorder_rate and self._rng.random() < impairment.reorder_rate:
                held = self._held.get(address)
                self._held[address] = wire
                if held is not None:
                    self.stats.reordered += 1
                    wire = held
            if impairment.corrupt_rate and self._rng.random() < impairment.corrupt_rate:
                self.stats.corrupted += 1
                mutated = bytearray(wire)
                for _ in range(1 + self._rng.randrange(3)):
                    position = self._rng.randrange(len(mutated))
                    mutated[position] ^= 1 << self._rng.randrange(8)
                wire = bytes(mutated)
        return wire
