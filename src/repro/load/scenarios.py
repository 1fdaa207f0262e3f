"""The load scenarios, as declarative phase schedules, and their contract.

Every scenario is self-contained: it runs on a fresh world and opens
with an unreported ``warm`` phase that sweeps the hot set (one positive
and one NXDOMAIN name per hot domain) into the resolver cache before
the reported phases begin.  What each scenario must *guarantee* is
stated once, as code, in :func:`contract_rows`; the list below says
what each one *does*.  Reported phases:

``steady``
    Baseline Zipf traffic at a comfortable offered load; the cache
    warms up, nearly everything is answered fresh.
``flash``
    Flash crowd: the arrival rate jumps ~8x and 90% of queries
    concentrate on the hot set — single-flight coalescing and the
    always-served cache path absorb the spike.
``stampede``
    Cache stampede: the clock leaps past every TTL, then a synchronized
    burst re-queries the (now expired) popular names; concurrent lanes
    pile onto the same names and must coalesce rather than multiply
    upstream fetches.
``outage`` / ``recovery``
    The chaos fabric takes the hot set's hosting servers down for the
    whole outage phase (entries are already TTL-expired, i.e.
    stale-eligible), so hot names are answered stale with EDE 3/19 and
    breakers open.  The window then lapses; during ``recovery``
    half-open probes re-close every breaker.
``overload``
    Offered load far beyond the shed threshold: per-client rates a
    multiple of the token-bucket refill, with a tail-heavy mix so
    cache-miss work also presses the in-flight cap.  Sheds are
    REFUSED + Prohibited (18) while cache/stale hits keep flowing.

One extra scenario lives outside the five-scenario suite order:

``shard-outage``
    The cluster recovery drill: a seeded victim shard crashes mid-run,
    the health monitor ejects it from the hash ring, its key range
    fails over to ring successors, and a cold restart plus one
    half-open probe rejoins it.  Needs ``shards >= 2``, which is why it
    is not part of the default (single-resolver) suite order.

``python -m repro.tools.serve --drill SCENARIO`` replays any of the six
and prints the phase table followed by the contract rows.

Phase durations interlock with three constants elsewhere: the wild
zones' 300 s record TTL (expiry jumps are 400 s), the 86 400 s
serve-stale window (everything expired stays stale-eligible), and the
30 s breaker cooldown (the recovery phase is long enough for probes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrivals import OnOffProcess


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of one scenario."""

    name: str
    #: Virtual seconds of arrivals to schedule.
    duration: float
    arrivals: OnOffProcess
    #: Zipf exponent for the base mix (lower = heavier tail).
    zipf_s: float = 1.1
    #: Fraction of queries forced onto the hot set.
    hot_weight: float = 0.3
    #: Virtual-clock jump applied *before* this phase (TTL expiry leaps).
    advance_before: float = 0.0
    #: Install a chaos outage covering this phase's hot hosting servers
    #: for this many seconds (0 = no chaos action).
    outage_seconds: float = 0.0
    #: Shard-level fault applied at this phase's start: ``"crash"``
    #: kills the drill victim shard, ``"restart"`` brings it back with a
    #: cold cache ("" = no shard fault).  Requires a sharded scenario.
    shard_fault: str = ""
    #: Whether this phase appears in the report (warm phases do not).
    report: bool = True


@dataclass(frozen=True)
class ScenarioSpec:
    """A named scenario: warm-up plus its reported phases."""

    name: str
    title: str
    phases: tuple[PhaseSpec, ...] = field(default_factory=tuple)
    #: Minimum shard count this scenario needs (0 = run with whatever
    #: the engine config says).  The shard-outage drill forces a real
    #: cluster even when the suite otherwise runs single-resolver.
    shards: int = 0


def _warm() -> PhaseSpec:
    """The shared unreported warm-up: seed the cache, hot set first."""
    return PhaseSpec(
        name="warm",
        duration=20.0,
        arrivals=OnOffProcess(rate=1.0),
        hot_weight=0.7,
        report=False,
    )


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "steady",
            "Steady state: baseline Zipf mix",
            (
                _warm(),
                PhaseSpec(
                    "steady",
                    duration=90.0,
                    arrivals=OnOffProcess(rate=0.8, mean_on=6.0, mean_off=3.0),
                ),
            ),
        ),
        ScenarioSpec(
            "flash",
            "Flash crowd: hot-name concentration spike",
            (
                _warm(),
                PhaseSpec(
                    "flash",
                    duration=45.0,
                    arrivals=OnOffProcess(rate=6.0, mean_on=3.0, mean_off=1.0),
                    hot_weight=0.9,
                ),
            ),
        ),
        ScenarioSpec(
            "stampede",
            "Cache stampede: synchronized TTL expiry of popular names",
            (
                _warm(),
                PhaseSpec(
                    "stampede",
                    duration=20.0,
                    arrivals=OnOffProcess(rate=5.0),
                    hot_weight=0.95,
                    advance_before=400.0,  # past the 300 s TTLs
                ),
            ),
        ),
        ScenarioSpec(
            "outage",
            "Upstream outage and recovery (chaos fabric)",
            (
                _warm(),
                PhaseSpec(
                    "outage",
                    duration=120.0,
                    arrivals=OnOffProcess(rate=1.0, mean_on=8.0, mean_off=4.0),
                    hot_weight=1.0,
                    advance_before=400.0,  # expired => stale-eligible
                    outage_seconds=120.0,
                ),
                PhaseSpec(
                    "recovery",
                    duration=90.0,
                    arrivals=OnOffProcess(rate=0.8, mean_on=8.0, mean_off=4.0),
                    hot_weight=1.0,
                ),
            ),
        ),
        ScenarioSpec(
            "shard-outage",
            "Shard outage: crash, ejection, failover, cold-restart rejoin",
            (
                _warm(),
                PhaseSpec(
                    "baseline",
                    duration=30.0,
                    arrivals=OnOffProcess(rate=0.8, mean_on=6.0, mean_off=3.0),
                ),
                # The drill victim (a seeded pick from the schedule
                # domain) crashes at this phase's first instant: its
                # key range must detect-eject-reroute while ≥99% of
                # queries keep getting answered.
                PhaseSpec(
                    "shard-crash",
                    duration=60.0,
                    arrivals=OnOffProcess(rate=1.0, mean_on=6.0, mean_off=3.0),
                    hot_weight=0.5,
                    shard_fault="crash",
                ),
                # Cold restart at this phase's start; the 30 s health
                # cooldown elapses mid-phase, the single half-open probe
                # succeeds, and routing returns to the pre-fault map.
                PhaseSpec(
                    "shard-recovery",
                    duration=75.0,
                    arrivals=OnOffProcess(rate=0.8, mean_on=6.0, mean_off=3.0),
                    hot_weight=0.5,
                    shard_fault="restart",
                ),
            ),
            shards=4,
        ),
        ScenarioSpec(
            "overload",
            "Overload: offered load beyond the shed threshold",
            (
                _warm(),
                PhaseSpec(
                    "overload",
                    duration=12.0,
                    arrivals=OnOffProcess(rate=50.0, mean_on=2.0, mean_off=0.5),
                    zipf_s=0.8,
                    hot_weight=0.5,
                ),
            ),
        ),
    )
}

#: Canonical suite order.  The ``shard-outage`` drill is not part of
#: the five-scenario suite — it needs a sharded world.
SCENARIO_ORDER: tuple[str, ...] = (
    "steady",
    "flash",
    "stampede",
    "outage",
    "overload",
)

#: Deterministic per-scenario index for seed derivation: suite
#: scenarios keep their suite position; extras (the drills) follow in
#: sorted order so adding one never renumbers another's schedule.
SCENARIO_INDEX: dict[str, int] = {
    **{name: index for index, name in enumerate(SCENARIO_ORDER)},
    **{
        name: len(SCENARIO_ORDER) + offset
        for offset, name in enumerate(
            sorted(set(SCENARIOS) - set(SCENARIO_ORDER))
        )
    },
}


def contract_rows(phases: list[dict]) -> list[dict]:
    """The degradation contract of one scenario run, one row per guarantee.

    A pure function of the scenario's reported phase rows
    (``LoadEngine.run_scenario(name)["phases"]``): each guarantee is
    checked when the phase it speaks about is present, so the same
    function serves all six scenarios.  Every row is
    ``{"check", "ok", "detail"}``; the drill door exits non-zero when
    any ``ok`` is false and the tier-1 suite asserts through the same
    rows.
    """
    by_name = {phase["phase"]: phase for phase in phases}
    rows: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        rows.append({"check": name, "ok": bool(ok), "detail": detail})

    outage = by_name.get("outage")
    if outage is not None:
        fraction = outage["cached_answered_fraction"]
        check(
            "outage-cached-answered",
            fraction >= 0.9,
            f"hot-name queries answered during outage: {fraction:.1%} (floor 90%)",
        )
        opened = outage["breaker_transitions"].get("open", 0)
        check(
            "outage-breakers-opened",
            opened > 0,
            f"breakers opened during the outage ({opened} transitions)",
        )
    recovery = by_name.get("recovery")
    if recovery is not None:
        check(
            "recovery-breakers-closed",
            recovery["breakers_closed"],
            "every breaker CLOSED by the end of the recovery phase",
        )
    overload = by_name.get("overload")
    if overload is not None:
        check(
            "overload-sheds",
            overload["fractions"]["shed"] > 0.0
            and overload["shed_reasons"].get("rrl", 0) > 0,
            f"overload sheds load via RRL ({overload['shed_reasons']})",
        )
    crash = by_name.get("shard-crash")
    rejoin = by_name.get("shard-recovery")
    if crash is not None and rejoin is not None:
        check(
            "failover-answered",
            crash["answered_fraction"] >= 0.99
            and rejoin["answered_fraction"] >= 0.99,
            "in-window queries answered: "
            f"{crash['answered_fraction']:.1%} during the crash, "
            f"{rejoin['answered_fraction']:.1%} during recovery (floor 99%)",
        )
        check(
            "failover-ejection",
            crash["ejections"] >= 1
            and crash["victim_state"] == "ejected"
            and crash["failover_routed"] > 0,
            f"victim shard {crash['victim']} {crash['victim_state']} after "
            f"{crash['ejections']} ejection(s); "
            f"{crash['failover_routed']} queries rerouted to successors",
        )
        check(
            "failover-blackhole",
            crash["victim_datagrams_in_phase"] == 0
            and crash["datagrams_while_ejected"] == 0
            and rejoin["datagrams_while_ejected"] == 0,
            "datagrams reaching the ejected shard: "
            f"{crash['victim_datagrams_in_phase']} in the crash phase, "
            f"{rejoin['datagrams_while_ejected']} while ejected overall "
            "(must be exactly 0)",
        )
        check(
            "failover-rejoin",
            rejoin["victim_state"] == "healthy"
            and rejoin["probe_successes"] >= 1,
            f"victim {rejoin['victim_state']} after "
            f"{rejoin['probe_successes']} successful half-open probe(s) "
            f"({rejoin['probe_failures']} failed)",
        )
        check(
            "failover-routing-restored",
            rejoin["routing_restored"],
            "post-recovery routing equals the pre-fault map: "
            f"{rejoin['routing_restored']}",
        )
    violations = sum(phase["deadline_violations"] for phase in phases)
    check(
        "no-deadline-violations",
        violations == 0,
        f"answered queries past their client deadline: {violations}",
    )
    return rows
