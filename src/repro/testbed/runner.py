"""Driving the testbed: query every case through every vendor profile.

Produces the live 63×7 EDE matrix (the reproduction of Table 4) and the
Section 3.3 consistency statistics derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import ResolverCluster
from ..dns.rcode import Rcode
from ..dns.types import RdataType
from ..obs import Observability
from ..resolver.iterative import EngineConfig
from ..resolver.profiles import ALL_PROFILES, ResolverProfile
from ..resolver.recursive import RecursiveResolver
from .expected import EXPECTED_TABLE4, PROFILE_ORDER
from .infra import Testbed, build_testbed
from .subdomains import ALL_CASES


@dataclass
class CellResult:
    """One (case, profile) measurement."""

    label: str
    profile: str
    rcode: int = Rcode.NOERROR
    ede_codes: tuple[int, ...] = ()
    extra_texts: tuple[str, ...] = ()


@dataclass
class MatrixResult:
    """The full live matrix plus derived statistics."""

    cells: dict[tuple[str, str], CellResult] = field(default_factory=dict)
    profile_names: tuple[str, ...] = PROFILE_ORDER

    def codes(self, label: str, profile: str) -> tuple[int, ...]:
        return self.cells[(label, profile)].ede_codes

    def row(self, label: str) -> dict[str, tuple[int, ...]]:
        return {name: self.codes(label, name) for name in self.profile_names}

    # -- section 3.3 statistics -------------------------------------------------

    def consistent_cases(self) -> list[str]:
        """Cases for which all profiles returned the same codes."""
        out = []
        for case in ALL_CASES:
            row = self.row(case.label)
            if len(set(row.values())) == 1:
                out.append(case.label)
        return out

    def inconsistency_ratio(self) -> float:
        return 1.0 - len(self.consistent_cases()) / len(ALL_CASES)

    def unique_codes(self) -> tuple[int, ...]:
        codes: set[int] = set()
        for cell in self.cells.values():
            codes.update(cell.ede_codes)
        return tuple(sorted(codes))

    def code_frequencies(self) -> dict[int, int]:
        """How many cells returned each INFO-CODE."""
        freq: dict[int, int] = {}
        for cell in self.cells.values():
            for code in cell.ede_codes:
                freq[code] = freq.get(code, 0) + 1
        return dict(sorted(freq.items(), key=lambda kv: -kv[1]))

    # -- comparison with the published table ---------------------------------------

    def diff_against_paper(self) -> list[tuple[str, str, tuple[int, ...], tuple[int, ...]]]:
        """(label, profile, measured, published) for every mismatching cell."""
        mismatches = []
        for case in ALL_CASES:
            expected_row = EXPECTED_TABLE4[case.label]
            for profile in self.profile_names:
                measured = self.codes(case.label, profile)
                published = tuple(sorted(expected_row[profile]))
                if tuple(sorted(measured)) != published:
                    mismatches.append((case.label, profile, measured, published))
        return mismatches

    def agreement_with_paper(self) -> float:
        total = len(ALL_CASES) * len(self.profile_names)
        return 1.0 - len(self.diff_against_paper()) / total


def make_resolvers(
    testbed: Testbed,
    profiles: tuple[ResolverProfile, ...] = ALL_PROFILES,
    obs: "Observability | None" = None,
    shards: int = 1,
    engine_config: "EngineConfig | None" = None,
) -> dict[str, "RecursiveResolver | ResolverCluster"]:
    """One resolver per vendor profile, attached to the testbed fabric.

    ``shards`` > 1 swaps each single resolver for a
    :class:`~repro.cluster.ResolverCluster` of that many shards — the
    shard-count differential suite runs the whole Table 4 matrix this
    way and pins it byte-identical to the flat resolvers.
    """
    if shards > 1:
        return {
            profile.policy.name: ResolverCluster(
                fabric=testbed.fabric,
                profile=profile,
                root_hints=testbed.root_hints,
                trust_anchors=testbed.trust_anchors,
                shards=shards,
                engine_config=engine_config,
                obs=obs,
            )
            for profile in profiles
        }
    return {
        profile.policy.name: RecursiveResolver(
            fabric=testbed.fabric,
            profile=profile,
            root_hints=testbed.root_hints,
            trust_anchors=testbed.trust_anchors,
            engine_config=engine_config,
            obs=obs,
        )
        for profile in profiles
    }


def run_matrix(
    testbed: Testbed | None = None,
    profiles: tuple[ResolverProfile, ...] = ALL_PROFILES,
    obs: "Observability | None" = None,
    shards: int = 1,
    engine_config: "EngineConfig | None" = None,
) -> MatrixResult:
    """Query all 63 cases through all profiles; the paper's core experiment."""
    testbed = testbed or build_testbed()
    resolvers = make_resolvers(
        testbed, profiles, obs=obs, shards=shards, engine_config=engine_config
    )
    result = MatrixResult(profile_names=tuple(p.policy.name for p in profiles))
    for deployed in testbed.cases.values():
        for name, resolver in resolvers.items():
            resolver.flush_caches()
            response = resolver.resolve(
                deployed.query_name, RdataType.A, want_dnssec=False
            )
            result.cells[(deployed.case.label, name)] = CellResult(
                label=deployed.case.label,
                profile=name,
                rcode=response.rcode,
                ede_codes=response.ede_codes,
                extra_texts=tuple(
                    option.extra_text
                    for option in response.extended_errors
                    if option.extra_text
                ),
            )
    return result
