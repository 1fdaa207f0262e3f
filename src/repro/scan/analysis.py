"""Aggregating scan results into the paper's Section 4.2/4.3 statistics.

Everything here consumes a :class:`ScanResult` plus the population it
was drawn from and produces the numbers the paper reports: per-code
domain counts (the 14-category list), the lame-delegation union, the
broken-nameserver concentration (including the "fixing 20k nameservers
repairs 81% of domains" curve), per-TLD EDE ratios (Figure 1 input),
and the Tranco-rank distribution (Figure 2 input).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dns.ede import EdeCode, describe
from ..dns.rcode import Rcode
from .population import FIX_COVERAGE, FIX_FRACTION, Population, Profile
from .scanner import ScanRecord, ScanResult


@dataclass
class CategoryReport:
    """One row of the Section 4.2 category list."""

    code: int
    description: str
    domains: int
    sample_extra_text: str = ""


@dataclass
class NameserverReport:
    """Section 4.2 item 2: broken-nameserver concentration."""

    unique_broken: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    #: Nameservers hosting more than the (scaled) 100k-domain threshold.
    mega_servers: int = 0
    mega_threshold: int = 0
    #: Smallest number of nameservers whose repair reaches 81% coverage.
    fix_count_for_81pct: int = 0
    fix_fraction_for_81pct: float = 0.0
    #: Coverage achieved by repairing the paper-equivalent top fraction.
    coverage_at_paper_fraction: float = 0.0
    total_lame_domains: int = 0


@dataclass
class ScanAnalysis:
    total_domains: int = 0
    ede_domains: int = 0
    categories: list[CategoryReport] = field(default_factory=list)
    lame_union: int = 0  # |22 ∪ 23|
    noerror_with_ede: int = 0
    nameservers: NameserverReport = field(default_factory=NameserverReport)

    @property
    def ede_rate(self) -> float:
        return self.ede_domains / self.total_domains if self.total_domains else 0.0


def analyze(result: ScanResult, population: Population) -> ScanAnalysis:
    """Produce the full Section 4.2 report."""
    analysis = ScanAnalysis(total_domains=len(result.records))

    sample_texts: dict[int, str] = {}
    code_counts: dict[int, int] = {}
    for record in result.records:
        if record.has_ede:
            analysis.ede_domains += 1
            if record.noerror:
                analysis.noerror_with_ede += 1
        for code in record.ede_codes:
            code_counts[code] = code_counts.get(code, 0) + 1
            if code not in sample_texts and record.extra_texts:
                sample_texts[code] = record.extra_texts[0]
        if {int(EdeCode.NO_REACHABLE_AUTHORITY), int(EdeCode.NETWORK_ERROR)} & set(
            record.ede_codes
        ):
            analysis.lame_union += 1

    analysis.categories = [
        CategoryReport(
            code=code,
            description=describe(code),
            domains=count,
            sample_extra_text=sample_texts.get(code, ""),
        )
        for code, count in sorted(code_counts.items(), key=lambda kv: -kv[1])
    ]
    analysis.nameservers = _nameserver_report(result, population)
    return analysis


def _nameserver_report(result: ScanResult, population: Population) -> NameserverReport:
    report = NameserverReport()
    hosted: dict[int, int] = {}
    for record in result.records:
        if record.ns_index >= 0 and record.has_ede:
            hosted[record.ns_index] = hosted.get(record.ns_index, 0) + 1
    report.unique_broken = len(hosted)
    for ns_index in hosted:
        kind = population.broken_ns[ns_index].kind
        report.by_kind[kind] = report.by_kind.get(kind, 0) + 1

    counts = sorted(hosted.values(), reverse=True)
    total = sum(counts)
    report.total_lame_domains = total
    # The paper's ">100k domains each" threshold, scaled with the universe.
    report.mega_threshold = max(2, round(100_000 / population.config.scale))
    report.mega_servers = sum(1 for c in counts if c > report.mega_threshold)

    if counts and total:
        target = FIX_COVERAGE
        covered = 0
        for index, count in enumerate(counts, start=1):
            covered += count
            if covered / total >= target:
                report.fix_count_for_81pct = index
                report.fix_fraction_for_81pct = index / len(counts)
                break
        paper_top = max(1, round(FIX_FRACTION * len(counts)))
        report.coverage_at_paper_fraction = sum(counts[:paper_top]) / total
    return report


# ---------------------------------------------------------------------------
# Figure 1: EDE-domain ratio per TLD
# ---------------------------------------------------------------------------


@dataclass
class TldRatios:
    gtld_ratios: list[float] = field(default_factory=list)
    cctld_ratios: list[float] = field(default_factory=list)

    def zero_fraction(self, cc: bool) -> float:
        ratios = self.cctld_ratios if cc else self.gtld_ratios
        if not ratios:
            return 0.0
        return sum(1 for r in ratios if r == 0.0) / len(ratios)

    def full_count(self, cc: bool) -> int:
        ratios = self.cctld_ratios if cc else self.gtld_ratios
        return sum(1 for r in ratios if r >= 1.0)


def tld_ratios(result: ScanResult, population: Population) -> TldRatios:
    """Per-TLD ratio of EDE-triggering domains (Figure 1 input)."""
    scanned: dict[str, int] = {}
    flagged: dict[str, int] = {}
    for record in result.records:
        scanned[record.tld] = scanned.get(record.tld, 0) + 1
        if record.has_ede:
            flagged[record.tld] = flagged.get(record.tld, 0) + 1
    ratios = TldRatios()
    for name, tld in population.tlds.items():
        total = scanned.get(name, 0)
        if total == 0:
            continue
        ratio = flagged.get(name, 0) / total
        if tld.is_cc:
            ratios.cctld_ratios.append(ratio)
        else:
            ratios.gtld_ratios.append(ratio)
    return ratios


# ---------------------------------------------------------------------------
# Figure 2: distribution across the Tranco-like ranking
# ---------------------------------------------------------------------------


@dataclass
class TrancoOverlap:
    tranco_size: int = 0
    overlap: int = 0  # ranked domains that triggered EDE
    noerror_overlap: int = 0
    ranks: list[int] = field(default_factory=list)  # ranks of EDE domains

    def rank_cdf(self, points: int = 100) -> list[tuple[float, float]]:
        """CDF of EDE-domain ranks, normalized to [0, 1] on both axes."""
        if not self.ranks or not self.tranco_size:
            return []
        ordered = sorted(self.ranks)
        series = []
        for index, rank in enumerate(ordered, start=1):
            series.append((rank / self.tranco_size, index / len(ordered)))
        if points and len(series) > points:
            step = len(series) / points
            series = [series[int(i * step)] for i in range(points)] + [series[-1]]
        return series

    def uniformity_deviation(self) -> float:
        """Max |CDF(x) - x|: 0 for perfectly even spread (a KS statistic)."""
        return max(
            (abs(y - x) for x, y in self.rank_cdf(points=0)), default=1.0
        )


def tranco_overlap(result: ScanResult) -> TrancoOverlap:
    overlap = TrancoOverlap()
    max_rank = 0
    for record in result.records:
        if record.rank is None:
            continue
        max_rank = max(max_rank, record.rank)
        overlap.tranco_size += 1
        if record.has_ede:
            overlap.overlap += 1
            overlap.ranks.append(record.rank)
            if record.rcode == Rcode.NOERROR:
                overlap.noerror_overlap += 1
    overlap.tranco_size = max(overlap.tranco_size, max_rank)
    return overlap


# ---------------------------------------------------------------------------
# ground-truth cross-check
# ---------------------------------------------------------------------------

#: The EDE codes each profile is expected to trigger through Cloudflare.
EXPECTED_CODES: dict[Profile, frozenset[int]] = {
    Profile.VALID_UNSIGNED: frozenset(),
    Profile.VALID_SIGNED: frozenset(),
    Profile.LAME_UNREACHABLE: frozenset({22}),
    Profile.LAME_REFUSED: frozenset({22, 23}),
    Profile.LAME_TIMEOUT: frozenset({22, 23}),
    Profile.LAME_SERVFAIL: frozenset({22, 23}),
    Profile.SIGNED_LAME: frozenset({9, 22, 23}),
    Profile.PARTIAL_REFUSED: frozenset({23}),
    Profile.STANDBY_KSK: frozenset({10}),
    Profile.DNSKEY_MISSING: frozenset({9}),
    Profile.BOGUS: frozenset({6}),
    Profile.MISMATCHED: frozenset({22, 24}),
    Profile.UNSUPPORTED_ALGO: frozenset({1}),
    Profile.SIG_EXPIRED: frozenset({7}),
    Profile.NSEC_MISSING: frozenset({12}),
    Profile.DS_DIGEST: frozenset({2}),
    Profile.STALE: frozenset({3, 22, 23}),
    Profile.SIG_NOT_YET: frozenset({8}),
    Profile.CACHED_ERROR: frozenset({13}),
    Profile.OTHER_LOOP: frozenset({0}),
}


def pipeline_accuracy(result: ScanResult) -> tuple[float, list[ScanRecord]]:
    """Fraction of domains whose emitted codes match the seeded profile.

    This is the end-to-end health check of the measurement machinery:
    the scanner knows each domain's ground-truth profile, so any record
    whose EDE codes deviate from the profile's expectation indicates a
    pipeline defect, not a finding.
    """
    wrong: list[ScanRecord] = []
    for record in result.records:
        expected = EXPECTED_CODES[Profile(record.profile)]
        if set(record.ede_codes) != expected:
            wrong.append(record)
    total = len(result.records)
    return (1.0 - len(wrong) / total) if total else 1.0, wrong
