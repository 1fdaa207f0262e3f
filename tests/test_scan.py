"""End-to-end scan on the session's small universe, plus the analysis."""

import pytest

from repro.dns.rcode import Rcode
from repro.scan.analysis import (
    EXPECTED_CODES,
    analyze,
    pipeline_accuracy,
    tld_ratios,
    tranco_overlap,
)
from repro.scan.population import NOERROR_PROFILES, Profile


class TestScanRecords:
    def test_one_record_per_domain(self, small_scan, small_population):
        assert len(small_scan.records) == len(small_population.domains)

    def test_pipeline_accuracy_is_total(self, small_scan):
        accuracy, wrong = pipeline_accuracy(small_scan)
        assert accuracy == 1.0, [
            (w.name, Profile(w.profile).name, w.ede_codes) for w in wrong[:10]
        ]

    def test_valid_domains_resolve_clean(self, small_scan):
        for record in small_scan.records:
            if record.profile in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED):
                assert record.rcode == Rcode.NOERROR
                assert not record.has_ede

    def test_noerror_profiles_keep_noerror(self, small_scan):
        for record in small_scan.records:
            if Profile(record.profile) in NOERROR_PROFILES:
                assert record.rcode == Rcode.NOERROR, Profile(record.profile)

    def test_servfail_profiles_servfail(self, small_scan):
        for record in small_scan.records:
            profile = Profile(record.profile)
            if profile in (Profile.LAME_REFUSED, Profile.BOGUS, Profile.SIG_EXPIRED):
                assert record.rcode == Rcode.SERVFAIL, profile

    def test_extra_texts_present_for_cloudflare_categories(self, small_scan):
        texts_by_profile = {}
        for record in small_scan.records:
            if record.extra_texts:
                texts_by_profile.setdefault(Profile(record.profile), record.extra_texts)
        lame = texts_by_profile.get(Profile.LAME_REFUSED, ())
        assert any("rcode=REFUSED" in t for t in lame)
        loop = texts_by_profile.get(Profile.OTHER_LOOP, ())
        assert any("iteration limit exceeded" in t for t in loop)

    def test_to_record_shape(self, small_scan):
        record = small_scan.records[0].to_record()
        assert {"name", "rcode", "ede", "extra_text"} <= set(record)

    def test_queries_counted(self, small_scan):
        assert small_scan.queries_sent > len(small_scan.records)


class TestAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self, small_scan, small_population):
        return analyze(small_scan, small_population)

    def test_category_counts_match_expected_codes(
        self, analysis, small_scan, small_population
    ):
        expected: dict[int, int] = {}
        for profile, count in small_population.counts_by_profile().items():
            for code in EXPECTED_CODES[Profile(profile)]:
                expected[code] = expected.get(code, 0) + count
        measured = {c.code: c.domains for c in analysis.categories}
        assert measured == expected

    def test_top_categories_are_lame_delegation(self, analysis):
        assert [c.code for c in analysis.categories[:2]] == [22, 23]

    def test_ede_domains_counted_once(self, analysis, small_population):
        misconfigured = sum(
            count
            for profile, count in small_population.counts_by_profile().items()
            if Profile(profile) not in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
        )
        assert analysis.ede_domains == misconfigured

    def test_rate(self, analysis):
        assert 0.03 < analysis.ede_rate < 0.12

    def test_lame_union(self, analysis, small_population):
        lame_profiles = {
            Profile.LAME_UNREACHABLE, Profile.LAME_REFUSED, Profile.LAME_TIMEOUT,
            Profile.LAME_SERVFAIL, Profile.SIGNED_LAME, Profile.PARTIAL_REFUSED,
            Profile.MISMATCHED, Profile.STALE,
        }
        expected = sum(
            count
            for profile, count in small_population.counts_by_profile().items()
            if Profile(profile) in lame_profiles
        )
        assert analysis.lame_union == expected

    def test_noerror_with_ede(self, analysis):
        assert analysis.noerror_with_ede > 0

    def test_nameserver_report(self, analysis, small_population):
        report = analysis.nameservers
        assert report.unique_broken <= len(small_population.broken_ns)
        assert report.by_kind.get("refused", 0) >= 1
        assert 0 < report.coverage_at_paper_fraction <= 1.0
        assert report.fix_count_for_81pct >= 1

    def test_category_descriptions(self, analysis):
        by_code = {c.code: c.description for c in analysis.categories}
        assert by_code[22] == "No Reachable Authority"
        assert by_code[23] == "Network Error"


class TestFigures:
    def test_tld_ratios(self, small_scan, small_population):
        ratios = tld_ratios(small_scan, small_population)
        assert ratios.gtld_ratios and ratios.cctld_ratios
        assert all(0.0 <= r <= 1.0 for r in ratios.gtld_ratios)
        # fully-broken TLDs show up as ratio 1.0, and zero-EDE TLDs exist
        assert ratios.full_count(cc=False) >= 1
        assert ratios.zero_fraction(cc=False) > 0.0

    def test_tranco_overlap(self, small_scan):
        overlap = tranco_overlap(small_scan)
        assert overlap.tranco_size > 0
        assert 0 <= overlap.overlap <= overlap.tranco_size
        assert len(overlap.ranks) == overlap.overlap

    def test_rank_cdf_monotone(self, small_scan):
        overlap = tranco_overlap(small_scan)
        series = overlap.rank_cdf()
        ys = [y for _, y in series]
        assert ys == sorted(ys)
