"""Synthetic population: calibration, TLD structure, NS pool, Tranco."""

import hashlib
import random
from itertools import accumulate
from types import SimpleNamespace

import pytest

from repro.scan import population as population_module
from repro.scan.population import (
    NOMINAL_COUNTS,
    NOMINAL_TOTAL_DOMAINS,
    PopulationConfig,
    Profile,
    generate_population,
    population_config_for,
)


@pytest.fixture(scope="module")
def population(small_population_module):
    return small_population_module


@pytest.fixture(scope="module")
def small_population_module():
    return generate_population(PopulationConfig(scale=100_000, rare_threshold=10, seed=4))


class TestCalibration:
    def test_nominal_counts_solve_the_paper_system(self):
        """The per-profile nominal counts must reproduce the paper's
        per-code counts exactly (see the derivation in population.py)."""
        c = NOMINAL_COUNTS
        code22 = (
            c[Profile.LAME_UNREACHABLE] + c[Profile.LAME_REFUSED]
            + c[Profile.LAME_TIMEOUT] + c[Profile.LAME_SERVFAIL]
            + c[Profile.SIGNED_LAME] + c[Profile.MISMATCHED] + c[Profile.STALE]
        )
        assert code22 == 13_965_865
        code23 = (
            c[Profile.LAME_REFUSED] + c[Profile.LAME_TIMEOUT]
            + c[Profile.LAME_SERVFAIL] + c[Profile.SIGNED_LAME]
            + c[Profile.PARTIAL_REFUSED] + c[Profile.STALE]
        )
        assert code23 == 11_647_551
        assert c[Profile.STANDBY_KSK] == 2_746_604
        assert c[Profile.SIGNED_LAME] + c[Profile.DNSKEY_MISSING] == 296_643
        assert c[Profile.BOGUS] == 82_465
        assert c[Profile.MISMATCHED] == 12_268
        assert c[Profile.UNSUPPORTED_ALGO] == 8_751
        assert c[Profile.SIG_EXPIRED] == 2_877
        assert c[Profile.NSEC_MISSING] == 1_980
        assert c[Profile.DS_DIGEST] == 62
        assert c[Profile.STALE] == 32
        assert c[Profile.SIG_NOT_YET] == 29
        assert c[Profile.CACHED_ERROR] == 8
        assert c[Profile.OTHER_LOOP] == 7

    def test_union_near_17_7m(self):
        total = sum(NOMINAL_COUNTS.values())
        assert 17_700_000 <= total <= 17_900_000

    def test_lame_union_is_14_8m(self):
        c = NOMINAL_COUNTS
        union = (
            c[Profile.LAME_UNREACHABLE] + c[Profile.LAME_REFUSED]
            + c[Profile.LAME_TIMEOUT] + c[Profile.LAME_SERVFAIL]
            + c[Profile.SIGNED_LAME] + c[Profile.MISMATCHED] + c[Profile.STALE]
            + c[Profile.PARTIAL_REFUSED]
        )
        assert abs(union - 14_800_000) < 20_000

    def test_ede_rate_near_paper(self):
        assert sum(NOMINAL_COUNTS.values()) / NOMINAL_TOTAL_DOMAINS == pytest.approx(
            0.0587, abs=0.002
        )


class TestScaling:
    def test_scaled_bulk(self):
        config = PopulationConfig(scale=1000)
        assert config.scaled(1_000_000) == 1000

    def test_rare_kept_absolute(self):
        config = PopulationConfig(scale=1000)
        assert config.scaled(32) == 32
        assert config.scaled(7) == 7

    def test_total_domains(self):
        assert PopulationConfig(scale=1000).total_domains == 303_000

    def test_minimum_one(self):
        config = PopulationConfig(scale=10**9, rare_threshold=0)
        assert config.scaled(500) == 1


class TestGeneratedUniverse:
    def test_deterministic(self):
        config = PopulationConfig(scale=100_000, rare_threshold=10, seed=4)
        a = generate_population(config)
        b = generate_population(config)
        assert [d.name for d in a.domains[:50]] == [d.name for d in b.domains[:50]]

    def test_seed_changes_universe(self, population):
        other = generate_population(
            PopulationConfig(scale=100_000, rare_threshold=10, seed=5)
        )
        assert [d.name for d in other.domains[:50]] != [
            d.name for d in population.domains[:50]
        ]

    def test_total_size(self, population):
        expected = population.config.total_domains
        assert abs(len(population.domains) - expected) / expected < 0.05

    def test_tld_count(self, population):
        assert len(population.tlds) == 1475
        cc = sum(1 for t in population.tlds.values() if t.is_cc)
        assert cc == 283

    def test_profile_counts_match_config(self, population):
        counts = population.counts_by_profile()
        config = population.config
        for profile, nominal in NOMINAL_COUNTS.items():
            assert counts.get(profile, 0) == config.scaled(nominal), profile

    def test_thirteen_fully_broken_tlds(self, population):
        broken = [t for t in population.tlds.values() if t.fully_broken]
        assert len(broken) == 13
        assert sum(1 for t in broken if t.is_cc) == 2
        for tld in broken:
            if tld.domains:
                assert tld.ratio == 1.0

    def test_zero_ede_tlds_are_clean(self, population):
        for tld in population.tlds.values():
            if tld.zero_ede:
                assert tld.ede_domains == 0

    def test_standby_tlds_not_fully_broken(self, population):
        standby = [t for t in population.tlds.values() if t.standby and t.domains]
        assert standby
        for tld in standby:
            assert tld.ratio < 1.0

    def test_nsec_missing_under_broken_denial_tlds(self, population):
        for domain in population.domains:
            if domain.profile is Profile.NSEC_MISSING:
                assert population.tlds[domain.tld].broken_denial

    def test_lame_domains_have_ns_assignment(self, population):
        for domain in population.domains:
            if domain.profile in (
                Profile.LAME_REFUSED, Profile.LAME_TIMEOUT, Profile.LAME_SERVFAIL,
                Profile.SIGNED_LAME, Profile.PARTIAL_REFUSED,
            ):
                assert domain.ns_index >= 0
                ns = population.broken_ns[domain.ns_index]
                if domain.profile is Profile.LAME_TIMEOUT:
                    assert ns.kind == "timeout"
                elif domain.profile is Profile.LAME_SERVFAIL:
                    assert ns.kind == "servfail"
                else:
                    assert ns.kind == "refused"

    def test_ns_pool_composition(self, population):
        kinds = {}
        for ns in population.broken_ns:
            kinds[ns.kind] = kinds.get(ns.kind, 0) + 1
        assert kinds["refused"] > kinds["servfail"] >= kinds["timeout"] >= 1

    def test_ns_concentration_is_heavy_tailed(self, population):
        hosted = sorted(
            (ns.hosted for ns in population.broken_ns if ns.hosted), reverse=True
        )
        assert hosted, "no nameserver got any domain"
        total = sum(hosted)
        assert hosted[0] / total > 0.05  # the head carries real mass

    def test_tranco_ranks_unique_and_dense(self, population):
        ranks = [d.rank for d in population.domains if d.rank is not None]
        assert len(ranks) == len(set(ranks))
        assert ranks and max(ranks) == len(ranks)

    def test_tranco_contains_some_ede_domains(self, population):
        flagged = [
            d
            for d in population.domains
            if d.rank is not None
            and d.profile not in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
        ]
        assert flagged

    def test_signed_fraction_plausible(self, population):
        valid = [
            d for d in population.domains
            if d.profile in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
        ]
        signed = sum(1 for d in valid if d.signed)
        assert 0.01 < signed / len(valid) < 0.12

    def test_com_is_biggest(self, population):
        sizes = {name: t.domains for name, t in population.tlds.items()}
        assert max(sizes, key=sizes.get) == "com"


# -- the draws, pinned ---------------------------------------------------------------

#: SHA-256 over each domain's (name, tld, profile, signed, hosting_index,
#: ns_index, rank), in population order, taken at the commit before the
#: draws passed summed weights.  A draw that moves changes one of these.
POPULATION_DIGESTS = {
    (500, 20230524): "737ef1d1da1b0aee2092bc20b264bb4e383b824f9d89d706e06269391229ddd4",
    (500, 7): "98ce5ff96e7488e25c721ad558e186e7df927909cfa558e6a43da5499c8fd236",
    (30_300, 20230524): "8440ecbb174811c94cdd47e19c849a15f42c465a0ccf050d24fb1edfdc75c559",
}


def population_digest(population) -> str:
    digest = hashlib.sha256()
    for d in population.domains:
        row = (d.name, d.tld, int(d.profile), d.signed, d.hosting_index, d.ns_index, d.rank)
        digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("domains, seed", sorted(POPULATION_DIGESTS))
def test_population_content_is_pinned(domains, seed):
    population = generate_population(population_config_for(domains, seed))
    assert len(population.domains) == domains
    assert population_digest(population) == POPULATION_DIGESTS[domains, seed]


def test_a_draw_sums_no_weights(monkeypatch):
    """A count, not a time: every weighted draw takes cumulative weights
    summed once per candidate list or nameserver pool, where
    ``choices(weights=...)`` re-summed all 1 475 TLD weights per draw."""
    summed = {"in_draws": 0, "up_front": 0, "draws": 0}

    class CountingRandom(random.Random):
        def choices(self, population, weights=None, *, cum_weights=None, k=1):
            summed["draws"] += k
            summed["in_draws"] += 0 if weights is None else len(weights)
            return super().choices(population, weights, cum_weights=cum_weights, k=k)

    def counting_accumulate(iterable):
        for total in accumulate(iterable):
            summed["up_front"] += 1
            yield total

    monkeypatch.setattr(population_module, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(population_module, "accumulate", counting_accumulate, raising=False)
    population = generate_population(population_config_for(3030))
    assert summed["draws"] > 2000
    assert summed["in_draws"] == 0, summed
    # Two TLD candidate lists and three pools, each summed once.
    assert summed["up_front"] <= 2 * len(population.tlds) + len(population.broken_ns), summed
