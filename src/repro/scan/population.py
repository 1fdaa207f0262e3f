"""Synthetic registered-domain population for the Internet-wide scan.

The paper scans 303M registered domains across 1,475 TLDs (Section 4.1)
and reports 14 categories of EDE-triggering misconfigurations with exact
domain counts (Section 4.2), plus concentration statistics (Section 4.3,
Figures 1-2).  Offline we cannot scan the Internet, so the *measured
distribution seeds the synthetic one*: every paper category becomes a
:class:`Profile` with a nominal count, the population generator draws a
scaled universe with the same structure (TLD mix, broken-nameserver
concentration, Tranco-like ranking), and the experiment then verifies
that our scanner + resolver + EDE pipeline *recovers* what was seeded.

Scaling: bulk categories divide by ``scale`` (default 1:1000 → ~303k
domains); categories whose nominal count is tiny (Stale Answer 32 …
Other 7) are kept at their absolute size so every INFO-CODE path is
exercised at any scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum
from itertools import accumulate


class Profile(IntEnum):
    """Per-domain misconfiguration profile (disjoint).

    The comment on each value gives the EDE codes Cloudflare's profile
    emits for it, hence which Section 4.2 categories it feeds.
    """

    VALID_UNSIGNED = 0  # -> no EDE
    VALID_SIGNED = 1  # -> no EDE
    LAME_UNREACHABLE = 2  # {22}: glue points into special-purpose space
    LAME_REFUSED = 3  # {22,23}: all authorities answer REFUSED
    LAME_TIMEOUT = 4  # {22,23}: all authorities time out
    LAME_SERVFAIL = 5  # {22,23}: all authorities answer SERVFAIL
    SIGNED_LAME = 6  # {9,22,23}: signed delegation, unreachable DNSKEY
    PARTIAL_REFUSED = 7  # {23}: one authority REFUSED, another answers
    STANDBY_KSK = 8  # {10}: stand-by KSK without covering RRSIG (NOERROR)
    DNSKEY_MISSING = 9  # {9}: DS matches no DNSKEY
    BOGUS = 10  # {6}: DNSKEY RRset signatures do not verify
    MISMATCHED = 11  # {22,24}: authority echoes a different question
    UNSUPPORTED_ALGO = 12  # {1}: Ed448/GOST/DSA or 512-bit RSA keys
    SIG_EXPIRED = 13  # {7}: all signatures expired
    NSEC_MISSING = 14  # {12}: parent cannot prove the insecure delegation
    DS_DIGEST = 15  # {2}: GOST/unassigned DS digest type
    STALE = 16  # {3,22,23}: answer served from cache after outage
    SIG_NOT_YET = 17  # {8}: signatures valid only from 2045
    CACHED_ERROR = 18  # {13}: SERVFAIL replayed from the error cache
    OTHER_LOOP = 19  # {0}: iteration limit exceeded (CNAME loop)


#: Nominal (unscaled) per-profile domain counts, solved from the paper's
#: Section 4.2 per-code counts and the 14.8M |22 ∪ 23| union:
#:   22 = LAME_* + SIGNED_LAME + MISMATCHED + STALE        = 13,965,865
#:   23 = REFUSED/TIMEOUT/SERVFAIL/SIGNED/PARTIAL + STALE  = 11,647,551
#:   9  = SIGNED_LAME + DNSKEY_MISSING                     =    296,643
#: and singleton categories directly.
NOMINAL_COUNTS: dict[Profile, int] = {
    Profile.LAME_UNREACHABLE: 3_140_181,
    Profile.LAME_REFUSED: 9_663_384,
    Profile.LAME_TIMEOUT: 500_000,
    Profile.LAME_SERVFAIL: 500_000,
    Profile.SIGNED_LAME: 150_000,
    Profile.PARTIAL_REFUSED: 834_135,
    Profile.STANDBY_KSK: 2_746_604,
    Profile.DNSKEY_MISSING: 146_643,
    Profile.BOGUS: 82_465,
    Profile.MISMATCHED: 12_268,
    Profile.UNSUPPORTED_ALGO: 8_751,
    Profile.SIG_EXPIRED: 2_877,
    Profile.NSEC_MISSING: 1_980,
    Profile.DS_DIGEST: 62,
    Profile.STALE: 32,
    Profile.SIG_NOT_YET: 29,
    Profile.CACHED_ERROR: 8,
    Profile.OTHER_LOOP: 7,
}

#: Profiles that still resolve to NOERROR (EDE is purely informational).
NOERROR_PROFILES = frozenset(
    {
        Profile.VALID_UNSIGNED,
        Profile.VALID_SIGNED,
        Profile.PARTIAL_REFUSED,
        Profile.STANDBY_KSK,
        Profile.UNSUPPORTED_ALGO,
        Profile.DS_DIGEST,
        Profile.STALE,
    }
)

#: Profiles requiring a priming query before the measured one.
TWO_PHASE_PROFILES = frozenset({Profile.STALE, Profile.CACHED_ERROR})

NOMINAL_TOTAL_DOMAINS = 303_000_000
NOMINAL_TLDS = 1_475
NOMINAL_GTLDS = 1_192
NOMINAL_CCTLDS = 283
NOMINAL_BROKEN_NS = {"refused": 267_000, "servfail": 21_000, "timeout": 15_000}
NOMINAL_TRANCO = 1_000_000
#: |EDE ∩ Tranco| = 22.1k, of which 12.2k resolved NOERROR (paper 4.3).
NOMINAL_TRANCO_EDE = 22_100
NOMINAL_TRANCO_EDE_NOERROR = 12_200

#: The population seed every committed gate, pin and ledger run uses.
DEFAULT_SEED = 20230524
#: Fraction of otherwise-valid domains that are DNSSEC-signed.
VALID_SIGNED_FRACTION = 0.04
#: Fraction of nameservers whose repair covers the paper's 81%: 20 000
#: of 293 000 nameservers (paper 4.2)...
FIX_FRACTION = 20_000 / 293_000
#: ...and the share of lame domains that repair covers.
FIX_COVERAGE = 0.81


@dataclass
class PopulationConfig:
    """Knobs for the synthetic universe."""

    scale: int = 1000
    seed: int = DEFAULT_SEED
    #: Categories at or below this nominal count are kept unscaled.
    rare_threshold: int = 100
    n_gtlds: int = NOMINAL_GTLDS
    n_cctlds: int = NOMINAL_CCTLDS

    def scaled(self, nominal: int) -> int:
        if nominal <= self.rare_threshold:
            return nominal
        return max(1, round(nominal / self.scale))

    @property
    def total_domains(self) -> int:
        return self.scaled(NOMINAL_TOTAL_DOMAINS)


def population_config_for(target_domains: int, seed: int = DEFAULT_SEED) -> PopulationConfig:
    """Map a target domain count onto the population's 1:k scale."""
    scale = max(1, NOMINAL_TOTAL_DOMAINS // max(1, int(target_domains)))
    return PopulationConfig(scale=scale, seed=seed)


@dataclass(slots=True)
class WildDomain:
    """One registered domain in the synthetic universe."""

    name: str
    tld: str
    profile: Profile
    ns_index: int = -1  # broken-nameserver pool index, -1 = hosting pool
    hosting_index: int = 0
    rank: int | None = None  # Tranco-like rank (1-based), None = unranked
    signed: bool = False

    @property
    def fqdn(self) -> str:
        return f"{self.name}."


@dataclass(slots=True)
class BrokenNameserver:
    """One misbehaving authoritative nameserver."""

    index: int
    address: str
    kind: str  # "refused" | "servfail" | "timeout"
    hosted: int = 0  # number of domains delegated to it


@dataclass
class Tld:
    name: str
    is_cc: bool
    #: Structural flags driving placement (Section 4.3 / category quirks).
    fully_broken: bool = False  # one of the 13 TLDs at 100% EDE
    standby: bool = False  # hosts STANDBY_KSK domains (2 ccTLDs + 22 suffixes)
    broken_denial: bool = False  # NSEC3 signatures dropped (NSEC_MISSING)
    zero_ede: bool = False  # no misconfigured domain at all
    axfr_allowed: bool = False  # zone file obtainable via AXFR (.se/.nu/.ch/.li)
    domains: int = 0
    ede_domains: int = 0

    @property
    def ratio(self) -> float:
        return self.ede_domains / self.domains if self.domains else 0.0


@dataclass
class Population:
    """The generated universe."""

    config: PopulationConfig
    domains: list[WildDomain]
    tlds: dict[str, Tld]
    broken_ns: list[BrokenNameserver]
    tranco_size: int = 0
    #: Power-law exponent used for NS concentration (solved numerically).
    ns_zipf_exponent: float = 0.0

    def counts_by_profile(self) -> dict[Profile, int]:
        out: dict[Profile, int] = {}
        for domain in self.domains:
            out[domain.profile] = out.get(domain.profile, 0) + 1
        return out

    def ede_domains(self) -> list[WildDomain]:
        return [
            d
            for d in self.domains
            if d.profile not in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
        ]

    def tranco_domains(self) -> list[WildDomain]:
        return sorted(
            (d for d in self.domains if d.rank is not None),
            key=lambda d: d.rank,  # type: ignore[arg-type]
        )


_COMMON_GTLDS = [
    "com", "net", "org", "info", "biz", "xyz", "online", "top", "shop",
    "site", "club", "icu", "vip", "app", "dev", "store", "live", "pro",
]
_COMMON_CCTLDS = [
    "de", "uk", "cn", "nl", "ru", "br", "fr", "eu", "au", "it", "pl",
    "jp", "in", "ir", "ca", "ch", "se", "nu", "li", "us", "es", "be",
]


def _tld_universe(config: PopulationConfig) -> list[Tld]:
    tlds: list[Tld] = []
    for index in range(config.n_gtlds):
        if index < len(_COMMON_GTLDS):
            name = _COMMON_GTLDS[index]
        else:
            name = f"gtld{index:04d}"
        tlds.append(Tld(name=name, is_cc=False))
    cc_names: list[str] = list(_COMMON_CCTLDS)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for a in alphabet:
        for b in alphabet:
            code = a + b
            if len(cc_names) >= config.n_cctlds:
                break
            if code not in cc_names:
                cc_names.append(code)
        if len(cc_names) >= config.n_cctlds:
            break
    for name in cc_names[: config.n_cctlds]:
        tlds.append(Tld(name=name, is_cc=True))
    return tlds


def _solve_power_exponent(pool: int, top: int, coverage: float) -> float:
    """Find a such that sum(i^-a, i<=top) / sum(i^-a, i<=pool) == coverage."""
    if top >= pool:
        return 1.0

    def cov(a: float) -> float:
        weights = [i ** -a for i in range(1, pool + 1)]
        total = sum(weights)
        return sum(weights[:top]) / total

    lo, hi = 0.01, 4.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if cov(mid) < coverage:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def generate_population(config: PopulationConfig | None = None) -> Population:
    """Build the whole synthetic universe, deterministically."""
    config = config or PopulationConfig()
    rng = random.Random(config.seed)

    tlds = _tld_universe(config)
    gtlds = [t for t in tlds if not t.is_cc]
    cctlds = [t for t in tlds if t.is_cc]

    # -- structural TLD roles (Section 4.3) ------------------------------------
    # 13 fully-broken TLDs: 11 gTLDs + 2 ccTLDs, 108k domains in total.
    fully_broken = gtlds[-11:] + cctlds[-2:]
    for tld in fully_broken:
        tld.fully_broken = True
    # 2 large standby-KSK ccTLDs plus 22 additional suffixes.
    standby_main = [t for t in cctlds if not t.fully_broken][:2]
    standby_extra = [t for t in gtlds if not t.fully_broken][-40:-18]
    for tld in standby_main + standby_extra:
        tld.standby = True
    # 2 small TLDs whose insecure-delegation proofs are broken.
    broken_denial = [t for t in gtlds if not (t.fully_broken or t.standby)][-2:]
    for tld in broken_denial:
        tld.broken_denial = True
    # The four ccTLDs whose zone files the paper obtained via AXFR.
    for tld in cctlds:
        if tld.name in ("se", "nu", "ch", "li"):
            tld.axfr_allowed = True
    # Zero-EDE TLDs: 38% of gTLDs, 4% of ccTLDs.
    zero_g = [t for t in gtlds if not (t.fully_broken or t.standby or t.broken_denial)]
    zero_c = [t for t in cctlds if not (t.fully_broken or t.standby or t.broken_denial)]
    for tld in rng.sample(zero_g, round(0.38 * config.n_gtlds)):
        tld.zero_ede = True
    for tld in rng.sample(zero_c, round(0.04 * config.n_cctlds)):
        tld.zero_ede = True

    # -- profile counts ------------------------------------------------------------
    counts = {profile: config.scaled(n) for profile, n in NOMINAL_COUNTS.items()}
    total = config.total_domains
    n_misconfigured = sum(counts.values())
    n_valid = max(0, total - n_misconfigured)
    n_valid_signed = round(n_valid * VALID_SIGNED_FRACTION)

    # -- broken nameserver pool --------------------------------------------------------
    broken_ns: list[BrokenNameserver] = []
    for kind, nominal in NOMINAL_BROKEN_NS.items():
        for _ in range(config.scaled(nominal)):
            index = len(broken_ns)
            address = f"44.{(index >> 16) & 0x3F}.{(index >> 8) & 0xFF}.{index & 0xFF}"
            broken_ns.append(BrokenNameserver(index=index, address=address, kind=kind))
    refused_pool = [ns for ns in broken_ns if ns.kind == "refused"]
    servfail_pool = [ns for ns in broken_ns if ns.kind == "servfail"]
    timeout_pool = [ns for ns in broken_ns if ns.kind == "timeout"]

    fix_top = max(1, round(FIX_FRACTION * len(broken_ns)))
    exponent = _solve_power_exponent(
        max(len(refused_pool), 2), min(fix_top, len(refused_pool)), FIX_COVERAGE
    )

    # Every draw below passes ``cum_weights``, summed once per list here:
    # ``rng.choices(weights=w)`` would re-sum ``w`` on every call into
    # exactly this list, so each pick is the same.
    def _power_cum_weights(pool_size: int) -> list[float]:
        return list(accumulate(i ** -exponent for i in range(1, pool_size + 1)))

    refused_cum = _power_cum_weights(len(refused_pool))
    servfail_cum = _power_cum_weights(len(servfail_pool))
    timeout_cum = _power_cum_weights(len(timeout_pool))

    def pick_ns(pool: list[BrokenNameserver], cum_weights: list[float]) -> BrokenNameserver:
        chosen = rng.choices(pool, cum_weights=cum_weights, k=1)[0]
        chosen.hosted += 1
        return chosen

    # -- TLD size weights: a heavy head (com and friends) over a flattened
    # tail — even the smallest real TLD in the paper's 303M-domain input
    # holds tens of thousands of names, so the tail must not collapse to
    # one-domain TLDs at moderate scales.
    placeable = [t for t in tlds if not t.fully_broken]
    weights: dict[str, float] = {}
    for order, tld in enumerate(tlds):
        if order < 30:
            weights[tld.name] = 1.0 / (order + 1)
        else:
            weights[tld.name] = 1.0 / (30 + 0.02 * (order - 30))
    weights["com"] = sum(weights.values()) * 0.8  # ~45% of everything

    def draw_tld(candidates: list[Tld], cum_weights: list[float]) -> Tld:
        return rng.choices(candidates, cum_weights=cum_weights, k=1)[0]

    # Candidate sets per placement rule.
    normal_tlds = [t for t in placeable if not (t.zero_ede or t.broken_denial)]
    misconfig_tlds = [t for t in normal_tlds if not t.standby]
    all_valid_tlds = [t for t in placeable if not t.broken_denial]
    misconfig_cum = list(accumulate(weights[t.name] for t in misconfig_tlds))
    all_valid_cum = list(accumulate(weights[t.name] for t in all_valid_tlds))

    domains: list[WildDomain] = []
    serial = 0

    def add_domain(tld: Tld, profile: Profile, signed: bool = False) -> WildDomain:
        nonlocal serial
        name = f"d{serial:07d}.{tld.name}"
        serial += 1
        domain = WildDomain(name=name, tld=tld.name, profile=profile, signed=signed)
        tld.domains += 1
        if profile not in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED):
            tld.ede_domains += 1
        domains.append(domain)
        return domain

    # -- fully-broken TLDs: 108k domains, only misconfigured ---------------------------------
    broken_quota = config.scaled(108_000)
    per_tld = max(1, broken_quota // len(fully_broken))
    broken_budget: dict[Profile, int] = counts
    for tld in fully_broken:
        for _ in range(per_tld):
            profile = (
                Profile.LAME_REFUSED
                if broken_budget[Profile.LAME_REFUSED] > broken_budget[Profile.STANDBY_KSK]
                else Profile.STANDBY_KSK
            )
            if broken_budget[profile] <= 0:
                profile = Profile.LAME_REFUSED
            broken_budget[profile] = max(0, broken_budget[profile] - 1)
            domain = add_domain(tld, profile, signed=profile is Profile.STANDBY_KSK)
            if profile is Profile.LAME_REFUSED and refused_pool:
                domain.ns_index = pick_ns(refused_pool, refused_cum).index

    # -- NSEC_MISSING domains live under the broken-denial TLDs --------------------------------
    for i in range(counts[Profile.NSEC_MISSING]):
        tld = broken_denial[i % len(broken_denial)]
        add_domain(tld, Profile.NSEC_MISSING)
    counts[Profile.NSEC_MISSING] = 0
    # ...which also get some healthy signed domains so they are not 100% EDE.
    for tld in broken_denial:
        for _ in range(max(2, tld.domains // 4)):
            add_domain(tld, Profile.VALID_SIGNED, signed=True)
            n_valid_signed -= 1
            n_valid = max(0, n_valid - 1)

    # -- STANDBY_KSK domains: 90% under the two main ccTLDs, rest on 22 suffixes -----------------
    remaining_standby = counts[Profile.STANDBY_KSK]
    counts[Profile.STANDBY_KSK] = 0
    standby_hosts = standby_main + standby_extra
    for i in range(remaining_standby):
        if i < round(remaining_standby * 0.9) and standby_main:
            tld = standby_main[i % len(standby_main)]
        else:
            tld = standby_extra[i % len(standby_extra)] if standby_extra else standby_main[0]
        add_domain(tld, Profile.STANDBY_KSK, signed=True)
    # Standby TLDs also carry plenty of healthy domains (they are not 100% EDE).
    for tld in standby_hosts:
        healthy = max(4, tld.domains // 3)
        for _ in range(healthy):
            add_domain(tld, Profile.VALID_UNSIGNED)
            n_valid = max(0, n_valid - 1)

    # -- the bulk misconfigured domains ------------------------------------------------------------
    for profile, remaining in list(counts.items()):
        for _ in range(remaining):
            tld = draw_tld(misconfig_tlds, misconfig_cum)
            signed = profile in (
                Profile.SIGNED_LAME,
                Profile.DNSKEY_MISSING,
                Profile.BOGUS,
                Profile.UNSUPPORTED_ALGO,
                Profile.SIG_EXPIRED,
                Profile.DS_DIGEST,
                Profile.SIG_NOT_YET,
            )
            domain = add_domain(tld, profile, signed=signed)
            if profile in (Profile.LAME_REFUSED, Profile.SIGNED_LAME, Profile.PARTIAL_REFUSED):
                if refused_pool:
                    domain.ns_index = pick_ns(refused_pool, refused_cum).index
            elif profile is Profile.LAME_SERVFAIL and servfail_pool:
                domain.ns_index = pick_ns(servfail_pool, servfail_cum).index
            elif profile is Profile.LAME_TIMEOUT and timeout_pool:
                domain.ns_index = pick_ns(timeout_pool, timeout_cum).index
        counts[profile] = 0

    # -- the healthy majority ----------------------------------------------------------------------
    for i in range(n_valid):
        tld = draw_tld(all_valid_tlds, all_valid_cum)
        signed = i < n_valid_signed
        add_domain(
            tld,
            Profile.VALID_SIGNED if signed else Profile.VALID_UNSIGNED,
            signed=signed,
        )

    # -- hosting assignment ------------------------------------------------------------------------
    n_hosting = max(8, len(domains) // 3000)
    for domain in domains:
        domain.hosting_index = rng.randrange(n_hosting)

    # -- Tranco-like ranking (Figure 2) ------------------------------------------------------------
    tranco_size = max(100, config.scaled(NOMINAL_TRANCO))
    n_tranco_ede = min(
        config.scaled(NOMINAL_TRANCO_EDE),
        len([d for d in domains if d.profile != Profile.VALID_UNSIGNED]),
    )
    n_tranco_noerror_ede = round(
        n_tranco_ede * NOMINAL_TRANCO_EDE_NOERROR / NOMINAL_TRANCO_EDE
    )
    ede_noerror = [
        d
        for d in domains
        if d.profile in NOERROR_PROFILES
        and d.profile not in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
    ]
    ede_servfail = [
        d
        for d in domains
        if d.profile not in NOERROR_PROFILES
    ]
    valid_pool = [
        d
        for d in domains
        if d.profile in (Profile.VALID_UNSIGNED, Profile.VALID_SIGNED)
    ]
    tranco_members: list[WildDomain] = []
    tranco_members += rng.sample(ede_noerror, min(n_tranco_noerror_ede, len(ede_noerror)))
    n_servfail = n_tranco_ede - len(tranco_members)
    tranco_members += rng.sample(ede_servfail, min(n_servfail, len(ede_servfail)))
    n_valid_ranked = max(0, tranco_size - len(tranco_members))
    tranco_members += rng.sample(valid_pool, min(n_valid_ranked, len(valid_pool)))
    ranks = list(range(1, len(tranco_members) + 1))
    rng.shuffle(ranks)  # EDE domains spread evenly across the ranking
    for domain, rank in zip(tranco_members, ranks):
        domain.rank = rank

    rng.shuffle(domains)  # the paper randomizes its input list (Section 5)

    return Population(
        config=config,
        domains=domains,
        tlds={t.name: t for t in tlds},
        broken_ns=broken_ns,
        tranco_size=len(tranco_members),
        ns_zipf_exponent=exponent,
    )
