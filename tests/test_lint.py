"""The zone linter: every testbed damage class must be caught offline."""

import pytest

from repro.dns.name import Name
from repro.dns.rdata import A, NS
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.dnssec.nsec3 import base32hex_encode, nsec3_hash
from repro.dnssec.signer import SigningPolicy, sign_rrset
from repro.zones.builder import ZoneBuilder
from repro.zones.lint import Severity, lint_zone
from repro.zones.mutations import SigScope, Window, ZoneMutation
from tests.zone_digest import served_zones

NOW = 1_684_108_800
ORIGIN = Name.from_text("lint.test.")


def build(mutation: ZoneMutation | None = None):
    builder = ZoneBuilder(ORIGIN, now=NOW, mutation=mutation or ZoneMutation(algorithm=13))
    ns = Name.from_text("ns1.lint.test.")
    builder.add(RRset.of(ORIGIN, RdataType.NS, NS(target=ns)))
    builder.add(RRset.of(ns, RdataType.A, A(address="192.0.9.60")))
    builder.add(RRset.of(ORIGIN, RdataType.A, A(address="93.184.216.1")))
    return builder.build()


def findings_for(mutation: ZoneMutation | None = None, use_parent_ds: bool = True):
    built = build(mutation)
    return lint_zone(
        built.zone, now=NOW, parent_ds=built.ds_rdatas if use_parent_ds else None
    )


def checks(findings, severity=None):
    return {
        f.check
        for f in findings
        if severity is None or f.severity is severity
    }


class TestCleanZone:
    def test_no_errors_on_valid_zone(self):
        findings = findings_for()
        assert not [f for f in findings if f.severity is Severity.ERROR], findings

    def test_unsigned_zone_is_only_info(self):
        built = build(ZoneMutation(signed=False))
        findings = lint_zone(built.zone, now=NOW)
        assert checks(findings) == {"unsigned"}

    def test_signed_without_ds_warns(self):
        findings = findings_for(use_parent_ds=False)
        assert "no-ds" in checks(findings, Severity.WARNING)


class TestDsChecks:
    def test_ds_tag_mismatch(self):
        findings = findings_for(ZoneMutation(algorithm=13, ds_tag_offset=1))
        assert "ds-linkage" in checks(findings, Severity.ERROR)
        assert "chain-of-trust" in checks(findings, Severity.ERROR)

    def test_ds_digest_mismatch(self):
        findings = findings_for(ZoneMutation(algorithm=13, ds_corrupt_digest=True))
        assert "ds-linkage" in checks(findings, Severity.ERROR)

    def test_ds_unassigned_algorithm(self):
        findings = findings_for(ZoneMutation(algorithm=13, ds_algorithm_override=100))
        assert "ds-algorithm" in checks(findings, Severity.ERROR)

    def test_ds_unassigned_digest(self):
        findings = findings_for(ZoneMutation(algorithm=13, ds_digest_type_override=100))
        assert "ds-digest" in checks(findings, Severity.ERROR)


class TestKeyChecks:
    def test_zone_key_bits_clear(self):
        findings = findings_for(
            ZoneMutation(algorithm=13, clear_zone_bit_zsk=True, clear_zone_bit_ksk=True)
        )
        assert "zone-key-bit" in checks(findings, Severity.ERROR)

    def test_unassigned_key_algorithm(self):
        findings = findings_for(ZoneMutation(algorithm=13, zsk_algorithm_override=100))
        assert "key-algorithm" in checks(findings, Severity.ERROR)

    def test_deprecated_algorithm_warns(self):
        findings = findings_for(ZoneMutation(algorithm=1))
        assert "key-algorithm" in checks(findings, Severity.WARNING)

    def test_standby_ksk_detected(self):
        findings = findings_for(ZoneMutation(algorithm=13, add_standby_ksk=True))
        assert "standby-key" in checks(findings, Severity.WARNING)
        assert not [f for f in findings if f.severity is Severity.ERROR]


class TestSignatureChecks:
    def test_missing_signatures(self):
        findings = findings_for(ZoneMutation(algorithm=13, drop_sigs=SigScope.ALL))
        assert "rrsig-missing" in checks(findings, Severity.ERROR)

    def test_expired_signatures(self):
        findings = findings_for(ZoneMutation(algorithm=13, window_all=Window.EXPIRED))
        assert "rrsig-invalid" in checks(findings, Severity.ERROR)
        assert any("expired" in f.message for f in findings)

    def test_inverted_window(self):
        findings = findings_for(ZoneMutation(algorithm=13, window_all=Window.INVERTED))
        assert any("before" in f.message and "inception" in f.message for f in findings)

    def test_corrupt_zsk_detected(self):
        findings = findings_for(ZoneMutation(algorithm=13, corrupt_zsk=True))
        assert "rrsig-invalid" in checks(findings, Severity.ERROR)

    def test_leaf_only_drop(self):
        findings = findings_for(ZoneMutation(algorithm=13, drop_sigs=SigScope.LEAF_A))
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert len(errors) == 1
        assert errors[0].check == "rrsig-missing"


class TestDelegationData:
    """RFC 4035 section 2.2: a parent signs the DS at a cut, never the
    delegation's NS set or its glue."""

    CHILD = Name.from_text("child.lint.test.")

    def parent(self, *, secure: bool):
        builder = ZoneBuilder(ORIGIN, now=NOW, mutation=ZoneMutation(algorithm=13))
        ns = Name.from_text("ns1.lint.test.")
        builder.add(RRset.of(ORIGIN, RdataType.NS, NS(target=ns)))
        builder.add(RRset.of(ns, RdataType.A, A(address="192.0.9.60")))
        child = ZoneBuilder(
            self.CHILD, now=NOW, mutation=ZoneMutation(algorithm=13, signed=secure), key_seed=5
        )
        builder.delegate(child, [(Name.from_text("ns1", origin=self.CHILD), "192.0.9.61")])
        return builder.build()

    @pytest.mark.parametrize("secure", [True, False])
    def test_an_unsigned_delegation_is_clean(self, secure):
        built = self.parent(secure=secure)
        findings = lint_zone(built.zone, now=NOW, parent_ds=built.ds_rdatas)
        assert not [f for f in findings if f.severity is Severity.ERROR], findings
        assert "rrsig-unauthoritative" not in checks(findings)

    def test_a_signed_delegation_ns_set_or_glue_is_flagged(self):
        built = self.parent(secure=True)
        zone, zsk = built.zone, built.zsk
        glue = Name.from_text("ns1", origin=self.CHILD)
        for name, rdtype in ((self.CHILD, RdataType.NS), (glue, RdataType.A)):
            sig = sign_rrset(zone.find(name, rdtype), zsk, ORIGIN, SigningPolicy.window(NOW))
            zone.add(RRset.of(name, RdataType.RRSIG, sig))
        findings = lint_zone(zone, now=NOW, parent_ds=built.ds_rdatas)
        flagged = [f for f in findings if f.check == "rrsig-unauthoritative"]
        assert sorted(f.name for f in flagged) == sorted([str(self.CHILD), str(glue)])
        assert {f.severity for f in flagged} == {Severity.WARNING}

    def test_every_built_zone_has_no_nsec3_for_an_occluded_name(self, testbed, small_wild):
        """RFC 5155 section 7.1: no built zone has an NSEC3 record for glue."""
        zones = [*served_zones(testbed.fabric), small_wild.root_built.zone]
        zones += [self.parent(secure=secure).zone for secure in (True, False)]
        for zone in zones:
            assert "nsec3-unauthoritative" not in checks(lint_zone(zone, now=NOW)), zone.origin

    def test_an_nsec3_for_a_glue_name_is_flagged(self):
        zone = self.parent(secure=False).zone
        glue = Name.from_text("ns1", origin=self.CHILD)
        param = zone.find(ORIGIN, RdataType.NSEC3PARAM).rdatas[0]
        record = zone.nsec3_records()[0][1]
        digest = nsec3_hash(glue, param.salt, param.iterations)
        hashed = Name.from_text(base32hex_encode(digest), origin=ORIGIN)
        zone.add(RRset.of(hashed, RdataType.NSEC3, record))
        findings = lint_zone(zone, now=NOW)
        flagged = [f for f in findings if f.check == "nsec3-unauthoritative"]
        assert [(f.name, f.severity) for f in flagged] == [(str(hashed), Severity.WARNING)]
        assert str(glue) in flagged[0].message


class TestNsec3Checks:
    def test_missing_chain(self):
        findings = findings_for(ZoneMutation(algorithm=13, drop_nsec3=True))
        assert "nsec3-chain" in checks(findings, Severity.ERROR)

    def test_missing_param(self):
        findings = findings_for(ZoneMutation(algorithm=13, drop_nsec3param=True))
        assert "nsec3param" in checks(findings, Severity.ERROR)

    def test_salt_mismatch(self):
        findings = findings_for(ZoneMutation(algorithm=13, nsec3param_salt_mismatch=True))
        assert "nsec3param" in checks(findings, Severity.ERROR)

    def test_broken_closure(self):
        findings = findings_for(ZoneMutation(algorithm=13, corrupt_nsec3_next=True))
        assert "nsec3-chain" in checks(findings, Severity.ERROR)

    def test_high_iterations_warn(self):
        findings = findings_for(ZoneMutation(algorithm=13, nsec3_iterations=200))
        assert "nsec3-iterations" in checks(findings, Severity.WARNING)


class TestAgainstTestbed:
    """The linter's verdict must agree with live resolution: lint-clean
    testbed zones resolve without EDE; damaged ones are flagged."""

    def test_valid_case_is_clean(self, testbed):
        deployed = testbed.cases["valid"]
        findings = lint_zone(
            deployed.built.zone, now=int(testbed.fabric.clock.now()),
            parent_ds=deployed.built.ds_rdatas,
        )
        assert not [f for f in findings if f.severity is Severity.ERROR]

    @pytest.mark.parametrize(
        "label",
        ["ds-bad-tag", "rrsig-exp-all", "no-zsk", "bad-nsec3param-salt",
         "no-dnskey-256-257", "bad-rrsig-dnskey"],
    )
    def test_damaged_cases_flagged(self, testbed, label):
        deployed = testbed.cases[label]
        findings = lint_zone(
            deployed.built.zone, now=int(testbed.fabric.clock.now()),
            parent_ds=deployed.built.ds_rdatas,
        )
        assert [f for f in findings if f.severity is Severity.ERROR], label

    def test_finding_rendering(self):
        findings = findings_for(ZoneMutation(algorithm=13, ds_tag_offset=1))
        text = "\n".join(str(f) for f in findings)
        assert "[error]" in text and "ds-linkage" in text


class TestEdgeCases:
    """Boundary conditions the damage matrix does not exercise directly."""

    def test_nsec3_chain_without_nsec3param(self):
        findings = findings_for(ZoneMutation(algorithm=13, drop_nsec3param=True))
        assert "nsec3param" in checks(findings, Severity.ERROR)
        # The chain itself is intact, so no closure error piles on.
        assert checks(findings, Severity.ERROR) == {"nsec3param"}

    def test_rrsig_expiring_exactly_at_now_is_valid(self):
        # The signer's window is [NOW - skew, NOW + 30 days]; RFC 4034
        # treats expiration itself as inclusive, so lint at the exact
        # boundary second must report no signature problems.
        expiration = NOW + 30 * 24 * 3600
        built = build()
        findings = lint_zone(built.zone, now=expiration, parent_ds=built.ds_rdatas)
        assert "rrsig" not in checks(findings)
        assert "rrsig-invalid" not in checks(findings)
        assert not [f for f in findings if f.severity is Severity.ERROR]

    def test_rrsig_one_second_past_expiration_fails(self):
        expiration = NOW + 30 * 24 * 3600
        built = build()
        findings = lint_zone(built.zone, now=expiration + 1, parent_ds=built.ds_rdatas)
        assert "rrsig" in checks(findings, Severity.WARNING)
        assert "rrsig-invalid" in checks(findings, Severity.ERROR)
        assert any("expired" in f.message for f in findings)

    def test_ds_unassigned_digest_type_exact_codes(self):
        findings = findings_for(ZoneMutation(algorithm=13, ds_digest_type_override=100))
        # The bogus digest type is flagged AND the key can no longer be
        # authenticated, so the chain of trust breaks — nothing else.
        assert checks(findings, Severity.ERROR) == {"ds-digest", "chain-of-trust"}


class TestLintCli:
    """``python -m repro.tools.lint`` round trip through a zone file."""

    def run_cli(self, tmp_path, mutation, argv_extra=()):
        import json

        from repro.tools import lint as lint_cli
        from repro.zones.zonefile import write_zone

        built = build(mutation)
        path = tmp_path / "zone.db"
        path.write_text(write_zone(built.zone))
        argv = ["--file", str(path), "--now", str(NOW), *argv_extra]
        return lint_cli, json, argv

    def test_clean_zone_exits_zero(self, tmp_path, capsys):
        lint_cli, _, argv = self.run_cli(tmp_path, None)
        assert lint_cli.main(argv) == 0

    def test_error_zone_exits_nonzero(self, tmp_path, capsys):
        lint_cli, _, argv = self.run_cli(
            tmp_path, ZoneMutation(algorithm=13, drop_sigs=SigScope.ALL)
        )
        assert lint_cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "rrsig-missing" in out

    def test_json_matches_selfcheck_schema(self, tmp_path, capsys):
        lint_cli, json, argv = self.run_cli(
            tmp_path,
            ZoneMutation(algorithm=13, drop_sigs=SigScope.ALL),
            argv_extra=["--json"],
        )
        assert lint_cli.main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "total", "errors"}
        assert payload["total"] == len(payload["findings"]) > 0
        record = payload["findings"][0]
        assert set(record) >= {"check", "severity", "message"}
        assert {f["severity"] for f in payload["findings"]} <= {"error", "warning", "info"}
