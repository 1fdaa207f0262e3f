"""Property tests for the cluster's consistent-hash ring.

The two load-bearing guarantees, stated as properties and pinned with
hypothesis:

* **balance** — at the default 150 vnodes/shard, routing a fixed
  keyspace spreads load within a bounded factor of perfectly even;
* **consistency** — adding a shard only moves keys *onto* the new
  shard (never between survivors), removing one only moves keys *off*
  it, and the moved fraction stays near 1/N of the keyspace.

Plus the registered-domain keying that makes per-name resolver state
shard-local (every label under one registered domain routes together).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ConsistentHashRing, registered_domain_key
from repro.dns.name import Name

#: A fixed, reproducible keyspace of registered-domain-shaped keys.
KEYSPACE = [f"d{i}.example{i % 7}.com" for i in range(5000)]

shard_counts = st.integers(min_value=2, max_value=8)
#: Distinct shard ids drawn from a small pool (exercises non-contiguous
#: id sets, not just shard-0..N-1).
shard_id_sets = st.sets(
    st.integers(min_value=0, max_value=31), min_size=2, max_size=8
).map(lambda ids: tuple(f"shard-{i}" for i in sorted(ids)))


class TestRouting:
    def test_routing_is_deterministic_across_instances(self):
        a = ConsistentHashRing(["s0", "s1", "s2"])
        b = ConsistentHashRing(["s0", "s1", "s2"])
        for key in KEYSPACE[:500]:
            assert a.shard_for(key) == b.shard_for(key)

    def test_routing_ignores_insertion_order(self):
        a = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        b = ConsistentHashRing(["s3", "s1", "s0", "s2"])
        for key in KEYSPACE[:500]:
            assert a.shard_for(key) == b.shard_for(key)

    def test_empty_ring_rejects_lookups(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().shard_for("example.com")

    def test_duplicate_shard_rejected(self):
        ring = ConsistentHashRing(["s0"])
        with pytest.raises(ValueError):
            ring.add_shard("s0")


class TestBalance:
    @settings(max_examples=12, deadline=None)
    @given(shard_counts)
    def test_imbalance_bounded_at_default_vnodes(self, shards: int):
        """max/mean load stays under 1.5 at 150 vnodes per shard."""
        ring = ConsistentHashRing([f"shard-{i}" for i in range(shards)])
        distribution = ring.distribution(KEYSPACE)
        assert set(distribution) == {f"shard-{i}" for i in range(shards)}
        mean = len(KEYSPACE) / shards
        assert max(distribution.values()) <= 1.5 * mean
        assert min(distribution.values()) >= 0.5 * mean


class TestConsistency:
    @settings(max_examples=25, deadline=None)
    @given(shard_id_sets)
    def test_adding_a_shard_only_moves_keys_onto_it(self, ids):
        ring = ConsistentHashRing(ids)
        before = {key: ring.shard_for(key) for key in KEYSPACE}
        ring.add_shard("shard-new")
        moved = 0
        for key, old in before.items():
            new = ring.shard_for(key)
            if new != old:
                assert new == "shard-new", (
                    f"{key} moved between survivors {old} -> {new}"
                )
                moved += 1
        # Expected share is 1/(N+1); allow generous slack for hash
        # variance at small N, but never more than double the fair share.
        fair = len(KEYSPACE) / (len(ids) + 1)
        assert moved <= 2.0 * fair
        assert moved > 0  # the new shard actually takes load

    @settings(max_examples=25, deadline=None)
    @given(shard_id_sets)
    def test_removing_a_shard_only_moves_its_own_keys(self, ids):
        ring = ConsistentHashRing(ids)
        victim = ids[0]
        before = {key: ring.shard_for(key) for key in KEYSPACE}
        ring.remove_shard(victim)
        for key, old in before.items():
            new = ring.shard_for(key)
            if old == victim:
                assert new != victim
            else:
                assert new == old, (
                    f"{key} moved {old} -> {new} though {victim} left"
                )

    def test_add_then_remove_restores_routing(self):
        ring = ConsistentHashRing(["s0", "s1", "s2"])
        before = {key: ring.shard_for(key) for key in KEYSPACE[:1000]}
        ring.add_shard("s3")
        ring.remove_shard("s3")
        after = {key: ring.shard_for(key) for key in KEYSPACE[:1000]}
        assert before == after

    @settings(max_examples=25, deadline=None)
    @given(shard_id_sets)
    def test_remove_then_add_restores_exact_mapping(self, ids):
        """Ejection/rejoin symmetry: ``remove(shard)`` then
        ``add(shard)`` restores the original key->shard mapping exactly
        — the property the cluster's recovery path relies on to put a
        rejoined shard's key range back where it was."""
        ring = ConsistentHashRing(ids)
        before = {key: ring.shard_for(key) for key in KEYSPACE}
        for victim in ids:
            ring.remove_shard(victim)
            ring.add_shard(victim)
            after = {key: ring.shard_for(key) for key in KEYSPACE}
            assert after == before, f"rejoining {victim} changed routing"

    @settings(max_examples=25, deadline=None)
    @given(shard_id_sets)
    def test_excluding_a_shard_equals_removing_it(self, ids):
        """The failover router's exclusion walk is exactly removal:
        ``shard_for(key, exclude={victim})`` agrees with a ring built
        without the victim, for every key."""
        ring = ConsistentHashRing(ids)
        victim = ids[0]
        without = ConsistentHashRing(
            [shard_id for shard_id in ids if shard_id != victim]
        )
        for key in KEYSPACE[:1500]:
            assert ring.shard_for(key, exclude={victim}) == (
                without.shard_for(key)
            )

    def test_excluding_everything_raises(self):
        ring = ConsistentHashRing(["s0", "s1"])
        with pytest.raises(LookupError):
            ring.shard_for("example.com", exclude={"s0", "s1"})


class TestRegisteredDomainKey:
    def test_subdomains_share_a_key(self):
        assert (
            registered_domain_key("www.example.com")
            == registered_domain_key("example.com")
            == registered_domain_key("deep.sub.www.example.com")
            == "example.com"
        )

    def test_name_and_str_agree(self):
        for text in ("example.com.", "a.b.c.example.net.", "com.", "."):
            assert registered_domain_key(Name.from_text(text)) == (
                registered_domain_key(text)
            )

    def test_case_insensitive(self):
        assert registered_domain_key("WWW.Example.COM") == "example.com"

    def test_root_and_tld(self):
        assert registered_domain_key(".") == "."
        assert registered_domain_key("com.") == "com"

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1,
                max_size=8,
            ).filter(lambda s: not s.startswith("-") and not s.endswith("-")),
            min_size=1,
            max_size=5,
        )
    )
    def test_every_label_under_one_domain_routes_together(self, labels):
        """Routing invariance: any prefix labels keep the same shard."""
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3", "s4"])
        fqdn = ".".join(labels) + "."
        registered = ".".join(labels[-2:]) + "."
        assert ring.shard_for(registered_domain_key(fqdn)) == ring.shard_for(
            registered_domain_key(registered)
        )
