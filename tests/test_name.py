"""Domain name semantics: parsing, relations, ordering, canonical form."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.exceptions import BadEscape, DnsError, EmptyLabel, LabelTooLong, NameTooLong
from repro.dns.name import Name


class TestParsing:
    def test_root_from_dot(self):
        assert Name.from_text(".").is_root()

    def test_root_is_absolute(self):
        assert Name.root().is_absolute()

    def test_simple_absolute(self):
        name = Name.from_text("www.example.com.")
        assert name.is_absolute()
        assert name.labels == (b"www", b"example", b"com", b"")

    def test_relative_name(self):
        name = Name.from_text("www.example.com")
        assert not name.is_absolute()
        assert name.label_count() == 3

    def test_relative_with_origin(self):
        origin = Name.from_text("example.com.")
        name = Name.from_text("www", origin=origin)
        assert name == Name.from_text("www.example.com.")

    def test_at_sign_is_origin(self):
        origin = Name.from_text("example.com.")
        assert Name.from_text("@", origin=origin) == origin

    def test_at_sign_without_origin_fails(self):
        with pytest.raises(ValueError):
            Name.from_text("@")

    def test_relative_origin_rejected(self):
        with pytest.raises(ValueError):
            Name.from_text("www", origin=Name.from_text("example.com"))

    def test_escaped_dot(self):
        name = Name.from_text(r"a\.b.example.")
        assert name.labels[0] == b"a.b"

    def test_escaped_decimal(self):
        name = Name.from_text(r"a\046b.example.")
        assert name.labels[0] == b"a.b"

    def test_escaped_backslash(self):
        name = Name.from_text(r"a\\b.example.")
        assert name.labels[0] == b"a\\b"

    def test_escaped_decimal_bounds(self):
        assert Name.from_text(r"a\000\255.").labels[0] == b"a\x00\xff"

    @pytest.mark.parametrize(
        "text",
        [
            r"a\256b.",  # above 255: was wrapped to a\000b
            r"a\999.",  # was wrapped to a\231
            "a\\\u00b2\u00b3\u2074.",  # superscript digits: was a bare ValueError
            "a\\\u0663\u0663\u0663.",  # Arabic-Indic digits
            "a\\",  # trailing backslash: was a literal backslash
            "a.b\\",
            r"a\1b.",  # fewer than three digits
            r"a\25.",
        ],
    )
    def test_malformed_escape_rejected(self, text):
        """RFC 1035 section 5.1: \\DDD is three ASCII digits of an octet."""
        with pytest.raises(BadEscape):
            Name.from_text(text)
        assert issubclass(BadEscape, DnsError)

    def test_malformed_escape_rejected_in_zone_file_owner(self):
        from repro.zones.zonefile import parse_zone

        with pytest.raises(BadEscape):
            parse_zone("$ORIGIN example.\nx\\300 300 IN A 192.0.2.1\n")

    def test_round_trip_text(self):
        for text in ("example.com.", "a.b.c.d.e.", "xn--dns.test."):
            assert str(Name.from_text(text)) == text

    def test_escaping_in_str(self):
        name = Name((b"a.b", b"example", b""))
        assert str(name) == r"a\.b.example."

    def test_nonprintable_escaping(self):
        name = Name((b"\x07", b""))
        assert str(name) == r"\007."


class TestLimits:
    def test_label_too_long(self):
        with pytest.raises(LabelTooLong):
            Name((b"a" * 64, b""))

    def test_label_max_ok(self):
        Name((b"a" * 63, b""))

    def test_name_too_long(self):
        labels = tuple(b"a" * 60 for _ in range(5)) + (b"",)
        with pytest.raises(NameTooLong):
            Name(labels)

    def test_empty_interior_label(self):
        with pytest.raises(EmptyLabel):
            Name((b"a", b"", b"b", b""))


class TestRelations:
    def test_subdomain_of_self(self):
        name = Name.from_text("example.com.")
        assert name.is_subdomain_of(name)
        assert not name.is_strict_subdomain_of(name)

    def test_subdomain(self):
        child = Name.from_text("www.example.com.")
        parent = Name.from_text("example.com.")
        assert child.is_subdomain_of(parent)
        assert child.is_strict_subdomain_of(parent)
        assert not parent.is_subdomain_of(child)

    def test_everything_under_root(self):
        assert Name.from_text("a.b.c.").is_subdomain_of(Name.root())

    def test_case_insensitive_relations(self):
        assert Name.from_text("WWW.Example.COM.").is_subdomain_of(
            Name.from_text("example.com.")
        )

    def test_sibling_not_subdomain(self):
        assert not Name.from_text("a.example.com.").is_subdomain_of(
            Name.from_text("b.example.com.")
        )

    def test_suffix_label_split_not_subdomain(self):
        # "ample.com" is a string suffix but not a label-wise parent.
        assert not Name.from_text("example.com.").is_subdomain_of(
            Name.from_text("ample.com.")
        )

    def test_parent(self):
        assert Name.from_text("www.example.com.").parent() == Name.from_text(
            "example.com."
        )

    def test_parent_of_root_fails(self):
        with pytest.raises(ValueError):
            Name.root().parent()

    def test_relativize(self):
        name = Name.from_text("www.example.com.")
        rel = name.relativize(Name.from_text("example.com."))
        assert rel.labels == (b"www",)

    def test_relativize_not_subdomain(self):
        with pytest.raises(ValueError):
            Name.from_text("www.other.org.").relativize(Name.from_text("example.com."))

    def test_prepend(self):
        name = Name.from_text("example.com.").prepend(b"www")
        assert name == Name.from_text("www.example.com.")

    def test_split(self):
        prefix, suffix = Name.from_text("a.b.c.").split(2)
        assert prefix.labels == (b"a", b"b")
        assert suffix == Name.from_text("c.")

    def test_common_ancestor(self):
        a = Name.from_text("x.a.example.com.")
        b = Name.from_text("y.example.com.")
        assert a.common_ancestor(b) == Name.from_text("example.com.")

    def test_common_ancestor_root(self):
        a = Name.from_text("a.com.")
        b = Name.from_text("b.org.")
        assert a.common_ancestor(b) == Name.root()


class TestEqualityAndOrdering:
    def test_case_insensitive_equality(self):
        assert Name.from_text("EXAMPLE.com.") == Name.from_text("example.COM.")

    def test_case_insensitive_hash(self):
        assert hash(Name.from_text("EXAMPLE.com.")) == hash(
            Name.from_text("example.com.")
        )

    def test_canonical_ordering_by_rightmost_label(self):
        # RFC 4034 section 6.1: sort by labels right-to-left.
        names = [
            Name.from_text(text)
            for text in ("z.example.", "a.example.", "example.", "yljkjljk.a.example.")
        ]
        ordered = sorted(names)
        assert [str(n) for n in ordered] == [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "z.example.",
        ]

    def test_immutability(self):
        name = Name.from_text("example.com.")
        with pytest.raises(AttributeError):
            name.labels = ()


class TestWireForm:
    def test_to_wire(self):
        assert Name.from_text("ab.c.").to_wire() == b"\x02ab\x01c\x00"

    def test_root_wire(self):
        assert Name.root().to_wire() == b"\x00"

    def test_canonical_wire_lowercases(self):
        assert Name.from_text("AB.c.").canonical_wire() == b"\x02ab\x01c\x00"

    def test_relative_name_not_encodable(self):
        with pytest.raises(ValueError):
            Name.from_text("relative").to_wire()

    def test_len_is_wire_length(self):
        assert len(Name.from_text("ab.c.")) == 6

    def test_wildcard_detection(self):
        assert Name.from_text("*.example.com.").is_wild()
        assert not Name.from_text("a.example.com.").is_wild()


_label = st.binary(min_size=1, max_size=20).filter(lambda b: b != b"")


@given(st.lists(_label, min_size=0, max_size=5))
def test_property_text_round_trip(labels):
    name = Name(tuple(labels) + (b"",))
    assert Name.from_text(str(name)) == name


@given(st.lists(_label, min_size=1, max_size=5))
def test_property_parent_child(labels):
    name = Name(tuple(labels) + (b"",))
    assert name.is_strict_subdomain_of(name.parent())


@given(st.lists(_label, min_size=0, max_size=5))
def test_property_canonical_idempotent(labels):
    name = Name(tuple(labels) + (b"",))
    assert name.canonical().canonical_wire() == name.canonical_wire()
