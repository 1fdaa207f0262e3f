"""Domain names.

Implements the RFC 1035 name model: a sequence of labels, each at most 63
octets, with the whole encoded name at most 255 octets.  Names are
immutable and hashable.  Comparison and hashing are case-insensitive, as
required by RFC 4343, but the original octets are preserved for display.

The canonical (DNSSEC) form used for signing and NSEC3 hashing is the
lowercase, uncompressed wire form (RFC 4034 section 6.2).
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator

from .exceptions import BadEscape, EmptyLabel, LabelTooLong, NameTooLong

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

_ESCAPED = {0x2E: "\\.", 0x5C: "\\\\"}  # '.' and '\'


def _label_to_text(label: bytes) -> str:
    out = []
    for byte in label:
        if byte in _ESCAPED:
            out.append(_ESCAPED[byte])
        elif 0x21 <= byte <= 0x7E:
            out.append(chr(byte))
        else:
            out.append("\\%03d" % byte)
    return "".join(out)


def _text_to_labels(text: str) -> list[bytes]:
    """Split a presentation-format name into raw labels, handling escapes."""
    labels: list[bytes] = []
    current = bytearray()
    i = 0
    n = len(text)
    while i < n:
        char = text[i]
        if char == "\\":
            escaped = text[i + 1 : i + 2]
            if not escaped:
                raise BadEscape(f"trailing backslash in {text!r}")
            if escaped.isdigit():
                # RFC 1035 section 5.1: \DDD, three ASCII digits, <= 255.
                digits = text[i + 1 : i + 4]
                if not (len(digits) == 3 and digits.isascii() and digits.isdigit()
                        and int(digits) <= 255):
                    raise BadEscape(f"bad \\DDD escape in {text!r}")
                current.append(int(digits))
                i += 4
            else:
                current.append(ord(escaped))
                i += 2
        elif char == ".":
            labels.append(bytes(current))
            current = bytearray()
            i += 1
        else:
            current.append(ord(char))
            i += 1
    labels.append(bytes(current))
    return labels


def _reject(labels: tuple[bytes, ...]) -> None:
    """Raise for the first label, in order, that no name may hold."""
    for index, label in enumerate(labels):
        if len(label) > MAX_LABEL_LENGTH:
            raise LabelTooLong(f"label exceeds 63 octets: {label[:16]!r}...")
        if not label and index != len(labels) - 1:
            raise EmptyLabel("empty label is only allowed as the root")


def _check_length(labels: tuple[bytes, ...]) -> None:
    # encoded length: one length octet per label plus the label bytes,
    # and room for the root if the name becomes absolute
    encoded = sum(map(len, labels)) + len(labels)
    if not (labels and labels[-1] == b""):
        encoded += 1
    if encoded > MAX_NAME_LENGTH:
        raise NameTooLong(f"name would encode to {encoded} octets")


def _fill(name: "Name", labels: tuple[bytes, ...]) -> None:
    """Set a vetted name's fields.  A name with no upper-case octet is
    its own folded form, so it holds one label tuple, not two."""
    joined = b"".join(labels)
    folded = labels if joined == joined.lower() else tuple(l.lower() for l in labels)
    object.__setattr__(name, "_labels", labels)
    object.__setattr__(name, "_folded", folded)
    object.__setattr__(name, "_hash", hash(folded))


@total_ordering
class Name:
    """An immutable, absolute or relative DNS name.

    A name is *absolute* when its final label is the empty root label.
    Most of this library works with absolute names; :meth:`from_text`
    produces absolute names unless told otherwise.
    """

    __slots__ = ("_labels", "_folded", "_hash", "_suffixes")

    def __init__(self, labels: Iterable[bytes]):
        labels = tuple(labels)
        if labels and (
            max(map(len, labels)) > MAX_LABEL_LENGTH or b"" in labels[:-1]
        ):
            _reject(labels)
        _check_length(labels)
        _fill(self, labels)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Name is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def root(cls) -> "Name":
        return _ROOT

    @classmethod
    def from_text(cls, text: str, origin: "Name | None" = None) -> "Name":
        """Parse a presentation-format name.

        ``origin`` (an absolute name) is appended when ``text`` is relative.
        ``"."`` and ``"@"`` denote the root and the origin respectively.
        """
        if text == ".":
            return _ROOT
        if text == "@":
            if origin is None:
                raise ValueError("'@' used without an origin")
            return origin
        labels = _text_to_labels(text)
        if labels and labels[-1] == b"":
            return cls(labels)
        if origin is not None:
            if not origin.is_absolute():
                raise ValueError("origin must be absolute")
            return cls(tuple(labels) + origin.labels)
        return cls(labels)

    @classmethod
    def from_labels(cls, labels: Iterable[bytes]) -> "Name":
        return cls(labels)

    @classmethod
    def from_wire_labels(cls, labels: Iterable[bytes]) -> "Name":
        """Fast-path constructor for labels a wire parser already vetted.

        The parser guarantees each label is at most 63 octets (the wire
        length byte cannot say otherwise) and that only the final label
        is empty, so this skips the per-label loop and re-checks only
        the total encoded length — the one bound the label walk cannot
        enforce on its own.  Raises :class:`NameTooLong` exactly where
        :class:`Name` would.
        """
        labels = tuple(labels)
        _check_length(labels)
        self = object.__new__(cls)
        _fill(self, labels)
        return self

    # -- properties --------------------------------------------------------

    @property
    def labels(self) -> tuple[bytes, ...]:
        return self._labels

    @property
    def folded_labels(self) -> tuple[bytes, ...]:
        """Lowercased labels, precomputed at construction (RFC 4343).

        Writers and canonical-form consumers should prefer this over
        re-folding ``labels`` — it is already paid for.  It *is*
        ``labels`` when the name has no upper-case octet.
        """
        return self._folded

    @property
    def suffixes(self) -> tuple[tuple[bytes, ...], ...]:
        """The folded suffix starting at each label but the root, longest
        first: the keys a compressing writer registers for this name.
        Made on first use and kept, like every value derived from a
        name."""
        try:
            return self._suffixes
        except AttributeError:
            folded = self._folded
            count = len(folded) - 1 if self.is_absolute() else len(folded)
            suffixes = tuple(folded[index:] for index in range(count))
            object.__setattr__(self, "_suffixes", suffixes)
            return suffixes

    def is_absolute(self) -> bool:
        return bool(self._labels) and self._labels[-1] == b""

    def is_root(self) -> bool:
        return self._labels == (b"",)

    def is_wild(self) -> bool:
        return bool(self._labels) and self._labels[0] == b"*"

    def __len__(self) -> int:
        """Encoded wire length in octets (for absolute names)."""
        return sum(map(len, self._labels)) + len(self._labels)

    def label_count(self) -> int:
        return len(self._labels)

    # -- relations ----------------------------------------------------------

    def is_subdomain_of(self, other: "Name") -> bool:
        """True when *self* equals *other* or is below it."""
        if len(other._folded) > len(self._folded):
            return False
        if not other._folded:
            return True
        return self._folded[len(self._folded) - len(other._folded) :] == other._folded

    def is_strict_subdomain_of(self, other: "Name") -> bool:
        return self != other and self.is_subdomain_of(other)

    def parent(self) -> "Name":
        if self.is_root() or not self._labels:
            raise ValueError("the root has no parent")
        return Name(self._labels[1:])

    def relativize(self, origin: "Name") -> "Name":
        """Strip ``origin`` from the end of *self* (must be a subdomain)."""
        if not self.is_subdomain_of(origin):
            raise ValueError(f"{self} is not a subdomain of {origin}")
        return Name(self._labels[: len(self._labels) - len(origin._labels)])

    def concatenate(self, suffix: "Name") -> "Name":
        if self.is_absolute():
            raise ValueError("cannot concatenate to an absolute name")
        return Name(self._labels + suffix._labels)

    def prepend(self, label: bytes | str) -> "Name":
        if isinstance(label, str):
            (raw,) = _text_to_labels(label)
        else:
            raw = label
        return Name((raw,) + self._labels)

    def split(self, depth: int) -> tuple["Name", "Name"]:
        """Split into (prefix, suffix) where suffix has ``depth`` labels."""
        if depth < 0 or depth > len(self._labels):
            raise ValueError("depth out of range")
        cut = len(self._labels) - depth
        return Name(self._labels[:cut]), Name(self._labels[cut:])

    def common_ancestor(self, other: "Name") -> "Name":
        """Deepest name that both *self* and *other* are subdomains of."""
        shared: list[bytes] = []
        for a, b in zip(reversed(self._folded), reversed(other._folded)):
            if a != b:
                break
            shared.append(a)
        shared.reverse()
        return Name(shared) if shared else Name(())

    # -- wire / canonical form ----------------------------------------------

    def to_wire(self) -> bytes:
        """Uncompressed wire form (original case)."""
        out = bytearray()
        for label in self._labels:
            out.append(len(label))
            out += label
        if not self.is_absolute():
            raise ValueError("cannot encode a relative name")
        return bytes(out)

    def canonical_wire(self) -> bytes:
        """RFC 4034 canonical form: lowercase, uncompressed."""
        out = bytearray()
        for label in self._folded:
            out.append(len(label))
            out += label
        if not self.is_absolute():
            raise ValueError("cannot encode a relative name")
        return bytes(out)

    def canonical(self) -> "Name":
        return Name(self._folded)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._folded == other._folded

    def __lt__(self, other: "Name") -> bool:
        """Canonical DNSSEC ordering (RFC 4034 section 6.1)."""
        if not isinstance(other, Name):
            return NotImplemented
        a = tuple(reversed([l for l in self._folded if l != b""]))
        b = tuple(reversed([l for l in other._folded if l != b""]))
        return a < b

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._labels)

    def __str__(self) -> str:
        if self.is_root():
            return "."
        parts = [_label_to_text(label) for label in self._labels if label != b""]
        return ".".join(parts) + ("." if self.is_absolute() else "")

    def __repr__(self) -> str:
        return f"<Name {self}>"


_ROOT = Name((b"",))
