"""RRsets: all records sharing (owner name, class, type) and a TTL."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .name import Name
from .rdata import Rdata
from .types import RdataClass, RdataType
from .wire import WireWriter


@dataclass(frozen=True)
class RRset:
    """An RRset in the RFC 2181 sense.

    Immutable, like the names and rdatas it holds: a served, cached or
    fetched RRset is shared, never copied, because nothing can write
    it.  Rdatas keep the order they were given in; :meth:`of` drops
    duplicates, matching server behaviour.  ``rdtype`` is the bare wire
    value for a type without an :class:`RdataType` member (RFC 3597).
    """

    name: Name
    rdtype: RdataType
    ttl: int = 300
    rdclass: RdataClass = RdataClass.IN
    rdatas: tuple[Rdata, ...] = ()

    def __post_init__(self) -> None:
        if type(self.rdatas) is not tuple:
            object.__setattr__(self, "rdatas", tuple(self.rdatas))

    @classmethod
    def of(
        cls,
        name: Name,
        rdtype: RdataType,
        *rdatas: Rdata,
        ttl: int = 300,
        rdclass: RdataClass = RdataClass.IN,
    ) -> "RRset":
        return cls(name, rdtype, ttl, rdclass, tuple(dict.fromkeys(rdatas)))

    def with_ttl(self, ttl: int) -> "RRset":
        """This RRset served with ``ttl``: itself when the TTL is its own."""
        if ttl == self.ttl:
            return self
        return RRset(self.name, self.rdtype, ttl, self.rdclass, self.rdatas)

    def __iter__(self) -> Iterator[Rdata]:
        return iter(self.rdatas)

    def __len__(self) -> int:
        return len(self.rdatas)

    def __bool__(self) -> bool:
        return bool(self.rdatas)

    def match(self, name: Name, rdtype: RdataType, rdclass: RdataClass = RdataClass.IN) -> bool:
        return self.name == name and self.rdtype == rdtype and self.rdclass == rdclass

    # -- wire --------------------------------------------------------------

    def write(self, writer: WireWriter) -> int:
        """Write every RR of this set; returns the record count."""
        for rdata in self.rdatas:
            writer.write_name(self.name)
            writer.write_u16(int(self.rdtype))
            writer.write_u16(int(self.rdclass))
            writer.write_u32(self.ttl)
            rdlen_at = writer.offset
            writer.write_u16(0)
            start = writer.offset
            rdata.write(writer)
            writer.patch_u16(rdlen_at, writer.offset - start)
        return len(self.rdatas)

    def canonical_rdatas(self) -> list[bytes]:
        """Canonically-encoded rdatas, sorted (RFC 4034 section 6.3)."""
        return sorted(rdata.to_wire(canonical=True) for rdata in self.rdatas)

    def to_text(self) -> str:
        rdtype = self.rdtype
        if not isinstance(rdtype, RdataType):
            rdtype = f"TYPE{rdtype}"  # RFC 3597 section 5
        lines = [
            f"{self.name} {self.ttl} {self.rdclass} {rdtype} {rdata.to_text()}"
            for rdata in self.rdatas
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


def find_rrset(
    rrsets: Iterable[RRset],
    name: Name,
    rdtype: RdataType,
    rdclass: RdataClass = RdataClass.IN,
) -> RRset | None:
    """First RRset in ``rrsets`` matching the triple, or None."""
    for rrset in rrsets:
        if rrset.match(name, rdtype, rdclass):
            return rrset
    return None
