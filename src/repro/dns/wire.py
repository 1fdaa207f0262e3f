"""Wire-format buffer primitives.

:class:`WireWriter` builds a DNS message with RFC 1035 name compression;
:class:`WireReader` parses one, following (and validating) compression
pointers.  The reader accepts any bytes-like buffer — ``bytes``,
``bytearray`` or ``memoryview`` — so callers can parse out of a larger
receive buffer (TCP streams, AXFR) without copying the message first.

Every simulated packet traverses this codec twice (once written, once
parsed), so the reader keeps a per-message *name cache*: the first time
a name is decoded, every label-start offset is remembered with its
decoded suffix, and later compression pointers into those offsets skip
the label walk entirely.  The cache changes no observable behaviour —
a pointer target is only cached after the slow walk validated it — and
can be disabled (``name_cache=False``) for differential testing against
the plain walk.
"""

from __future__ import annotations

import struct

from .exceptions import BadLabelType, BadPointer, TruncatedMessage
from .name import MAX_NAME_LENGTH, Name

_POINTER_FLAG = 0xC0
MAX_POINTER_TARGET = 0x3FFF


class WireWriter:
    """Accumulates wire data and compresses domain names.

    Compression targets are remembered per *folded* (lowercase) suffix so
    equal names differing only in case share pointers, as real servers do.
    """

    def __init__(self, enable_compression: bool = True):
        self._buf = bytearray()
        self._offsets: dict[tuple[bytes, ...], int] = {}
        self._compress = enable_compression

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def offset(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    # -- scalars -------------------------------------------------------------

    def write_u8(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def write_u16(self, value: int) -> None:
        self._buf += struct.pack("!H", value & 0xFFFF)

    def write_u32(self, value: int) -> None:
        self._buf += struct.pack("!I", value & 0xFFFFFFFF)

    def write_bytes(self, data: bytes) -> None:
        self._buf += data

    def patch_u16(self, offset: int, value: int) -> None:
        """Overwrite a previously written 16-bit field (e.g. RDLENGTH)."""
        struct.pack_into("!H", self._buf, offset, value & 0xFFFF)

    # -- names ----------------------------------------------------------------

    def write_name(self, name: Name, compress: bool | None = None) -> None:
        """Write ``name``, emitting a compression pointer when possible.

        DNSSEC rdata names must not be compressed (RFC 3597 / 4034); pass
        ``compress=False`` for those.
        """
        if not name.is_absolute():
            raise ValueError("can only encode absolute names")
        do_compress = self._compress if compress is None else compress
        labels = name.labels
        folded = name.folded_labels  # precomputed at Name construction
        for index in range(len(labels)):
            suffix = folded[index:]
            if suffix == (b"",):
                break
            if do_compress and suffix in self._offsets:
                pointer = self._offsets[suffix]
                self.write_u16(0xC000 | pointer)
                return
            if self.offset <= MAX_POINTER_TARGET:
                self._offsets.setdefault(suffix, self.offset)
            label = labels[index]
            self.write_u8(len(label))
            self.write_bytes(label)
        self.write_u8(0)


def name_wire_size(
    name: Name, offset: int, suffixes: set[tuple[bytes, ...]], compress: bool = True
) -> int:
    """Octets :meth:`WireWriter.write_name` appends for ``name`` at ``offset``.

    ``suffixes`` is the writer's compression table reduced to its keys
    (a pointer is two octets wherever it points) and is updated exactly
    as ``write_name`` updates its own: every suffix that starts at or
    below the 0x3FFF pointer limit is registered, compressed or not.
    """
    if compress and name.folded_labels in suffixes:
        return 2  # the common case: an owner name seen before
    labels = name.labels
    if not labels or labels[-1]:
        raise ValueError("can only encode absolute names")
    if not (compress and suffixes):
        # Nothing to point at: the name is written in full.
        size = len(name)
        if offset + size <= MAX_POINTER_TARGET:
            # Every label starts below the limit: all are registered.
            suffixes.update(name.suffixes)
            return size
    size = 0
    for index, suffix in enumerate(name.suffixes):
        if compress and suffix in suffixes:
            return size + 2
        if offset + size <= MAX_POINTER_TARGET:
            suffixes.add(suffix)
        size += 1 + len(labels[index])
    return size + 1


class ShapeRecorder(WireWriter):
    """Learns an rdata's wire shape from the rdata's own ``write()``.

    The shape is what a sizing pass needs in place of the bytes: the
    rdata's length and the names it wrote, because an uncompressed name
    still registers its suffixes as compression targets for every later
    owner name.  An rdata with no names has the plain ``int`` length as
    its shape; one with names has ``(length, offset, name, ...)``, each
    offset counted from the start of the rdata (flat, because one is
    kept per served rdata).  ``None`` means the length is not the
    rdata's own to state: it asked for a compressible name, whose size
    depends on the message around it.
    """

    def __init__(self) -> None:
        super().__init__(enable_compression=False)
        self._names: list[int | Name] = []
        self._context_free = True

    def write_name(self, name: Name, compress: bool | None = None) -> None:
        if compress is not False:
            self._context_free = False
        self._names += (self.offset, name)
        super().write_name(name, compress=False)

    def shape(self) -> int | tuple | None:
        if not self._context_free:
            return None
        if not self._names:
            return self.offset
        return (self.offset, *self._names)


class WireReader:
    """Sequential reader over a DNS wire buffer with pointer chasing."""

    def __init__(self, data: bytes | bytearray | memoryview, offset: int = 0,
                 name_cache: bool = True):
        self._data = data
        self._pos = offset
        #: label-start offset -> decoded (original-case) label suffix,
        #: including the root label; populated as names are read.
        self._names: dict[int, tuple[bytes, ...]] | None = (
            {} if name_cache else None
        )

    @property
    def pos(self) -> int:
        return self._pos

    def seek(self, offset: int) -> None:
        self._pos = offset

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    # -- scalars ---------------------------------------------------------------

    def read_u8(self) -> int:
        if self._pos + 1 > len(self._data):
            raise TruncatedMessage("u8 past end of buffer")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def read_u16(self) -> int:
        if self._pos + 2 > len(self._data):
            raise TruncatedMessage("u16 past end of buffer")
        (value,) = struct.unpack_from("!H", self._data, self._pos)
        self._pos += 2
        return value

    def read_u32(self) -> int:
        if self._pos + 4 > len(self._data):
            raise TruncatedMessage("u32 past end of buffer")
        (value,) = struct.unpack_from("!I", self._data, self._pos)
        self._pos += 4
        return value

    def read_bytes(self, count: int) -> bytes:
        if count < 0 or self._pos + count > len(self._data):
            raise TruncatedMessage(f"{count} bytes past end of buffer")
        # bytes() normalizes memoryview slices; on a bytes buffer the
        # slice is already a fresh bytes object and this is free.
        data = bytes(self._data[self._pos : self._pos + count])
        self._pos += count
        return data

    # -- names ------------------------------------------------------------------

    def read_name(self) -> Name:
        """Read a possibly compressed name starting at the current position.

        Pointers must point strictly backwards; cycles and forward pointers
        raise :class:`BadPointer`.

        A pointer whose target offset was already decoded by an earlier
        name in this message resolves from the name cache instead of
        re-walking the labels; validation (backwards-only, cycle set,
        255-octet bound) is identical either way, so the fast and slow
        paths accept and reject exactly the same inputs.
        """
        data = self._data
        size = len(data)
        cache = self._names
        labels: list[bytes] = []
        starts: list[int] = []  # buffer offset of each collected label
        total = 0
        pos = self._pos
        jumped = False
        seen: set[int] = set()
        while True:
            if pos >= size:
                raise TruncatedMessage("name runs past end of buffer")
            length = data[pos]
            kind = length & _POINTER_FLAG
            if kind == _POINTER_FLAG:
                if pos + 2 > size:
                    raise TruncatedMessage("pointer past end of buffer")
                target = ((length & 0x3F) << 8) | data[pos + 1]
                if not jumped:
                    self._pos = pos + 2
                    jumped = True
                if target >= pos or target in seen:
                    raise BadPointer(f"bad compression pointer to {target}")
                seen.add(target)
                if cache is not None:
                    suffix = cache.get(target)
                    if suffix is not None:
                        # Same length accounting as the walk below; the
                        # root label never contributes to `total`.
                        for label in suffix:
                            if label:
                                total += len(label) + 1
                                if total > MAX_NAME_LENGTH:
                                    raise BadPointer(
                                        "name exceeds 255 octets while decompressing"
                                    )
                        labels.extend(suffix)
                        return self._finish_name(labels, starts)
                pos = target
                continue
            if kind != 0:
                raise BadLabelType(f"unsupported label type {kind >> 6:#04b}")
            if length == 0:
                labels.append(b"")
                if not jumped:
                    self._pos = pos + 1
                return self._finish_name(labels, starts)
            if pos + 1 + length > size:
                raise TruncatedMessage("label runs past end of buffer")
            starts.append(pos)
            labels.append(bytes(data[pos + 1 : pos + 1 + length]))
            total += length + 1
            if total > MAX_NAME_LENGTH:
                raise BadPointer("name exceeds 255 octets while decompressing")
            pos += 1 + length

    def _finish_name(self, labels: list[bytes], starts: list[int]) -> Name:
        """Build the Name and remember every label-start suffix."""
        name = Name.from_wire_labels(labels)
        cache = self._names
        if cache is not None and starts:
            wire_labels = name.labels
            for index, start in enumerate(starts):
                if start <= MAX_POINTER_TARGET and start not in cache:
                    cache[start] = wire_labels[index:]
        return name
