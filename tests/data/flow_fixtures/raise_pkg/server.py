"""An endpoint door that forgets to wrap its parse step."""


class ParseError(Exception):
    pass


def decode(wire: bytes) -> bytes:
    if not wire:
        raise ParseError("empty datagram")  # line 10: the seeded violation
    return wire


def risky() -> None:
    raise RuntimeError("boom")  # protected at the call site: must NOT flag


class RefuseError(Exception):
    pass


def walker(wire: bytes) -> int:
    raise RefuseError("cannot map")  # name-caught at the call site: must NOT flag


def mismatch() -> None:
    raise KeyError("wrong class")  # line 27: handler name differs, MUST flag


class Endpoint:
    def handle_datagram(self, wire: bytes, source: str) -> bytes:
        payload = decode(wire)
        try:
            risky()
        except Exception:
            return b""
        try:
            walker(wire)
        except RefuseError:
            pass
        try:
            mismatch()
        except RefuseError:
            pass
        return payload
