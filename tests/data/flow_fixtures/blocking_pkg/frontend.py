"""An endpoint door whose answer path blocks — but only via another module."""

from .helpers import slow_retry


def lane_wait(predicate, wake_at=None):
    return predicate()


def wait_virtual(predicate, wake_at=None):
    return predicate()


class Endpoint:
    def handle_datagram(self, wire: bytes, source: str) -> bytes:
        try:
            slow_retry(0.25)
        except Exception:
            pass
        lane_wait(lambda: True)  # line 20: unbounded wait, also a violation
        wait_virtual(lambda: True, wake_at=5.0)  # bounded: must NOT flag
        return wire
