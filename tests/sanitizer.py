"""Runtime determinism sanitizer.

While armed, the process-global wall-clock and RNG entry points raise
:class:`DeterminismViolation` instead of answering, catching dynamic
access a source scan cannot see (``getattr`` tricks, C extensions,
third-party code)::

    with determinism_sanitizer():
        run_matrix(testbed)        # any time.time()/random.random() raises

The answer path must also wait only on the virtual clock, so while
armed the real-blocking calls — ``threading`` waits, joins and
semaphore acquires, blocking ``socket`` methods and
``socket.create_connection`` — raise too, but only while an endpoint
door (:meth:`~repro.net.endpoint.Endpoint.handle_datagram`,
``handle_paved``, ``handle_stream``) is on the caller's stack; outside
a door they behave as before.  A door turns an ``Exception`` out of its
body into a SERVFAIL, so a violation raised under a door is also
recorded, and the outermost armed block raises it on exit.

It composes with the chaos suite the same way ASan composes with a
fuzzer: CI runs ``pytest -m chaos`` once with ``REPRO_SANITIZER=1`` so
every fabric path is exercised with the tripwires in place.  Seeded
``random.Random`` *instances* are untouched — they are exactly the
sanctioned mechanism — as is the :class:`~repro.net.clock.Clock`
hierarchy, whose simulated implementation never touches ``time``.
"""

from __future__ import annotations

import os
import random
import socket
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.net.endpoint import Endpoint


class DeterminismViolation(RuntimeError):
    """A sanitized region read the wall clock or ambient entropy, or blocked in a door."""


#: (module, attribute) entry points replaced while the sanitizer is armed.
_GUARDED: tuple[tuple[object, str], ...] = (
    (time, "time"),
    (time, "time_ns"),
    (time, "monotonic"),
    (time, "perf_counter"),
    (time, "sleep"),
    (os, "urandom"),
    (random, "random"),
    (random, "randrange"),
    (random, "randint"),
    (random, "getrandbits"),
    (random, "randbytes"),
    (random, "choice"),
    (random, "choices"),
    (random, "shuffle"),
    (random, "sample"),
    (random, "uniform"),
    (random, "seed"),
)

#: Real-blocking calls, replaced while armed but tripped only in a door.
_DOOR_GUARDED: tuple[tuple[object, str], ...] = (
    (threading.Event, "wait"),
    (threading.Condition, "wait"),
    (threading.Condition, "wait_for"),
    (threading.Semaphore, "acquire"),
    (threading.Barrier, "wait"),
    (threading.Thread, "join"),
    *(
        (socket.socket, name)
        for name in sorted(dir(socket.socket))
        if name.startswith(("recv", "send")) or name in ("accept", "connect")
    ),
    (socket, "create_connection"),
)

_DOORS = frozenset({"handle_datagram", "handle_paved", "handle_stream"})
_MISSING = object()

_arm_depth = 0
#: Violations raised under a door while armed, for the outermost exit.
_caught: list[DeterminismViolation] = []


def _in_door() -> bool:
    """True when an :class:`Endpoint` door is on the calling thread's stack."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name in _DOORS and isinstance(
            frame.f_locals.get("self"), Endpoint
        ):
            return True
        frame = frame.f_back
    return False


def _tripwire(name: str, original, everywhere: bool):
    def tripwire(*args, **kwargs):
        in_door = _in_door()
        if not (everywhere or in_door):
            return original(*args, **kwargs)
        violation = DeterminismViolation(
            f"{name}() called{' inside an endpoint door' if in_door else ''} while"
            " the determinism sanitizer is armed; simulated code must use the"
            " injected Clock / seeded random.Random and wait only on the"
            " virtual clock (see docs/ARCHITECTURE.md)"
        )
        if in_door:
            _caught.append(violation)
        raise violation

    return tripwire


def _name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


@contextmanager
def determinism_sanitizer() -> Iterator[None]:
    """Arm the tripwires for the duration of the block (re-entrant)."""
    global _arm_depth
    outermost = _arm_depth == 0
    saved: list[tuple[object, str, object]] = []
    escaped: BaseException | None = None
    _arm_depth += 1
    try:
        if outermost:
            for everywhere, guarded in ((True, _GUARDED), (False, _DOOR_GUARDED)):
                for owner, attr in guarded:
                    name = _name(owner, attr)
                    saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                    setattr(owner, attr, _tripwire(name, getattr(owner, attr), everywhere))
        yield
    except BaseException as exc:
        escaped = exc
        raise
    finally:
        _arm_depth -= 1
        # An attribute the owner only inherited is deleted, not set back.
        for owner, attr, original in saved:
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if outermost and _caught:
            first, reraised = _caught[0], any(v is escaped for v in _caught)
            _caught.clear()
            if not reraised:
                raise first
