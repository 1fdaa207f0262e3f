"""Query access-control lists (the ``allow-query`` knob).

Models BIND-style ACLs closely enough for the testbed's
``allow-query-none`` and ``allow-query-localhost`` cases: a list of
prefixes matched against the client source address, with ``none`` and
``localhost`` built-ins.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field


#: Remembered per-source verdicts per ACL; cleared when full.
_MAX_VERDICTS = 1024


@dataclass
class Acl:
    """An allow-list of client prefixes, fixed at construction."""

    prefixes: list[str] = field(default_factory=lambda: ["0.0.0.0/0", "::/0"])
    name: str = "any"

    def __post_init__(self) -> None:
        self._networks = [ipaddress.ip_network(prefix) for prefix in self.prefixes]
        self._verdicts: dict[str, bool] = {}

    @classmethod
    def any(cls) -> "Acl":
        return cls()

    @classmethod
    def none(cls) -> "Acl":
        return cls(prefixes=[], name="none")

    @classmethod
    def localhost(cls) -> "Acl":
        return cls(prefixes=["127.0.0.0/8", "::1/128"], name="localhost")

    @classmethod
    def from_keyword(cls, keyword: str | None) -> "Acl":
        if keyword in (None, "any"):
            return cls.any()
        if keyword == "none":
            return cls.none()
        if keyword == "localhost":
            return cls.localhost()
        return cls(prefixes=[keyword], name=keyword)

    def allows(self, source: str) -> bool:
        verdict = self._verdicts.get(source)
        if verdict is None:
            verdict = self._matches(source)
            if len(self._verdicts) >= _MAX_VERDICTS:
                self._verdicts.clear()
            self._verdicts[source] = verdict
        return verdict

    def _matches(self, source: str) -> bool:
        try:
            address = ipaddress.ip_address(source)
        except ValueError:
            return False
        return any(
            address.version == network.version and address in network
            for network in self._networks
        )
