"""Zone data model, signed-zone builder, and misconfiguration mutations."""

from .builder import BuiltZone, Delegation, ZoneBuilder
from .lint import Finding, Severity, ZoneLinter, lint_zone
from .mutations import VALID, SigScope, Window, ZoneMutation
from .zone import LookupResult, LookupStatus, Zone
from .zonefile import ZoneFileError, parse_zone, write_zone

__all__ = [
    "BuiltZone",
    "Delegation",
    "Finding",
    "LookupResult",
    "Severity",
    "ZoneLinter",
    "lint_zone",
    "LookupStatus",
    "SigScope",
    "VALID",
    "Window",
    "Zone",
    "ZoneBuilder",
    "ZoneFileError",
    "ZoneMutation",
    "parse_zone",
    "write_zone",
]
