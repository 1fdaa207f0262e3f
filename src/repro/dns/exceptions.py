"""Exception hierarchy for the DNS substrate.

Every error raised by :mod:`repro.dns` derives from :class:`DnsError`, so
callers can catch protocol-level problems with one except clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class DnsError(Exception):
    """Base class for all DNS protocol errors."""


class FormError(DnsError):
    """A DNS message or record could not be parsed (wire-format error)."""


class TruncatedMessage(FormError):
    """The wire buffer ended before the announced data was complete."""


class BadPointer(FormError):
    """A compression pointer was malformed, forward, or cyclic."""


class BadLabelType(FormError):
    """A label had an unknown type (high bits ``01`` or ``10``)."""


class NameTooLong(DnsError):
    """An encoded domain name would exceed 255 octets."""


class LabelTooLong(DnsError):
    """A single label would exceed 63 octets."""


class EmptyLabel(DnsError):
    """A name contained an empty interior label (e.g. ``a..b``)."""


class BadEscape(DnsError):
    """A presentation-format name held a malformed escape (RFC 1035
    section 5.1): a ``\\DDD`` that is not three ASCII digits of value
    <= 255, or a ``\\`` that ends the text."""


class UnknownRdataType(DnsError):
    """No rdata implementation is registered for a given RR type."""


class MessageTooBig(DnsError):
    """The encoded message does not fit the requested payload size."""


class OptionError(DnsError):
    """An EDNS option could not be parsed or built."""
