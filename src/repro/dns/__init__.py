"""DNS wire-format substrate: names, records, messages, EDNS(0), and EDE."""

from .edns import DEFAULT_PAYLOAD, CookieOption, Edns, EdnsOption, OptionCode, PaddingOption
from .ede import (
    EDE_CATEGORIES,
    EDE_DESCRIPTIONS,
    POST_RFC_CODES,
    RFC8914_CODES,
    EdeCategory,
    EdeCode,
    ExtendedError,
    describe,
)
from .exceptions import (
    BadLabelType,
    BadPointer,
    DnsError,
    EmptyLabel,
    FormError,
    LabelTooLong,
    MessageTooBig,
    NameTooLong,
    OptionError,
    TruncatedMessage,
    UnknownRdataType,
)
from .message import Message, Question
from .name import Name
from .rcode import Rcode
from .rdata import A, AAAA, CAA, CNAME, MX, NS, PTR, SOA, SRV, TXT, GenericRdata, Rdata
from .render import LazyWire
from .dnssec_records import (
    DNSKEY,
    DNSKEY_PROTOCOL,
    DS,
    NSEC,
    NSEC3,
    NSEC3PARAM,
    REVOKE_FLAG,
    RRSIG,
    SEP_FLAG,
    ZONE_KEY_FLAG,
    decode_type_bitmap,
    encode_type_bitmap,
)
from .rrset import RRset, find_rrset
from .types import Opcode, RdataClass, RdataType
from .wire import WireReader, WireWriter

__all__ = [
    "A",
    "AAAA",
    "CAA",
    "CNAME",
    "CookieOption",
    "DEFAULT_PAYLOAD",
    "DNSKEY",
    "DNSKEY_PROTOCOL",
    "DS",
    "DnsError",
    "EDE_CATEGORIES",
    "EDE_DESCRIPTIONS",
    "Edns",
    "EdnsOption",
    "EdeCategory",
    "EdeCode",
    "ExtendedError",
    "FormError",
    "GenericRdata",
    "LazyWire",
    "MX",
    "Message",
    "NS",
    "NSEC",
    "NSEC3",
    "NSEC3PARAM",
    "Name",
    "Opcode",
    "OptionCode",
    "PTR",
    "PaddingOption",
    "Question",
    "POST_RFC_CODES",
    "RFC8914_CODES",
    "REVOKE_FLAG",
    "RRSIG",
    "RRset",
    "Rcode",
    "Rdata",
    "RdataClass",
    "RdataType",
    "SEP_FLAG",
    "SOA",
    "SRV",
    "TXT",
    "WireReader",
    "WireWriter",
    "ZONE_KEY_FLAG",
    "decode_type_bitmap",
    "describe",
    "encode_type_bitmap",
    "find_rrset",
]
