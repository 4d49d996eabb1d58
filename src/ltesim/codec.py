"""Frame grammar for the simulated air interface.

Every frame is a 16-byte header followed by a message body. All
integers are big-endian, fixed width. The header is never ciphered:
whatever else a network protects, radio scheduling metadata stays
readable, which is exactly the property the passive-tracking model
exploits.

Header layout (16 bytes):

    timestamp_ms  u64   simulated milliseconds
    cell_id       u32   upper 4 bits zero (28-bit id)
    rnti          u16   0x0000 = broadcast/unassigned sentinel,
                        0x0001..0xFFF3 device range, rest reserved
    direction     u8    0 = downlink, 1 = uplink
    protection    u8    0 = cleartext body, 1 = protected body

A protected body region opens with a cleartext key_id u32 and continues
with the encoded message XOR-masked by the session keystream. Holders of
the session key decode it fully; everyone else gets the header and the
body length (an Opaque result), nothing more. The only party in a run
that reads frame bytes is the keyless sniffer, so a run never masks: it
airs each protected frame as `keyless_frame` builds it, the header, the
key_id and zero filler as long as the body, and a capture replay
rebuilds the same bytes. `encode` and `decode` with keys are the full
wire format, for tools and tests that hold the keys.

Body grammar: one type byte, then the message fields in declaration
order. The message classes below are the frozen type table: each is a
frozen `record.Record` that names its type byte in its class statement
and declares each field once, as `wire(kind)` or `arm(kind)`. A field
kind owns its bytes, its domain check and its capture-JSON form, and
`_Codec` derives encode, decode and JSON in both directions from the
record's field table. The encoding rules:

  - integers are big-endian and fixed width: u8, u16, u32, i8, and u40
    for the random connection id;
  - lists carry a one-byte count prefix, optional fields a one-byte
    presence flag (0 absent, 1 present);
  - the `arm` fields of a message form a tagged identity union: a tag
    byte, the arm's index in declaration order, then that arm;
  - an IMSI is a one-byte mnc length followed by 15 ASCII digits, an
    IMEI is 15 ASCII digits; a PLMN is mcc u16, mnc_len u8, mnc u16;
  - user data is byte_count u16 followed by byte_count zero bytes.

EMM cause codes are the closed set 0x0B plmn_not_allowed,
0x07 eps_services_not_allowed, 0x16 congestion_benign.

encode/decode are exact inverses on valid input and encoding is
canonical: equal frames produce equal bytes. A value outside its
field's domain, whether being encoded, decoded or read from a capture
body, raises a CodecError.
"""

from __future__ import annotations

import enum
import struct
from typing import Mapping, Optional, Union

from .crypto_stub import keystream_mask
from .identity import RNTI_MAX, RNTI_MIN, Imsi, Plmn, format_tmsi, is_device_rnti, parse_imsi
from .record import MISSING, Field, Record

HEADER_LEN = 16
RAND_LEN = 16
AUTN_LEN = 16
RES_LEN = 8


class CodecError(Exception):
    """Base for anything the codec refuses to read or write."""


class Truncated(CodecError):
    """Input ended before the grammar did."""


class UnknownType(CodecError):
    """Type byte outside the frozen table."""


class TrailingBytes(CodecError):
    """Input continued after the grammar ended."""


class InvariantViolation(CodecError):
    """Field value outside its declared domain."""


class CaptureInvalid(ValueError):
    """Unreadable capture or report input; the message says where."""


class Direction(enum.IntEnum):
    DOWNLINK = 0
    UPLINK = 1


class EmmCause(enum.IntEnum):
    """Reject causes the model distinguishes; codes are wire-frozen."""

    EPS_SERVICES_NOT_ALLOWED = 0x07
    PLMN_NOT_ALLOWED = 0x0B
    CONGESTION_BENIGN = 0x16


class IdentityKind(enum.IntEnum):
    IMSI = 0
    IMEI = 1


MIB_BANDWIDTHS = (6, 15, 25, 50, 75, 100)


class FrameHeader(Record):
    """The cleartext scheduling metadata of one frame on the wire: its 16
    header bytes, and the key_id that opens a protected body. Parties
    address each other with `ue.Emission`; only the codec, the engine's
    frame writer and capture replay, and the sniffer use a header, and
    only `pack_header` and `decode_header` validate it."""

    timestamp_ms: int
    cell_id: int
    rnti: int
    direction: Direction
    key_id: Optional[int] = None

    @property
    def protected(self) -> bool:
        return self.key_id is not None

    @property
    def repeats(self) -> bool:
        """A cleartext frame to rnti 0 (a Mib, Sib1 or Paging broadcast,
        or an access preamble), whose bodies recur, so each distinct one
        may be remembered."""
        return self.rnti == 0 and self.key_id is None

    def validate(self) -> None:
        if not 0 <= self.timestamp_ms < (1 << 64):
            raise InvariantViolation(f"timestamp out of range: {self.timestamp_ms}")
        if not 0 <= self.cell_id < (1 << 28):
            raise InvariantViolation(f"cell_id out of range: {self.cell_id}")
        if self.rnti != 0 and not is_device_rnti(self.rnti):
            raise InvariantViolation(f"rnti outside device range: {self.rnti}")
        if self.key_id is not None and not 0 <= self.key_id < (1 << 32):
            raise InvariantViolation(f"key_id out of range: {self.key_id}")


# -- field kinds ------------------------------------------------------------------


def _as_is(v):
    """No conversion; the generic layer does not even call it."""
    return v


class Kind:
    """How one field is written: its struct code, domain and JSON form.

    A fixed-width kind has a struct `code`; `pack` checks an attribute
    value and returns what the struct writes, `unpack` checks what the
    struct read and returns the attribute value. A variable-width kind
    (empty code) may only be a message's last field; it writes its own
    bytes with `write(v)` and reads them with `read(data, pos)`, which
    returns the value and the offset after it. `to_json` and `from_json`
    convert to and from the capture body, and `from_json` checks too.
    """

    code = ""
    inline = False  # a union arm whose JSON fields sit beside "kind"
    unpack = to_json = staticmethod(_as_is)


_CODE_RANGES = {"B": range(1 << 8), "H": range(1 << 16), "I": range(1 << 32), "b": range(-128, 128)}


class Int(Kind):
    """Integer restricted to `domain`, by default all its code holds."""

    def __init__(self, code: str, domain=None):
        self.code = code
        self.domain = _CODE_RANGES[code] if domain is None else domain
        if domain is None:  # the struct itself refuses what its code cannot hold
            self.pack = self.unpack = _as_is

    def check(self, v):
        if type(v) is not int or v not in self.domain:
            raise InvariantViolation(f"expected an integer in {self.domain}, got {v!r}")
        return v

    pack = unpack = from_json = check


class U40(Int):
    """Five-byte unsigned integer."""

    def __init__(self):
        super().__init__("5s", range(1 << 40))

    def pack(self, v):
        return self.check(v).to_bytes(5, "big")

    def unpack(self, w):
        return int.from_bytes(w, "big")


class Tmsi(Int):
    """u32 temporary identity; JSON is its canonical 0x-prefixed hex."""

    def __init__(self):
        super().__init__("I")

    def to_json(self, v):
        return format_tmsi(v)

    def from_json(self, j):
        v = self.check(int(j, 16))
        if format_tmsi(v) != j:
            raise InvariantViolation(f"tmsi not in canonical hex form: {j!r}")
        return v


class Enum(Kind):
    """IntEnum member in one byte; JSON is the member name in lower case."""

    code = "B"

    def __init__(self, members: type[enum.IntEnum]):
        self.by_value = {m.value: m for m in members}
        self.by_name = {m.name.lower(): m for m in members}

    def pack(self, v):
        m = self.by_value.get(v)
        if m is None:
            raise InvariantViolation(f"not one of {sorted(self.by_name)}: {v!r}")
        return m

    unpack = pack

    def to_json(self, v):
        return self.pack(v).name.lower()

    def from_json(self, j):
        m = self.by_name.get(j)
        if m is None:
            raise InvariantViolation(f"not one of {sorted(self.by_name)}: {j!r}")
        return m


class Bytes(Kind):
    """Fixed-length byte string; JSON is lower-case hex."""

    def __init__(self, n: int):
        self.n = n
        self.code = f"{n}s"

    def pack(self, v):
        if not isinstance(v, bytes) or len(v) != self.n:
            raise InvariantViolation(f"expected {self.n} bytes, got {v!r}")
        return v

    def to_json(self, v):
        return v.hex()

    def from_json(self, j):
        return self.pack(bytes.fromhex(j))


class Digits(Kind):
    """Fifteen ASCII digits; JSON is the digit string."""

    code = "15s"

    def pack(self, v):
        if type(v) is not str or len(v) != 15 or not (v.isascii() and v.isdigit()):
            raise InvariantViolation(f"expected 15 ASCII digits, got {v!r}")
        return v.encode("ascii")

    def unpack(self, w):
        if not w.isdigit():  # bytes.isdigit is ASCII-only
            raise InvariantViolation(f"expected 15 ASCII digits, got {w!r}")
        return w.decode("ascii")

    def from_json(self, j):
        self.pack(j)
        return j


class ImsiKind(Digits):
    """mnc length u8 + 15 ASCII digits; JSON {"value", "mnc_len"}."""

    code = "16s"
    inline = True

    def pack(self, v):
        return bytes([len(v.mnc)]) + str(v).encode("ascii")

    def unpack(self, w):
        if w[0] not in (2, 3):
            raise InvariantViolation(f"imsi mnc length must be 2 or 3, got {w[0]}")
        return parse_imsi(super().unpack(w[1:]), w[0])

    def to_json(self, v):
        return {"value": str(v), "mnc_len": len(v.mnc)}

    def from_json(self, j):
        return parse_imsi(j["value"], j["mnc_len"])


class PlmnKind(Kind):
    """mcc u16, mnc_len u8, mnc u16; JSON {"mcc", "mnc"} as digit strings."""

    code = "5s"
    layout = struct.Struct(">HBH")

    def pack(self, v):
        return self.layout.pack(int(v.mcc), len(v.mnc), int(v.mnc))

    def unpack(self, w):
        mcc, mnc_len, mnc = self.layout.unpack(w)
        if mnc_len not in (2, 3) or mcc > 999 or mnc >= 10**mnc_len:
            raise InvariantViolation(f"bad plmn: mcc {mcc}, mnc {mnc} of length {mnc_len}")
        return Plmn(f"{mcc:03d}", f"{mnc:0{mnc_len}d}")

    def to_json(self, v):
        return {"mcc": v.mcc, "mnc": v.mnc}

    def from_json(self, j):
        return Plmn(j["mcc"], j["mnc"])


class Pairs(Kind):
    """Count u8, then that many (first, second) pairs; JSON is a list of
    two-element lists."""

    def __init__(self, first: Kind, second: Kind):
        self.first, self.second = first, second
        self.item = struct.Struct(">" + first.code + second.code)

    def write(self, v):
        if len(v) > 255:
            raise InvariantViolation(f"list too long: {len(v)} entries")
        out = bytearray((len(v),))
        for a, b in v:
            out += self.item.pack(self.first.pack(a), self.second.pack(b))
        return bytes(out)

    def read(self, data, pos):
        end = pos + 1 + data[pos] * self.item.size
        if end > len(data):
            raise Truncated(f"list needs {end - pos} bytes at offset {pos}")
        first, second = self.first.unpack, self.second.unpack
        return tuple((first(a), second(b)) for a, b in self.item.iter_unpack(data[pos + 1 : end])), end

    def to_json(self, v):
        return [[self.first.to_json(a), self.second.to_json(b)] for a, b in v]

    def from_json(self, j):
        if type(j) is not list:
            raise InvariantViolation(f"expected a list, got {j!r}")
        return tuple((self.first.from_json(a), self.second.from_json(b)) for a, b in j)


class Presence(Kind):
    """Flag u8, 0 absent or 1 present, then the fixed-width kind; JSON is
    null or the kind's JSON."""

    def __init__(self, kind: Kind):
        self.kind = kind
        self.layout = struct.Struct(">B" + kind.code)

    def write(self, v):
        return b"\x00" if v is None else self.layout.pack(1, self.kind.pack(v))

    def read(self, data, pos):
        if data[pos] == 0:
            return None, pos + 1
        if data[pos] != 1:
            raise InvariantViolation(f"bad presence flag: {data[pos]}")
        return self.kind.unpack(self.layout.unpack_from(data, pos)[1]), pos + self.layout.size

    def to_json(self, v):
        return None if v is None else self.kind.to_json(v)

    def from_json(self, j):
        return None if j is None else self.kind.from_json(j)


class Zeros(Kind):
    """byte_count u16, then byte_count zero bytes; JSON is the count."""

    count = Int("H")
    layout = struct.Struct(">H")

    def write(self, v):
        return self.layout.pack(self.count.check(v)) + bytes(v)

    def read(self, data, pos):
        (n,) = self.layout.unpack_from(data, pos)
        end = pos + 2 + n
        if end > len(data):
            raise Truncated(f"user data needs {n} bytes at offset {pos + 2}")
        if data.count(0, pos + 2, end) != n:
            raise InvariantViolation("user data filler must be zeros")
        return n, end

    def from_json(self, j):
        return self.count.from_json(j)


class IdentityUnion(Kind):
    """Tag u8 (the arm's index), then that arm. JSON is {"kind": arm
    name, "value": arm JSON}, or the arm's own fields for an inline arm.
    A value is (arm index, arm value)."""

    def __init__(self, arms: list[tuple[str, str, Kind]]):
        self.names, self.attrs, self.kinds = zip(*arms)
        self.layouts = [struct.Struct(">B" + kind.code) for kind in self.kinds]
        self.by_name = {name: i for i, name in enumerate(self.names)}

    def get(self, msg):
        for i, attr in enumerate(self.attrs):
            if getattr(msg, attr) is not None:
                return i, getattr(msg, attr)

    def write(self, v):
        i, x = v
        return self.layouts[i].pack(i, self.kinds[i].pack(x))

    def read(self, data, pos):
        i = data[pos]
        if i >= len(self.kinds):
            raise InvariantViolation(f"bad identity tag: {i}")
        layout = self.layouts[i]
        return (i, self.kinds[i].unpack(layout.unpack_from(data, pos)[1])), pos + layout.size

    def to_json(self, v):
        i, x = v
        j = self.kinds[i].to_json(x)
        return {"kind": self.names[i], **j} if self.kinds[i].inline else {"kind": self.names[i], "value": j}

    def from_json(self, j):
        i = self.by_name.get(j["kind"])
        if i is None:
            raise InvariantViolation(f"unknown identity kind: {j['kind']!r}")
        return i, self.kinds[i].from_json(j if self.kinds[i].inline else j["value"])


U16, U32, I8 = Int("H"), Int("I"), Int("b")
CELL_ID = Int("I", range(1 << 28))
RNTI = Int("H", range(RNTI_MIN, RNTI_MAX + 1))
TMSI, IMSI, IMEI, PLMN = Tmsi(), ImsiKind(), Digits(), PlmnKind()


def wire(kind: Kind, default=MISSING):
    """A record field written as `kind`."""
    return Field(default, kind=kind)


def arm(kind: Kind, name: Optional[str] = None):
    """One arm of the message's identity union, written as `kind`; `name`
    is its JSON kind, by default the attribute name. Unset arms are None
    and exactly one must be set."""
    return Field(None, kind=kind, arm=name)


# -- generic layer ----------------------------------------------------------------


class _Codec(Kind):
    """Encode, decode, domain checks and JSON for one record, derived
    from its declared fields. A message's struct opens with its type
    byte. A record without a variable-width field is itself a
    fixed-width kind, so records nest."""

    def __init__(self, cls: type):
        self.name = getattr(cls, "NAME", cls.__name__)
        fields = cls._fields
        arms = [(f.meta["arm"] or name, name, f.meta["kind"]) for name, f in fields.items() if "arm" in f.meta]
        self.union = union = IdentityUnion(arms) if arms else None
        if union:
            self.fields = [("identity", union)]
            self.get = lambda rec: (union.get(rec),)
            self.build = lambda chosen: cls(**{union.attrs[chosen[0]]: chosen[1]})
        else:
            self.fields = [(name, f.meta["kind"]) for name, f in fields.items()]
            self.get, self.build = cls._values, cls
        self.keys = [key for key, _ in self.fields]
        self.to_jsons = [(key, kind.to_json) for key, kind in self.fields if kind.to_json is not _as_is]
        self.from_jsons = [(key, kind.from_json) for key, kind in self.fields]
        kinds = [kind for _, kind in self.fields]
        self.tail = kinds.pop() if kinds and not kinds[-1].code else None
        if len(arms) not in (0, len(fields)) or not all(kind.code for kind in kinds):
            raise TypeError(f"{self.name}: a variable-width field or union must come last and alone")
        self.packs = [(i, kind.pack) for i, kind in enumerate(kinds) if kind.pack is not _as_is]
        self.unpacks = [(i, kind.unpack) for i, kind in enumerate(kinds) if kind.unpack is not _as_is]
        self.prefix = [cls.TYPE] if hasattr(cls, "TYPE") else []
        self.layout = struct.Struct(">" + "B" * len(self.prefix) + "".join(kind.code for kind in kinds))
        self.code = "" if self.tail else f"{self.layout.size}s"

    def pack(self, rec) -> bytes:
        vals = list(self.get(rec))
        try:
            for i, pack in self.packs:
                vals[i] = pack(vals[i])
            if self.tail:
                return self.layout.pack(*self.prefix, *vals[:-1]) + self.tail.write(vals[-1])
            return self.layout.pack(*self.prefix, *vals)
        except (InvariantViolation, struct.error) as exc:
            raise InvariantViolation(f"{self.name}: {exc}") from None

    def read(self, data: bytes, pos: int):
        """The record at data[pos:] and the offset after it."""
        try:
            vals = list(self.layout.unpack_from(data, pos))[len(self.prefix) :]
            for i, unpack in self.unpacks:
                vals[i] = unpack(vals[i])
            pos += self.layout.size
            if self.tail:
                v, pos = self.tail.read(data, pos)
                vals.append(v)
        except (struct.error, IndexError):
            raise Truncated(f"{self.name}: input ends inside the record") from None
        return self.build(*vals), pos

    def unpack(self, w):
        return self.read(w, 0)[0]

    def to_json(self, rec) -> dict:
        out = dict(zip(self.keys, self.get(rec)))
        for key, to_json in self.to_jsons:
            out[key] = to_json(out[key])
        return out

    def from_json(self, body):
        if type(body) is not dict:
            raise InvariantViolation(f"{self.name}: body must be an object, got {body!r}")
        try:
            return self.build(*[from_json(body[key]) for key, from_json in self.from_jsons])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvariantViolation(f"{self.name}: bad capture body: {exc!r}") from None


def _one_arm(msg) -> None:
    attrs = msg._codec.union.attrs
    if [getattr(msg, a) is None for a in attrs].count(False) != 1:
        raise InvariantViolation(f"exactly one of {'/'.join(attrs)} must be set")


_BY_TYPE: dict = {}


class _Wire(Record):
    """A record the codec writes. A subclass declared with `type_byte` and
    `name` is a message, registered under its wire type byte and capture
    name; one with an identity union checks that exactly one arm is set."""

    def __init_subclass__(cls, type_byte: Optional[int] = None, name: str = ""):
        if type_byte is not None:
            cls.TYPE, cls.NAME, _BY_TYPE[type_byte] = type_byte, name, cls
        cls._codec = _Codec(cls)
        if cls._codec.union:
            cls.__post_init__ = _one_arm


# -- messages ---------------------------------------------------------------------


class Mib(_Wire, type_byte=0x01, name="mib"):
    """Master broadcast: bandwidth and frame number, nothing secret."""

    bandwidth_rb: int = wire(Int("B", MIB_BANDWIDTHS))
    sfn: int = wire(Int("H", range(1024)))


class Sib1(_Wire, type_byte=0x02, name="sib1"):
    """System information: who the cell claims to be and which channels
    it wants devices to prefer. Entirely unauthenticated."""

    plmn: Plmn = wire(PLMN)
    tac: int = wire(U16)
    cell_id: int = wire(CELL_ID)
    min_rx_level_dbm: int = wire(I8)
    priority_earfcns: tuple[tuple[int, int], ...] = wire(Pairs(U32, Int("B", range(8))), ())


class RachPreamble(_Wire, type_byte=0x03, name="rach_preamble"):
    """First uplink of any connection; sent before any identity exists."""

    preamble_id: int = wire(Int("B", range(64)))


class MacRar(_Wire, type_byte=0x04, name="mac_rar"):
    """Random-access response assigning the temporary radio id."""

    temp_rnti: int = wire(RNTI)
    timing_advance: int = wire(Int("H", range(2048)), 0)
    uplink_grant: int = wire(Int("I", range(1 << 20)), 0)


class RrcConnectionRequest(_Wire, type_byte=0x05, name="rrc_connection_request"):
    """Connection attempt; carries a TMSI when the device holds one,
    otherwise a random 40-bit value."""

    tmsi: Optional[int] = arm(TMSI)
    random_id: Optional[int] = arm(U40(), "random")


class RrcConnectionSetup(_Wire, type_byte=0x06, name="rrc_connection_setup"):
    pass


class AttachRequest(_Wire, type_byte=0x07, name="attach_request"):
    """Registration request. Identity is the permanent IMSI only when no
    temporary identity exists; every IMSI here is a privacy event."""

    imsi: Optional[Imsi] = arm(IMSI)
    tmsi: Optional[int] = arm(TMSI)


class IdentityRequest(_Wire, type_byte=0x08, name="identity_request"):
    """Network asks for a permanent identity. Pre-authentication, so
    anyone running a cell can ask."""

    requested: IdentityKind = wire(Enum(IdentityKind))


class IdentityResponse(_Wire, type_byte=0x09, name="identity_response"):
    imsi: Optional[Imsi] = arm(IMSI)
    imei: Optional[str] = arm(IMEI)


class AuthenticationRequest(_Wire, type_byte=0x0A, name="authentication_request"):
    """Challenge from a network that holds the subscriber key. A rogue
    cell cannot produce a valid one, which is why its conversations end
    before this point."""

    rand: bytes = wire(Bytes(RAND_LEN))
    autn: bytes = wire(Bytes(AUTN_LEN))


class AuthenticationResponse(_Wire, type_byte=0x0B, name="authentication_response"):
    res: bytes = wire(Bytes(RES_LEN))


class SecurityModeCommand(_Wire, type_byte=0x0C, name="security_mode_command"):
    """Activates the session security context named by key_id."""

    key_id: int = wire(U32)


class SecurityModeComplete(_Wire, type_byte=0x0D, name="security_mode_complete"):
    pass


class AttachAccept(_Wire, type_byte=0x0E, name="attach_accept"):
    """Registration granted; assigns the temporary identity."""

    tmsi: int = wire(TMSI)
    tac: int = wire(U16)


class AttachReject(_Wire, type_byte=0x0F, name="attach_reject"):
    """Registration refused. Unauthenticated, and the cause byte decides
    how long and how widely the device gives up."""

    emm_cause: EmmCause = wire(Enum(EmmCause))


class TauRequest(_Wire, type_byte=0x10, name="tau_request"):
    """Tracking-area update after moving into a new area."""

    tmsi: int = wire(TMSI)
    tac: int = wire(U16)


class TauReject(_Wire, type_byte=0x11, name="tau_reject"):
    emm_cause: EmmCause = wire(Enum(EmmCause))


class Paging(_Wire, type_byte=0x12, name="paging"):
    """Broadcast wake-up call; names the device for everyone to hear."""

    imsi: Optional[Imsi] = arm(IMSI)
    tmsi: Optional[int] = arm(TMSI)


class MeasurementReport(_Wire, type_byte=0x13, name="measurement_report"):
    """Receive levels the device reports back; feeds handover decisions."""

    neighbors: tuple[tuple[int, int], ...] = wire(Pairs(CELL_ID, I8), ())


class MobilityControlInfo(_Wire):
    """Where to go and which radio id to use when arriving."""

    target_cell_id: int = wire(CELL_ID)
    new_rnti: int = wire(RNTI)


class RrcConnectionReconfiguration(_Wire, type_byte=0x14, name="rrc_connection_reconfiguration"):
    """Connection update. With mobility info it is the handover order,
    and it names the device's next radio identity."""

    mobility: Optional[MobilityControlInfo] = wire(Presence(MobilityControlInfo._codec), None)


class RrcConnectionReconfigurationComplete(_Wire, type_byte=0x15, name="rrc_connection_reconfiguration_complete"):
    pass


class UserData(_Wire, type_byte=0x16, name="user_data"):
    """Traffic volume abstraction: the body really is byte_count bytes of
    padding, so observed frame sizes equal declared volume."""

    byte_count: int = wire(Zeros())


class Opaque(Record):
    """A protected body observed without the session key."""

    body_len: int
    NAME = "opaque"


MESSAGE_CLASSES = tuple(_BY_TYPE.values())
Message = Union[MESSAGE_CLASSES]
_BY_NAME = {cls.NAME: cls for cls in MESSAGE_CLASSES}


# -- frames -----------------------------------------------------------------------


def encode_body(msg: Message) -> bytes:
    return msg._codec.pack(msg)


def decode_body(data: bytes) -> Message:
    if not data:
        raise Truncated("empty body")
    cls = _BY_TYPE.get(data[0])
    if cls is None:
        raise UnknownType(f"unknown message type byte: {data[0]:#04x}")
    msg, end = cls._codec.read(data, 0)
    if end != len(data):
        raise TrailingBytes(f"{len(data) - end} bytes after message end")
    return msg


def pack_header(header: FrameHeader) -> bytes:
    """The 16 header bytes alone, validated."""
    header.validate()
    fields = header.timestamp_ms, header.cell_id, header.rnti, int(header.direction), header.protected
    return struct.pack(">QIHBB", *fields)


def keyless_frame(header: FrameHeader, body_len: int) -> bytes:
    """A protected frame as a party without its key reads it: the header,
    the cleartext key_id, and body_len zero bytes in place of the masked
    body, which such a party never opens."""
    return pack_header(header) + struct.pack(">I", header.key_id) + bytes(body_len)


def encode(header: FrameHeader, msg: Message, keys: Optional[Mapping[int, bytes]] = None) -> bytes:
    """Serialize one frame. Protected frames need the session keystream
    seed for header.key_id in `keys`."""
    head = pack_header(header)
    body = encode_body(msg)
    if not header.protected:
        return head + body
    seed = (keys or {}).get(header.key_id)
    if seed is None:
        raise InvariantViolation(f"no keystream seed for key_id {header.key_id}")
    return head + struct.pack(">I", header.key_id) + keystream_mask(seed, body)


_DIRECTIONS = {d.value: d for d in Direction}


def decode_header(data: bytes) -> FrameHeader:
    """The validated header of one frame, with the cleartext key_id of a
    protected one; the body is not read."""
    if len(data) < HEADER_LEN:
        raise Truncated(f"frame shorter than header: {len(data)} bytes")
    ts, cell_id, rnti, direction, protection = struct.unpack(">QIHBB", data[:HEADER_LEN])
    way = _DIRECTIONS.get(direction)
    if way is None:
        raise InvariantViolation(f"bad direction byte: {direction}")
    if protection not in (0, 1):
        raise InvariantViolation(f"bad protection byte: {protection}")
    key_id = None
    if protection:
        if len(data) < HEADER_LEN + 4:
            raise Truncated("protected frame missing key_id")
        key_id = struct.unpack(">I", data[HEADER_LEN : HEADER_LEN + 4])[0]
    header = FrameHeader(ts, cell_id, rnti, way, key_id=key_id)
    header.validate()
    return header


def decode(
    data: bytes, keys: Optional[Mapping[int, bytes]] = None, header: Optional[FrameHeader] = None
) -> tuple[FrameHeader, Union[Message, Opaque]]:
    """Parse one frame. The header always comes back readable; a
    protected body without a matching key comes back Opaque. A given
    `header` must equal decode_header(data), which is then not called."""
    if header is None:
        header = decode_header(data)
    if not header.protected:
        return header, decode_body(data[HEADER_LEN:])
    seed = (keys or {}).get(header.key_id)
    if seed is None:
        return header, Opaque(body_len=len(data) - HEADER_LEN)
    return header, decode_body(keystream_mask(seed, data[HEADER_LEN + 4 :]))


def message_to_json(msg: Union[Message, Opaque]) -> dict:
    """Capture-log body for a decoded message. Inverse of message_from_json."""
    if isinstance(msg, Opaque):
        return {}
    return msg._codec.to_json(msg)


def message_from_json(name: str, body: dict) -> Message:
    """Rebuild a message from its capture-log body. A body that does not
    describe a valid message raises a CodecError."""
    cls = _BY_NAME.get(name) if isinstance(name, str) else None
    if cls is None:
        raise UnknownType(f"unknown message name: {name!r}")
    return cls._codec.from_json(body)
