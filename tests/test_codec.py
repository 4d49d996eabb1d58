"""Wire grammar tests: frozen bytes, round trips, and refusal to guess.

The byte-level oracles pin the format so a refactor cannot silently
re-arrange fields: recorded captures are only replayable while these
exact encodings hold.
"""

import ast
import copy
import inspect
import json
import pathlib
import pickle

import pytest
from hypothesis import given, strategies as st

from ltesim import codec
from ltesim.codec import (
    AttachAccept,
    AttachReject,
    AttachRequest,
    AuthenticationRequest,
    AuthenticationResponse,
    CodecError,
    Direction,
    EmmCause,
    FrameHeader,
    IdentityKind,
    IdentityRequest,
    IdentityResponse,
    InvariantViolation,
    MacRar,
    MeasurementReport,
    Mib,
    MobilityControlInfo,
    Opaque,
    Paging,
    RachPreamble,
    RrcConnectionReconfiguration,
    RrcConnectionReconfigurationComplete,
    RrcConnectionRequest,
    RrcConnectionSetup,
    SecurityModeCommand,
    SecurityModeComplete,
    Sib1,
    TauReject,
    TauRequest,
    TrailingBytes,
    Truncated,
    UnknownType,
    UserData,
)
from ltesim.crypto_stub import derive_keystream_seed
from ltesim.identity import NonDigit, Plmn, parse_imsi
from ltesim.ue import AirplaneToggle, AppTraffic, EraseTmsi, PowerOn, Tick

# -- frozen encodings --------------------------------------------------------


def test_attach_reject_frozen_bytes():
    assert codec.encode_body(AttachReject(EmmCause.PLMN_NOT_ALLOWED)) == bytes.fromhex("0f0b")
    assert codec.encode_body(AttachReject(EmmCause.EPS_SERVICES_NOT_ALLOWED)) == bytes.fromhex("0f07")
    assert codec.encode_body(AttachReject(EmmCause.CONGESTION_BENIGN)) == bytes.fromhex("0f16")


def test_handover_order_frozen_bytes():
    body = codec.encode_body(RrcConnectionReconfiguration(MobilityControlInfo(50, 10848)))
    assert body == bytes.fromhex("1401000000322a60")


def test_header_frozen_bytes():
    head = codec.pack_header(FrameHeader(1234, 60, 99, Direction.DOWNLINK))
    assert head == bytes.fromhex("00000000000004d20000003c00630000")
    assert len(head) == codec.HEADER_LEN == 16


def test_protected_frame_layout():
    keys = {1: derive_keystream_seed(b"k" * 16, 1)}
    header = FrameHeader(5, 10, 777, Direction.UPLINK, key_id=1)
    frame = codec.encode(header, SecurityModeComplete(), keys)
    # header, then cleartext key_id, then masked body
    assert frame[:16] == codec.pack_header(header)
    assert frame[16:20] == (1).to_bytes(4, "big")
    assert len(frame) == 16 + 4 + 1
    assert len(frame) - codec.HEADER_LEN == 5


# -- the header record -----------------------------------------------------------


def test_header_fields_cannot_be_assigned():
    header = FrameHeader(5, 10, 777, Direction.UPLINK, key_id=1)
    for name in ("timestamp_ms", "cell_id", "rnti", "direction", "key_id"):
        with pytest.raises(AttributeError):
            setattr(header, name, 0)
    with pytest.raises(AttributeError):
        header.extra = 0


def test_headers_are_equal_and_hash_alike_by_field_values():
    a = FrameHeader(5, 10, 777, Direction.UPLINK, key_id=1)
    b = FrameHeader(5, 10, 777, Direction.UPLINK, 1)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for other in [FrameHeader(6, 10, 777, Direction.UPLINK, 1), FrameHeader(5, 10, 777, Direction.UPLINK)]:
        assert a != other and not a == other


def test_a_header_is_not_a_plain_tuple():
    header = FrameHeader(5, 10, 0, Direction.DOWNLINK)
    plain = (5, 10, 0, Direction.DOWNLINK, None)
    assert (header.timestamp_ms, header.cell_id, header.rnti, header.direction, header.key_id) == plain
    assert header != plain and plain != header
    assert not header == plain and not plain == header


def test_header_repr_names_the_fields():
    header = FrameHeader(5, 10, 777, Direction.UPLINK, key_id=1)
    assert repr(header) == (
        "FrameHeader(timestamp_ms=5, cell_id=10, rnti=777, direction=<Direction.UPLINK: 1>, key_id=1)"
    )


def test_header_key_id_defaults_to_cleartext():
    header = FrameHeader(5, 10, 0, Direction.DOWNLINK)
    assert header.key_id is None and not header.protected and header.repeats
    assert (header.timestamp_ms, header.cell_id, header.rnti, header.direction) == (5, 10, 0, Direction.DOWNLINK)


def _header_builders(path):
    """The scopes (module.Class.function) in one source file that call FrameHeader."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if "FrameHeader" in (getattr(func, "id", None), getattr(func, "attr", None)):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_the_codec_the_frame_writer_and_replay_build_a_header():
    """Parties address each other with the Emission their sender made: a
    wire header is built only where a frame is read or packed, and the
    device, the core and the rogue cell do not even name it."""
    src = pathlib.Path(codec.__file__).parent
    builders = [scope for path in src.glob("*.py") for scope in _header_builders(path)]
    assert sorted(set(builders)) == ["codec.decode_header", "engine.Engine._template", "engine.reconstruct_frame"]
    for stem in ("ue", "core", "attacker"):
        tree = ast.parse((src / f"{stem}.py").read_text())
        named = {getattr(node, attr, None) for node in ast.walk(tree) for attr in ("id", "attr", "name")}
        assert "FrameHeader" not in named, stem


def test_direction_and_protection_bits():
    up = codec.pack_header(FrameHeader(0, 1, 2, Direction.UPLINK))
    down = codec.pack_header(FrameHeader(0, 1, 2, Direction.DOWNLINK))
    assert up[-2:] == b"\x01\x00"
    assert down[-2:] == b"\x00\x00"


# -- the message records ---------------------------------------------------------

IMSI = parse_imsi("310260123456789")
IMEI = "356938035643809"
# One value of every message class, of the identity records, of the frame
# header and of every device event but a downlink Emission, which is mutable.
RECORDS = [
    Mib(50, 7),
    Sib1(Plmn("310", "26"), 100, 10, -110, ((1850, 7),)),
    RachPreamble(3),
    MacRar(600, 1, 2),
    RrcConnectionRequest(random_id=5),
    RrcConnectionSetup(),
    AttachRequest(imsi=IMSI),
    IdentityRequest(IdentityKind.IMEI),
    IdentityResponse(imei=IMEI),
    AuthenticationRequest(b"r" * 16, b"a" * 16),
    AuthenticationResponse(b"s" * 8),
    SecurityModeCommand(1),
    SecurityModeComplete(),
    AttachAccept(7, 100),
    AttachReject(EmmCause.PLMN_NOT_ALLOWED),
    TauRequest(7, 100),
    TauReject(EmmCause.CONGESTION_BENIGN),
    Paging(tmsi=9),
    MeasurementReport(((11, -80),)),
    RrcConnectionReconfiguration(MobilityControlInfo(11, 601)),
    RrcConnectionReconfigurationComplete(),
    UserData(300),
    MobilityControlInfo(11, 601),
    Opaque(5),
    IMSI,
    Plmn("310", "26"),
    PowerOn(),
    AirplaneToggle(),
    EraseTmsi(),
    Tick(5),
    FrameHeader(5, 10, 777, Direction.UPLINK, key_id=1),
    AppTraffic(300),
]


def _fields(rec) -> list[str]:
    return list(inspect.signature(type(rec)).parameters)


def _twin(rec):
    """An equal record built afresh, by keyword."""
    return type(rec)(**{name: getattr(rec, name) for name in _fields(rec)})


def test_every_message_class_has_a_sample():
    assert set(codec.MESSAGE_CLASSES) <= {type(rec) for rec in RECORDS}


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
def test_record_fields_cannot_be_assigned(rec):
    before = repr(rec)
    for name in _fields(rec):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert repr(rec) == before


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
def test_equal_records_hash_alike(rec):
    twin = _twin(rec)
    assert twin is not rec
    assert twin == rec and not twin != rec and hash(twin) == hash(rec) == hash(rec)
    assert len({rec, twin}) == 1


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
def test_a_record_is_not_a_plain_tuple(rec):
    plain = tuple(getattr(rec, name) for name in _fields(rec))
    assert rec != plain and plain != rec
    assert not rec == plain and not plain == rec


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
def test_record_repr_names_the_fields(rec):
    pairs = ", ".join(f"{name}={getattr(rec, name)!r}" for name in _fields(rec))
    assert repr(rec) == f"{type(rec).__name__}({pairs})"


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
def test_records_survive_deepcopy_and_pickle(rec):
    for again in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(again) is type(rec) and again == rec and hash(again) == hash(rec)


def test_records_with_the_same_fields_but_another_class_differ():
    pairs = [
        (AttachAccept(7, 100), TauRequest(7, 100)),
        (AttachReject(EmmCause.PLMN_NOT_ALLOWED), TauReject(EmmCause.PLMN_NOT_ALLOWED)),
        (AttachRequest(tmsi=9), Paging(tmsi=9)),
        (UserData(300), AppTraffic(300)),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b and not b == a


def test_field_reprs_are_exact():
    assert repr(AttachAccept(7, 100)) == "AttachAccept(tmsi=7, tac=100)"
    assert repr(Plmn("310", "26")) == "Plmn(mcc='310', mnc='26')"
    assert repr(RrcConnectionRequest(random_id=5)) == "RrcConnectionRequest(tmsi=None, random_id=5)"


def test_a_record_hashes_its_fields_once():
    class Counted(int):
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return int.__hash__(self)

    tick, report = Tick(Counted(5)), MeasurementReport(((Counted(11), -80),))
    assert hash(tick) == hash(tick) == hash(Tick(5))
    assert hash(report) == hash(report) == hash(MeasurementReport(((11, -80),)))
    assert Counted.calls == 2


ARM_VALUES = {"imsi": IMSI, "imei": IMEI, "tmsi": 9, "random_id": 5}


@pytest.mark.parametrize("cls", [RrcConnectionRequest, AttachRequest, IdentityResponse, Paging])
def test_an_identity_union_takes_exactly_one_arm(cls):
    arms = {name: ARM_VALUES[name] for name in inspect.signature(cls).parameters}
    assert len(arms) == 2
    for name, value in arms.items():
        assert getattr(cls(**{name: value}), name) == value
    with pytest.raises(InvariantViolation):
        cls(**arms)
    with pytest.raises(InvariantViolation):
        cls()


# -- round trips ---------------------------------------------------------------

IMSIS = st.builds(
    parse_imsi,
    st.text("0123456789", min_size=15, max_size=15),
    st.sampled_from([2, 3]),
)

MESSAGES = st.one_of(
    st.builds(Mib, st.sampled_from(codec.MIB_BANDWIDTHS), st.integers(0, 1023)),
    st.builds(
        Sib1,
        st.builds(Plmn, st.just("310"), st.sampled_from(["26", "026", "260"])),
        st.integers(0, 0xFFFF),
        st.integers(0, (1 << 28) - 1),
        st.integers(-128, 127),
        st.lists(
            st.tuples(st.integers(0, 0xFFFF), st.integers(0, 7)), max_size=8
        ).map(tuple),
    ),
    st.builds(RachPreamble, st.integers(0, 63)),
    st.builds(MacRar, st.integers(1, 0xFFF3), st.integers(0, 2047), st.integers(0, (1 << 20) - 1)),
    st.builds(RrcConnectionRequest, tmsi=st.integers(0, 0xFFFFFFFF)),
    st.builds(RrcConnectionRequest, random_id=st.integers(0, (1 << 40) - 1)),
    st.just(RrcConnectionSetup()),
    st.builds(AttachRequest, imsi=IMSIS),
    st.builds(AttachRequest, tmsi=st.integers(0, 0xFFFFFFFF)),
    st.builds(IdentityRequest, st.sampled_from(list(IdentityKind))),
    st.builds(IdentityResponse, imsi=IMSIS),
    st.builds(IdentityResponse, imei=st.text("0123456789", min_size=15, max_size=15)),
    st.builds(AuthenticationRequest, st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16)),
    st.builds(AuthenticationResponse, st.binary(min_size=8, max_size=8)),
    st.builds(SecurityModeCommand, st.integers(0, 0xFFFFFFFF)),
    st.just(SecurityModeComplete()),
    st.builds(AttachAccept, st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFF)),
    st.builds(AttachReject, st.sampled_from(list(EmmCause))),
    st.builds(TauRequest, st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFF)),
    st.builds(TauReject, st.sampled_from(list(EmmCause))),
    st.builds(Paging, imsi=IMSIS),
    st.builds(Paging, tmsi=st.integers(0, 0xFFFFFFFF)),
    st.builds(
        MeasurementReport,
        st.lists(
            st.tuples(st.integers(0, (1 << 28) - 1), st.integers(-128, 127)), max_size=6
        ).map(tuple),
    ),
    st.just(RrcConnectionReconfiguration()),
    st.builds(
        RrcConnectionReconfiguration,
        st.builds(MobilityControlInfo, st.integers(0, (1 << 28) - 1), st.integers(1, 0xFFF3)),
    ),
    st.just(RrcConnectionReconfigurationComplete()),
    st.builds(UserData, st.integers(0, 0xFFFF)),
)

HEADERS = st.builds(
    FrameHeader,
    st.integers(0, (1 << 48)),
    st.integers(0, (1 << 28) - 1),
    st.integers(0, 0xFFF3),
    st.sampled_from(list(Direction)),
)


@given(MESSAGES)
def test_body_round_trip(msg):
    assert codec.decode_body(codec.encode_body(msg)) == msg


@given(HEADERS, MESSAGES)
def test_cleartext_frame_round_trip(header, msg):
    frame = codec.encode(header, msg)
    got_header, got_msg = codec.decode(frame)
    assert got_header == header
    assert got_msg == msg


@given(MESSAGES, st.integers(1, 0xFFFFFFFF))
def test_protected_frame_round_trip(msg, key_id):
    keys = {key_id: derive_keystream_seed(b"secret-key-bytes", key_id)}
    header = FrameHeader(77, 42, 1000, Direction.DOWNLINK, key_id=key_id)
    frame = codec.encode(header, msg, keys)
    got_header, got_msg = codec.decode(frame, keys)
    assert got_header == header
    assert got_msg == msg
    # Without the key the body must stay shut but the length must not lie.
    oh, om = codec.decode(frame)
    assert isinstance(om, Opaque)
    assert om.body_len == len(frame) - codec.HEADER_LEN
    assert oh.key_id == key_id


@given(MESSAGES, st.integers(0, 0xFFFFFFFF), st.sampled_from(Direction))
def test_a_keyless_frame_is_the_frame_with_its_masked_body_zeroed(msg, key_id, way):
    keys = {key_id: derive_keystream_seed(b"secret-key-bytes", key_id)}
    header = FrameHeader(77, 42, 1000, way, key_id=key_id)
    frame = codec.encode(header, msg, keys)
    cut = codec.HEADER_LEN + 4
    keyless = codec.keyless_frame(header, len(codec.encode_body(msg)))
    assert keyless == frame[:cut] + bytes(len(frame) - cut)
    # A party without the key reads both alike.
    assert codec.decode(keyless) == codec.decode(frame)


@given(MESSAGES)
def test_json_round_trip(msg):
    body = codec.message_to_json(msg)
    assert codec.message_from_json(msg.NAME, body) == msg


# -- refusal -------------------------------------------------------------------


def test_truncated_header_rejected():
    with pytest.raises(Truncated):
        codec.decode(b"\x00" * 15)


def test_truncated_body_rejected():
    frame = codec.encode(FrameHeader(0, 1, 2, Direction.UPLINK), MacRar(5))
    with pytest.raises(Truncated):
        codec.decode(frame[:-1])


def test_trailing_bytes_rejected():
    frame = codec.encode(FrameHeader(0, 1, 2, Direction.UPLINK), RachPreamble(3))
    with pytest.raises(TrailingBytes):
        codec.decode(frame + b"\x00")


def test_unknown_type_rejected():
    with pytest.raises(UnknownType):
        codec.decode_body(b"\x7f\x00")
    with pytest.raises(UnknownType):
        codec.message_from_json("not_a_message", {})


def test_bad_direction_and_protection_bytes_rejected():
    frame = bytearray(codec.encode(FrameHeader(0, 1, 2, Direction.UPLINK), RachPreamble(0)))
    frame[14] = 9
    with pytest.raises(InvariantViolation):
        codec.decode(bytes(frame))
    frame[14] = 1
    frame[15] = 7
    with pytest.raises(InvariantViolation):
        codec.decode(bytes(frame))


def test_field_domains_enforced_on_encode():
    with pytest.raises(InvariantViolation):
        codec.encode_body(RachPreamble(64))
    with pytest.raises(InvariantViolation):
        codec.encode_body(MacRar(0))
    with pytest.raises(InvariantViolation):
        codec.encode_body(Mib(13, 0))  # not an allowed bandwidth
    with pytest.raises(InvariantViolation):
        codec.pack_header(FrameHeader(0, 1 << 28, 1, Direction.UPLINK))


def test_field_domains_enforced_on_decode():
    good = codec.encode_body(RachPreamble(63))
    bad = good[:-1] + bytes([64])
    with pytest.raises(InvariantViolation):
        codec.decode_body(bad)


def test_exactly_one_identity_in_connection_request():
    with pytest.raises(InvariantViolation):
        RrcConnectionRequest()
    with pytest.raises(InvariantViolation):
        RrcConnectionRequest(tmsi=1, random_id=1)


def test_protected_encode_requires_key():
    header = FrameHeader(0, 1, 2, Direction.UPLINK, key_id=9)
    with pytest.raises(InvariantViolation):
        codec.encode(header, SecurityModeComplete(), {})


def test_emm_cause_values():
    assert EmmCause.EPS_SERVICES_NOT_ALLOWED.value == 0x07
    assert EmmCause.PLMN_NOT_ALLOWED.value == 0x0B
    assert EmmCause.CONGESTION_BENIGN.value == 0x16


def test_message_type_table_is_dense_and_stable():
    types = sorted(cls.TYPE for cls in codec.MESSAGE_CLASSES)
    assert types == list(range(0x01, 0x17))
    names = {cls.NAME for cls in codec.MESSAGE_CLASSES}
    assert len(names) == len(codec.MESSAGE_CLASSES)


# -- both directions refuse the same values ------------------------------------


@pytest.mark.parametrize("cls, code", [(IdentityRequest, 5), (AttachReject, 3), (TauReject, 3)])
def test_enum_fields_refused_on_encode_as_on_decode(cls, code):
    with pytest.raises(InvariantViolation):
        codec.decode_body(bytes([cls.TYPE, code]))
    with pytest.raises(InvariantViolation):
        codec.encode_body(cls(code))
    with pytest.raises(InvariantViolation):
        codec.message_to_json(cls(code))


def test_non_ascii_digits_never_reach_the_wire():
    # Arabic-Indic "310"/"26" would otherwise encode as a different PLMN.
    with pytest.raises(NonDigit):
        Sib1(Plmn("\u0663\u0661\u0660", "\u0662\u0666"), 1, 2, -100)
    with pytest.raises(NonDigit):
        AttachRequest(imsi=parse_imsi("\u00b9" * 15))
    with pytest.raises(InvariantViolation):
        codec.encode_body(IdentityResponse(imei="\u00b9" * 15))
    body = bytearray(codec.encode_body(AttachRequest(imsi=parse_imsi("310260123456789"))))
    body[5] = 0xB9
    with pytest.raises(InvariantViolation):
        codec.decode_body(bytes(body))


@given(st.integers(0x01, 0x16), st.binary(max_size=40))
def test_any_body_bytes_decode_or_raise_codec_error(type_byte, rest):
    try:
        msg = codec.decode_body(bytes([type_byte]) + rest)
    except CodecError:
        return
    assert codec.encode_body(msg) == bytes([type_byte]) + rest


# -- capture bodies ------------------------------------------------------------

SIB1_BODY = {
    "plmn": {"mcc": "310", "mnc": "26"},
    "tac": 1,
    "cell_id": 2,
    "min_rx_level_dbm": -100,
    "priority_earfcns": [],
}


@pytest.mark.parametrize(
    "name, body",
    [
        ("mib", {"bandwidth_rb": 25}),
        ("mib", {"bandwidth_rb": 25, "sfn": "0"}),
        ("mib", {"bandwidth_rb": 25, "sfn": True}),
        ("mib", {"bandwidth_rb": 25, "sfn": 1024}),
        ("mib", [25, 0]),
        ("rrc_connection_setup", []),
        ("authentication_response", {"res": "zz" * 8}),
        ("authentication_response", {"res": "00" * 7}),
        ("attach_accept", {"tmsi": "0x1", "tac": 1}),
        ("attach_reject", {"emm_cause": "no_such_cause"}),
        ("attach_request", {"identity": {"kind": "guti", "value": "0x00000001"}}),
        ("paging", {"identity": {"kind": "imei", "value": "310260123456789"}}),
        ("paging", {"identity": {"kind": "imsi", "value": ["3"] * 15, "mnc_len": 3}}),
        ("identity_response", {"identity": "imsi"}),
        ("sib1", dict(SIB1_BODY, plmn={"mcc": "\u0663\u0661\u0660", "mnc": "26"})),
        ("sib1", dict(SIB1_BODY, priority_earfcns=[[1, 8]])),
        ("sib1", dict(SIB1_BODY, priority_earfcns={"1": 2})),
        ("rrc_connection_reconfiguration", {"mobility": {"target_cell_id": 1}}),
        ("user_data", {"byte_count": -1}),
    ],
)
def test_bad_capture_bodies_raise_invariant_violation(name, body):
    with pytest.raises(InvariantViolation):
        codec.message_from_json(name, body)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(1 << 70), 1 << 70)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.sampled_from(["0x00000001", "imsi", "tmsi", "imei", "random", "congestion_benign", "310", "26", "00" * 8]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _positions(obj, path=()):
    """Every (path to a container, key or index) inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path, key
        yield from _positions(value, path + (key,))


@given(MESSAGES, st.data())
def test_mutated_capture_body_round_trips_or_raises_codec_error(msg, data):
    body = json.loads(json.dumps(codec.message_to_json(msg)))
    positions = list(_positions(body))
    if not positions:
        return
    path, key = data.draw(st.sampled_from(positions))
    holder = body
    for step in path:
        holder = holder[step]
    if isinstance(holder, dict) and data.draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = data.draw(JSON_VALUES)
    try:
        got = codec.message_from_json(msg.NAME, body)
    except CodecError:
        return
    assert codec.message_from_json(got.NAME, codec.message_to_json(got)) == got
    assert codec.decode_body(codec.encode_body(got)) == got
