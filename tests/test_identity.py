import random

import pytest
from hypothesis import given, strategies as st

from ltesim.identity import (
    CellFull,
    CellIdentity,
    Imsi,
    NonDigit,
    Plmn,
    RNTI_MAX,
    RNTI_MIN,
    RntiAllocator,
    WrongLength,
    format_tmsi,
    is_device_rnti,
    parse_imsi,
    validate_imei,
    validate_msisdn,
)


def test_parse_imsi_splits_on_mnc_len():
    imsi = parse_imsi("310260123456789", mnc_len=3)
    assert (imsi.mcc, imsi.mnc, imsi.msin) == ("310", "260", "123456789")
    imsi2 = parse_imsi("310261234567890", mnc_len=2)
    assert (imsi2.mcc, imsi2.mnc, imsi2.msin) == ("310", "26", "1234567890")
    assert str(imsi) == "310260123456789"
    assert imsi.plmn == Plmn("310", "260")


@pytest.mark.parametrize(
    "text, exc",
    [
        ("31026012345678", WrongLength),
        ("3102601234567890", WrongLength),
        ("31026012345678x", NonDigit),
        ("", WrongLength),
    ],
)
def test_parse_imsi_rejects_bad_text(text, exc):
    with pytest.raises(exc):
        parse_imsi(text)


def test_parse_imsi_rejects_bad_mnc_len():
    with pytest.raises(WrongLength):
        parse_imsi("310260123456789", mnc_len=4)


def test_imsi_constructor_checks_shape():
    with pytest.raises(WrongLength):
        Imsi("31", "026", "0123456789")
    with pytest.raises(NonDigit):
        Imsi("310", "260", "12345678f")


def test_plmn_leading_zeros_survive():
    # "026" and "26" are distinct operators; int round trips would merge them.
    assert Plmn("310", "026") != Plmn("310", "26")
    assert str(Plmn("001", "01")) == "001/01"
    with pytest.raises(WrongLength):
        Plmn("310", "2")


def test_cell_identity_ranges():
    plmn = Plmn("310", "260")
    CellIdentity((1 << 28) - 1, 0xFFFF, plmn, 0)
    with pytest.raises(ValueError):
        CellIdentity(1 << 28, 0, plmn, 0)
    with pytest.raises(ValueError):
        CellIdentity(0, 1 << 16, plmn, 0)
    with pytest.raises(ValueError):
        CellIdentity(0, 0, plmn, -1)


def test_msisdn_and_imei_validation():
    assert validate_msisdn("15550001234") == "15550001234"
    with pytest.raises(WrongLength):
        validate_msisdn("123")
    with pytest.raises(NonDigit):
        validate_msisdn("1555000123x")
    assert validate_imei("990000000000001") == "990000000000001"
    with pytest.raises(WrongLength):
        validate_imei("9900000000001")


ARABIC_INDIC = "\u0663\u0661\u0660"  # "310" in Arabic-Indic digits
SUPERSCRIPT = "\u00b3\u00b9\u2070"  # "310" in superscript digits


@pytest.mark.parametrize("digits", [ARABIC_INDIC, SUPERSCRIPT])
def test_only_ascii_digits_are_digits(digits):
    # str.isdigit() accepts both; the wire carries ASCII digits only.
    with pytest.raises(NonDigit):
        Plmn(digits, "26")
    with pytest.raises(NonDigit):
        Imsi(digits, "26", "0123456789")
    with pytest.raises(NonDigit):
        parse_imsi(digits + "260123456789")
    with pytest.raises(NonDigit):
        validate_msisdn(digits + "5550001234")
    with pytest.raises(NonDigit):
        validate_imei(digits + "000000000001")


def test_formatting():
    assert format_tmsi(0x33A81372) == "0x33a81372"
    assert format_tmsi(5) == "0x00000005"
    assert is_device_rnti(RNTI_MIN)
    assert is_device_rnti(RNTI_MAX)
    assert not is_device_rnti(0)
    assert not is_device_rnti(RNTI_MAX + 1)


class TestRntiAllocator:
    def test_unique_until_release(self):
        alloc = RntiAllocator(random.Random(1))
        seen = {alloc.allocate() for _ in range(500)}
        assert len(seen) == 500
        assert all(is_device_rnti(v) for v in seen)

    def test_release_returns_value_to_pool(self):
        alloc = RntiAllocator(random.Random(2))
        v = alloc.allocate()
        assert v in alloc.in_use
        alloc.release(v)
        assert v not in alloc.in_use

    def test_preset_values_come_first_in_order(self):
        alloc = RntiAllocator(random.Random(3), preset=[99, 10848, 112])
        assert alloc.allocate() == 99
        assert alloc.allocate() == 10848
        assert alloc.allocate() == 112
        assert alloc.allocate() not in (99, 10848, 112)

    def test_preset_skips_values_in_use(self):
        alloc = RntiAllocator(random.Random(4), preset=[77, 78])
        assert alloc.allocate() == 77
        # 77 still held, so a preset replay of it must be passed over.
        alloc2 = RntiAllocator(random.Random(4), preset=[77])
        got = alloc2.allocate()
        assert got == 77
        alloc2.release(77)
        assert alloc.allocate() == 78

    def test_preset_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RntiAllocator(random.Random(5), preset=[0])
        with pytest.raises(ValueError):
            RntiAllocator(random.Random(5), preset=[RNTI_MAX + 1])

    def test_exhaustion_raises(self):
        alloc = RntiAllocator(random.Random(7))
        alloc._in_use = set(range(RNTI_MIN, RNTI_MAX + 1))
        with pytest.raises(CellFull):
            alloc.allocate()

    def test_near_exhaustion_still_terminates(self):
        alloc = RntiAllocator(random.Random(8))
        alloc._in_use = set(range(RNTI_MIN, RNTI_MAX))  # one value free
        assert alloc.allocate() == RNTI_MAX

    def test_same_seed_same_sequence(self):
        a = RntiAllocator(random.Random(9))
        b = RntiAllocator(random.Random(9))
        assert [a.allocate() for _ in range(20)] == [b.allocate() for _ in range(20)]


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_tmsi_format_width(value):
    text = format_tmsi(value)
    assert text.startswith("0x") and len(text) == 10
    assert int(text, 16) == value


@given(st.text(alphabet="0123456789", min_size=15, max_size=15), st.sampled_from([2, 3]))
def test_imsi_parse_format_round_trip(digits, mnc_len):
    assert str(parse_imsi(digits, mnc_len)) == digits
