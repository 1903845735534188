import hmac
import random

import pytest
from hypothesis import given, settings, strategies as st

from osnmasim.gst import Gst
from osnmasim.mack import (
    build_auth_message,
    compute_tag,
    disclosed_key,
    generate_subframe_tags,
    pack_mack,
    split_segments,
    tag_stream,
    unpack_mack,
    verify_tags,
)
from osnmasim.tesla import TeslaChain

GST_SF = Gst(1251, 277230)

# reference MAC vector: 128-bit key, 600-bit message, full HMAC-SHA-256
# output and its 40-bit truncation
REF_KEY = bytes.fromhex("aca75fbc1c6e40a397ca7ee7ee908870")
REF_MESSAGE = bytes.fromhex(
    "024e343aee0144c47e263b861a0007c1b9ea8135db44ccd98a909277529baed3"
    "2b864f4a84cffc1a227acfd7e08ee1fcdfd016b1302ffefffec47e000753a680"
    "026404bc11429a17f9fc00")
REF_MAC = bytes.fromhex(
    "3c2585c882811fd8b740a5c04ce82c1fc8ca4f722a018a5b32c031f9025f749c")
REF_TAG40 = bytes.fromhex("3c2585c882")


def test_reference_full_mac():
    assert len(REF_MESSAGE) * 8 == 600
    assert compute_tag(REF_KEY, REF_MESSAGE, tag_bits=256) == REF_MAC


def test_reference_40_bit_truncation():
    assert compute_tag(REF_KEY, REF_MESSAGE, tag_bits=40) == REF_TAG40


def test_truncation_is_prefix():
    for bits in (40, 64, 128, 256):
        assert compute_tag(REF_KEY, REF_MESSAGE, bits) == REF_MAC[:bits // 8]


def test_tag_bits_validation():
    with pytest.raises(ValueError):
        compute_tag(REF_KEY, REF_MESSAGE, tag_bits=42)
    with pytest.raises(ValueError):
        compute_tag(REF_KEY, REF_MESSAGE, tag_bits=264)


def test_auth_message_deterministic():
    a = build_auth_message(2, 2, GST_SF, 1, b"\x01\x02")
    b = build_auth_message(2, 2, GST_SF, 1, b"\x01\x02")
    assert a == b
    assert len(a) == 7 + 2


def test_auth_message_prn_d_in_first_byte():
    a = build_auth_message(2, 9, GST_SF, 1, b"\xaa" * 8)
    b = build_auth_message(3, 9, GST_SF, 1, b"\xaa" * 8)
    assert a[0] == 2 and b[0] == 3
    assert a[1:] == b[1:]


def test_auth_message_gst_packing():
    m = build_auth_message(2, 2, Gst(1251, 277230), 1, b"\x00")
    # wn 12 bits then tow 20 bits, directly after the two PRN bytes
    assert m[2:6] == bytes.fromhex("4e343aee")


def test_auth_message_rejects_empty_segment():
    with pytest.raises(ValueError):
        build_auth_message(1, 1, GST_SF, 1, b"")


def test_pack_empty_tags_is_fill_then_key():
    key = bytes(range(16))
    blob = pack_mack([], key)
    assert blob[:44] == bytes(44)
    assert blob[44:] == key


def test_pack_single_tag_split_32_8():
    """The first tag's leading 32 bits occupy one page portion and the
    trailing 8 bits start the next portion."""
    blob = pack_mack([REF_TAG40], bytes(16))
    portions = [blob[4 * i:4 * i + 4] for i in range(15)]
    assert portions[0] == bytes.fromhex("3c2585c8")
    assert portions[1][0] == 0x82


@given(st.lists(st.binary(min_size=5, max_size=5), min_size=0, max_size=8),
       st.binary(min_size=16, max_size=16))
def test_pack_unpack_inverse(tags, key):
    blob = pack_mack(tags, key)
    assert len(blob) == 60
    assert unpack_mack(blob, n_tags=len(tags)) == tags
    assert disclosed_key(blob) == key


def test_split_segments_pads_last():
    segs = split_segments(bytes(10), 3)
    assert [len(s) for s in segs] == [4, 4, 4]
    assert b"".join(segs)[:10] == bytes(10)


def _key():
    return b"\x5a" * 16


def test_generate_single_segment_is_whole_data():
    data = bytes(range(48))
    tags = generate_subframe_tags(data, _key(), 7, 7, GST_SF, seg_count=1)
    expected = compute_tag(_key(),
                           build_auth_message(7, 7, GST_SF, 1, data))
    assert tags == [expected]


def test_generate_matches_direct_composition():
    rng = random.Random(2)
    data = rng.randbytes(64)
    tags = generate_subframe_tags(data, _key(), 5, 6, GST_SF, seg_count=2)
    segs = split_segments(data, 2)
    direct = [
        compute_tag(_key(), build_auth_message(5, 6, GST_SF, i + 1, seg))
        for i, seg in enumerate(segs)
    ]
    assert tags == direct


def test_tag_locality():
    """Changing a bit in segment 2 reissues tag 2 and leaves tag 1 alone."""
    rng = random.Random(4)
    data = bytearray(rng.randbytes(60))
    before = generate_subframe_tags(bytes(data), _key(), 1, 1, GST_SF, 2)
    data[45] ^= 0x10           # inside the second half
    after = generate_subframe_tags(bytes(data), _key(), 1, 1, GST_SF, 2)
    assert before[0] == after[0]
    assert before[1] != after[1]


def test_verify_round_trip_all_match():
    rng = random.Random(6)
    data = rng.randbytes(240)
    tags = generate_subframe_tags(data, _key(), 2, 2, GST_SF, 6)
    assert all(verify_tags(data, tags, _key(), 2, 2, GST_SF, 6))


def test_verify_flags_flipped_bit():
    rng = random.Random(7)
    data = bytearray(rng.randbytes(240))
    tags = generate_subframe_tags(bytes(data), _key(), 2, 2, GST_SF, 6)
    data[100] ^= 0x01
    matches = verify_tags(bytes(data), tags, _key(), 2, 2, GST_SF, 6)
    assert not all(matches)


def test_verify_wrong_key_matches_nothing():
    rng = random.Random(8)
    data = rng.randbytes(240)
    tags = generate_subframe_tags(data, _key(), 2, 2, GST_SF, 6)
    hits = 0
    for trial in range(100):
        hits += sum(verify_tags(data, tags, rng.randbytes(16), 2, 2, GST_SF,
                                6))
    assert hits == 0


@settings(max_examples=30)
@given(st.binary(min_size=30, max_size=240), st.binary(min_size=16, max_size=16),
       st.integers(1, 8), st.integers(1, 36), st.integers(1, 36))
def test_end_to_end_generate_pack_unpack_verify(data, key_bits, m, prn_d, prn_a):
    tags = generate_subframe_tags(data, key_bits, prn_d, prn_a, GST_SF, m)
    blob = pack_mack(tags, key_bits)
    out_tags = unpack_mack(blob, n_tags=m)
    assert disclosed_key(blob) == key_bits
    assert all(verify_tags(data, out_tags, key_bits, prn_d, prn_a, GST_SF,
                           m))


@given(st.binary(min_size=1, max_size=300), st.binary(min_size=16, max_size=16),
       st.integers(1, 8), st.integers(0, 255), st.integers(0, 255),
       st.integers(0, (1 << 12) - 1), st.integers(0, 604799))
def test_every_tag_is_compute_tag_of_its_auth_message(nav, key_bits, seg_count,
                                                      prn_d, prn_a, wn, tow):
    """The one-header tag loop gives, segment by segment, the generic
    truncation of the message build_auth_message lays out."""
    gst_sf = Gst(wn, tow)
    assert generate_subframe_tags(nav, key_bits, prn_d, prn_a, gst_sf,
                                  seg_count) == [
        compute_tag(key_bits, build_auth_message(prn_d, prn_a, gst_sf, i, seg))
        for i, seg in enumerate(split_segments(nav, seg_count), 1)]


@pytest.mark.parametrize("name, prn_d, prn_a, seg_index", [
    ("prn_d", 256, 1, 1), ("prn_a", 1, 256, 1), ("seg_index", 1, 1, 256),
    ("prn_d", 259, 259, 1), ("prn_d", -1, 1, 1), ("seg_index", 1, 1, -1)])
def test_header_field_out_of_range_is_named(name, prn_d, prn_a, seg_index):
    """A header value outside its field is rejected, not masked: PRN 259
    is not PRN 3, and segment 256 is not segment 0."""
    with pytest.raises(ValueError, match=f"^{name} -?[0-9]+ does not"):
        build_auth_message(prn_d, prn_a, GST_SF, seg_index, b"\x01")
    if seg_index > 0:                   # seg_count is the last index
        with pytest.raises(ValueError, match=f"^{name} "):
            generate_subframe_tags(bytes(240), bytes(16), prn_d, prn_a,
                                   GST_SF, seg_index)


def test_generate_rejects_empty_nav_data():
    with pytest.raises(ValueError, match="non-empty"):
        generate_subframe_tags(b"", bytes(16), 1, 1, GST_SF, 6)


_CHAIN = TeslaChain.generate(bytes(range(16)), 12, Gst(1251, 277170))


@settings(max_examples=40)
@given(st.integers(1, 255), st.integers(1, 8), st.data())
def test_tag_stream_is_the_window_rule_subframe_by_subframe(prn, seg_count,
                                                            data):
    """Over any consecutive slice of at least three keys, subframe k carries
    the tags of navs[k - 1] under keys[k + 1] at gsts[k] and discloses
    keys[k]."""
    lo = data.draw(st.integers(0, len(_CHAIN.keys) - 3))
    chain_keys = _CHAIN.keys[lo:data.draw(st.integers(lo + 3,
                                                      len(_CHAIN.keys)))]
    gsts = [key.gst for key in chain_keys]
    keys = [key.bits for key in chain_keys]
    navs = data.draw(st.lists(st.binary(min_size=8, max_size=240),
                              min_size=len(keys), max_size=len(keys)))
    assert tag_stream(prn, gsts, navs, keys, seg_count) == [
        pack_mack(generate_subframe_tags(navs[k - 1], keys[k + 1], prn, prn,
                                         gsts[k], seg_count), keys[k])
        for k in range(1, len(keys) - 1)]


# -- the stdlib reference: the program computes HMAC through osnmasim.crypto -


def ref_tags(nav, key, prn_d, prn_a, wn, tow, seg_count):
    """hmac.digest over each segment's message, laid out field by field."""
    seg_len = -(-len(nav) // seg_count)
    padded = nav.ljust(seg_len * seg_count, b"\x00")
    head = bytes((prn_d, prn_a)) + (wn << 20 | tow).to_bytes(4, "big")
    return [hmac.digest(key, head + bytes((i + 1,))
                        + padded[i * seg_len:(i + 1) * seg_len], "sha256")[:5]
            for i in range(seg_count)]


@settings(max_examples=60)
@given(st.binary(min_size=1, max_size=240), st.binary(min_size=16, max_size=16),
       st.integers(0, 255), st.integers(0, 255), st.integers(0, 4095),
       st.integers(0, 604799), st.integers(1, 8))
def test_tags_equal_the_stdlib_hmac_reference(nav, key_bits, prn_d, prn_a, wn,
                                              tow, seg_count):
    gst_sf = Gst(wn, tow)
    want = ref_tags(nav, key_bits, prn_d, prn_a, wn, tow, seg_count)
    assert generate_subframe_tags(nav, key_bits, prn_d, prn_a, gst_sf,
                                  seg_count) == want
    message = build_auth_message(prn_d, prn_a, gst_sf, 1, nav)
    assert compute_tag(key_bits, message) == \
        hmac.digest(key_bits, message, "sha256")[:5]


@settings(max_examples=60)
@given(st.binary(min_size=16, max_size=240), st.binary(min_size=16, max_size=16),
       st.integers(1, 255), st.integers(1, 8), st.data())
def test_verify_flags_exactly_the_segment_with_a_flipped_byte(nav, key, prn,
                                                             seg_count, data):
    tags = generate_subframe_tags(nav, key, prn, prn, GST_SF, seg_count)
    pos = data.draw(st.integers(0, len(nav) - 1))
    flip = data.draw(st.integers(1, 255))
    changed = bytearray(nav)
    changed[pos] ^= flip
    seg_len = -(-len(nav) // seg_count)
    assert verify_tags(bytes(changed), tags, key, prn, prn, GST_SF,
                       seg_count) == [i != pos // seg_len
                                      for i in range(seg_count)]
