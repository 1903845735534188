"""Authentication-message assembly, tag computation and truncation, and
packing of tags plus the disclosed chain key into the 480-bit MACK blob.

Tags are truncated HMAC-SHA-256 values over a message that binds the
navigation-data segment to the transmitting satellite, the authenticating
satellite and the GST of the subframe carrying the tag.  The blob packs
tags from bit 0, 40 bits each, crossing the 32-bit page-portion boundary:
a tag's first 32 bits land in one page's MACK portion and its last 8 bits
in the next page's.

A satellite's stream follows one window rule: subframe k carries the tags
of subframe k-1's nav data, made under the key that subframe k+1
discloses, and then discloses its own key.  tag_stream applies it for the
generator and the TSF forgery alike; they differ only in the keys' source.
A key here is its 16 bytes, bound to its GST by the chain check
(tesla.verify_key) before any tag is checked under it.

HMAC is crypto.hmac_sha256: plain RFC 2104 over CPython's built-in SHA-256,
so no OpenSSL is loaded.  The stdlib hmac module is not imported, because
it loads _hashlib and with it OpenSSL.  Tags are compared with
_operator._compare_digest, the constant-time C function that
hmac.compare_digest falls back to.  The crypto module's P-256 code, which
signs and verifies the root key, is not constant-time and is for
simulation only.
"""

from __future__ import annotations

from _operator import _compare_digest

from .crypto import hmac_sha256
from .gst import Gst
from .pages import MACK_BYTES, pack_fields

MACK_BITS = 8 * MACK_BYTES
KEY_BITS = 128
TAG_REGION_BITS = MACK_BITS - KEY_BITS      # 352
TAG_BITS = 40
MAX_SEG_COUNT = TAG_REGION_BITS // TAG_BITS     # 8 tags fill the region
DEFAULT_SEG_COUNT = 6                           # tags a subframe carries


# the tag message's header in front of its segment: (name, bit position,
# width, signed)
_AUTH_LAYOUT = (("prn_d", 0, 8, False), ("prn_a", 8, 8, False),
                ("wn", 16, 12, False), ("tow", 28, 20, False),
                ("seg_index", 48, 8, False))
_AUTH_BITS = sum(width for _, _, width, _ in _AUTH_LAYOUT)           # 56


def _auth_header(prn_d: int, prn_a: int, gst_sf: Gst, seg_index: int) -> bytes:
    """The 56-bit header of a tag message; a value outside its field
    raises ValueError naming the field."""
    return pack_fields(_AUTH_LAYOUT, _AUTH_BITS, (
        prn_d, prn_a, gst_sf.wn, gst_sf.tow, seg_index)).to_bytes(
            _AUTH_BITS // 8, "big")


def build_auth_message(prn_d: int, prn_a: int, gst_sf: Gst, seg_index: int,
                       segment: bytes) -> bytes:
    """Concatenate tag-message fields in transmission order: the header of
    _AUTH_LAYOUT, then the segment, so the result is whole bytes whenever
    the segment is."""
    if not segment:
        raise ValueError("segment must be non-empty")
    return _auth_header(prn_d, prn_a, gst_sf, seg_index) + segment


def compute_tag(key: bytes, message: bytes, tag_bits: int = TAG_BITS) -> bytes:
    """HMAC-SHA-256 truncated to the leading tag_bits."""
    if tag_bits % 8 or not 0 < tag_bits <= 256:
        raise ValueError("tag length must be a multiple of 8 bits, <= 256")
    return hmac_sha256(key)(message)[:tag_bits // 8]


def _check_capacity(n_tags: int) -> None:
    if n_tags > MAX_SEG_COUNT:
        raise ValueError(f"{n_tags} segments of {TAG_BITS}-bit tags exceed "
                         f"the {TAG_REGION_BITS}-bit tag region")


def pack_mack(tags, key: bytes) -> bytes:
    """Pack 40-bit tags and the disclosed key into a 480-bit blob.

    Tags occupy consecutive bit positions from bit 0; the unused remainder
    of the tag region is zero fill; the key occupies the final 128 bits.
    """
    _check_capacity(len(tags))
    if len(key) * 8 != KEY_BITS:
        raise ValueError("chain key must be 128 bits")
    if any(len(tag) * 8 != TAG_BITS for tag in tags):
        raise ValueError(f"tags must be {TAG_BITS} bits")
    region = b"".join(tags)
    return region + bytes(TAG_REGION_BITS // 8 - len(region)) + key


def unpack_mack(blob: bytes, n_tags: int) -> list:
    """The tags of a MACK blob packed with a known tag count;
    disclosed_key reads its key."""
    if len(blob) != MACK_BYTES:
        raise ValueError(f"MACK blob must be {MACK_BYTES} bytes")
    _check_capacity(n_tags)
    step = TAG_BITS // 8                # tags sit on byte boundaries
    return [blob[i * step:(i + 1) * step] for i in range(n_tags)]


def disclosed_key(blob: bytes) -> bytes:
    """The chain key bits carried in the last 128 bits of a MACK blob."""
    return blob[-KEY_BITS // 8:]


def split_segments(nav_data: bytes, seg_count: int) -> list:
    """Split nav data into equal byte segments, zero-padding the last."""
    if seg_count < 1:
        raise ValueError("need at least one segment")
    seg_len = -(-len(nav_data) // seg_count)
    padded = nav_data + bytes(seg_len * seg_count - len(nav_data))
    return [padded[i * seg_len:(i + 1) * seg_len] for i in range(seg_count)]


def generate_subframe_tags(nav_data: bytes, key: bytes, prn_d: int,
                           prn_a: int, gst_sf: Gst, seg_count: int) -> list:
    """One tag per nav-data segment, all under the same chain key: each is
    compute_tag of build_auth_message for its 1-based segment index.  One
    HMAC takes the key and the header in front of the segment index,
    packed with the last index: every index fits once that one does.  Each
    segment finishes a copy of it."""
    segments = split_segments(nav_data, seg_count)
    if not segments[0]:
        raise ValueError("segment must be non-empty")
    mac = hmac_sha256(key, _auth_header(prn_d, prn_a, gst_sf, seg_count)[:-1])
    return [mac(bytes((i,)) + seg)[:TAG_BITS // 8]
            for i, seg in enumerate(segments, 1)]


def tag_stream(prn: int, gsts, navs, keys, seg_count: int) -> list:
    """The MACK blobs of subframes 1 .. len(keys) - 2 of one satellite's
    consecutive stream: subframe k tags navs[k - 1] under keys[k + 1] at
    gsts[k], then discloses keys[k]; keys are 16-byte chain keys."""
    return [pack_mack(generate_subframe_tags(navs[k - 1], keys[k + 1], prn,
                                             prn, gsts[k], seg_count),
                      keys[k]) for k in range(1, len(keys) - 1)]


def verify_tags(nav_data: bytes, received, key: bytes, prn_d: int,
                prn_a: int, gst_sf: Gst, seg_count: int) -> list:
    """Recompute the seg_count tags locally and compare each with its
    received one; a received list of another length raises ValueError.

    The key bytes must already have been verified against the chain; an
    all-True result marks the nav data authentic for prn_d.
    """
    if len(received) != seg_count:
        raise ValueError(f"{len(received)} tags for seg_count {seg_count}")
    tags = generate_subframe_tags(nav_data, key, prn_d, prn_a, gst_sf,
                                  seg_count)
    return [_compare_digest(a, b) for a, b in zip(tags, received)]
