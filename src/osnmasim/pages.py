"""Bit-exact codec for 240-bit E1-B I/NAV pages and round-by-round
subframe assembly.

Page layout (all positions are absolute bit offsets, MSB first):

    even half (bits 0..119):
        0       even/odd flag, 0
        1       page type, 0
        2..113  data portion 1 (112 bits)
        114..119 tail (6 bits)
    odd half (bits 120..239):
        120      even/odd flag, 1
        121      page type, 0
        122..137 data portion 2 (16 bits)
        138..145 HKROOT portion (8 bits)
        146..177 MACK portion (32 bits)
        178..201 reserved framing (24 bits)
        202..225 CRC-24Q (24 bits)
        226..239 trailing fill (14 bits)

The CRC protects everything transmitted before it except the even tail:
even bits 0..113 followed by odd bits 0..81 (196 bits).  This region was
calibrated against known-good reference pages; both intact reference pages
self-verify under it.

A page is its 30 transmitted bytes from sealing to reception;
PageContent is only the codec's view of one page's fields, what
encode_page takes and decode_page gives back.  A satellite's broadcast is
a Stream, its sealed pages laid end to end in one bytes object, and a
round's pages reach the receiver as runs cut from it.  Slot ownership has
one rule.  Slot j of a round covers [w0 + 2000*j, w0 + 2000*(j+1)) ms,
and a run's pages arrive one per slot from its t_ms: a run on the grid
covers one slot per page, and one off it partly covers every slot its
pages overlap.  Adversary pages capture the slots they cover, and a slot
is owned only by the one page of its capturing source covering it, on
the grid; any other overlap, or none, destroys it.  The rule is decided
once per span of slots that share their covers, and a round's owned
spans are joined once, checked and unpacked, never cut into pages.

Every bit-packed message -- a page's fields, the navigation blob, the
root-key message and the tag-message header -- is one layout table of
(name, bit position, width, signed) rows that pack_fields writes and
unpack_fields reads.  A value outside its field raises ValueError naming
it: "<name> <value> does not fit <width>[ signed] bits".

The page CRC has one implementation, the column-wise kernel
``_crc_columns``, which seals or checks many pages in one call; a page
checks when its framing flags hold and resealing it leaves it unchanged.
A subframe's 240-byte navigation blob and 15-byte HKROOT and 60-byte MACK
blobs have one codec too: ``seal_pages`` writes them, and ``_unpack``
reads them for ``Stream.blobs`` and the round assembly.  With the pages
laid end to end and shifted left by 2 bits, every field sits on byte
boundaries: bytes 0..13 of each 30-byte page are the even data, byte 14
the even tail and the odd half's flags (0b10), bytes 15..16 the odd data,
byte 17 the HKROOT portion and bytes 18..21 the MACK portion.  Writing
puts the blobs into those byte columns, keeping every other bit, and
reading takes them out.  A kernel call costs a fixed amount plus a
little per page, so pages go through in batches, and nothing is kept
from one round to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple

from .gst import MS_PER_S, SUBFRAME_SECONDS, Gst

PAGE_BITS = 240
PAGE_BYTES = 30
SLOTS_PER_SUBFRAME = 15
SUBFRAME_BYTES = PAGE_BYTES * SLOTS_PER_SUBFRAME
SUBFRAME_MS = SUBFRAME_SECONDS * MS_PER_S
PAGE_MS = SUBFRAME_MS // SLOTS_PER_SUBFRAME

CRC24Q_POLY = 0x1864CFB

# field geometry: (bit position, bit width)
EVEN_DATA = (2, 112)
EVEN_TAIL = (114, 6)
ODD_FLAGS = (120, 2)
ODD_DATA = (122, 16)
HKROOT = (138, 8)
MACK = (146, 32)
RESERVED = (178, 24)
CRC = (202, 24)
FILL = (226, 14)


@cache
def _table(layout, nbits: int) -> tuple:
    """layout's rows as (name, shift, mask, lowest value, width text), and
    the mask of every bit no row holds: worked out once per layout."""
    rows = tuple((name, nbits - pos - width, (1 << width) - 1,
                  -signed << width - 1, f"{width}{' signed' if signed else ''}")
                 for name, pos, width, signed in layout)
    return rows, ~sum(mask << shift for _, shift, mask, *_ in rows)


def pack_fields(layout, nbits: int, values, message: int = 0) -> int:
    """The nbits-bit message int with each value written at its row's
    position, MSB first, two's complement where the row is signed, and
    every other bit as in message; a value that is not an int in the row's
    range raises ValueError naming the row."""
    rows, others = _table(layout, nbits)
    message &= others
    for (name, shift, mask, low, fit), value in zip(rows, values, strict=True):
        if not (isinstance(value, int) and low <= value <= low + mask):
            raise ValueError(f"{name} {value!r} does not fit {fit} bits")
        message |= (value & mask) << shift
    return message


def unpack_fields(layout, nbits: int, message: int) -> list:
    """Each row's value read out of the nbits-bit message int: the inverse
    of pack_fields; a signed row's sign bit is worth low."""
    return [(message >> shift & mask ^ -low) + low
            for _, shift, mask, low, _ in _table(layout, nbits)[0]]


def _build_crc_table() -> list:
    table = []
    for byte in range(256):
        crc = byte << 16
        for _ in range(8):
            crc <<= 1
            if crc & 0x1000000:
                crc ^= CRC24Q_POLY
        table.append(crc & 0xFFFFFF)
    return table


_CRC_TABLE = _build_crc_table()


def crc24q(data: bytes, nbits: int | None = None) -> int:
    """CRC-24Q over the leading nbits of data, MSB first.

    nbits may end inside the final byte; remaining bits of that byte are
    ignored.  Zero initial value, no final xor, so zero bits in front of the
    data leave the CRC unchanged: the leading nbits are right-aligned into
    whole bytes and fed through the table.
    """
    if nbits is None:
        nbits = 8 * len(data)
    nbytes = (nbits + 7) // 8
    lead = int.from_bytes(data[:nbytes], "big") >> (-nbits % 8)
    crc = 0
    for byte in lead.to_bytes(nbytes, "big"):
        crc = ((crc << 8) & 0xFFFFFF) ^ _CRC_TABLE[(crc >> 16) ^ byte]
    return crc


def _build_crc_maps() -> tuple:
    """Three translate maps per raw page byte 0..25: byte k's value to the
    high, middle and low byte of the CRC share of its protected bits.

    The protected region is even bits 0..113 then odd bits 120..201; a
    region bit's share is the crc24q of the region with that bit alone set,
    and a byte's share is the xor of its set bits' shares.
    """
    tail, tail_bits = EVEN_TAIL
    region_bits = CRC[0] - tail_bits
    region_bytes = (region_bits + 7) // 8
    maps = []
    for k in range(CRC[0] // 8 + 1):                    # bytes 0..25
        table = [0]
        for bit in range(8 * k + 7, 8 * k - 1, -1):     # weights 1, 2, .., 128
            pos = bit if bit < tail else bit - tail_bits    # place in region
            share = 0 if tail <= bit < tail + tail_bits or bit >= CRC[0] \
                else crc24q((1 << region_bits - 1 - pos).to_bytes(region_bytes, "big"))
            table += [x ^ share for x in table]
        maps.append(tuple(bytes(x >> shift & 0xFF for x in table)
                          for shift in (16, 8, 0)))
    return tuple(maps)


_CRC_MAPS = _build_crc_maps()


def _crc_columns(joined: bytes, lanes: int) -> tuple:
    """The CRC fields of the pages laid end to end in joined, computed from
    their protected bits: raw byte columns 25..28 as ints, byte i of each
    holding page i's CRC bits there and zeros elsewhere.  lanes is the int
    with a 1 in each of the pages' byte lanes.

    The kernel is Sarwate's table lookup turned column-wise: CRC-24Q is
    linear, so a page's CRC is the xor of the shares of its bytes 0..25
    (byte 14 gives its top 2 bits, the tail being unprotected, and byte 25
    its top 2, bits 200..201).  Column k, byte k of every page, goes
    through the three maps of byte k with one translate each, and the 78
    translated columns are xored as big ints whose byte lanes never carry
    into each other.
    """
    from_bytes = int.from_bytes         # looked up once, called 78 times
    high = mid = low = 0
    for k, (to_high, to_mid, to_low) in enumerate(_CRC_MAPS):
        column = joined[k::PAGE_BYTES]
        high ^= from_bytes(column.translate(to_high), "big")
        mid ^= from_bytes(column.translate(to_mid), "big")
        low ^= from_bytes(column.translate(to_low), "big")
    # the field starts 2 bits into byte 25: CRC bits 23..18, 17..10, 9..2, 1..0
    low6, low2 = 0x3F * lanes, 0x03 * lanes
    return (high >> 2 & low6, (high & low2) << 6 | mid >> 2 & low6,
            (mid & low2) << 6 | low >> 2 & low6, (low & low2) << 6)


def _joined(raws: list) -> bytes:
    """The pages laid end to end; a page that is not PAGE_BYTES long raises
    ValueError."""
    wrong = set(map(len, raws)) - {PAGE_BYTES}
    if wrong:
        raise ValueError(f"expected {PAGE_BYTES} bytes, got {min(wrong)}")
    return b"".join(raws)


def _column(joined: bytes, k: int) -> int:
    return int.from_bytes(joined[k::PAGE_BYTES], "big")


def _seal(joined: bytes) -> bytes:
    """The pages laid end to end in joined, each with its CRC field
    recomputed, in one kernel call."""
    n = len(joined) // PAGE_BYTES
    lanes = int.from_bytes(b"\1" * n, "big")
    crc25, crc26, crc27, crc28 = _crc_columns(joined, lanes)
    crc25 |= _column(joined, 25) & 0xC0 * lanes        # bits 200..201 stay
    crc28 |= _column(joined, 28) & 0x3F * lanes        # the fill's top bits
    buf = bytearray(joined)
    for k, column in zip(range(25, 29), (crc25, crc26, crc27, crc28)):
        buf[k::PAGE_BYTES] = column.to_bytes(n, "big")
    return bytes(buf)


def _checks(joined: bytes) -> list:
    """Whether each page laid end to end in joined checks, in one kernel call
    and, unless one fails, one compare: failing's byte i is nonzero where
    page i's flags are not 00 and 10 or its CRC field is not its bits' CRC."""
    n = len(joined) // PAGE_BYTES
    lanes = int.from_bytes(b"\1" * n, "big")
    crc25, crc26, crc27, crc28 = _crc_columns(joined, lanes)
    top2, low6 = 0xC0 * lanes, 0x3F * lanes
    failing = (_column(joined, 0) & top2 | (_column(joined, 15) & top2)
               ^ 0x80 * lanes | (_column(joined, 25) & low6) ^ crc25
               | _column(joined, 26) ^ crc26 | _column(joined, 27) ^ crc27
               | (_column(joined, 28) & top2) ^ crc28)
    if not failing:
        return [True] * n
    return [not fail for fail in failing.to_bytes(n, "big")]


def check_raws(raws: list) -> list:
    """Whether each page checks, by _checks over the pages joined."""
    return _checks(_joined(raws))


class PageContent(NamedTuple):
    """A page's fields in position order."""

    even_data: int          # 112-bit navigation-data portion
    odd_data: int           # 16-bit navigation-data portion
    hkroot: int             # 8-bit root-key transport byte
    mack: int               # 32-bit tag/key transport word
    reserved: int = 0       # 24 framing bits between MACK and CRC
    crc: int = 0            # 24-bit checksum as carried in the page
    fill: int = 0           # 14 trailing framing bits


_PAGE_LAYOUT = tuple((name, *geometry, False) for name, geometry in zip(
    PageContent._fields, (EVEN_DATA, ODD_DATA, HKROOT, MACK, RESERVED, CRC,
                          FILL)))
# even/odd flag and page type of both halves: 00 at bits 0..1, 10 at 120..121
_FLAGS = pack_fields((("odd_flags", *ODD_FLAGS, False),), PAGE_BITS, (0b10,))
_BLANK = _FLAGS.to_bytes(PAGE_BYTES, "big")     # a page of flags alone


def encode_page(page: PageContent) -> bytes:
    """Serialize a page to its 240-bit transmission form, CRC as given."""
    return (_FLAGS | pack_fields(_PAGE_LAYOUT, PAGE_BITS, page)).to_bytes(
        PAGE_BYTES, "big")


def _columns(pos: int, width: int) -> tuple:
    """The bytes a field at pos fills in a page shifted left by 2 bits."""
    return tuple(range((pos - 2) // 8, (pos - 2 + width) // 8))


# Byte columns of a page shifted left by 2 bits (see the module docstring):
# the 16 nav-data bytes, the HKROOT byte and the 4 MACK bytes.
_NAV_COLUMNS = _columns(*EVEN_DATA) + _columns(*ODD_DATA)
(_HKROOT_COLUMN,) = _columns(*HKROOT)
_MACK_COLUMNS = _columns(*MACK)
# a subframe's blobs: its pages' portions concatenated
NAV_BYTES = len(_NAV_COLUMNS) * SLOTS_PER_SUBFRAME          # 240
HKROOT_BYTES = SLOTS_PER_SUBFRAME                           # 15
MACK_BYTES = len(_MACK_COLUMNS) * SLOTS_PER_SUBFRAME        # 60


def seal_pages(blobs, pages: bytes | None = None) -> bytes:
    """pages, laid end to end, with every (nav, hkroot, mack) blob triple
    written over them and every CRC field recomputed: subframe i's pages
    15*i..15*i+14 carry its 240-byte nav blob in their data portions and
    its 15- and 60-byte blobs in their HKROOT and MACK portions, in page
    order, and every other bit as given.  pages defaults to blank pages,
    zero but for the odd halves' flags.

    The blobs' bytes are written into the byte columns of the pages
    shifted left by 2 bits, the whole run is shifted back once, and it is
    sealed in one kernel call.
    """
    navs, hkroots, macks = [], [], []
    for nav, hkroot, mack in blobs:
        if len(hkroot) != HKROOT_BYTES:
            raise ValueError("hkroot must supply one byte per page")
        if len(mack) != MACK_BYTES:
            raise ValueError("mack blob must supply four bytes per page")
        if len(nav) != NAV_BYTES:
            raise ValueError(f"nav blob must be {NAV_BYTES} bytes")
        navs.append(nav)
        hkroots.append(hkroot)
        macks.append(mack)
    nav, mack = b"".join(navs), b"".join(macks)
    count = len(hkroots) * SLOTS_PER_SUBFRAME
    pages = _BLANK * count if pages is None else pages
    if len(pages) != PAGE_BYTES * count:
        raise ValueError(f"{count} pages to write, got {len(pages)} bytes")
    buf = _shifted(pages)
    for j, k in enumerate(_NAV_COLUMNS):
        buf[1 + k::PAGE_BYTES] = nav[j::len(_NAV_COLUMNS)]
    buf[1 + _HKROOT_COLUMN::PAGE_BYTES] = b"".join(hkroots)
    for j, k in enumerate(_MACK_COLUMNS):
        buf[1 + k::PAGE_BYTES] = mack[j::len(_MACK_COLUMNS)]
    return _seal((int.from_bytes(buf, "big") >> 2).to_bytes(len(pages), "big"))


def _shifted(joined: bytes) -> bytearray:
    """The pages laid end to end in joined, shifted left by 2 bits, behind
    a byte for the first page's flags: column k is [1 + k::PAGE_BYTES]."""
    return bytearray((int.from_bytes(joined, "big") << 2).to_bytes(
        len(joined) + 1, "big"))


def _unpack(joined: bytes) -> list:
    """The (nav, hkroot, mack) blobs of the subframes whose pages are laid
    end to end in joined: the inverse of seal_pages' writing."""
    shifted = _shifted(joined)
    count = len(joined) // PAGE_BYTES
    nav = bytearray(count * len(_NAV_COLUMNS))
    for j, k in enumerate(_NAV_COLUMNS):
        nav[j::len(_NAV_COLUMNS)] = shifted[1 + k::PAGE_BYTES]
    mack = bytearray(count * len(_MACK_COLUMNS))
    for j, k in enumerate(_MACK_COLUMNS):
        mack[j::len(_MACK_COLUMNS)] = shifted[1 + k::PAGE_BYTES]
    nav, mack = bytes(nav), bytes(mack)
    hkroot = bytes(shifted[1 + _HKROOT_COLUMN::PAGE_BYTES])
    return [(nav[NAV_BYTES * i:NAV_BYTES * (i + 1)],
             hkroot[HKROOT_BYTES * i:HKROOT_BYTES * (i + 1)],
             mack[MACK_BYTES * i:MACK_BYTES * (i + 1)])
            for i in range(count // SLOTS_PER_SUBFRAME)]


def reseal_raw(raw: bytes) -> bytes:
    """Recompute and replace the CRC field of a raw 240-bit page."""
    return _seal(_joined([raw]))


def decode_page(raw: bytes) -> PageContent | None:
    """Parse a raw page; None marks a destroyed page.

    A page is destroyed when its CRC does not verify or its framing flags
    (even/odd, page type) are inconsistent -- both model bit errors or
    jamming at the message level.
    """
    return _content(raw) if check_raws([raw])[0] else None


def _content(raw: bytes) -> PageContent:
    return PageContent._make(unpack_fields(_PAGE_LAYOUT, PAGE_BITS,
                                           int.from_bytes(raw, "big")))


class Source(Enum):
    AUTHENTIC = "authentic"
    ADVERSARY = "adversary"


class PageEvent(NamedTuple):
    """Pages reaching the receiver antenna back to back, one per 2-s slot
    from wall time t_ms: their origin, and their 30-byte pages in raw."""

    t_ms: int
    prn: int
    source: Source
    raw: bytes


@dataclass(frozen=True)
class Subframe:
    """Fifteen 2-second page slots stamped with the GST of the round.

    Each slot holds a page's 30 sealed bytes or None for a destroyed page.
    The subframe is produced even when slots are destroyed; only a complete
    one's blobs can be read, through Stream.of.  A subframe
    is its slots; pages is a view decoded afresh on each access (a receiver
    reads its round's blobs from assemble_rounds instead).
    """

    gst: Gst
    prn: int
    raws: tuple

    def __post_init__(self):
        if len(self.raws) != SLOTS_PER_SUBFRAME:
            raise ValueError(f"subframe needs {SLOTS_PER_SUBFRAME} slots")

    @property
    def complete(self) -> bool:
        return None not in self.raws

    @property
    def pages(self) -> tuple:
        """The slots decoded afresh on each access, in one check of the
        present pages; None for a destroyed or failing one."""
        oks = iter(check_raws([raw for raw in self.raws if raw is not None]))
        return tuple(_content(raw) if raw is not None and next(oks) else None
                     for raw in self.raws)


@dataclass(frozen=True)
class Stream:
    """One satellite's subframes at consecutive GSTs from gst, as their
    sealed pages laid end to end: SUBFRAME_BYTES a subframe, each
    subframe's 15 pages in slot order.  Its Subframes are cut from the
    bytes on demand, and none is kept."""

    gst: Gst                    # of the first subframe
    prn: int
    pages: bytes

    def __post_init__(self):
        if len(self.pages) % SUBFRAME_BYTES:
            raise ValueError(f"a stream is whole subframes of {SUBFRAME_BYTES}"
                             f" bytes, got {len(self.pages)} bytes")

    @classmethod
    def of(cls, subframes) -> "Stream":
        """The stream of one satellite's complete subframes, given in GST
        order; a GST out of step raises ValueError naming the satellite and
        the GST missing there, and an incomplete subframe one naming its
        destroyed slots."""
        first = subframes[0]
        for i, sf in enumerate(subframes):
            if None in sf.raws:
                raise ValueError("destroyed slots: " + str(tuple(
                    k for k, raw in enumerate(sf.raws) if raw is None)))
            expected = first.gst.add_seconds(SUBFRAME_SECONDS * i)
            if sf.gst != expected:
                raise ValueError(
                    f"prn {first.prn}: subframe at wn {expected.wn} tow "
                    f"{expected.tow} is missing; a stream needs consecutive "
                    "subframes")
        return cls(first.gst, first.prn,
                   _joined([raw for sf in subframes for raw in sf.raws]))

    def __len__(self) -> int:
        return len(self.pages) // SUBFRAME_BYTES

    def gsts(self) -> list:
        return [self.gst.add_seconds(SUBFRAME_SECONDS * i)
                for i in range(len(self))]

    def blobs(self) -> list:
        """Each subframe's (nav, hkroot, mack) blobs, read in one pass."""
        return _unpack(self.pages)

    def subframes(self) -> list:
        """A fresh Subframe for each subframe, its slots cut from the
        bytes."""
        raws = [self.pages[i:i + PAGE_BYTES]
                for i in range(0, len(self.pages), PAGE_BYTES)]
        return [Subframe(gst, self.prn, tuple(
                    raws[SLOTS_PER_SUBFRAME * i:SLOTS_PER_SUBFRAME * (i + 1)]))
                for i, gst in enumerate(self.gsts())]


def _spans(events, prn: int, w0: int) -> list:
    """The slots that prn's events own, by the ownership rule above, as
    (first slot, bytes) spans in slot order, each one slice of its owner's
    run; a slot in no span is destroyed.  The window is cut wherever a
    run's cover starts or ends, and the rule is decided once per span."""
    covers = []                 # (first, end, adversary, start or None, raw)
    for e in events:
        if e.prn != prn:
            continue
        if not e.raw or len(e.raw) % PAGE_BYTES:
            raise ValueError(f"expected whole pages, got {len(e.raw)} bytes")
        k, offset = divmod(e.t_ms - w0, PAGE_MS)
        end = min(k + len(e.raw) // PAGE_BYTES + (offset > 0),
                  SLOTS_PER_SUBFRAME)
        if max(k, 0) < end:
            covers.append((max(k, 0), end, e.source is Source.ADVERSARY,
                           None if offset else k, e.raw))
    cuts = sorted({0, SLOTS_PER_SUBFRAME, *(x for c in covers for x in c[:2])})
    spans = []
    for lo, hi in zip(cuts, cuts[1:]):
        over = [c for c in covers if c[0] <= lo < c[1]]
        owners = [c for c in over if c[2]] or over
        if len(owners) == 1 and owners[0][3] is not None:
            _, _, _, k, raw = owners[0]
            spans.append((lo, raw[PAGE_BYTES * (lo - k):PAGE_BYTES * (hi - k)]))
    return spans


def assemble_rounds(events_by_prn: dict, prns, window_start_ms: int) -> dict:
    """Assemble one 30-second round of page events for each of prns: the
    (nav, hkroot, mack) blobs of the PRNs whose subframe is complete, by
    PRN in prns' order, unpacked from the round's checked buffer itself
    when every PRN is complete, else from one join of the complete ones."""
    spans = {prn: _spans(events_by_prn.get(prn, ()), prn, window_start_ms)
             for prn in prns}
    joined = b"".join(run for runs in spans.values() for _, run in runs)
    oks, start, complete = _checks(joined), 0, {}
    for prn, runs in spans.items():
        n = sum(len(run) for _, run in runs) // PAGE_BYTES
        if n == SLOTS_PER_SUBFRAME and all(oks[start:start + n]):
            complete[prn] = PAGE_BYTES * start
        start += n
    if len(complete) < len(spans):
        joined = b"".join(joined[i:i + SUBFRAME_BYTES]
                          for i in complete.values())
    return dict(zip(complete, _unpack(joined)))


def assemble_round(events, gst: Gst, prn: int,
                   window_start_ms: int | None = None) -> Subframe:
    """The subframe of the one satellite prn, stamped gst, that one round
    of page events assembles into, by assemble_rounds' slot rules; the
    events may come mixed with other satellites', and the window starts
    at gst unless window_start_ms says otherwise."""
    w0 = gst.total_millis() if window_start_ms is None else window_start_ms
    spans = _spans(events, prn, w0)
    oks = iter(_checks(b"".join(run for _, run in spans)))
    owned = {lo + i // PAGE_BYTES: run[i:i + PAGE_BYTES] for lo, run in spans
             for i in range(0, len(run), PAGE_BYTES) if next(oks)}
    return Subframe(gst, prn, tuple(map(owned.get, range(SLOTS_PER_SUBFRAME))))
