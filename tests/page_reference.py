"""Page-at-a-time blob codec: the reference the column-wise pack and unpack
must match, and a byte-slice field reader and writer.

These are the earlier per-page loops, kept for the tests only: one page
built from its slice of the nav, HKROOT and MACK blobs, and a subframe's
blobs joined back page by page out of each page's 240-bit int.  The
program packs and unpacks whole batches through byte columns instead.
The field helpers read and write a field through the bytes that hold it,
where the program's one packer shifts it within the whole message int.
The tests also flip page bits, list a subframe's destroyed slots, read
a lone subframe's OSNMA blobs through the program's one reader,
Stream.of([sf]).blobs(), and split page events' runs into one event per
page here; the program does none of these.
"""

from osnmasim.pages import (
    PAGE_BITS,
    PAGE_BYTES,
    PAGE_MS,
    PageEvent,
    SLOTS_PER_SUBFRAME,
    Stream,
)

# even/odd flag and page type of both halves: 00 at bits 0..1, 10 at 120..121
FLAGS = 0b10 << (PAGE_BITS - 122)


def blob_pages(nav_blob: bytes, hkroot: bytes, mack_blob: bytes) -> list:
    """The fifteen pages whose data, HKROOT and MACK portions concatenate to
    the given 240-, 15- and 60-byte blobs, as transmitted bytes with a zero
    CRC field."""
    nav = int.from_bytes(nav_blob, "big")
    macks = int.from_bytes(mack_blob, "big")
    pages = []
    for p, hk in enumerate(hkroot):
        data = nav >> 128 * (SLOTS_PER_SUBFRAME - 1 - p)
        mack = macks >> 32 * (SLOTS_PER_SUBFRAME - 1 - p) & 0xFFFFFFFF
        pages.append((FLAGS | (data >> 16 & (1 << 112) - 1) << 126
                      | (data & 0xFFFF) << 102 | hk << 94 | mack << 62
                      ).to_bytes(PAGE_BYTES, "big"))
    return pages


def join_nav_data(raws) -> bytes:
    """The pages' data portions concatenated."""
    if None in raws:
        raise ValueError("nav data undefined over destroyed pages")
    blob = 0
    for raw in raws:
        value = int.from_bytes(raw, "big")
        blob = blob << 128 | (value >> 126 & (1 << 112) - 1) << 16 \
            | value >> 102 & 0xFFFF
    return blob.to_bytes(SLOTS_PER_SUBFRAME * 16, "big")


def join_osnma(raws) -> tuple:
    """The HKROOT and MACK portions concatenated, as 15 and 60 bytes."""
    if None in raws:
        raise ValueError("OSNMA material undefined over destroyed pages")
    hkroot = mack = 0
    for raw in raws:
        value = int.from_bytes(raw, "big") >> 62     # HKROOT, then MACK
        hkroot = hkroot << 8 | value >> 32 & 0xFF
        mack = mack << 32 | value & 0xFFFFFFFF
    return (hkroot.to_bytes(SLOTS_PER_SUBFRAME, "big"),
            mack.to_bytes(4 * SLOTS_PER_SUBFRAME, "big"))


def ref_getbitu(buf, pos, length):
    first, end = pos >> 3, (pos + length + 7) >> 3
    shift = 8 * end - pos - length
    return (int.from_bytes(buf[first:end], "big") >> shift) & ((1 << length) - 1)


def ref_setbitu(buf, pos, length, value):
    """Write the low length bits of value (two's complement if negative)."""
    first, end = pos >> 3, (pos + length + 7) >> 3
    shift = 8 * end - pos - length
    mask = ((1 << length) - 1) << shift
    chunk = int.from_bytes(buf[first:end], "big")
    chunk = (chunk & ~mask) | ((value << shift) & mask)
    buf[first:end] = chunk.to_bytes(end - first, "big")


def ref_getbits(buf, pos, length):
    raw = ref_getbitu(buf, pos, length)
    return raw - (1 << length) if raw >= 1 << (length - 1) else raw


def flip_page_bit(raw: bytes, bit: int) -> bytes:
    """Return the page with one bit inverted."""
    buf = bytearray(raw)
    buf[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(buf)


def osnma(sf) -> tuple:
    """A subframe's HKROOT and MACK blobs, 15 and 60 bytes, as the
    program's Stream.blobs reads them; a destroyed slot raises
    ValueError."""
    return Stream.of([sf]).blobs()[0][1:]


def destroyed_slots(sf) -> tuple:
    """The indices of the subframe's destroyed slots."""
    return tuple(i for i, raw in enumerate(sf.raws) if raw is None)


def page_events(events) -> list:
    """The events' pages as one-page events, in order: a run's page k
    arrives 2 s * k after its event's t_ms."""
    return [PageEvent(e.t_ms + PAGE_MS * k, e.prn, e.source,
                      e.raw[PAGE_BYTES * k:PAGE_BYTES * (k + 1)])
            for e in events for k in range(len(e.raw) // PAGE_BYTES)]
