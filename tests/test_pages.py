import random

import pytest
from hypothesis import given, settings, strategies as st

import page_reference as ref
from osnmasim import pages
from osnmasim.gst import Gst
from osnmasim.pages import (
    CRC,
    EVEN_DATA,
    FILL,
    FieldWidthError,
    HKROOT,
    IncompleteError,
    LengthError,
    MACK,
    ODD_DATA,
    PAGE_BYTES,
    PAGE_MS,
    PageContent,
    PageEvent,
    RESERVED,
    SLOTS_PER_SUBFRAME,
    Source,
    Subframe,
    assemble_round,
    build_subframes,
    check_raws,
    crc24q,
    decode_page,
    encode_page,
    flip_page_bit,
    reseal_raw,
    seal_page,
    unpack_pages,
)

# intact reference pages: the unmodified capture page and the finished
# forged page; both embed CRCs consistent with the calibrated region
PAGE_INTACT_A = bytes.fromhex(
    "054bc11429a07f9fc009c6875d2a80aaaab21d69f9a18e29635cf8ec0100")
PAGE_INTACT_C = bytes.fromhex(
    "021333662a4249dd4a6ebb4cae1900bd2a5c9e8497ba6aaaaa6a9778c100")

GST0 = Gst(1251, 277200)


# -- reference implementations: one bit, one slot at a time -------------------


def ref_getbitu(buf, pos, length):
    val = 0
    for i in range(pos, pos + length):
        val = (val << 1) | ((buf[i >> 3] >> (7 - (i & 7))) & 1)
    return val


def ref_setbitu(buf, pos, length, value):
    for i in range(length):
        p = pos + i
        mask = 0x80 >> (p & 7)
        if (value >> (length - 1 - i)) & 1:
            buf[p >> 3] |= mask
        else:
            buf[p >> 3] &= 0xFF ^ mask


def ref_encode_page(page):
    buf = bytearray(PAGE_BYTES)
    ref_setbitu(buf, 0, 2, 0b00)
    ref_setbitu(buf, 120, 2, 0b10)
    for geometry, value in ((EVEN_DATA, page.even_data), (ODD_DATA, page.odd_data),
                            (HKROOT, page.hkroot), (MACK, page.mack),
                            (RESERVED, page.reserved), (CRC, page.crc),
                            (FILL, page.fill)):
        ref_setbitu(buf, *geometry, value)
    return bytes(buf)


def ref_crc(raw):
    """Bitwise CRC-24Q over even bits 0..113 then odd bits 120..201."""
    crc = 0
    for i in [*range(0, 114), *range(120, 202)]:
        top = (crc >> 23) & 1
        crc = (crc << 1) & 0xFFFFFF
        if top ^ ref_getbitu(raw, i, 1):
            crc ^= 0x864CFB
    return crc


def ref_crc24q(data, nbits):
    """Bitwise CRC-24Q over the leading nbits of data."""
    crc = 0
    for i in range(nbits):
        top = (crc >> 23) & 1
        crc = (crc << 1) & 0xFFFFFF
        if top ^ ref_getbitu(data, i, 1):
            crc ^= 0x864CFB
    return crc


def ref_decode_page(raw):
    if ref_getbitu(raw, 0, 2) != 0b00 or ref_getbitu(raw, 120, 2) != 0b10:
        return None
    if ref_crc(raw) != ref_getbitu(raw, *CRC):
        return None
    return PageContent(
        even_data=ref_getbitu(raw, *EVEN_DATA), odd_data=ref_getbitu(raw, *ODD_DATA),
        hkroot=ref_getbitu(raw, *HKROOT), mack=ref_getbitu(raw, *MACK),
        crc=ref_getbitu(raw, *CRC), reserved=ref_getbitu(raw, *RESERVED),
        fill=ref_getbitu(raw, *FILL))


def ref_assemble_round(events, gst, prn, window_start_ms):
    relevant = [e for e in events if e.prn == prn]
    slots = []
    for j in range(SLOTS_PER_SUBFRAME):
        s0 = window_start_ms + PAGE_MS * j
        s1 = s0 + PAGE_MS
        adv = [e for e in relevant
               if e.source is Source.ADVERSARY and e.t_ms < s1 and e.t_ms + PAGE_MS > s0]
        auth = [e for e in relevant
                if e.source is Source.AUTHENTIC and e.t_ms < s1 and e.t_ms + PAGE_MS > s0]
        owner = None
        if adv:
            if len(adv) == 1 and adv[0].t_ms == s0:
                owner = adv[0].raw
        elif auth:
            if len(auth) == 1 and auth[0].t_ms == s0:
                owner = auth[0].raw
        if owner is not None and ref_decode_page(owner) is None:
            owner = None
        slots.append(owner)
    return Subframe(gst=gst, prn=prn, raws=tuple(slots))


def test_crc_zero_region_is_zero():
    assert crc24q(bytes(25), 196) == 0


def test_crc_known_value_byte_aligned():
    # table-driven path must agree with the bitwise definition
    data = bytes(range(32))
    bitwise = 0
    for byte in data:
        for k in range(8):
            bit = (byte >> (7 - k)) & 1
            top = (bitwise >> 23) & 1
            bitwise = (bitwise << 1) & 0xFFFFFF
            if top ^ bit:
                bitwise ^= 0x864CFB
    assert crc24q(data) == bitwise


@st.composite
def crc_inputs(draw):
    nbits = draw(st.integers(0, 8 * 96))
    return draw(st.binary(min_size=(nbits + 7) // 8, max_size=96)), nbits


@given(crc_inputs())
def test_crc24q_matches_bitwise_reference(case):
    # up to 96 bytes: past the PAGE_BYTES tables, folded block by block
    data, nbits = case
    assert crc24q(data, nbits) == ref_crc24q(data, nbits)


def test_crc24q_every_length_matches_bitwise_reference():
    rng = random.Random(24)
    for length in range(97):
        data = rng.randbytes(length)
        for nbits in {8 * length, rng.randint(0, 8 * length)}:
            assert crc24q(data, nbits) == ref_crc24q(data, nbits), (length, nbits)
        assert crc24q(data) == ref_crc24q(data, 8 * length), length


def test_reference_pages_self_verify():
    for raw in (PAGE_INTACT_A, PAGE_INTACT_C):
        page = decode_page(raw)
        assert page is not None
        assert seal_page(page) == raw          # the CRC sealing computes


def test_reference_pages_round_trip():
    for raw in (PAGE_INTACT_A, PAGE_INTACT_C):
        assert encode_page(decode_page(raw)) == raw


def test_decode_rejects_wrong_length():
    with pytest.raises(LengthError):
        decode_page(b"\x00" * 29)


def test_encode_rejects_oversized_field():
    with pytest.raises(FieldWidthError):
        encode_page(PageContent(even_data=1 << 112, odd_data=0, hkroot=0,
                                mack=0))


page_contents = st.builds(
    PageContent,
    even_data=st.integers(0, (1 << 112) - 1),
    odd_data=st.integers(0, (1 << 16) - 1),
    hkroot=st.integers(0, 255),
    mack=st.integers(0, (1 << 32) - 1),
    crc=st.just(0),     # builds draws every named-tuple field, defaults too
    reserved=st.integers(0, (1 << 24) - 1),
    fill=st.integers(0, (1 << 14) - 1),
)


@given(page_contents)
def test_encode_decode_round_trip(page):
    sealed = seal_page(page)
    assert encode_page(decode_page(sealed)) == sealed


@given(page_contents)
def test_sealed_page_decodes_to_its_fields_with_the_crc_filled_in(page):
    assert decode_page(seal_page(page)) == \
        page._replace(crc=ref_crc(ref_encode_page(page)))


@given(page_contents, st.integers(0, (1 << 24) - 1))
def test_seal_page_ignores_the_given_crc(page, crc):
    assert seal_page(page._replace(crc=crc)) == seal_page(page)


@given(page_contents, st.integers(0, 239))
def test_single_bit_flip_detection(page, bit):
    """Flips inside the protected region (or the CRC itself) destroy the
    page; flips in the 20 framing bits do not touch the checksum."""
    raw = seal_page(page)
    flipped = flip_page_bit(raw, bit)
    unprotected = set(range(114, 120)) | set(range(226, 240))
    if bit in unprotected:
        assert decode_page(flipped) is not None
    else:
        assert decode_page(flipped) is None


def _assembled(raw, source=Source.AUTHENTIC, decoded=False):
    """Slot 0 of a round whose one event carries raw: its bytes, or with
    decoded its fields."""
    w0 = GST0.total_millis()
    event = PageEvent(t_ms=w0, prn=1, source=source, raw=raw)
    sf = assemble_round([event], GST0, 1, w0)
    return sf.pages[0] if decoded else sf.raws[0]


@given(page_contents, st.integers(0, 239), st.sampled_from(Source))
def test_assembly_checks_a_one_bit_flip_as_decode_page_does(page, bit, source):
    """A copy one bit away from an intact page is assembled to exactly what
    decode_page gives it, which is a destroyed page whenever the bit is a
    flag, in the protected region or in the CRC; the intact page still
    passes."""
    raw = seal_page(page)
    assert _assembled(raw) == raw
    assert _assembled(raw, decoded=True) == decode_page(raw) is not None
    flipped = flip_page_bit(raw, bit)
    got = _assembled(flipped, source)
    assert got == (None if decode_page(flipped) is None else flipped)
    assert _assembled(flipped, source, decoded=True) == decode_page(flipped)
    if bit < 114 or 120 <= bit < 226:
        assert got is None
    assert _assembled(raw, source) == raw


@given(page_contents, st.sampled_from([*range(114), *range(120, 226)]),
       st.integers(0, SLOTS_PER_SUBFRAME - 1), st.sampled_from(Source))
def test_flip_destroys_a_slot_after_the_intact_bytes_were_checked(
        page, bit, slot, source):
    """A flag or protected bit flipped in one page of a round destroys that
    slot alone, though the unflipped bytes passed the checks a round before."""
    events = _events()
    events[slot] = events[slot]._replace(raw=seal_page(page))
    assert assemble_round(events, GST0, prn=5).complete
    events[slot] = events[slot]._replace(
        source=source, raw=flip_page_bit(seal_page(page), bit))
    assert assemble_round(events, GST0, prn=5).destroyed_slots == (slot,)


@given(st.lists(page_contents, min_size=SLOTS_PER_SUBFRAME,
                max_size=SLOTS_PER_SUBFRAME))
def test_received_blobs_match_the_decoded_pages(fields):
    """A received subframe's nav data and OSNMA blobs, read from its bytes,
    equal the ones rebuilt from its decoded pages."""
    events = [PageEvent(t_ms=_T0 + PAGE_MS * i, prn=5, source=Source.AUTHENTIC,
                        raw=seal_page(f)) for i, f in enumerate(fields)]
    sf = assemble_round(events, GST0, prn=5)
    assert sf.complete
    assert sf.nav_data == b"".join(
        (p.even_data << 16 | p.odd_data).to_bytes(16, "big") for p in sf.pages)
    assert sf.osnma == (
        bytes(p.hkroot for p in sf.pages),
        b"".join(p.mack.to_bytes(4, "big") for p in sf.pages))


def test_assembly_decodes_a_resealed_forgery_to_its_own_fields():
    """A forged page resealed with a valid CRC is assembled and read as its
    own fields, one data bit away from the authentic page's."""
    authentic = _assembled(PAGE_INTACT_A, decoded=True)
    forged = reseal_raw(flip_page_bit(PAGE_INTACT_A, 20))    # even_data bit 93
    assert _assembled(forged, Source.ADVERSARY) == forged
    page = _assembled(forged, Source.ADVERSARY, decoded=True)
    assert page == decode_page(forged)
    assert page.even_data == authentic.even_data ^ 1 << 93
    assert page.crc != authentic.crc


@given(page_contents, st.integers(0, (1 << 24) - 1))
def test_encode_page_matches_reference(page, crc):
    page = page._replace(crc=crc)
    assert encode_page(page) == ref_encode_page(page)


@given(st.binary(min_size=PAGE_BYTES, max_size=PAGE_BYTES),
       st.sampled_from([0b00, 0b01, 0b10, 0b11]), st.booleans())
def test_decode_page_matches_reference(raw, odd_flags, sealed):
    """Any page, tail bits included: flags and CRC are checked and every
    field is read as the bit-at-a-time reference reads it."""
    buf = bytearray(raw)
    ref_setbitu(buf, 0, 2, 0b00)
    ref_setbitu(buf, 120, 2, odd_flags)
    if sealed:
        ref_setbitu(buf, *CRC, ref_crc(buf))
    assert decode_page(bytes(buf)) == ref_decode_page(buf)


@pytest.mark.parametrize("name, width", [
    ("even_data", 112), ("odd_data", 16), ("hkroot", 8), ("mack", 32),
    ("crc", 24), ("reserved", 24), ("fill", 14)])
def test_encode_names_the_oversized_field(name, width):
    fields = dict(even_data=0, odd_data=0, hkroot=0, mack=0)
    for value in (1 << width, -1):
        fields[name] = value
        with pytest.raises(FieldWidthError, match=name):
            encode_page(PageContent(**fields))


def test_decode_rejects_inconsistent_flags():
    raw = seal_page(PageContent(even_data=5, odd_data=6, hkroot=7, mack=8))
    for bit in (0, 1, 120, 121):
        assert decode_page(reseal_raw(flip_page_bit(raw, bit))) is None


_T0 = GST0.total_millis()


def _event(slot, offset, index, flip, prn, source):
    raw = _page_raw(index)
    if flip is not None:
        raw = flip_page_bit(raw, flip)
    return PageEvent(t_ms=_T0 + PAGE_MS * slot + offset, prn=prn,
                     source=source, raw=raw)


page_events = st.builds(
    _event,
    slot=st.integers(-1, SLOTS_PER_SUBFRAME),
    offset=st.sampled_from([0, 0, 0, 0, 1, 500, 1999, -1, -700]),
    index=st.integers(0, 14),
    flip=st.none() | st.integers(0, 239),
    prn=st.sampled_from([5, 5, 5, 6]),
    source=st.sampled_from(list(Source)),
)


@st.composite
def event_streams(draw):
    """A live stream with gaps plus stray pages for two PRNs around one
    window: aligned and offset starts, duplicates, damaged pages and
    adversary overlaps."""
    events = _events(indices=draw(st.sets(st.integers(0, 14))))
    events += draw(st.lists(page_events, max_size=20))
    events += draw(st.lists(st.sampled_from(events), max_size=5)) if events else []
    return events


@given(event_streams(), st.sampled_from([5, 6]))
def test_assemble_round_matches_reference(events, prn):
    assert assemble_round(events, GST0, prn, _T0) == \
        ref_assemble_round(events, GST0, prn, _T0)


@st.composite
def rounds_by_prn(draw):
    """Two to eight PRNs in some order, and for each but possibly one an
    event stream like event_streams's: missing, flipped, off-grid and
    adversary pages, plus a few events filed under the wrong PRN."""
    prns = draw(st.lists(st.integers(1, 36), min_size=2, max_size=8,
                         unique=True))
    by_prn = {}
    for prn in prns[draw(st.integers(0, 1)):]:
        events = _events(indices=draw(st.sets(st.integers(0, 14))))
        events += draw(st.lists(page_events, max_size=8))
        by_prn[prn] = [e._replace(prn=prn) if e.prn == 5 else e
                       for e in events]
    return prns, by_prn


@given(rounds_by_prn())
def test_assemble_rounds_keeps_each_prn_in_its_lane(prns_and_events):
    """The owned pages of every PRN share one check_raws batch, and each
    result lands on its own slot: every PRN's subframe is the one assembled
    for it alone, and every kept slot passes the reference check."""
    prns, by_prn = prns_and_events
    got = pages.assemble_rounds(by_prn, GST0, prns, _T0)
    assert list(got) == prns
    for prn, sf in got.items():
        assert sf == assemble_round(by_prn.get(prn, ()), GST0, prn, _T0)
        assert sf == ref_assemble_round(by_prn.get(prn, ()), GST0, prn, _T0)
        assert all(ref_check(raw) for raw in sf.raws if raw is not None)


def test_standalone_round_is_checked_in_one_call(monkeypatch):
    """A round of 15 pages never assembled before costs one kernel call."""
    events = _events(indices=range(15))
    calls = []
    kernel = pages._crc_columns

    def counting(joined, lanes):
        calls.append(len(joined) // PAGE_BYTES)
        return kernel(joined, lanes)

    monkeypatch.setattr(pages, "_crc_columns", counting)
    assert assemble_round(events, GST0, prn=5).complete
    assert calls == [SLOTS_PER_SUBFRAME]


@given(st.binary(min_size=PAGE_BYTES, max_size=PAGE_BYTES))
def test_page_crc_matches_bitwise_reference(raw):
    """Any page, flags, tail and CRC bits included: the CRC read from the
    raw bytes is the bitwise CRC of the protected region, and resealing
    writes it into the CRC field alone."""
    want = bytearray(raw)
    ref_setbitu(want, *CRC, ref_crc(raw))
    assert reseal_raw(raw) == want
    assert (decode_page(raw) is None) == \
        (ref_decode_page(raw) is None)


@given(st.binary(min_size=240, max_size=240),
       st.binary(min_size=SLOTS_PER_SUBFRAME, max_size=SLOTS_PER_SUBFRAME),
       st.binary(min_size=60, max_size=60))
def test_build_subframe_pages_match_seal_page(nav, hkroot, mack):
    """Each page is the bytes of sealing its fields read bitwise from the
    blobs, and equals the bitwise encoding with the bitwise CRC."""
    sf = build_subframes([(GST0, 5, nav, hkroot, mack)])[0]
    for p, (raw, page) in enumerate(zip(sf.raws, sf.pages)):
        fields = PageContent(
            even_data=ref_getbitu(nav, 128 * p, 112),
            odd_data=ref_getbitu(nav, 128 * p + 112, 16), hkroot=hkroot[p],
            mack=ref_getbitu(mack, 32 * p, 32))
        assert type(raw) is bytes
        assert raw == seal_page(fields)
        assert raw == ref_encode_page(page)
        assert page.crc == ref_crc(ref_encode_page(page))
        assert page == fields._replace(crc=page.crc)


def test_reseal_raw_restores_validity():
    broken = flip_page_bit(PAGE_INTACT_A, 47)
    assert decode_page(broken) is None
    assert decode_page(reseal_raw(broken)) is not None


def _page_raw(i):
    return seal_page(PageContent(
        even_data=i, odd_data=i, hkroot=0x52 if i == 0 else i, mack=i))


def _events(source=Source.AUTHENTIC, start=None, indices=range(15)):
    base = GST0.total_millis() if start is None else start
    return [PageEvent(t_ms=base + PAGE_MS * i, prn=5, source=source,
                      raw=_page_raw(i)) for i in indices]


def test_assemble_full_round_intact():
    sf = assemble_round(_events(), GST0, prn=5)
    assert sf.complete
    assert [p.even_data for p in sf.pages] == list(range(15))


def test_assemble_missing_page_destroys_slot():
    events = _events(indices=[i for i in range(15) if i != 6])
    sf = assemble_round(events, GST0, prn=5)
    assert not sf.complete
    assert sf.destroyed_slots == (6,)


def test_assemble_adversary_overlap_mid_round():
    """An adversary stream starting mid-round, offset inside the slot
    windows, destroys every slot from its onset onward."""
    live = _events()
    onset = GST0.total_millis() + PAGE_MS * 7 + 500
    adv = [PageEvent(t_ms=onset + PAGE_MS * k, prn=5, source=Source.ADVERSARY,
                     raw=_page_raw(k)) for k in range(8)]
    sf = assemble_round(live + adv, GST0, prn=5)
    assert sf.destroyed_slots == tuple(range(7, 15))


def test_assemble_adversary_full_cover_captures_slot():
    live = _events()
    adv = [PageEvent(t_ms=GST0.total_millis() + PAGE_MS * 4, prn=5,
                     source=Source.ADVERSARY, raw=_page_raw(9))]
    sf = assemble_round(live + adv, GST0, prn=5)
    assert sf.complete
    assert sf.pages[4].even_data == 9


def test_assemble_ignores_other_prn():
    events = _events()
    sf = assemble_round(events, GST0, prn=6)
    assert sf.destroyed_slots == tuple(range(15))


def test_subframe_osnma_concatenation():
    sf = assemble_round(_events(), GST0, prn=5)
    hkroot, mack = sf.osnma
    assert len(hkroot) == 15 and len(mack) == 60
    assert hkroot[0] == 0x52
    assert hkroot[1:] == bytes(range(1, 15))
    assert mack == b"".join(i.to_bytes(4, "big") for i in range(15))


def test_subframe_osnma_incomplete_raises():
    events = _events(indices=range(14))
    sf = assemble_round(events, GST0, prn=5)
    with pytest.raises(IncompleteError):
        sf.osnma


@pytest.mark.parametrize("k", [1, 2, 5])
def test_page_misalignment_shifts_hkroot_by_8k_bits(k):
    """Assembling a stream shifted by k pages rotates the HKROOT
    concatenation by exactly k bytes."""
    aligned = assemble_round(_events(), GST0, prn=5)
    shifted_events = [
        PageEvent(t_ms=GST0.total_millis() + PAGE_MS * i, prn=5,
                  source=Source.AUTHENTIC, raw=_page_raw((i - k) % 15))
        for i in range(15)
    ]
    shifted = assemble_round(shifted_events, GST0, prn=5)
    hk_aligned, _ = aligned.osnma
    hk_shifted, _ = shifted.osnma
    assert hk_shifted == hk_aligned[-k:] + hk_aligned[:-k]
    assert hk_shifted[0] != 0x52


def test_crc_field_position_nonaligned():
    # CRC field crosses byte boundaries: spot-check the extraction offsets
    raw = seal_page(PageContent(even_data=1, odd_data=2, hkroot=3, mack=4))
    assert ref_getbitu(raw, *CRC) == decode_page(raw).crc


# -- the column-wise CRC kernel: many pages in one call -----------------------


def region_crc(raw):
    """The definitional CRC: crc24q over even bits 0..113 then odd bits
    120..201, packed MSB first."""
    value = int.from_bytes(raw, "big")
    region = value >> 126 << 82 | value >> 38 & (1 << 82) - 1    # 196 bits
    return crc24q((region << 4).to_bytes(25, "big"), 196)


def ref_check(raw):
    """Flags 00 and 10 at bits 0..1 and 120..121, and the carried CRC equal
    to the definitional one."""
    return (ref_getbitu(raw, 0, 2) == 0b00 and ref_getbitu(raw, 120, 2) == 0b10
            and ref_getbitu(raw, *CRC) == region_crc(raw))


def _batch(size, seed, sealed_frac=0.5):
    """size random pages; about half get good flags, and about sealed_frac
    of them the definitional CRC over whatever flags they have."""
    rng = random.Random(seed)
    batch = []
    for _ in range(size):
        buf = bytearray(rng.randbytes(PAGE_BYTES))
        if rng.random() < 0.5:
            ref_setbitu(buf, 0, 2, 0b00)
            ref_setbitu(buf, 120, 2, 0b10)
        if rng.random() < sealed_frac:
            ref_setbitu(buf, *CRC, region_crc(buf))
        batch.append(bytes(buf))
    return batch


BATCH_SIZES = [0, 1, 15, 16, 120, 1001]


@given(st.sampled_from(BATCH_SIZES), st.integers(0, 1 << 32))
def test_sealed_batch_carries_the_definitional_crc(size, seed):
    """Sealing a batch writes each page's definitional CRC into its CRC
    field and changes no other bit."""
    batch = _batch(size, seed, sealed_frac=0.0)
    sealed = pages.seal_raws(batch)
    assert len(sealed) == size
    for raw, out in zip(batch, sealed):
        want = bytearray(raw)
        ref_setbitu(want, *CRC, region_crc(raw))
        assert type(out) is bytes and out == want


@given(st.sampled_from(BATCH_SIZES), st.integers(0, 1 << 32))
def test_batch_check_matches_the_per_page_reference(size, seed):
    batch = _batch(size, seed)
    assert pages.check_raws(batch) == [ref_check(raw) for raw in batch]


FIELDS = {"flags": [0, 1, 120, 121], "even_data": range(2, 114),
          "tail": range(114, 120), "odd_data": range(122, 138),
          "hkroot": range(138, 146), "mack": range(146, 178),
          "reserved": range(178, 202), "crc": range(202, 226),
          "fill": range(226, 240)}


@given(page_contents, st.fixed_dictionaries(
    {name: st.sampled_from(bits) for name, bits in FIELDS.items()}))
def test_batch_check_of_one_flip_in_every_field(page, bits):
    """One batch holds a sealed page with one bit flipped in each field:
    the tail and fill flips still pass, every other flip fails."""
    raw = seal_page(page)
    flipped = [flip_page_bit(raw, bit) for bit in bits.values()]
    got = dict(zip(bits, pages.check_raws([raw] + flipped)[1:]))
    assert got == {name: name in ("tail", "fill") for name in FIELDS}
    assert pages.check_raws([raw]) == [True]


@pytest.mark.parametrize("lengths", [[29], [31], [30, 29], [29, 31], [31, 30, 30]])
def test_batch_with_a_page_of_the_wrong_length_raises(lengths):
    batch = [PAGE_INTACT_A[:n] if n <= PAGE_BYTES else PAGE_INTACT_A + b"\0"
             for n in lengths]
    for kernel_call in (pages.check_raws, pages.seal_raws):
        with pytest.raises(LengthError):
            kernel_call(batch)


def test_subframe_pages_are_checked_in_one_call(monkeypatch):
    calls = []
    check = pages.check_raws

    def counting(raws):
        calls.append(list(raws))
        return check(raws)

    monkeypatch.setattr(pages, "check_raws", counting)
    raws = [_page_raw(i) for i in range(SLOTS_PER_SUBFRAME)]
    raws[3], raws[8] = None, flip_page_bit(raws[8], 40)
    sf = Subframe(gst=GST0, prn=5, raws=tuple(raws))
    decoded = sf.pages
    assert len(calls) == 1 and len(calls[0]) == SLOTS_PER_SUBFRAME - 1
    assert decoded == tuple(None if raw is None else ref_decode_page(raw)
                            for raw in raws)


# -- the column-wise blob codec: many subframes in one pack or unpack ---------


def _blob_batch(size, seed):
    """size random (nav, hkroot, mack) blob triples."""
    rng = random.Random(seed)
    return [(rng.randbytes(240), rng.randbytes(SLOTS_PER_SUBFRAME),
             rng.randbytes(60)) for _ in range(size)]


def _slots(joined):
    """The pages laid end to end, cut into subframes' 15-slot tuples."""
    raws = [joined[i:i + PAGE_BYTES] for i in range(0, len(joined), PAGE_BYTES)]
    return [tuple(raws[i:i + SLOTS_PER_SUBFRAME])
            for i in range(0, len(raws), SLOTS_PER_SUBFRAME)]


SUBFRAME_BATCHES = [0, 1, 8, 15, 64]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SUBFRAME_BATCHES), st.integers(0, 1 << 32))
def test_pack_matches_the_per_page_reference(size, seed):
    """Before sealing, the packed batch is the per-page reference's pages
    byte for byte; sealed, every page passes the check; unpacked, the
    sealed pages give back the blobs."""
    blobs = _blob_batch(size, seed)
    packed = pages.pack_pages(blobs)
    assert type(packed) is bytes
    assert packed == b"".join(raw for triple in blobs
                              for raw in ref.blob_pages(*triple))
    sealed = pages.seal_raws([raw for slots in _slots(packed) for raw in slots])
    assert check_raws(sealed) == [True] * len(sealed)
    assert unpack_pages(_slots(packed)) == blobs
    assert unpack_pages(_slots(b"".join(sealed))) == blobs


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SUBFRAME_BATCHES), st.integers(0, 1 << 32))
def test_unpack_of_any_pages_matches_the_per_page_reference(size, seed):
    """Pages of random bytes, flags and fill included: each subframe's
    blobs are the reference join of its pages, whatever the other bits."""
    rng = random.Random(seed)
    slots = [tuple(rng.randbytes(PAGE_BYTES) for _ in range(SLOTS_PER_SUBFRAME))
             for _ in range(size)]
    assert unpack_pages(slots) == [(ref.join_nav_data(raws), *ref.osnma(raws))
                                   for raws in slots]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SUBFRAME_BATCHES), st.integers(0, 1 << 32))
def test_built_subframes_read_back_their_blobs(size, seed):
    """build_subframes packs and seals a batch in one call each; a lone
    subframe's nav_data and osnma read its blobs back."""
    blobs = _blob_batch(size, seed)
    built = build_subframes((GST0, prn, *triple)
                            for prn, triple in enumerate(blobs, 1))
    assert [sf.prn for sf in built] == list(range(1, size + 1))
    for sf, (nav, hkroot, mack) in zip(built, blobs):
        assert sf.blobs is None
        assert sf.raws == tuple(pages.seal_raws(ref.blob_pages(nav, hkroot, mack)))
        assert sf.nav_data == nav
        assert sf.osnma == (hkroot, mack)


@given(rounds_by_prn())
def test_assembled_subframes_carry_the_reference_join(prns_and_events):
    """A round's complete subframes carry the reference join of their
    pages; the others carry nothing."""
    prns, by_prn = prns_and_events
    for sf in pages.assemble_rounds(by_prn, GST0, prns, _T0).values():
        if sf.complete:
            assert sf.blobs == (ref.join_nav_data(sf.raws), *ref.osnma(sf.raws))
            assert sf.nav_data == sf.blobs[0] and sf.osnma == sf.blobs[1:]
        else:
            assert sf.blobs is None


def test_a_round_is_unpacked_in_one_call(monkeypatch):
    """Three satellites, one missing a page: one unpack call reads the two
    complete subframes."""
    calls = []
    unpack = pages.unpack_pages

    def counting(slots):
        slots = list(slots)
        calls.append(len(slots))
        return unpack(slots)

    monkeypatch.setattr(pages, "unpack_pages", counting)
    events = {prn: [e._replace(prn=prn) for e in _events(indices=indices)]
              for prn, indices in ((5, range(15)), (6, range(14)), (7, range(15)))}
    got = pages.assemble_rounds(events, GST0, [5, 6, 7], _T0)
    assert calls == [2]
    assert [sf.blobs is not None for sf in got.values()] == [True, False, True]


def test_blobs_are_not_compared():
    sf = assemble_round(_events(), GST0, prn=5)
    bare = Subframe(gst=sf.gst, prn=sf.prn, raws=sf.raws)
    assert sf.blobs is not None and bare.blobs is None
    assert sf == bare and hash(sf) == hash(bare)
    assert (sf.nav_data, sf.osnma) == (bare.nav_data, bare.osnma)
    assert set(vars(bare)) == {"gst", "prn", "raws", "blobs"}


def test_a_batch_with_an_incomplete_subframe_raises():
    """An incomplete subframe anywhere in a batch raises IncompleteError
    naming its destroyed slots, and so does a lone subframe's nav_data."""
    good = tuple(_page_raw(i) for i in range(SLOTS_PER_SUBFRAME))
    broken = good[:3] + (None,) + good[4:9] + (None,) + good[10:]
    with pytest.raises(IncompleteError, match=r"destroyed slots: \(3, 9\)"):
        unpack_pages([good, broken, good])
    sf = Subframe(gst=GST0, prn=5, raws=broken)
    with pytest.raises(IncompleteError, match=r"\(3, 9\)"):
        sf.nav_data
    assert vars(sf)["blobs"] is None


def test_unpack_rejects_a_page_of_the_wrong_length():
    good = tuple(_page_raw(i) for i in range(SLOTS_PER_SUBFRAME))
    with pytest.raises(LengthError):
        unpack_pages([good[:14] + (good[14][:29],)])


@pytest.mark.parametrize("which, length", [(0, 239), (0, 241), (1, 14),
                                           (1, 16), (2, 59), (2, 61)])
def test_pack_rejects_a_blob_of_the_wrong_length(which, length):
    blobs = list(_blob_batch(1, 0)[0])
    blobs[which] = bytes(length)
    with pytest.raises(ValueError, match=("nav", "hkroot", "mack")[which]):
        pages.pack_pages([_blob_batch(1, 1)[0], tuple(blobs)])
