"""The layout tables of every bit-packed message and the one packer.

Each table must lay its fields out in position order, disjoint and inside
the message; every value in a field's range must come back out of
pack_fields and unpack_fields as written, at the bits the byte-slice
reference reads; and a value one past either end of its field is rejected
by name.
"""

import pytest
from hypothesis import given, strategies as st

from osnmasim import mack, navdata, pages, tesla
from osnmasim.pages import pack_fields, unpack_fields
from page_reference import ref_getbitu

LAYOUTS = {
    "page": (pages._PAGE_LAYOUT, pages.PAGE_BITS),
    "nav": (navdata._LAYOUT, navdata.NAV_BITS),
    "root_key": (tesla._MSG_LAYOUT, tesla.ROOT_MESSAGE_BITS),
    "auth_header": (mack._AUTH_LAYOUT, mack._AUTH_BITS),
}
each_layout = pytest.mark.parametrize("layout, nbits", LAYOUTS.values(),
                                      ids=LAYOUTS)


def _bounds(width, signed):
    low = -(1 << width - 1) if signed else 0
    return low, low + (1 << width) - 1


@each_layout
def test_fields_are_ordered_disjoint_and_inside_the_message(layout, nbits):
    assert nbits % 8 == 0
    assert len({name for name, *_ in layout}) == len(layout)
    end = 0
    for _, pos, width, _ in layout:
        assert pos >= end and width > 0
        end = pos + width
    assert end <= nbits


def _extremes(layout):
    """Each field's value drawn from its two ends or anywhere between."""
    return st.tuples(*(st.sampled_from(_bounds(width, signed))
                       | st.integers(*_bounds(width, signed))
                       for _, _, width, signed in layout))


@each_layout
@given(data=st.data())
def test_round_trip_matches_the_byte_slice_reader(layout, nbits, data):
    values = list(data.draw(_extremes(layout)))
    message = pack_fields(layout, nbits, values)
    raw = message.to_bytes(nbits // 8, "big")
    outside = (1 << nbits) - 1
    for (_, pos, width, _), value in zip(layout, values):
        assert ref_getbitu(raw, pos, width) == value & (1 << width) - 1
        outside ^= (1 << width) - 1 << nbits - pos - width
    assert message & outside == 0
    assert unpack_fields(layout, nbits, message) == values


@each_layout
def test_one_past_either_end_is_named(layout, nbits):
    lows = [_bounds(width, signed)[0] for _, _, width, signed in layout]
    for i, (name, _, width, signed) in enumerate(layout):
        low, high = _bounds(width, signed)
        kind = " signed" if signed else ""
        for beyond in (low - 1, high + 1):
            values = lows[:i] + [beyond] + lows[i + 1:]
            with pytest.raises(ValueError) as err:
                pack_fields(layout, nbits, values)
            assert str(err.value) == \
                f"{name} {beyond} does not fit {width}{kind} bits"
