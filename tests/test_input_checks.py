"""Bad input fails loudly: each input check below raises its error type
with its message text, or, for a root signature of the wrong length,
reports a failed verification."""

import pytest

from osnmasim.attacks import ntp_mitm_delay, tsf_forge_subframes
from osnmasim.gst import Gst, LrtSource
from osnmasim.mack import pack_mack, split_segments, unpack_mack, verify_tags
from osnmasim.navdata import build_nav_data, parse_nav_data
from osnmasim.pages import (
    PageEvent,
    SUBFRAME_BYTES,
    Source,
    Stream,
    Subframe,
    assemble_round,
    decode_page,
)
from osnmasim.positioning import solve_position
from osnmasim.scenario import Scenario, generate_synthetic_constellation
from osnmasim.tesla import (
    ROOT_MESSAGE_BYTES,
    TeslaChain,
    TeslaKey,
    generate_keypair,
    verify_root,
)
from osnmasim.vectors import SchemaError
from page_reference import osnma

GST = Gst(1251, 277200)
_SATS = [(2e7 * prn, 1e7, 1e7) for prn in range(1, 5)]

# (call, the error it raises, or the value it returns)
CHECKS = {
    "gst_negative_week": (lambda: Gst(-1, 0),
                          ValueError("negative week number: -1")),
    "gst_before_epoch": (lambda: Gst(0, 5).add_seconds(-10),
                         ValueError("GST before epoch")),
    "lrt_negative_bound": (lambda: LrtSource(error_bound_ms=-1),
                           ValueError("error bound must be >= 0")),
    "mack_short_key": (lambda: pack_mack([], bytes(15)),
                       ValueError("chain key must be 128 bits")),
    "mack_short_tag": (lambda: pack_mack([bytes(4)], bytes(16)),
                       ValueError("tags must be 40 bits")),
    "mack_short_blob": (lambda: unpack_mack(bytes(59), 6),
                        ValueError("MACK blob must be 60 bytes")),
    "mack_no_segments": (lambda: split_segments(b"x", 0),
                         ValueError("need at least one segment")),
    "mack_nine_tags": (lambda: pack_mack([bytes(5)] * 9, bytes(16)),
                       ValueError("9 segments of 40-bit tags exceed the "
                                  "352-bit tag region")),
    "mack_too_few_tags": (
        lambda: verify_tags(bytes(240), [], bytes(16), 1, 1, GST, 6),
        ValueError("0 tags for seg_count 6")),
    "nav_short_blob": (lambda: parse_nav_data(bytes(239)),
                       ValueError("nav blob must be 240 bytes")),
    "nav_prn_256": (lambda: build_nav_data(1251, 277200, 256, (0.0,) * 3),
                    ValueError("prn 256 does not fit 8 bits")),
    "page_29_bytes": (lambda: decode_page(bytes(29)),
                      ValueError("expected 30 bytes, got 29")),
    "page_event_45_bytes": (
        lambda: assemble_round([PageEvent(GST.total_millis(), 1,
                                          Source.AUTHENTIC, bytes(45))],
                               GST, 1),
        ValueError("expected whole pages, got 45 bytes")),
    "osnma_destroyed_slot": (
        lambda: osnma(Subframe(GST, 5, (bytes(30),) * 14 + (None,))),
        ValueError("destroyed slots: (14,)")),
    "tesla_short_key": (lambda: TeslaKey(bytes(15), GST),
                        ValueError("chain keys are 16 bytes")),
    "tesla_short_seed": (lambda: TeslaChain.generate(bytes(15), 3, GST),
                         ValueError("seed must be 16 bytes")),
    "tesla_no_hash_step": (
        lambda: TeslaChain.generate(bytes(16), 0, GST),
        ValueError("chain needs at least one hash step")),
    "tesla_short_signature": (
        lambda: verify_root(bytes(ROOT_MESSAGE_BYTES), bytes(63),
                            generate_keypair(1)[1]),
        False),
    "subframe_14_slots": (lambda: Subframe(GST, 1, (None,) * 14),
                          ValueError("subframe needs 15 slots")),
    "solve_3_ranges": (lambda: solve_position(_SATS, [2e7] * 3),
                       ValueError("one pseudorange per satellite")),
    "ntp_negative_delay": (lambda: ntp_mitm_delay(LrtSource(), -1),
                           ValueError("delay must be >= 0")),
    "tsf_two_subframes": (
        lambda: tsf_forge_subframes(
            Stream(GST, 1, bytes(2 * SUBFRAME_BYTES)), seg_count=6,
            forge_tags=True, iono_a0=0, clock_bias_m=0.0),
        ValueError("need at least 3 consecutive subframes")),
    "constellation_no_root_slot": (
        lambda: generate_synthetic_constellation(1, 4, 1, gst0=Gst(0, 10)),
        ValueError("first subframe must leave room for the root slot")),
    "scenario_constellation_not_object": (
        lambda: Scenario.from_dict({"constellation": 5}),
        SchemaError("$.constellation: expected an object, got 5")),
}


@pytest.mark.parametrize("call,expected", CHECKS.values(), ids=CHECKS)
def test_bad_input_fails_loudly(call, expected):
    if not isinstance(expected, Exception):
        assert call() is expected
        return
    with pytest.raises(type(expected)) as err:
        call()
    assert err.type is type(expected)
    assert str(err.value) == str(expected)
