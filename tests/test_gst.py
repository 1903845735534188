import pytest
from hypothesis import given, strategies as st

from osnmasim.gst import (
    AlternateThreshold,
    Gst,
    LrtSource,
    SymmetricBound,
    check_time_sync,
    to_millis,
)
from osnmasim.receiver import Receiver, Status


def test_total_seconds_zero():
    assert Gst(0, 0).total_seconds() == 0


def test_total_seconds_one_week():
    assert Gst(1, 0).total_seconds() == 604800


def test_total_seconds_reference_subframe():
    # 1251 * 604800 + 277200, the first subframe of the reference capture
    assert Gst(1251, 277200).total_seconds() == 756882000


def test_tow_range_enforced():
    with pytest.raises(ValueError):
        Gst(1, 604800)
    with pytest.raises(ValueError):
        Gst(1, -1)


def test_add_seconds_wraps_week():
    g = Gst(10, 604770).add_seconds(60)
    assert (g.wn, g.tow) == (11, 30)


def test_to_millis_exact_decimals():
    assert to_millis("29.5") == 29500
    assert to_millis(0.771) == 771
    assert to_millis(30) == 30000
    # exact at any length, where 28 significant digits would round it
    assert to_millis("12345678901234567890123456789.5") == \
        12345678901234567890123456789500


@pytest.mark.parametrize("seconds", ["29.5004", 0.0005, "1e-4", 1.0001,
                                     "1234567890123456789012345.6789"])
def test_to_millis_rejects_sub_millisecond_digits(seconds):
    with pytest.raises(ValueError, match="below the millisecond"):
        to_millis(seconds)


def _delta_case(delta_ms, policy):
    gst = Gst(1251, 277200)
    return check_time_sync(gst, gst.total_millis() + delta_ms, policy)


def test_alternate_pass_at_29_5():
    assert _delta_case(29500, AlternateThreshold(30000))


def test_alternate_fail_at_30_5():
    assert not _delta_case(30500, AlternateThreshold(30000))


def test_alternate_fail_on_boundary():
    assert not _delta_case(30000, AlternateThreshold(30000))


def test_symmetric_exact_synchrony():
    assert _delta_case(0, SymmetricBound(15000))


def test_symmetric_rejects_both_sides():
    assert not _delta_case(15000, SymmetricBound(15000))
    assert not _delta_case(-15000, SymmetricBound(15000))
    assert _delta_case(-14999, SymmetricBound(15000))


@given(st.integers(0, 10**6), st.integers(1, 120000))
def test_alternate_monotone(delta, t_l):
    """If the rule passes at some delta it passes at every smaller delta."""
    policy = AlternateThreshold(t_l)
    if _delta_case(delta, policy):
        assert _delta_case(delta - 1, policy)
        assert _delta_case(0, policy)


@given(st.integers(0, 600000), st.integers(0, 600000), st.integers(1, 60))
def test_symmetric_is_symmetric(a_s, b_s, bound_s):
    """Swapping the GST and LRT readings leaves the decision unchanged."""
    policy = SymmetricBound(bound_s * 1000)
    one = check_time_sync(Gst(0, a_s), b_s * 1000, policy)
    two = check_time_sync(Gst(0, b_s), a_s * 1000, policy)
    assert one == two


@given(st.integers(0, 500000), st.integers(-40000, 40000), st.integers(0, 90000))
def test_shift_invariance(base_s, delta_ms, shift_s):
    """Adding the same constant to both clocks changes no decision."""
    for policy in (AlternateThreshold(30000), SymmetricBound(15000)):
        before = check_time_sync(Gst(0, base_s),
                                 Gst(0, base_s).total_millis() + delta_ms,
                                 policy)
        shifted = Gst(0, base_s).add_seconds(shift_s)
        after = check_time_sync(shifted, shifted.total_millis() + delta_ms,
                                policy)
        assert before == after


def _startup(bundle, policy, lrt):
    """The status the receiver's startup TS gate leaves at the reference
    capture's first subframe, the LRT read at that true time."""
    gst = Gst(1251, 277200)
    return Receiver(policy, lrt, bundle.pubkey, gst, gst.total_millis()).status


def test_startup_untrusted_bound_calibrates(small_bundle):
    """An error bound wider than B leaves the LRT to be calibrated: the
    receiver stays cold and OSNMA never begins."""
    out = _startup(small_bundle, SymmetricBound(15000),
                   LrtSource(error_bound_ms=20000))
    assert out is Status.COLD_START


def test_startup_alternate_sub_second_delta(small_bundle):
    out = _startup(small_bundle, AlternateThreshold(30000),
                   LrtSource(offset_ms=771))
    assert out is Status.AWAITING_ROOT_KEY


def test_startup_alternate_32s_delta_illegal(small_bundle):
    out = _startup(small_bundle, AlternateThreshold(30000),
                   LrtSource(offset_ms=32000))
    assert out is Status.TS_FAILED
