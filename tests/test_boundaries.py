"""The paper's boundaries as drawn properties, not pinned points.

Each run draws its seed, a constellation of 4 to 6 satellites and the
attack's parameters, runs a few rounds, and is checked against the
boundary's closed form, with the equality case as an explicit example:

- ``cr``: a concatenating replay spliced in after root acquisition keeps
  the receiver authenticating iff replay_delay + t_acq <= 2 s, the
  takeover landing within the round's first page;
- ``tsr_realtime`` under the alternate rule: the receiver authenticates
  with exit code 0 iff delay < T_L;
- ``tsr_realtime`` under the symmetric rule: iff |delay + lrt_offset| < B;
- ``tsr_recorded`` under the alternate rule: iff staleness - mitm_delay
  < T_L.

Authenticating means a final status of ``authenticating``, exit code 0
and an authentic verdict; after a splice, one naming a data subframe
broadcast after the onset round.  The draws are the rules' whole domain
here: a disagreement is a finding, not a case to filter out.
"""

from hypothesis import example, given, settings, strategies as st

from osnmasim.gst import Gst
from osnmasim.pages import PAGE_MS
from osnmasim.scenario import DEFAULT_GST0, Scenario, run_scenario
from osnmasim.tesla import DSM_BLOCKS

# root acquisition takes one DSM cycle of rounds, and a spliced-in replay
# needs three complete rounds after the onset's to give a verdict
CR_ROUNDS_AFTER_ONSET = 4
TSR_ROUNDS = DSM_BLOCKS


def _seconds(ms: int) -> str:
    return f"{'-' * (ms < 0)}{abs(ms) // 1000}.{abs(ms) % 1000:03d}"


def _run(seed, sats, rounds, attack, receiver=None) -> dict:
    return run_scenario(Scenario.from_dict({
        "seed": seed, "constellation": {"sats": sats, "subframes": rounds},
        "receiver": receiver or {}, "attack": attack}))


def _authenticates(report, after=None) -> bool:
    """Status authenticating, exit code 0 and an authentic verdict naming
    a data subframe after GST after, when given."""
    return (report["receiver"]["status"] == "authenticating"
            and report["exit_code"] == 0
            and any(v["outcome"] == "authentic" and (
                after is None or Gst(**v["gst"]).total_seconds()
                > after.total_seconds())
                for v in report["receiver"]["verdicts"]))


seeds = st.integers(0, (1 << 32) - 1)
sats = st.integers(4, 6)


@settings(deadline=None)
@given(seeds, sats, st.integers(DSM_BLOCKS, DSM_BLOCKS + 2),
       st.integers(0, 2 * PAGE_MS), st.integers(0, 2 * PAGE_MS))
@example(20230816, 4, DSM_BLOCKS, 1400, 600)     # == 2 s: still aligned
@example(20230816, 4, DSM_BLOCKS, 1500, 600)     # 0.1 s later: shifted
def test_cr_keeps_authenticating_iff_the_takeover_is_within_the_first_page(
        seed, sats, onset, replay_delay_ms, t_acq_ms):
    rounds = onset + CR_ROUNDS_AFTER_ONSET
    report = _run(seed, sats, rounds, {
        "type": "cr", "replay_delay_s": _seconds(replay_delay_ms),
        "t_acq_s": _seconds(t_acq_ms), "onset_round": onset})
    assert _authenticates(report, DEFAULT_GST0.add_seconds(30 * onset)) == \
        (replay_delay_ms + t_acq_ms <= PAGE_MS)


@settings(deadline=None)
@given(seeds, sats, st.integers(0, 60_000), st.integers(0, 70_000))
@example(20230816, 4, 30_000, 30_000)        # delay == T_L: fails
@example(20230816, 4, 30_000, 29_999)
def test_tsr_realtime_authenticates_iff_the_delay_is_below_t_l(
        seed, sats, t_l_ms, delay_ms):
    report = _run(seed, sats, TSR_ROUNDS,
                  {"type": "tsr_realtime", "delay_s": _seconds(delay_ms)},
                  {"policy": {"type": "alternate",
                              "t_l_s": _seconds(t_l_ms)}})
    assert _authenticates(report) == (delay_ms < t_l_ms)


@settings(deadline=None)
@given(seeds, sats, st.integers(0, 60_000), st.integers(-60_000, 60_000),
       st.integers(0, 60_000))
@example(20230816, 4, 15_000, -5_000, 20_000)   # |delay + offset| == B: fails
@example(20230816, 4, 15_000, -5_001, 20_000)
@example(20230816, 4, 15_000, -15_000, 0)       # == B below GST: fails
def test_tsr_realtime_authenticates_iff_the_offset_delay_is_within_b(
        seed, sats, b_ms, lrt_offset_ms, delay_ms):
    report = _run(seed, sats, TSR_ROUNDS,
                  {"type": "tsr_realtime", "delay_s": _seconds(delay_ms)},
                  {"policy": {"type": "symmetric", "b_s": _seconds(b_ms)},
                   "lrt_offset_s": _seconds(lrt_offset_ms)})
    assert _authenticates(report) == (abs(delay_ms + lrt_offset_ms) < b_ms)


@settings(deadline=None)
@given(seeds, sats, st.integers(0, 60_000), st.integers(0, 120_000),
       st.integers(0, 120_000))
@example(20230816, 4, 30_000, 90_000, 60_000)   # staleness - mitm == T_L
@example(20230816, 4, 30_000, 89_999, 60_000)
def test_tsr_recorded_authenticates_iff_the_staleness_left_is_below_t_l(
        seed, sats, t_l_ms, staleness_ms, mitm_delay_ms):
    report = _run(seed, sats, TSR_ROUNDS,
                  {"type": "tsr_recorded",
                   "staleness_s": _seconds(staleness_ms),
                   "mitm_delay_s": _seconds(mitm_delay_ms)},
                  {"policy": {"type": "alternate",
                              "t_l_s": _seconds(t_l_ms)}})
    assert _authenticates(report) == (staleness_ms - mitm_delay_ms < t_l_ms)
