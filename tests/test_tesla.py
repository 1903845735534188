import hashlib
import random

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import assume, example, given, settings, strategies as st

from osnmasim.crypto import spki_pem
from osnmasim.gst import SECONDS_PER_WEEK, Gst
from osnmasim.tesla import (
    DSM_BLOCKS,
    DsmAccumulator,
    TeslaChain,
    TeslaKey,
    build_root_message,
    dsm_hkroot_blocks,
    generate_keypair,
    load_public_key_point,
    public_key_point,
    root_key,
    sign_root,
    truncate_hash,
    verify_key,
    verify_root,
)

GST0 = Gst(1200, 86400)

# the disclosed chain key from the reference capture and its one-step
# predecessor, computed with an independent SHA-256 tool
REFERENCE_KEY = bytes.fromhex("aca75fbc1c6e40a397ca7ee7ee908870")
REFERENCE_PREV = bytes.fromhex("414e8a2219dda24b0c23ea34ccce04bb")


def test_single_step_chain():
    seed = bytes(range(16))
    chain = TeslaChain.generate(seed, 1, GST0)
    assert chain.keys[1].bits == seed
    assert chain.keys[0].bits == hashlib.sha256(seed).digest()[:16]


def test_chain_matches_independent_walk():
    rng = random.Random(5)
    seed = rng.randbytes(16)
    chain = TeslaChain.generate(seed, 100, GST0)
    bits = seed
    for _ in range(100):
        bits = hashlib.sha256(bits).digest()[:16]
    assert chain.root.bits == bits


def test_distinct_seeds_distinct_roots():
    a = TeslaChain.generate(bytes(16), 10, GST0)
    b = TeslaChain.generate(bytes(15) + b"\x01", 10, GST0)
    assert a.root.bits != b.root.bits


def test_chain_slot_gsts():
    chain = TeslaChain.generate(bytes(16), 5, GST0)
    for i, key in enumerate(chain.keys):
        assert key.gst.total_seconds() == GST0.total_seconds() + 30 * i


def test_chain_key_hashes_to_its_predecessor():
    chain = TeslaChain.generate(b"\xab" * 16, 20, GST0)
    for i in range(20):
        key = chain.keys[i + 1]
        derived = TeslaKey(truncate_hash(key.bits), key.gst.add_seconds(-30))
        assert derived == chain.keys[i]


def test_reference_key_verifies_its_predecessor():
    key = TeslaKey(REFERENCE_KEY, Gst(1251, 277260))
    assert truncate_hash(key.bits) == REFERENCE_PREV
    assert verify_key(key, TeslaKey(REFERENCE_PREV, Gst(1251, 277230))) == 1


def test_verify_adjacent_key():
    chain = TeslaChain.generate(b"\x01" * 16, 10, GST0)
    assert verify_key(chain.keys[4], chain.keys[3]) == 1


def test_verify_seven_steps():
    chain = TeslaChain.generate(b"\x02" * 16, 10, GST0)
    lv = 2
    assert verify_key(chain.keys[lv + 7], chain.keys[lv]) == 7


def test_verify_counts_match_brute_force_walk():
    chain = TeslaChain.generate(b"\x03" * 16, 40, GST0)
    for j in range(0, 40, 7):
        for i in range(j + 1, 41, 5):
            # oracle: count hash applications until the trusted bits appear
            bits, steps = chain.keys[i].bits, 0
            while bits != chain.keys[j].bits and steps <= 41:
                bits = hashlib.sha256(bits).digest()[:16]
                steps += 1
            assert verify_key(chain.keys[i], chain.keys[j]) == steps == i - j


def test_stale_key_is_rejected():
    chain = TeslaChain.generate(b"\x04" * 16, 5, GST0)
    assert verify_key(chain.keys[2], chain.keys[3]) is None
    assert verify_key(chain.keys[2], chain.keys[2]) is None


def test_misaligned_gst_is_rejected():
    chain = TeslaChain.generate(b"\x05" * 16, 5, GST0)
    shifted = TeslaKey(chain.keys[3].bits, chain.keys[3].gst.add_seconds(7))
    assert verify_key(shifted, chain.keys[1]) is None


_CHAIN = TeslaChain.generate(b"\x08" * 16, 64, GST0)
_BITS = st.binary(min_size=16, max_size=16)


@given(st.integers(0, 64),
       st.one_of(st.integers(-64, 64).map(lambda n: 30 * n),
                 st.integers(-30 * 64, 30 * 64)),
       st.data())
def test_verify_key_answers_every_pair_with_a_value(j, gap_s, data):
    """For any two keys at most 64 slots apart, verify_key raises nothing:
    it returns the step count iff the GST gap is a positive whole number of
    slots and that many hashes of the candidate land on the trusted key,
    and None otherwise.  Keys are drawn from one chain, each at its own
    slot, or as random bits."""
    trusted = TeslaKey(data.draw(st.just(_CHAIN.keys[j].bits) | _BITS),
                       _CHAIN.keys[j].gst)
    slot_key = _CHAIN.keys[(j + gap_s // 30) % len(_CHAIN.keys)]
    candidate = TeslaKey(data.draw(st.just(slot_key.bits) | _BITS),
                         trusted.gst.add_seconds(gap_s))
    steps, bits = gap_s // 30, candidate.bits
    for _ in range(max(steps, 0)):
        bits = hashlib.sha256(bits).digest()[:16]
    lands = gap_s > 0 and gap_s % 30 == 0 and bits == trusted.bits
    assert verify_key(candidate, trusted) == (steps if lands else None)


def test_slot_shift_flips_verdict():
    """An authentic key presented in the wrong slot fails: the hash count
    no longer lands on the trusted key."""
    chain = TeslaChain.generate(b"\x06" * 16, 10, GST0)
    good = chain.keys[5]
    assert verify_key(good, chain.keys[2]) == 3
    late = TeslaKey(good.bits, good.gst.add_seconds(30))
    early = TeslaKey(good.bits, good.gst.add_seconds(-30))
    assert verify_key(late, chain.keys[2]) is None
    assert verify_key(early, chain.keys[2]) is None


def test_random_keys_rejected():
    chain = TeslaChain.generate(b"\x07" * 16, 20, GST0)
    rng = random.Random(99)
    accepted = sum(
        verify_key(TeslaKey(rng.randbytes(16), chain.keys[9].gst),
                   chain.keys[4]) is not None
        for _ in range(200)
    )
    assert accepted == 0


def test_build_root_message_layout():
    m = build_root_message(0, 0, 0, 0, bytes(16))
    assert m == bytes(22)
    m = build_root_message(0x52, 1, 1251, 277170, b"\xff" * 16)
    assert len(m) == 22
    assert m[0] == 0x52
    # determinism
    assert m == build_root_message(0x52, 1, 1251, 277170, b"\xff" * 16)


def test_root_message_towk_confined():
    base = build_root_message(0x52, 1, 1251, 0, bytes(16))
    other = build_root_message(0x52, 1, 1251, 0xFFFFF, bytes(16))
    diff = int.from_bytes(base, "big") ^ int.from_bytes(other, "big")
    # towk occupies bits 28..47 from the top of the 176-bit message
    assert diff == 0xFFFFF << 128


def test_root_message_width_checks():
    with pytest.raises(ValueError, match="^nma_header 338 does not"):
        build_root_message(0x152, 0, 0, 0, bytes(16))
    with pytest.raises(ValueError, match="^mf -1 does not fit 8 bits$"):
        build_root_message(0x52, -1, 0, 0, bytes(16))
    with pytest.raises(ValueError, match="^wnk 5000 does not fit 12"):
        build_root_message(0x52, 0, 5000, 0, bytes(16))
    with pytest.raises(ValueError, match="^towk 1048576 does not fit 20"):
        build_root_message(0x52, 0, 0, 1 << 20, bytes(16))
    with pytest.raises(ValueError, match="^kroot must be 16 bytes$"):
        build_root_message(0x52, 0, 0, 0, bytes(17))


def test_root_key_reads_the_body():
    m = build_root_message(0x52, 3, 1251, 277170, b"\x11" * 16)
    assert root_key(m) == TeslaKey(b"\x11" * 16, Gst(1251, 277170))
    with pytest.raises(ValueError, match="^root message must be 22 bytes$"):
        root_key(m + b"\x00")


@given(st.binary(min_size=22, max_size=22))
@example(build_root_message(0x52, 0, 1251, SECONDS_PER_WEEK - 1, bytes(16)))
@example(build_root_message(0x52, 0, 1251, SECONDS_PER_WEEK, bytes(16)))
def test_root_key_is_none_iff_towk_names_no_time_of_week(body):
    """Any 22-byte body: root_key reads its wnk, towk and key bits, and
    answers None exactly when the 20-bit towk is 604,800 or more."""
    word = int.from_bytes(body, "big")
    wnk, towk = word >> 148 & 0xFFF, word >> 128 & 0xFFFFF
    assert root_key(body) == (None if towk >= SECONDS_PER_WEEK
                              else TeslaKey(body[6:], Gst(wnk, towk)))


def test_sign_verify_round_trip():
    sk, pk = generate_keypair(42)
    m = build_root_message(0x52, 0, 100, 30, bytes(16))
    sig = sign_root(m, sk)
    assert len(sig) == 64
    assert verify_root(m, sig, pk)


def test_tampered_message_fails():
    sk, pk = generate_keypair(42)
    m = build_root_message(0x52, 0, 100, 30, bytes(16))
    sig = sign_root(m, sk)
    bad = bytes([m[0] ^ 1]) + m[1:]
    assert not verify_root(bad, sig, pk)


def test_unrelated_public_key_fails():
    sk, _ = generate_keypair(42)
    _, other = generate_keypair(43)
    m = build_root_message(0x52, 0, 100, 30, bytes(16))
    assert not verify_root(m, sign_root(m, sk), other)


def test_signature_deterministic():
    sk, _ = generate_keypair(7)
    m = b"fixed message"
    assert sign_root(m, sk) == sign_root(m, sk)


def oracle_point(secret):
    """The public point of a secret, computed by cryptography's OpenSSL."""
    numbers = ec.derive_private_key(
        secret, ec.SECP256R1()).public_key().public_numbers()
    return numbers.x, numbers.y


@settings(max_examples=30)
@given(st.integers(0, 1 << 64))
def test_point_round_trip(seed):
    sk, pk = generate_keypair(seed)
    point = public_key_point(pk)
    again = load_public_key_point(point)
    assert len(point) == 33 and point[0] in (2, 3)
    assert public_key_point(again) == point
    assert again == pk == oracle_point(sk)
    assert spki_pem(again) == spki_pem(pk)


# -- references for the hash and the key point: hashlib and the curve equation


def ref_truncate_hash(data):
    return hashlib.sha256(data).digest()[:16]


@settings(max_examples=40)
@given(st.binary(min_size=16, max_size=16), st.integers(1, 40),
       st.binary(max_size=100))
def test_chain_keys_equal_the_hashlib_reference(seed, n, data):
    chain = TeslaChain.generate(seed, n, GST0)
    assert chain.seed.bits == seed
    for older, newer in zip(chain.keys, chain.keys[1:]):
        assert older.bits == ref_truncate_hash(newer.bits)
    assert truncate_hash(data) == ref_truncate_hash(data)


# P-256: y^2 = x^3 - 3x + b over GF(p)
_P = 2**256 - 2**224 + 2**192 + 2**96 - 1
_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B


def _on_curve_x(x):
    """Whether some y satisfies the curve equation at x (Euler's criterion)."""
    rhs = (x ** 3 - 3 * x + _B) % _P
    return rhs == 0 or pow(rhs, (_P - 1) // 2, _P) == 1


@settings(max_examples=30)
@given(st.integers(0, 1 << 64))
def test_point_of_another_length_or_prefix_is_rejected(seed):
    sk, pk = generate_keypair(seed)
    point = public_key_point(pk)
    assert pk == oracle_point(sk)
    x, y = (c.to_bytes(32, "big") for c in pk)
    for bad in (point[1:], b"\x04" + x + y, b"\x04" + x, point + b"\x00",
                b"\x05" + x):
        with pytest.raises(ValueError):
            load_public_key_point(bad)


@settings(max_examples=30)
@given(st.integers(0, _P - 1), st.sampled_from([2, 3]))
def test_point_off_the_curve_is_rejected(x, prefix):
    assume(not _on_curve_x(x))
    with pytest.raises(ValueError):
        load_public_key_point(bytes((prefix,)) + x.to_bytes(32, "big"))


def _signed_root():
    """A root message body for a chain's root, its signature and the
    verifying public key."""
    sk, pk = generate_keypair(12)
    chain = TeslaChain.generate(b"\x21" * 16, 8, GST0)
    body = build_root_message(0x52, 0, GST0.wn, GST0.tow, chain.root.bits)
    return body, sign_root(body, sk), pk


def test_dsm_blocks_round_trip():
    body, sig, pk = _signed_root()
    blocks = dsm_hkroot_blocks(body, sig)
    assert all(len(b) == 15 and b[0] == 0x52 for b in blocks)
    acc = DsmAccumulator()
    out = None
    for b in blocks:
        out = acc.feed(b)
    assert out == (body, sig)
    assert verify_root(*out, pk)
    assert root_key(out[0]) == TeslaChain.generate(b"\x21" * 16, 8, GST0).root


def test_dsm_blocks_need_a_signed_body():
    body, sig, _ = _signed_root()
    for bad in ((body, b""), (body, sig[1:]), (body[1:], sig)):
        with pytest.raises(ValueError, match="^root message must be 22 bytes "
                                             "with a 64-byte signature$"):
            dsm_hkroot_blocks(*bad)


def test_dsm_blocks_any_join_point():
    body, sig, _ = _signed_root()
    blocks = dsm_hkroot_blocks(body, sig)
    acc = DsmAccumulator()
    out = None
    for i in range(3, 3 + len(blocks)):
        out = acc.feed(blocks[i % len(blocks)])
    assert out == (body, sig)


_SIGNER, _VERIFIER = generate_keypair(12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=16, max_size=16), min_size=2, max_size=2,
                unique=True),
       st.lists(st.integers(0, 4095), min_size=2, max_size=2),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, DSM_BLOCKS - 1)),
                max_size=40))
def test_interleaved_root_messages_verify_only_as_signed(kroots, wns, order):
    """One accumulator fed the HKROOT blocks of two signed root messages in
    any interleaving: whatever assembles and verifies is one of the two, and
    a full cycle of one message's blocks then assembles that message."""
    msgs = []
    for kroot, wn in zip(kroots, wns):
        body = build_root_message(0x52, 0, wn, GST0.tow, kroot)
        msgs.append((body, sign_root(body, _SIGNER)))
    blocks = [dsm_hkroot_blocks(*msg) for msg in msgs]
    acc = DsmAccumulator()
    for which, idx in order:
        out = acc.feed(blocks[which][idx])
        if out is not None and verify_root(*out, _VERIFIER):
            assert out in msgs
    for block in blocks[1]:
        out = acc.feed(block)
    assert out == msgs[1]


def test_dsm_rejects_misaligned_header():
    body, sig, _ = _signed_root()
    blocks = dsm_hkroot_blocks(body, sig)
    acc = DsmAccumulator()
    shifted = blocks[0][1:] + b"\x00"
    assert acc.feed(shifted) is None
    assert not acc.blocks
