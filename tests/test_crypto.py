"""The plain-Python primitives against independent oracles: HMAC against
the stdlib's, and the P-256 root-key functions of tesla against
cryptography's OpenSSL, which a run never loads.  Signatures, verdicts,
point decoding and PEM text must all agree with it, and RFC 6979's own
P-256 vectors are pinned.  The properties take the active profile's
example count, so CI's long profile draws 2,000 of each."""

import hmac
import importlib

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from hypothesis import example, given, settings, strategies as st

from osnmasim import crypto
from osnmasim.crypto import N, P, spki_pem
from osnmasim.tesla import (
    generate_keypair,
    load_public_key_point,
    public_key_point,
    sign_root,
    verify_root,
)

# RFC 6979 appendix A.2.5: the P-256 key and its SHA-256 signatures
RFC6979_SECRET = int(
    "C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721", 16)
RFC6979_POINT = (
    int("60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6", 16),
    int("7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299", 16))
RFC6979_SIGNATURES = {
    b"sample": bytes.fromhex(
        "EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716"
        "F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8"),
    b"test": bytes.fromhex(
        "F1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367"
        "019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083"),
}


def test_sha256_is_the_interpreters_built_in_module():
    """SHA-256 comes from CPython's built-in module, _sha2 on 3.12+ and
    _sha256 on 3.10 and 3.11, never from hashlib, whenever the interpreter
    has one."""
    for name in ("_sha2", "_sha256"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        assert crypto.sha256 is module.sha256, crypto.sha256.__module__
        return
    pytest.skip("an interpreter built without _sha2 or _sha256")


@pytest.mark.parametrize("message", sorted(RFC6979_SIGNATURES))
def test_rfc6979_p256_sha256_vectors(message):
    assert crypto.public_point(RFC6979_SECRET) == RFC6979_POINT
    signature = RFC6979_SIGNATURES[message]
    assert sign_root(message, RFC6979_SECRET) == signature
    assert verify_root(message, signature, RFC6979_POINT)


@given(st.binary(max_size=130), st.binary(max_size=100))
def test_hmac_equals_the_stdlib_hmac(key, message):
    """Keys longer than the 64-byte block are hashed first (RFC 2104)."""
    assert crypto.hmac_sha256(key)(message) == \
        hmac.digest(key, message, "sha256")
    assert crypto.hmac_sha256(key, message[:7])(message[7:]) == \
        hmac.digest(key, message, "sha256")


def _oracle_key(secret):
    return ec.derive_private_key(secret, ec.SECP256R1())


def _oracle_verify(message, signature, public_key) -> bool:
    der = encode_dss_signature(int.from_bytes(signature[:32], "big"),
                               int.from_bytes(signature[32:], "big"))
    try:
        public_key.verify(der, message, ec.ECDSA(hashes.SHA256()))
    except InvalidSignature:
        return False
    return True


_SEEDS = st.integers(0, 1 << 256)


@settings(deadline=None)
@given(_SEEDS, st.binary(max_size=64))
@example(0, b"")
def test_sign_root_is_the_oracle_deterministic_ecdsa(seed, message):
    """The keypair, the RFC 6979 signature and the PEM text are the
    oracle's, bit for bit."""
    sk, pk = generate_keypair(seed)
    oracle = _oracle_key(sk)
    numbers = oracle.public_key().public_numbers()
    assert pk == (numbers.x, numbers.y)
    r, s = decode_dss_signature(oracle.sign(
        message, ec.ECDSA(hashes.SHA256(), deterministic_signing=True)))
    assert sign_root(message, sk) == b"".join(
        half.to_bytes(32, "big") for half in (r, s))
    assert spki_pem(pk) == oracle.public_key().public_bytes(
        serialization.Encoding.PEM,
        serialization.PublicFormat.SubjectPublicKeyInfo).decode()


@st.composite
def _signed_cases(draw):
    """A key, a message, its signature under the key, and a tampering of
    one of them: none, a flipped bit of the signature or the message, r or
    s out of [1, N - 1], or another key's verdict."""
    sk, pk = generate_keypair(draw(_SEEDS))
    message = draw(st.binary(max_size=64))
    signature = sign_root(message, sk)
    kind = draw(st.sampled_from(["valid", "signature_bit", "message_bit",
                                 "range", "other_key"]))
    if kind == "signature_bit":
        bit = draw(st.integers(0, 511))
        signature = (int.from_bytes(signature, "big") ^ 1 << bit).to_bytes(
            64, "big")
    elif kind == "message_bit" and message:
        bit = draw(st.integers(0, 8 * len(message) - 1))
        message = (int.from_bytes(message, "big") ^ 1 << bit).to_bytes(
            len(message), "big")
    elif kind == "range":
        value = draw(st.sampled_from([0, N, N + 1])).to_bytes(32, "big")
        signature = draw(st.sampled_from([value + signature[32:],
                                          signature[:32] + value]))
    elif kind == "other_key":
        sk, pk = generate_keypair(draw(_SEEDS))
    return kind, sk, pk, message, signature


@settings(deadline=None)
@given(_signed_cases())
def test_verify_root_agrees_with_the_oracle(case):
    kind, sk, pk, message, signature = case
    want = _oracle_verify(message, signature, _oracle_key(sk).public_key())
    assert verify_root(message, signature, pk) is want
    if kind == "valid":
        assert want


def _oracle_load(point):
    """The oracle's (x, y) of an encoded point, or None where it raises."""
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(),
                                                           point)
    except ValueError:
        return None
    numbers = key.public_numbers()
    return numbers.x, numbers.y


def _ours_load(point):
    try:
        return load_public_key_point(point)
    except ValueError:
        return None


_XS = st.one_of(st.integers(0, P - 1), st.integers(P, (1 << 256) - 1),
                st.sampled_from([0, 5, P - 1, P, P + 5, (1 << 256) - 1]))


@given(st.one_of(st.sampled_from([2, 3]), st.integers(0, 255)), _XS,
       st.sampled_from(["whole", "short", "long"]))
@example(2, P + 5, "whole")         # 5 is a curve x, P + 5 is not below P
@example(2, 1, "whole")             # no y
@example(4, 5, "whole")
def test_load_public_key_point_agrees_with_the_oracle(prefix, x, length):
    """A point loads as the oracle's (x, y) wherever the oracle loads it,
    and raises ValueError wherever the oracle raises: an x at or above P,
    an x with no square root, another prefix or another length.  No point
    drawn here is 65 bytes, the one length the oracle accepts and a
    compressed-only loader does not (see the next test)."""
    point = bytes((prefix,)) + x.to_bytes(32, "big")
    point = {"whole": point, "short": point[:-1], "long": point + b"\0"}[
        length]
    want = _oracle_load(point)
    assert _ours_load(point) == want
    if want is not None:
        assert public_key_point(want) == point


def test_an_uncompressed_point_the_oracle_accepts_is_rejected():
    _, pk = generate_keypair(5)
    point = b"\4" + b"".join(c.to_bytes(32, "big") for c in pk)
    assert _oracle_load(point) == pk
    with pytest.raises(ValueError, match="^public key must be a 33-byte "
                                         "compressed point$"):
        load_public_key_point(point)
