"""One-way key chain generation and verification, root-key message
construction and signing, and the HKROOT block transport.

Chain keys are 128 bits; each key is the truncated SHA-256 of its
successor, and every key is bound to the GST of the subframe slot that
discloses it.  A received key is verified by hashing it back to a trusted
key; the required number of hash steps follows from the GST difference
divided by the 30-second slot duration, which is what defeats reuse of a
stale key in a later slot.

The chain hash is CPython's built-in SHA-256 and the root-key signature
is deterministic ECDSA over P-256, both from the crypto module: no OpenSSL
is loaded.  That P-256 code is not constant-time and is for simulation
only.  A secret key is an int and a public key the affine point (x, y); the
public key travels as the 33-byte compressed P-256 point that the OSNMA
DSM-PKR carries, and PEM is written for chain JSON files only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import crypto
from .crypto import sha256
from .gst import Gst, SECONDS_PER_WEEK, SUBFRAME_SECONDS
from .pages import HKROOT_BYTES, pack_fields, unpack_fields

KEY_BYTES = 16
NMA_HEADER = 0x52

# root-key message: (name, bit position, width, signed)
_MSG_LAYOUT = (("nma_header", 0, 8, False), ("mf", 8, 8, False),
               ("wnk", 16, 12, False), ("towk", 28, 20, False),
               ("kroot", 48, 8 * KEY_BYTES, False))
ROOT_MESSAGE_BITS = sum(width for _, _, width, _ in _MSG_LAYOUT)      # 176
ROOT_MESSAGE_BYTES = ROOT_MESSAGE_BITS // 8
SIGNATURE_BYTES = 64

# HKROOT transport: [NMA header, block index, 13 payload bytes] per subframe
DSM_PAYLOAD_BYTES = HKROOT_BYTES - 2
DSM_BODY_BYTES = 1 + ROOT_MESSAGE_BYTES + SIGNATURE_BYTES
DSM_BLOCKS = math.ceil(DSM_BODY_BYTES / DSM_PAYLOAD_BYTES)


POINT_BYTES = 33            # compressed P-256 point: 0x02 | y parity, then x


def truncate_hash(data: bytes) -> bytes:
    """SHA-256 truncated to the 128-bit chain key size."""
    return sha256(data).digest()[:KEY_BYTES]


@dataclass(frozen=True)
class TeslaKey:
    bits: bytes
    gst: Gst

    def __post_init__(self):
        if len(self.bits) != KEY_BYTES:
            raise ValueError(f"chain keys are {KEY_BYTES} bytes")


@dataclass(frozen=True)
class TeslaChain:
    """A generated chain, ordered root first.

    keys[0] is the root (disclosed first), keys[n] the seed.  Key i belongs
    to the slot at root.gst + 30*i.
    """

    keys: tuple

    @classmethod
    def generate(cls, seed: bytes, n: int, gst0: Gst) -> "TeslaChain":
        if n < 1:
            raise ValueError("chain needs at least one hash step")
        if len(seed) != KEY_BYTES:
            raise ValueError(f"seed must be {KEY_BYTES} bytes")
        bits = [seed]
        for _ in range(n):
            bits.append(truncate_hash(bits[-1]))
        bits.reverse()
        keys = tuple(
            TeslaKey(b, gst0.add_seconds(SUBFRAME_SECONDS * i))
            for i, b in enumerate(bits)
        )
        return cls(keys)

    @property
    def root(self) -> TeslaKey:
        return self.keys[0]

    def key_at(self, index: int) -> TeslaKey:
        return self.keys[index]


def verify_key(candidate: TeslaKey, trusted: TeslaKey) -> int | None:
    """Verify a disclosed key against a trusted one.

    Returns the number of hash steps walked on success, and None for every
    rejected key: a slot not newer than the trusted key's (stale), a GST gap
    that is not a whole number of slots (misaligned), or a walk that does
    not land on the trusted key.  The two GSTs tell the three apart.
    """
    diff = candidate.gst.total_seconds() - trusted.gst.total_seconds()
    steps, rem = divmod(diff, SUBFRAME_SECONDS)
    if diff <= 0 or rem:
        return None
    bits = candidate.bits
    for _ in range(steps):
        bits = truncate_hash(bits)
    return steps if bits == trusted.bits else None


def build_root_message(nma_header: int, mf: int, wnk: int, towk: int,
                       kroot: bytes) -> bytes:
    """Pack header, MAC-function id, root slot time and root key bits."""
    if len(kroot) != KEY_BYTES:
        raise ValueError(f"kroot must be {KEY_BYTES} bytes")
    return pack_fields(_MSG_LAYOUT, ROOT_MESSAGE_BITS, (
        nma_header, mf, wnk, towk, int.from_bytes(kroot, "big"))).to_bytes(
            ROOT_MESSAGE_BYTES, "big")


def root_key(body: bytes) -> TeslaKey | None:
    """The root key a root-key message body announces: its key bits, bound
    to the slot time it names; None when its 20-bit towk names no time of
    week (604,800 or more).  Read a body only once its signature has
    verified."""
    if len(body) != ROOT_MESSAGE_BYTES:
        raise ValueError(f"root message must be {ROOT_MESSAGE_BYTES} bytes")
    _, _, wnk, towk, kroot = unpack_fields(
        _MSG_LAYOUT, ROOT_MESSAGE_BITS, int.from_bytes(body, "big"))
    if towk >= SECONDS_PER_WEEK:
        return None
    return TeslaKey(kroot.to_bytes(KEY_BYTES, "big"), Gst(wnk, towk))


def generate_keypair(seed: int) -> tuple:
    """Derive a P-256 keypair from an integer seed (reproducible runs): the
    secret int and the public point (x, y)."""
    secret = seed % (crypto.N - 1) + 1
    return secret, crypto.public_point(secret)


def sign_root(message: bytes, private_key: int) -> bytes:
    """Deterministic ECDSA P-256 over SHA-256, fixed-width r||s form."""
    r, s = crypto.sign(private_key, message)
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def verify_root(message: bytes, signature: bytes, public_key: tuple) -> bool:
    if len(signature) != SIGNATURE_BYTES:
        return False
    return crypto.verify(public_key, message,
                         int.from_bytes(signature[:32], "big"),
                         int.from_bytes(signature[32:], "big"))


def public_key_point(public_key: tuple) -> bytes:
    """The key as a compressed point: 0x02 or 0x03 by the parity of y,
    then x in 32 big-endian bytes."""
    x, y = public_key
    return bytes((2 | y & 1,)) + x.to_bytes(32, "big")


def load_public_key_point(point: bytes) -> tuple:
    """The P-256 public key of a compressed point; anything else, an
    uncompressed point or an x off the curve included, raises
    ValueError."""
    if len(point) != POINT_BYTES or point[0] not in (2, 3):
        raise ValueError(
            f"public key must be a {POINT_BYTES}-byte compressed point")
    return crypto.point_from_x(int.from_bytes(point[1:], "big"), point[0] & 1)


def dsm_hkroot_blocks(body: bytes, signature: bytes) -> list:
    """Serialize a root message body and its signature into per-subframe
    HKROOT strings.

    Each subframe's 15 HKROOT bytes are [NMA header, block index, payload].
    The first payload byte of block 0 carries the total block count, so a
    receiver can join a repeating cycle at any point.
    """
    if len(body) != ROOT_MESSAGE_BYTES or len(signature) != SIGNATURE_BYTES:
        raise ValueError(f"root message must be {ROOT_MESSAGE_BYTES} bytes "
                         f"with a {SIGNATURE_BYTES}-byte signature")
    payload = bytes([DSM_BLOCKS]) + body + signature
    payload += bytes(DSM_BLOCKS * DSM_PAYLOAD_BYTES - len(payload))
    return [
        bytes([NMA_HEADER, idx])
        + payload[idx * DSM_PAYLOAD_BYTES:(idx + 1) * DSM_PAYLOAD_BYTES]
        for idx in range(DSM_BLOCKS)
    ]


class DsmAccumulator:
    """Collects HKROOT blocks until a complete root message assembles."""

    def __init__(self):
        self.blocks = {}

    def feed(self, hkroot: bytes) -> tuple | None:
        """Offer one subframe's HKROOT bytes; returns the received root
        message body and signature, unverified and unparsed, once every
        block has been seen."""
        if len(hkroot) != HKROOT_BYTES or hkroot[0] != NMA_HEADER:
            return None
        idx = hkroot[1]
        if idx >= DSM_BLOCKS:
            return None
        self.blocks[idx] = hkroot[2:]
        if len(self.blocks) < DSM_BLOCKS:
            return None
        payload = b"".join(self.blocks[i] for i in range(DSM_BLOCKS))
        if payload[0] != DSM_BLOCKS:        # not a root message: discard it
            self.reset()
            return None
        end = 1 + ROOT_MESSAGE_BYTES
        return payload[1:end], payload[end:end + SIGNATURE_BYTES]

    def reset(self) -> None:
        self.blocks.clear()
