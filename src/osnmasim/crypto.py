"""SHA-256, HMAC-SHA-256 and ECDSA over P-256, the three primitives OSNMA
authentication needs, with no OpenSSL.

SHA-256 is CPython's built-in module; HMAC (RFC 2104) keeps its two padded
contexts and copies them per message.  P-256 works in Jacobian coordinates
with 4-bit fixed windows and mixed Jacobian-affine additions; signing is
deterministic (RFC 6979), so a seed gives the same signature bytes as any
other RFC 6979 signer.  A secret is an int and a public key is the affine
point (x, y).  None of this is constant-time: it is for simulation only.
"""

from __future__ import annotations

try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10, 3.11
    except ImportError:                 # an interpreter built without them
        from hashlib import sha256

_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def hmac_sha256(key: bytes, head: bytes = b""):
    """The HMAC-SHA-256 of head + message under key, as a function of the
    message: the padded key and head are hashed once, not per message."""
    key = (sha256(key).digest() if len(key) > 64 else key).ljust(64, b"\0")
    inner = sha256(key.translate(_IPAD) + head)
    outer = sha256(key.translate(_OPAD))

    def mac(message: bytes) -> bytes:
        digest = inner.copy()
        digest.update(message)
        out = outer.copy()
        out.update(digest.digest())
        return out.digest()
    return mac


# y^2 = x^3 - 3x + B over GF(P); G generates the group, of prime order N
P = 2**256 - 2**224 + 2**192 + 2**96 - 1
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
_G = (0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
      0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5)
_INFINITY = (1, 1, 0)       # Jacobian (X, Y, Z) is (X/Z^2, Y/Z^3); Z = 0 is O


def _double(X, Y, Z):
    delta, gamma = Z * Z % P, Y * Y % P
    beta, alpha = X * gamma % P, 3 * (X - delta) * (X + delta) % P
    X3 = (alpha * alpha - 8 * beta) % P
    return (X3, (alpha * (4 * beta - X3) - 8 * gamma * gamma) % P,
            2 * Y * Z % P)


def _add(X, Y, Z, x, y):
    """Jacobian (X, Y, Z) plus affine (x, y)."""
    if not Z:
        return x, y, 1
    ZZ = Z * Z % P
    H, R = (x * ZZ - X) % P, (y * Z * ZZ - Y) % P
    if not H:
        return _double(X, Y, Z) if not R else _INFINITY
    HH = H * H % P
    HHH, V = H * HH % P, X * HH % P
    X3 = (R * R - HHH - 2 * V) % P
    return X3, (R * (V - X3) - Y * HHH) % P, Z * H % P


def _affine(X, Y, Z, inv=None):
    """The affine point of a Jacobian one, given 1/Z or not; None for the
    point at infinity."""
    if not Z:
        return None
    inv = pow(Z, -1, P) if inv is None else inv
    inv2 = inv * inv % P
    return X * inv2 % P, Y * inv2 * inv % P


def _table(point) -> list:
    """0, 1, .., 15 times an affine point, affine; 0 times it is unused.
    The 15 Z are inverted with one pow (Montgomery's trick)."""
    multiples, products = [_INFINITY], [1]
    for _ in range(15):
        multiples.append(_add(*multiples[-1], *point))
        products.append(products[-1] * multiples[-1][2] % P)
    inv = pow(products[-1], -1, P)          # 1 / (Z1 * .. * Z15)
    for i in range(15, 0, -1):
        Z = multiples[i][2]
        multiples[i] = _affine(*multiples[i], inv * products[i - 1] % P)
        inv = inv * Z % P
    multiples[0] = None
    return multiples


_G_TABLE = _table(_G)


def _combine(*terms):
    """The sum of k * point over (k, _table(point)) terms, in one shared
    chain of doublings (Straus), four bits of every k at a time."""
    acc = _INFINITY
    for shift in range(252, -4, -4):
        for _ in range(4):
            acc = _double(*acc)
        for k, table in terms:
            window = k >> shift & 15
            if window:
                acc = _add(*acc, *table[window])
    return _affine(*acc)


def public_point(secret: int) -> tuple:
    return _combine((secret, _G_TABLE))


def _hash_int(message: bytes) -> int:
    return int.from_bytes(sha256(message).digest(), "big")


def sign(secret: int, message: bytes) -> tuple:
    """Deterministic ECDSA over SHA-256 (RFC 6979 section 3.2): (r, s)."""
    e = _hash_int(message)
    seed = secret.to_bytes(32, "big") + (e % N).to_bytes(32, "big")
    key, v = bytes(32), b"\1" * 32
    for sep in (b"\0", b"\1"):
        key = hmac_sha256(key)(v + sep + seed)
        v = hmac_sha256(key)(v)
    while True:
        v = hmac_sha256(key)(v)
        k = int.from_bytes(v, "big")
        if 0 < k < N:
            r = public_point(k)[0] % N
            s = pow(k, -1, N) * (e + r * secret) % N
            if r and s:
                return r, s
        key = hmac_sha256(key)(v + b"\0")
        v = hmac_sha256(key)(v)


def verify(point: tuple, message: bytes, r: int, s: int) -> bool:
    """Whether (r, s) is a signature of message under the public point,
    which must lie on the curve (point_from_x)."""
    if not (0 < r < N and 0 < s < N):
        return False
    w = pow(s, -1, N)
    sum_point = _combine((_hash_int(message) * w % N, _G_TABLE),
                         (r * w % N, _table(point)))
    return sum_point is not None and sum_point[0] % N == r


def point_from_x(x: int, odd: bool) -> tuple:
    """The curve point with this x whose y has this parity; an x at or
    above P, or one with no y, raises ValueError."""
    rhs = (x * x * x - 3 * x + B) % P
    y = pow(rhs, (P + 1) // 4, P)       # a square root, as P = 3 mod 4
    if x >= P or y * y % P != rhs:
        raise ValueError("public key is not a point of P-256")
    return x, P - y if y & 1 != odd else y


# SubjectPublicKeyInfo DER up to the point: id-ecPublicKey, prime256v1, and
# a 66-byte bit string of an uncompressed point
_SPKI_PREFIX = bytes.fromhex(
    "3059301306072a8648ce3d020106082a8648ce3d030107034200")


def spki_pem(point: tuple) -> str:
    """SubjectPublicKeyInfo PEM of a public point."""
    from binascii import b2a_base64
    x, y = point
    der = _SPKI_PREFIX + b"\4" + x.to_bytes(32, "big") + y.to_bytes(32, "big")
    text = b2a_base64(der, newline=False).decode()
    lines = [text[i:i + 64] for i in range(0, len(text), 64)]
    return "\n".join(["-----BEGIN PUBLIC KEY-----", *lines,
                      "-----END PUBLIC KEY-----", ""])
