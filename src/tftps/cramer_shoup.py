"""Cramer-Shoup public-key encryption with ciphertext-validity rejection.

The 1998 two-generator construction: a ciphertext is the 4-tuple
(u1, u2, e, v) where v binds the other three components through a
collision-resistant hash, and decryption recomputes and checks v before
releasing anything.  Tampering with any component makes the check fail,
which is what separates this scheme from malleable ElGamal-style
encryption under chosen-ciphertext attack.

Decryption intentionally computes both the validity check and the message
recovery on every call (no early exit), so the executed operation sequence
is identical for accepted and rejected ciphertexts.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from pathlib import Path

from .groups import (
    GroupParams,
    ParameterError,
    Sentinel,
    jacobi_symbol,
    mod_exp,
    params_from_mapping,
    params_to_lines,
    validate_group_params,
)


class EncodingError(ValueError):
    """Message bytes do not fit, or an element is not a valid encoding."""


# Decryption result for invalid ciphertexts.  A value rather than an
# exception so game harnesses can count rejections without control-flow
# differences between accept and reject paths.
REJECT = Sentinel("REJECT")

_DEFAULT_RNG = random.SystemRandom()


@dataclass(frozen=True)
class CsSecretKey:
    """Five independent uniform scalars in [0, q)."""

    x1: int
    x2: int
    y1: int
    y2: int
    z: int


@dataclass(frozen=True)
class CsPublicKey:
    """Public components c = g1^x1*g2^x2, d = g1^y1*g2^y2, h = g1^z."""

    params: GroupParams
    c: int
    d: int
    h: int


@dataclass(frozen=True)
class CsCiphertext:
    u1: int
    u2: int
    e: int
    v: int


def keygen(params: GroupParams, rng: random.Random | None = None) -> tuple[CsPublicKey, CsSecretKey]:
    """Draw a fresh key pair; deterministic under a seeded rng."""
    violations = validate_group_params(params)
    if violations:
        raise ParameterError("invalid group parameters: " + "; ".join(violations))
    rng = rng or _DEFAULT_RNG
    q, p = params.q, params.p
    x1, x2, y1, y2, z = (rng.randrange(q) for _ in range(5))
    sk = CsSecretKey(x1=x1, x2=x2, y1=y1, y2=y2, z=z)
    pk = CsPublicKey(
        params=params,
        c=mod_exp(params.g1, x1, p) * mod_exp(params.g2, x2, p) % p,
        d=mod_exp(params.g1, y1, p) * mod_exp(params.g2, y2, p) % p,
        h=mod_exp(params.g1, z, p),
    )
    return pk, sk


def encrypt(pk: CsPublicKey, m: int, r: int) -> CsCiphertext:
    """Encrypt the group element m with explicit randomness r in [0, q).

    The explicit-r form is a pure function (testable against independent
    oracles); use encrypt_with_rng for fresh randomness.
    """
    params = pk.params
    p, q = params.p, params.q
    if not 0 <= r < q:
        raise ParameterError(f"r must be in [0, q), got {r}")
    if not params.is_member(m):
        raise EncodingError("message is not a member of the order-q subgroup")
    u1 = mod_exp(params.g1, r, p)
    u2 = mod_exp(params.g2, r, p)
    e = mod_exp(pk.h, r, p) * m % p
    alpha = hash_to_scalar(u1, u2, e, q)
    # v = (c * d^alpha)^r, raised as c^r * d^(r*alpha mod q), which is equal
    # because c and d have order q.
    v = mod_exp(pk.c, r, p) * mod_exp(pk.d, r * alpha % q, p) % p
    return CsCiphertext(u1=u1, u2=u2, e=e, v=v)


def encrypt_with_rng(pk: CsPublicKey, m: int, rng: random.Random | None = None) -> CsCiphertext:
    """Encrypt with fresh randomness, redrawing the degenerate r = 0."""
    rng = rng or _DEFAULT_RNG
    r = 0
    while r == 0:
        r = rng.randrange(pk.params.q)
    return encrypt(pk, m, r)


def decrypt(sk: CsSecretKey, params: GroupParams, ct: CsCiphertext):
    """Return the plaintext group element, or REJECT if the validity tag fails.

    Check and recovery are both always computed; there is no early exit, so
    accept and reject execute the same operation sequence.  The check
    exponents x1 + y1*alpha and x2 + y2*alpha are reduced mod q only when
    u1 and u2 are subgroup members (a public property, tested with a cheap
    Jacobi symbol); for adversarial non-members the unreduced integers keep
    the comparison sound.  Its three exponentiations go through ``mod_exp``,
    so OpenSSL computes them in every production group.
    """
    p, q = params.p, params.q
    for name, value in (("u1", ct.u1), ("u2", ct.u2), ("e", ct.e), ("v", ct.v)):
        if not 1 <= value < p:
            raise ParameterError(f"ciphertext field {name} out of range [1, p)")
    alpha = hash_to_scalar(ct.u1, ct.u2, ct.e, q)
    a1 = sk.x1 + sk.y1 * alpha
    a2 = sk.x2 + sk.y2 * alpha
    if params.is_member(ct.u1) and params.is_member(ct.u2):
        a1, a2 = a1 % q, a2 % q
    check = mod_exp(ct.u1, a1, p) * mod_exp(ct.u2, a2, p) % p
    # u1^z inverted via the subgroup order: (u1^z)^-1 = u1^(q - z).
    recovered = ct.e * mod_exp(ct.u1, (q - sk.z) % q, p) % p
    valid = check == ct.v
    return recovered if valid else REJECT


def hash_to_scalar(u1: int, u2: int, e: int, q: int) -> int:
    """SHA-256 over the length-prefixed encodings of (u1, u2, e), reduced mod q."""
    digest = hashlib.sha256(
        int_to_prefixed_bytes(u1) + int_to_prefixed_bytes(u2) + int_to_prefixed_bytes(e)
    ).digest()
    return int.from_bytes(digest, "big") % q


def map_to_subgroup(t: int, params: GroupParams) -> int:
    """Map an integer in [1, q] into the order-q subgroup of a safe prime.

    Exactly one of t, p - t is a quadratic residue; return that one.  The
    residue test uses the Jacobi symbol, equivalent to t^q mod p == 1 for
    p = 2q + 1.
    """
    if not 1 <= t <= params.q:
        raise EncodingError(f"value {t} outside the encodable range [1, q]")
    return t if jacobi_symbol(t, params.p) == 1 else params.p - t


def encode_message(data: bytes, params: GroupParams) -> int:
    """Map bytes into the order-q subgroup.

    The value t of the 0x01-prefixed bytes (the prefix protects leading
    zeros) must be < q, then maps through map_to_subgroup.
    """
    t = int.from_bytes(b"\x01" + data, "big")
    if t >= params.q:
        raise EncodingError(
            f"payload of {len(data)} bytes does not fit the group (need < q of {params.q.bit_length()} bits)"
        )
    return map_to_subgroup(t, params)


def decode_message(element: int, params: GroupParams) -> bytes:
    """Invert encode_message."""
    if not 1 <= element < params.p:
        raise EncodingError("element out of range")
    t = element if element <= params.q else params.p - element
    raw = t.to_bytes((t.bit_length() + 7) // 8, "big")
    if not raw or raw[0] != 0x01:
        raise EncodingError("element is not a prefixed message encoding")
    return raw[1:]


# ---------------------------------------------------------------------------
# Wire and key-file formats.
# ---------------------------------------------------------------------------

def int_to_prefixed_bytes(value: int) -> bytes:
    """2-byte big-endian length, then big-endian magnitude bytes."""
    if value < 0:
        raise ParameterError("negative integer")
    magnitude = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    if len(magnitude) > 0xFFFF:
        raise ParameterError("integer too large for 2-byte length prefix")
    return len(magnitude).to_bytes(2, "big") + magnitude


def _read_prefixed(data: bytes, offset: int) -> tuple[int, int]:
    if offset + 2 > len(data):
        raise EncodingError("truncated length prefix")
    length = int.from_bytes(data[offset : offset + 2], "big")
    offset += 2
    if offset + length > len(data):
        raise EncodingError("truncated integer body")
    return int.from_bytes(data[offset : offset + length], "big"), offset + length


def ciphertext_to_bytes(ct: CsCiphertext) -> bytes:
    """Four length-prefixed big-endian integers in order u1, u2, e, v."""
    return (
        int_to_prefixed_bytes(ct.u1)
        + int_to_prefixed_bytes(ct.u2)
        + int_to_prefixed_bytes(ct.e)
        + int_to_prefixed_bytes(ct.v)
    )


def ciphertext_from_bytes(data: bytes) -> CsCiphertext:
    offset = 0
    values = []
    for _ in range(4):
        value, offset = _read_prefixed(data, offset)
        values.append(value)
    if offset != len(data):
        raise EncodingError("trailing bytes after ciphertext")
    return CsCiphertext(*values)


def key_id(pk: CsPublicKey) -> str:
    """16 hex chars identifying a public key (hash of its components)."""
    digest = hashlib.sha256(
        int_to_prefixed_bytes(pk.c) + int_to_prefixed_bytes(pk.d) + int_to_prefixed_bytes(pk.h)
    ).hexdigest()
    return digest[:16]


def _key_sections(pk: CsPublicKey, sk: CsSecretKey | None) -> str:
    lines = ["[params]"]
    lines += params_to_lines(pk.params)
    lines += ["[public]", f"C={pk.c:x}", f"D={pk.d:x}", f"H={pk.h:x}"]
    if sk is not None:
        lines += [
            "[secret]",
            f"x1={sk.x1:x}",
            f"x2={sk.x2:x}",
            f"y1={sk.y1:x}",
            f"y2={sk.y2:x}",
            f"z={sk.z:x}",
        ]
    return "\n".join(lines) + "\n"


def write_public_file(path: str | Path, pk: CsPublicKey) -> None:
    Path(path).write_text(_key_sections(pk, None))


def write_secret_file(path: str | Path, pk: CsPublicKey, sk: CsSecretKey) -> None:
    path = Path(path)
    path.write_text(_key_sections(pk, sk))
    try:
        os.chmod(path, 0o600)
    except OSError:
        pass


def load_key_file(path: str | Path) -> tuple[CsPublicKey, CsSecretKey | None]:
    """Parse a key file; returns (public key, secret key or None)."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif "=" in line and current is not None:
            name, _, value = line.partition("=")
            current[name.strip()] = value.strip()
        else:
            raise ParameterError(f"malformed key file line: {raw_line!r}")
    try:
        params = params_from_mapping(sections["params"])
        public = sections["public"]
        pk = CsPublicKey(
            params=params,
            c=int(public["C"], 16),
            d=int(public["D"], 16),
            h=int(public["H"], 16),
        )
    except KeyError as exc:
        raise ParameterError(f"key file missing section/field: {exc}") from exc
    sk = None
    if "secret" in sections:
        secret = sections["secret"]
        try:
            sk = CsSecretKey(
                x1=int(secret["x1"], 16),
                x2=int(secret["x2"], 16),
                y1=int(secret["y1"], 16),
                y2=int(secret["y2"], 16),
                z=int(secret["z"], 16),
            )
        except (KeyError, ValueError) as exc:
            raise ParameterError(f"malformed secret section: {exc}") from exc
    return pk, sk
