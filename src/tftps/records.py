"""Symmetric protection of file blocks: AES-256-CTR, then HMAC-SHA-256.

The 512 bits of wrapped session material split into a 256-bit cipher key
and a 256-bit MAC key.  Each block is sealed encrypt-then-MAC with the
block sequence number authenticated, so replays and any single-bit tamper
fail verification.  Tags are compared with ``hmac.compare_digest``, whose
time does not depend on where two tags differ.

The keystream and MAC state are built once per session, in SessionKeys: one
AES-256-ECB encryptor, which only ever sees CTR counter blocks (NIST SP
800-38A section 6.5: the nonce read as a 128-bit big-endian counter,
incremented mod 2^128), and one keyed HMAC that each tag copies.  So
sealing or opening a block builds no cipher and no key schedule, and every
record byte is what a fresh AES-CTR cipher would give.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import random
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .groups import ParameterError, Sentinel

KEY_MATERIAL_LEN = 64
NONCE_LEN = 16
TAG_LEN = 32
SEQ_LEN = 8
RECORD_OVERHEAD = SEQ_LEN + NONCE_LEN + TAG_LEN  # 56 octets per sealed block

_DEFAULT_RNG = random.SystemRandom()


MAC_FAILURE = Sentinel("MAC_FAILURE")  # result for records that fail authentication


@dataclass(frozen=True)
class SessionKeys:
    enc_key: bytes
    mac_key: bytes
    # Per-session cipher and MAC state, never shared between sessions.
    _ecb: object = field(init=False, compare=False, repr=False)
    _mac: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_ecb", Cipher(algorithms.AES(self.enc_key), modes.ECB()).encryptor())
        object.__setattr__(self, "_mac", hmac.new(self.mac_key, digestmod=hashlib.sha256))


@dataclass(frozen=True)
class SealedRecord:
    seq: int
    nonce: bytes
    ciphertext: bytes
    tag: bytes


def derive_session_keys(material: bytes) -> SessionKeys:
    """Split 64 octets of wrapped material into cipher and MAC keys."""
    if len(material) != KEY_MATERIAL_LEN:
        raise ParameterError(f"session key material must be {KEY_MATERIAL_LEN} octets, got {len(material)}")
    return SessionKeys(enc_key=bytes(material[:32]), mac_key=bytes(material[32:]))


_BLOCK = 16
_COUNTER_MOD = 1 << 128


@functools.lru_cache(maxsize=64)
def _counter_terms(n: int) -> tuple[int, int]:
    """(R_n, C_n) such that start·R_n + C_n is the n counter blocks start, start+1, .. as one integer.

    R_n has a 1 in the low bit of each 128-bit block; C_n holds 0, 1, ..,
    n-1 in the blocks from first to last.  Valid while start + n <= 2^128,
    so that no block carries into the one before it.
    """
    ones = 0
    steps = 0
    for i in range(n):
        ones = (ones << 128) | 1
        steps = (steps << 128) | i
    return ones, steps


def _aes_ctr(keys: SessionKeys, nonce: bytes, data: bytes) -> bytes:
    """AES-256-CTR over data, from the session's ECB encryptor: the same bytes as modes.CTR(nonce)."""
    size = len(data)
    if not size:
        return b""
    n = -(-size // _BLOCK)
    start = int.from_bytes(nonce, "big")
    if start + n <= _COUNTER_MOD:
        ones, steps = _counter_terms(n)
        counters = (start * ones + steps).to_bytes(n * _BLOCK, "big")
    else:  # the counter wraps mod 2^128 within this record
        counters = b"".join(((start + i) % _COUNTER_MOD).to_bytes(_BLOCK, "big") for i in range(n))
    keystream = keys._ecb.update(counters)
    return (int.from_bytes(data, "big") ^ int.from_bytes(keystream[:size], "big")).to_bytes(size, "big")


def _tag(keys: SessionKeys, seq: int, nonce: bytes, ciphertext: bytes) -> bytes:
    mac = keys._mac.copy()
    mac.update(seq.to_bytes(SEQ_LEN, "big") + nonce + ciphertext)
    return mac.digest()


def seal_block(keys: SessionKeys, seq: int, plaintext: bytes, rng: random.Random | None = None) -> SealedRecord:
    """Encrypt-then-MAC one block under a fresh random nonce."""
    rng = rng or _DEFAULT_RNG
    nonce = rng.randbytes(NONCE_LEN)
    ciphertext = _aes_ctr(keys, nonce, plaintext)
    return SealedRecord(seq=seq, nonce=nonce, ciphertext=ciphertext, tag=_tag(keys, seq, nonce, ciphertext))


def open_block(keys: SessionKeys, seq: int, record: SealedRecord):
    """Verify then decrypt; returns plaintext bytes or MAC_FAILURE.

    The sequence number is authenticated: both the tag and the caller's
    expected seq must match.  Nothing is decrypted on failure.
    """
    expected = _tag(keys, record.seq, record.nonce, record.ciphertext)
    if not hmac.compare_digest(expected, record.tag) or record.seq != seq:
        return MAC_FAILURE
    return _aes_ctr(keys, record.nonce, record.ciphertext)


# Wire layout inside a TFTP DATA payload:
# seq (8 BE) | nonce (16) | tag (32) | ciphertext (remainder).

def record_to_bytes(record: SealedRecord) -> bytes:
    return record.seq.to_bytes(SEQ_LEN, "big") + record.nonce + record.tag + record.ciphertext


def record_from_bytes(data: bytes) -> SealedRecord:
    if len(data) < RECORD_OVERHEAD:
        raise ParameterError(f"sealed record too short: {len(data)} octets")
    seq = int.from_bytes(data[:SEQ_LEN], "big")
    nonce = data[SEQ_LEN : SEQ_LEN + NONCE_LEN]
    tag = data[SEQ_LEN + NONCE_LEN : RECORD_OVERHEAD]
    return SealedRecord(seq=seq, nonce=bytes(nonce), ciphertext=bytes(data[RECORD_OVERHEAD:]), tag=bytes(tag))
