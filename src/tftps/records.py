"""Symmetric protection of file blocks: AES-256-CTR, then HMAC-SHA-256.

The 512 bits of wrapped session material split into a 256-bit cipher key
and a 256-bit MAC key.  Each block is sealed encrypt-then-MAC with the
block sequence number authenticated, so replays and any single-bit tamper
fail verification.  Tags are compared with ``hmac.compare_digest``, whose
time does not depend on where two tags differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import hashlib
import hmac

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


def _aes_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    cipher = Cipher(algorithms.AES(key), modes.CTR(nonce))
    enc = cipher.encryptor()
    return enc.update(data) + enc.finalize()


def _tag(keys: SessionKeys, seq: int, nonce: bytes, ciphertext: bytes) -> bytes:
    msg = seq.to_bytes(SEQ_LEN, "big") + nonce + ciphertext
    return hmac.new(keys.mac_key, msg, hashlib.sha256).digest()


def seal_block(keys: SessionKeys, seq: int, plaintext: bytes, rng: random.Random | None = None) -> SealedRecord:
    """Encrypt-then-MAC one block under a fresh random nonce."""
    rng = rng or _DEFAULT_RNG
    nonce = rng.randbytes(NONCE_LEN)
    ciphertext = _aes_ctr(keys.enc_key, nonce, plaintext)
    return SealedRecord(seq=seq, nonce=nonce, ciphertext=ciphertext, tag=_tag(keys, seq, nonce, ciphertext))


def open_block(keys: SessionKeys, seq: int, record: SealedRecord):
    """Verify then decrypt; returns plaintext bytes or MAC_FAILURE.

    The sequence number is authenticated: both the tag and the caller's
    expected seq must match.  Nothing is decrypted on failure.
    """
    expected = _tag(keys, record.seq, record.nonce, record.ciphertext)
    if not hmac.compare_digest(expected, record.tag) or record.seq != seq:
        return MAC_FAILURE
    return _aes_ctr(keys.enc_key, record.nonce, record.ciphertext)


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
