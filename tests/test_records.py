import hashlib
import hmac
import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from tftps import records
from tftps.groups import ParameterError
from tftps.records import (
    KEY_MATERIAL_LEN,
    MAC_FAILURE,
    NONCE_LEN,
    RECORD_OVERHEAD,
    derive_session_keys,
    open_block,
    record_from_bytes,
    record_to_bytes,
    seal_block,
)


@pytest.fixture
def keys():
    return derive_session_keys(bytes(range(64)))


class TestDeriveSessionKeys:
    def test_split_halves(self):
        keys = derive_session_keys(bytes(range(64)))
        assert keys.enc_key == bytes(range(32))
        assert keys.mac_key == bytes(range(32, 64))

    def test_zero_material(self):
        keys = derive_session_keys(bytes(64))
        assert keys.enc_key == bytes(32) and keys.mac_key == bytes(32)

    def test_deterministic(self):
        material = random.Random(0).randbytes(64)
        assert derive_session_keys(material) == derive_session_keys(material)

    def test_distinct_halves_stay_distinct(self):
        material = bytes(32) + bytes([1] * 32)
        keys = derive_session_keys(material)
        assert keys.enc_key != keys.mac_key

    def test_wrong_length(self):
        with pytest.raises(ParameterError):
            derive_session_keys(bytes(63))
        with pytest.raises(ParameterError):
            derive_session_keys(bytes(65))


class TestSealOpen:
    def test_roundtrip(self, keys):
        rng = random.Random(1)
        for length in (0, 1, 17, 456):
            plaintext = rng.randbytes(length)
            record = seal_block(keys, 7, plaintext, rng)
            assert open_block(keys, 7, record) == plaintext

    def test_ciphertext_length_preserved(self, keys):
        rng = random.Random(2)
        for length in range(0, 513, 29):
            record = seal_block(keys, 1, bytes(length), rng)
            assert len(record.ciphertext) == length

    def test_fresh_nonce_per_seal(self, keys):
        rng = random.Random(3)
        a = seal_block(keys, 1, b"same plaintext", rng)
        b = seal_block(keys, 1, b"same plaintext", rng)
        assert a.nonce != b.nonce
        assert a.ciphertext != b.ciphertext

    def test_nonce_uniqueness_at_scale(self, keys):
        rng = random.Random(4)
        nonces = {seal_block(keys, i, b"", rng).nonce for i in range(100_000)}
        assert len(nonces) == 100_000

    def test_replay_under_other_seq_fails(self, keys):
        rng = random.Random(5)
        record = seal_block(keys, 3, b"payload", rng)
        assert open_block(keys, 4, record) is MAC_FAILURE
        assert open_block(keys, 3, record) == b"payload"

    def test_every_single_bit_flip_detected(self, keys):
        rng = random.Random(6)
        record = seal_block(keys, 9, rng.randbytes(8), rng)  # 64-octet record on the wire
        wire = record_to_bytes(record)
        assert len(wire) == 64
        for bit in range(len(wire) * 8):
            tampered = bytearray(wire)
            tampered[bit // 8] ^= 1 << (bit % 8)
            assert open_block(keys, 9, record_from_bytes(bytes(tampered))) is MAC_FAILURE, bit

    def test_wrong_key_fails(self, keys):
        rng = random.Random(7)
        other = derive_session_keys(rng.randbytes(64))
        record = seal_block(keys, 1, b"secret", rng)
        assert open_block(other, 1, record) is MAC_FAILURE


class TestWireLayout:
    def test_layout_and_overhead(self, keys):
        rng = random.Random(8)
        record = seal_block(keys, 0x0102030405060708, b"abc", rng)
        wire = record_to_bytes(record)
        assert len(wire) == RECORD_OVERHEAD + 3
        assert wire[:8] == bytes([1, 2, 3, 4, 5, 6, 7, 8])
        assert wire[8:24] == record.nonce
        assert wire[24:56] == record.tag
        assert wire[56:] == record.ciphertext

    def test_roundtrip(self, keys):
        rng = random.Random(9)
        record = seal_block(keys, 42, rng.randbytes(100), rng)
        assert record_from_bytes(record_to_bytes(record)) == record

    def test_truncated_record(self):
        with pytest.raises(ParameterError):
            record_from_bytes(bytes(RECORD_OVERHEAD - 1))

    def test_material_length_constant(self):
        assert KEY_MATERIAL_LEN == 64
        assert RECORD_OVERHEAD == 56


class TestIndependentOracle:
    """The per-session cipher and MAC state give the bytes of a fresh AES-CTR cipher and a fresh HMAC."""

    def test_every_record_matches_a_fresh_cipher_and_hmac(self, keys):
        rng = random.Random(10)
        wrap_nonces = (b"\xff" * NONCE_LEN, b"\xff" * (NONCE_LEN - 1) + b"\xf0")
        for length in range(1101):
            plaintext = rng.randbytes(length)
            seq = rng.getrandbits(64)
            for nonce in (rng.randbytes(NONCE_LEN),) + wrap_nonces:
                oracle = Cipher(algorithms.AES(keys.enc_key), modes.CTR(nonce)).encryptor()
                ciphertext = oracle.update(plaintext) + oracle.finalize()
                tag = hmac.new(keys.mac_key, seq.to_bytes(8, "big") + nonce + ciphertext, hashlib.sha256).digest()
                assert records._aes_ctr(keys, nonce, plaintext) == ciphertext, (length, nonce.hex())
                assert records._tag(keys, seq, nonce, ciphertext) == tag, (length, nonce.hex())

    def test_seal_and_open_build_no_cipher_and_no_hmac(self, monkeypatch):
        keys = derive_session_keys(random.Random(11).randbytes(64))

        def refuse(*args, **kwargs):
            raise AssertionError("built per block")

        monkeypatch.setattr(records, "Cipher", refuse)
        monkeypatch.setattr(hmac, "new", refuse)
        rng = random.Random(12)
        for seq in range(1, 11):
            plaintext = rng.randbytes(456)
            wire = record_to_bytes(seal_block(keys, seq, plaintext, rng))
            assert open_block(keys, seq, record_from_bytes(wire)) == plaintext
