import hashlib
import random

import pytest

from tftps.cramer_shoup import (
    REJECT,
    CsCiphertext,
    EncodingError,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    encrypt_with_rng,
    hash_to_scalar,
    int_to_prefixed_bytes,
    key_id,
    keygen,
    load_key_file,
    map_to_subgroup,
    write_public_file,
    write_secret_file,
)
from tftps.groups import ParameterError, random_subgroup_element, trace_operations


def oracle_hash(u1, u2, e, q):
    """Independent recomputation of the hash binding (inline, no library calls)."""

    def prefixed(x):
        mag = x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")
        return len(mag).to_bytes(2, "big") + mag

    digest = hashlib.sha256(prefixed(u1) + prefixed(u2) + prefixed(e)).digest()
    return int.from_bytes(digest, "big") % q


def oracle_encrypt(params, pk, m, r):
    """Independent oracle: the builtin pow called directly, not through groups.mod_exp."""
    p, q = params.p, params.q
    u1 = pow(params.g1, r, p)
    u2 = pow(params.g2, r, p)
    e = pow(pk.h, r, p) * m % p
    alpha = oracle_hash(u1, u2, e, q)
    v = pow(pk.c, r, p) * pow(pk.d, r * alpha, p) % p
    return CsCiphertext(u1=u1, u2=u2, e=e, v=v)


class TestKeygen:
    def test_deterministic_under_seed(self, desk_params):
        a = keygen(desk_params, random.Random(9))
        b = keygen(desk_params, random.Random(9))
        assert a == b

    def test_public_components_are_members(self, desk_params):
        pk, _ = keygen(desk_params, random.Random(10))
        for component in (pk.c, pk.d, pk.h):
            assert desk_params.is_member(component)

    def test_h_matches_independent_recomputation(self, desk_params):
        pk, sk = keygen(desk_params, random.Random(11))
        assert pk.h == pow(desk_params.g1, sk.z, desk_params.p)
        assert pk.c == pow(4, sk.x1, 23) * pow(9, sk.x2, 23) % 23
        assert pk.d == pow(4, sk.y1, 23) * pow(9, sk.y2, 23) % 23

    def test_invalid_params_rejected(self, desk_params):
        from tftps.groups import GroupParams

        with pytest.raises(ParameterError):
            keygen(GroupParams(p=22, q=11, g1=4, g2=9), random.Random(0))


class TestEncrypt:
    def test_matches_independent_oracle_on_desk_params(self, desk_params):
        rng = random.Random(12)
        pk, _ = keygen(desk_params, rng)
        for _ in range(50):
            m = random_subgroup_element(desk_params, rng)
            r = rng.randrange(desk_params.q)
            assert encrypt(pk, m, r) == oracle_encrypt(desk_params, pk, m, r)

    def test_matches_independent_oracle_large(self, params_256):
        rng = random.Random(13)
        pk, _ = keygen(params_256, rng)
        for _ in range(5):
            m = random_subgroup_element(params_256, rng)
            r = rng.randrange(params_256.q)
            assert encrypt(pk, m, r) == oracle_encrypt(params_256, pk, m, r)

    def test_zero_randomness_degenerate_form(self, desk_params):
        pk, _ = keygen(desk_params, random.Random(14))
        m = 9
        ct = encrypt(pk, m, 0)
        assert (ct.u1, ct.u2, ct.e) == (1, 1, m)

    def test_rng_wrapper_redraws_zero(self, desk_params):
        pk, _ = keygen(desk_params, random.Random(15))

        class ScriptedRng:
            def __init__(self, values):
                self.values = list(values)

            def randrange(self, *args, **kwargs):
                return self.values.pop(0)

        ct = encrypt_with_rng(pk, 9, ScriptedRng([0, 0, 5]))
        assert ct == encrypt(pk, 9, 5)

    def test_non_member_message_rejected(self, desk_params):
        pk, _ = keygen(desk_params, random.Random(16))
        with pytest.raises(EncodingError):
            encrypt(pk, 5, 3)  # 5 is not a residue mod 23

    def test_pure_function(self, desk_params):
        pk, _ = keygen(desk_params, random.Random(17))
        assert encrypt(pk, 9, 7) == encrypt(pk, 9, 7)


class TestDecrypt:
    def test_roundtrip_many_desk(self, desk_params):
        rng = random.Random(18)
        pk, sk = keygen(desk_params, rng)
        for _ in range(200):
            m = random_subgroup_element(desk_params, rng)
            r = rng.randrange(desk_params.q)
            assert decrypt(sk, desk_params, encrypt(pk, m, r)) == m

    def test_tampered_validity_component(self, desk_params):
        rng = random.Random(19)
        pk, sk = keygen(desk_params, rng)
        ct = encrypt(pk, 9, 7)
        bad = CsCiphertext(ct.u1, ct.u2, ct.e, ct.v * desk_params.g1 % desk_params.p)
        assert decrypt(sk, desk_params, bad) is REJECT

    def test_component_replacement_rejected(self, params_256):
        rng = random.Random(20)
        pk, sk = keygen(params_256, rng)
        p = params_256.p
        for _ in range(40):
            m = random_subgroup_element(params_256, rng)
            ct = encrypt_with_rng(pk, m, rng)
            which = rng.randrange(4)
            fields = [ct.u1, ct.u2, ct.e, ct.v]
            replacement = fields[which]
            while replacement == fields[which]:
                replacement = random_subgroup_element(params_256, rng)
            fields[which] = replacement
            assert decrypt(sk, params_256, CsCiphertext(*fields)) is REJECT

    def test_multiplicative_mauling_rejected(self, params_256):
        # the classic chosen-ciphertext maul that breaks hash-free schemes
        rng = random.Random(21)
        pk, sk = keygen(params_256, rng)
        p = params_256.p
        for _ in range(100):
            m = random_subgroup_element(params_256, rng)
            ct = encrypt_with_rng(pk, m, rng)
            mauled = CsCiphertext(ct.u1, ct.u2, ct.e * params_256.g1 % p, ct.v)
            assert decrypt(sk, params_256, mauled) is REJECT

    def test_accept_and_reject_run_identical_operations(self, params_256):
        rng = random.Random(22)
        pk, sk = keygen(params_256, rng)
        m = random_subgroup_element(params_256, rng)
        ct = encrypt_with_rng(pk, m, rng)
        tampered = CsCiphertext(ct.u1, ct.u2, ct.e, ct.v * params_256.g1 % params_256.p)
        with trace_operations() as accept_trace:
            assert decrypt(sk, params_256, ct) == m
        with trace_operations() as reject_trace:
            assert decrypt(sk, params_256, tampered) is REJECT
        assert accept_trace == reject_trace

    def test_field_out_of_range(self, desk_params):
        pk, sk = keygen(desk_params, random.Random(23))
        ct = encrypt(pk, 9, 7)
        with pytest.raises(ParameterError):
            decrypt(sk, desk_params, CsCiphertext(0, ct.u2, ct.e, ct.v))
        with pytest.raises(ParameterError):
            decrypt(sk, desk_params, CsCiphertext(ct.u1, 23, ct.e, ct.v))

    def test_non_member_components_still_sound(self, desk_params):
        # 5 is a non-residue mod 23; the check must not be fooled by it
        rng = random.Random(24)
        pk, sk = keygen(desk_params, rng)
        ct = encrypt(pk, 9, 7)
        assert decrypt(sk, desk_params, CsCiphertext(5, ct.u2, ct.e, ct.v)) is REJECT


class TestHashToScalar:
    def test_deterministic(self):
        assert hash_to_scalar(4, 9, 16, 11) == hash_to_scalar(4, 9, 16, 11)

    def test_reduced_below_modulus(self):
        rng = random.Random(25)
        for _ in range(200):
            alpha = hash_to_scalar(rng.randrange(1, 23), rng.randrange(1, 23), rng.randrange(1, 23), 11)
            assert 0 <= alpha < 11

    def test_no_collision_in_many_trials(self, params_256):
        rng = random.Random(26)
        q, p = params_256.q, params_256.p
        seen = {}
        for i in range(100_000):
            triple = (rng.randrange(1, p), rng.randrange(1, p), rng.randrange(1, p))
            alpha = hash_to_scalar(*triple, q)
            if alpha in seen:
                assert seen[alpha] == triple, "collision on distinct inputs"
            seen[alpha] = triple

    def test_matches_inline_oracle(self, params_256):
        rng = random.Random(27)
        p, q = params_256.p, params_256.q
        for _ in range(20):
            u1, u2, e = (rng.randrange(1, p) for _ in range(3))
            assert hash_to_scalar(u1, u2, e, q) == oracle_hash(u1, u2, e, q)


class TestMessageEncoding:
    def test_roundtrip(self, params_256):
        rng = random.Random(28)
        for length in range(0, 28):
            payload = rng.randbytes(length)
            assert decode_message(encode_message(payload, params_256), params_256) == payload

    def test_encoded_values_are_members(self, params_256):
        rng = random.Random(29)
        for _ in range(50):
            element = encode_message(rng.randbytes(16), params_256)
            assert params_256.is_member(element)

    def test_nonresidue_maps_to_complement(self, desk_params):
        # 5 is not in the brute-force residue table mod 23, so it maps to 23 - 5
        residues = {(x * x) % 23 for x in range(1, 23)}
        assert 5 not in residues
        assert map_to_subgroup(5, desk_params) == 18

    def test_residues_map_to_themselves(self, desk_params):
        residues = {(x * x) % 23 for x in range(1, 23)}
        for t in range(1, 12):
            mapped = map_to_subgroup(t, desk_params)
            assert mapped in residues
            assert mapped == (t if t in residues else 23 - t)

    def test_prefix_guards_leading_zeros(self, params_256):
        payload = b"\x00\x00\x07"
        assert decode_message(encode_message(payload, params_256), params_256) == payload

    def test_too_large_payload(self, desk_params):
        with pytest.raises(EncodingError):
            encode_message(b"\x01", desk_params)  # 0x0101 = 257 >= q = 11

    def test_bad_element_decode(self, params_256):
        with pytest.raises(EncodingError):
            decode_message(0, params_256)
        # an element whose canonical integer lacks the 0x01 prefix
        with pytest.raises(EncodingError):
            decode_message(2, params_256)


class TestWireAndKeyFiles:
    def test_ciphertext_wire_roundtrip(self, params_256):
        rng = random.Random(30)
        pk, _ = keygen(params_256, rng)
        ct = encrypt_with_rng(pk, random_subgroup_element(params_256, rng), rng)
        wire = ciphertext_to_bytes(ct)
        assert ciphertext_from_bytes(wire) == ct
        # layout: four (2-byte length || magnitude) fields
        first_len = int.from_bytes(wire[:2], "big")
        assert int.from_bytes(wire[2 : 2 + first_len], "big") == ct.u1

    def test_trailing_bytes_rejected(self, params_256):
        rng = random.Random(31)
        pk, _ = keygen(params_256, rng)
        wire = ciphertext_to_bytes(encrypt_with_rng(pk, params_256.g1, rng))
        with pytest.raises(EncodingError):
            ciphertext_from_bytes(wire + b"\x00")

    def test_prefixed_int_layout(self):
        assert int_to_prefixed_bytes(0x01FF) == b"\x00\x02\x01\xff"
        assert int_to_prefixed_bytes(0) == b"\x00\x01\x00"

    def test_key_files_roundtrip(self, tmp_path, params_256):
        pk, sk = keygen(params_256, random.Random(32))
        pub = tmp_path / "node.pub"
        sec = tmp_path / "node.key"
        write_public_file(pub, pk)
        write_secret_file(sec, pk, sk)
        loaded_pk, loaded_sk = load_key_file(pub)
        assert loaded_pk == pk and loaded_sk is None
        loaded_pk, loaded_sk = load_key_file(sec)
        assert loaded_pk == pk and loaded_sk == sk
        assert (sec.stat().st_mode & 0o777) == 0o600

    def test_key_file_is_lowercase_hex_sections(self, tmp_path, params_256):
        pk, sk = keygen(params_256, random.Random(33))
        path = tmp_path / "k.key"
        write_secret_file(path, pk, sk)
        text = path.read_text()
        assert "[params]" in text and "[public]" in text and "[secret]" in text
        assert f"C={pk.c:x}" in text and f"z={sk.z:x}" in text

    def test_key_id_format(self, params_256):
        pk, _ = keygen(params_256, random.Random(34))
        kid = key_id(pk)
        assert len(kid) == 16
        int(kid, 16)  # parses as hex
