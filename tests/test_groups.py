import random
from dataclasses import replace

import pytest

from tftps import cramer_shoup, groups
from tftps.groups import (
    DESK_PARAMS,
    GroupParams,
    ParameterError,
    element_order,
    gen_group_params,
    is_primitive_root,
    is_probable_prime,
    jacobi_symbol,
    mod_exp,
    params_from_mapping,
    params_to_lines,
    random_subgroup_element,
    trace_operations,
    validate_group_params,
)


@pytest.fixture()
def proofs(monkeypatch):
    """Every number groups runs Miller-Rabin on, in order."""
    tested = []
    real_is_probable_prime = groups.is_probable_prime

    def counting_is_probable_prime(n, *args, **kwargs):
        tested.append(n)
        return real_is_probable_prime(n, *args, **kwargs)

    monkeypatch.setattr(groups, "is_probable_prime", counting_is_probable_prime)
    return tested


def slow_power(base, exponent, modulus):
    """Independent oracle: repeated multiplication."""
    result = 1 % modulus
    for _ in range(exponent):
        result = (result * base) % modulus
    return result


def quadratic_residues(p):
    """Independent oracle: brute-force table of squares mod p."""
    return {(x * x) % p for x in range(1, p)}


class TestModExp:
    def test_small_congruence(self):
        # 3^2 = 9 = 2 (mod 7)
        assert mod_exp(3, 2, 7) == 2

    def test_generator_power_table_row(self):
        assert mod_exp(3, 6, 7) == 1

    def test_zero_exponent_is_identity(self):
        for g, p in ((3, 7), (4, 23), (12345, 99991)):
            assert mod_exp(g, 0, p) == 1

    def test_desk_group_order(self):
        # brute-force oracle: multiply 4 by itself 11 times mod 23
        assert slow_power(4, 11, 23) == 1
        assert mod_exp(4, 11, 23) == 1

    def test_matches_slow_oracle_small(self):
        rng = random.Random(1)
        for _ in range(200):
            base = rng.randrange(0, 50)
            exponent = rng.randrange(0, 40)
            modulus = rng.randrange(2, 50)
            assert mod_exp(base, exponent, modulus) == slow_power(base, exponent, modulus)

    def test_matches_builtin_pow_large(self, params_256):
        rng = random.Random(2)
        p = params_256.p
        for _ in range(50):
            base = rng.randrange(1, p)
            exponent = rng.randrange(0, p)
            assert mod_exp(base, exponent, p) == pow(base, exponent, p)

    def test_modulus_too_small(self):
        with pytest.raises(ParameterError):
            mod_exp(3, 2, 1)
        with pytest.raises(ParameterError):
            mod_exp(3, 2, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            mod_exp(3, -1, 7)

    def test_trace_records_calls(self):
        with trace_operations() as trace:
            mod_exp(3, 6, 7)
        assert trace == [("mod_exp", 3, 3)]



class TestFixedBaseTables:
    @pytest.mark.parametrize("params_name", ["desk_params", "params_256", "params_1024"])
    def test_registered_bases_match_pow(self, request, params_name, pow_calls):
        params = request.getfixturevalue(params_name)
        p, q = params.p, params.q
        rng = random.Random(14)
        pk, _ = cramer_shoup.keygen(params, rng)
        tables = cramer_shoup.precompute(pk).tables
        table_bits = 5 * len(tables[params.g1])
        assert table_bits >= p.bit_length()
        exponents = [0, 1, 31, 32, q - 1, q, p - 2, (1 << table_bits) - 1, (1 << table_bits) + 3]
        exponents += [rng.randrange(p) for _ in range(20)]
        pow_calls.clear()  # keygen's
        for base, table in tables.items():
            for exponent in exponents:
                assert mod_exp(base, exponent, p, table) == pow(base, exponent, p), (base, exponent)
        # Only exponents longer than the table fall back to pow.
        longer = [e for e in exponents if e.bit_length() > table_bits]
        assert [args[1] for args in pow_calls] == longer * len(tables)
        pow_calls.clear()
        assert mod_exp(params.g1, q - 1, p) == pow(params.g1, q - 1, p) and len(pow_calls) == 1  # no table given

    def test_a_registered_base_builds_no_second_table(self, params_256, monkeypatch):
        builds = []
        build = groups.fixed_base_table
        monkeypatch.setattr(cramer_shoup, "fixed_base_table", lambda *args: builds.append(args) or build(*args))
        pk, _ = cramer_shoup.keygen(params_256, random.Random(15))
        precomputed = cramer_shoup.precompute(pk)
        assert len(builds) == len(precomputed.tables) == len({params_256.g1, params_256.g2, pk.h, pk.c, pk.d})
        assert cramer_shoup.precompute(precomputed) is precomputed
        assert len(builds) == len(precomputed.tables) and pk.tables == {}


class TestElementOrder:
    def test_full_group_generator(self):
        assert element_order(3, 7) == 6

    def test_short_cycle(self):
        # 4, 2, 1 repeating
        assert element_order(4, 7) == 3

    def test_identity(self):
        assert element_order(1, 7) == 1

    def test_range_errors(self):
        with pytest.raises(ParameterError):
            element_order(0, 7)
        with pytest.raises(ParameterError):
            element_order(7, 7)


class TestPrimitiveRoot:
    def test_three_generates_mod_seven(self):
        assert is_primitive_root(3, 7) is True

    def test_four_does_not(self):
        assert is_primitive_root(4, 7) is False

    def test_identity_never(self):
        assert is_primitive_root(1, 7) is False

    def test_agrees_with_brute_force_below_100(self):
        primes = [p for p in range(3, 100) if is_probable_prime(p)]
        for p in primes:
            for g in range(1, p):
                powers = {slow_power(g, k, p) for k in range(1, p)}
                expected = powers == set(range(1, p))
                assert is_primitive_root(g, p) == expected, (g, p)

    def test_power_table_for_three_mod_seven(self):
        row = [mod_exp(3, x, 7) for x in range(1, 7)]
        assert row == [3, 2, 6, 4, 5, 1]
        assert set(row) == {1, 2, 3, 4, 5, 6}

    def test_power_table_for_four_mod_seven(self):
        row = [mod_exp(4, x, 7) for x in range(1, 7)]
        assert row == [4, 2, 1, 4, 2, 1]
        assert sorted(row) == [1, 1, 2, 2, 4, 4]


class TestGenGroupParams:
    def test_desk_scale_finds_the_unique_5_bit_group(self):
        params = gen_group_params(5, random.Random(0))
        assert (params.p, params.q) == (23, 11)
        residues = quadratic_residues(23)
        for g in (params.g1, params.g2):
            assert g in residues
            assert element_order(g, 23) == 11

    def test_desk_constant_generators_are_order_11_residues(self):
        residues = quadratic_residues(23)
        assert DESK_PARAMS.g1 == 4 and DESK_PARAMS.g2 == 9
        for g in (4, 9):
            assert g in residues
            assert element_order(g, 23) == 11

    def test_deterministic_for_fixed_seed(self):
        a = gen_group_params(64, random.Random(321))
        b = gen_group_params(64, random.Random(321))
        assert a == b

    def test_generated_params_validate(self):
        params = gen_group_params(64, random.Random(5))
        assert validate_group_params(params) == []

    def test_production_2048_validates(self, params_2048):
        assert validate_group_params(params_2048) == []

    def test_minimum_size(self):
        with pytest.raises(ParameterError):
            gen_group_params(4, random.Random(0))


class TestValidateGroupParams:
    def test_identity_generator_flagged(self):
        violations = validate_group_params(GroupParams(p=23, q=11, g1=1, g2=9))
        assert any("identity" in v for v in violations)

    def test_composite_modulus_flagged(self):
        violations = validate_group_params(GroupParams(p=22, q=11, g1=4, g2=9))
        assert any("not prime" in v for v in violations)

    def test_wrong_relation_flagged(self):
        violations = validate_group_params(GroupParams(p=29, q=11, g1=4, g2=9))
        assert any("2q + 1" in v for v in violations)

    def test_wrong_order_flagged(self):
        # 22 = -1 mod 23 has order 2, not 11
        violations = validate_group_params(GroupParams(p=23, q=11, g1=22, g2=9))
        assert any("order-q" in v for v in violations)

    def test_equal_generators_flagged(self):
        violations = validate_group_params(GroupParams(p=23, q=11, g1=4, g2=4))
        assert "g1 == g2" in violations

    def test_keygen_proves_each_group_once(self, proofs):
        params = gen_group_params(128, random.Random(0x0C0FFEE))
        proofs.clear()  # the search's
        cramer_shoup.keygen(params, random.Random(1))
        assert proofs == [params.q]  # p = 2q + 1 is proved from q
        proofs.clear()
        cramer_shoup.keygen(params, random.Random(2))
        assert proofs == []

    @pytest.mark.parametrize("bits", [1024, 2048])
    def test_a_standard_modulus_is_recognised_by_value(self, bits, proofs):
        params = gen_group_params(bits, random.Random(0x5EED + bits))
        cramer_shoup.keygen(params, random.Random(1))
        # The generators are still checked.
        assert "g1 is not in the order-q subgroup" in validate_group_params(replace(params, g1=params.p - 1))
        assert "g1 == g2" in validate_group_params(replace(params, g1=params.g2))
        assert proofs == []

    @pytest.mark.parametrize("bits", [1024, 2048])
    def test_a_modulus_one_bit_off_a_standard_value_is_proved_in_full(self, bits, proofs):
        standard = gen_group_params(bits, random.Random(0x0C0FFEE))
        for bit in (1, 100, bits - 2):
            p = standard.p ^ (1 << bit)
            params = GroupParams(p=p, q=(p - 1) // 2, g1=standard.g1, g2=standard.g2)
            proofs.clear()
            violations = validate_group_params(params)
            assert proofs[0] == params.q
            assert (f"q={params.q} is not prime" in violations) != is_probable_prime(params.q)
            assert (f"p={p} is not prime" in violations) != is_probable_prime(p)

    def test_composite_p_with_prime_q_is_flagged(self):
        assert "p=15 is not prime" in validate_group_params(GroupParams(p=15, q=7, g1=4, g2=9))
        # A 256-bit prime q with q = 2 (mod 3), so that 3 does not divide p = 2q + 1
        # and the Fermat test on p decides.
        rng = random.Random(0x0F0C)
        while True:
            q = rng.randrange(1 << 254, 1 << 255) | 1
            if q % 3 == 2 and is_probable_prime(q) and not is_probable_prime(2 * q + 1):
                break
        violations = validate_group_params(GroupParams(p=2 * q + 1, q=q, g1=4, g2=9))
        assert f"p={2 * q + 1} is not prime" in violations
        assert f"q={q} is not prime" not in violations

    @pytest.mark.parametrize("params_name", ["desk_params", "params_256", "params_1024", "params_2048"])
    def test_every_fixture_group_keeps_its_verdict(self, request, params_name):
        params = request.getfixturevalue(params_name)
        assert validate_group_params(params) == []
        assert is_probable_prime(params.p)  # Miller-Rabin agrees with the proof from q

    def test_caller_cannot_change_the_remembered_verdict(self):
        params = GroupParams(p=23, q=11, g1=1, g2=9)
        first = validate_group_params(params)
        expected = list(first)
        first.clear()
        first.append("tampered")
        assert validate_group_params(params) == expected


class TestSubgroupProperties:
    def test_lagrange_on_random_elements(self, desk_params):
        rng = random.Random(3)
        for _ in range(100):
            element = random_subgroup_element(desk_params, rng)
            assert mod_exp(element, desk_params.q, desk_params.p) == 1

    def test_exponent_homomorphism(self, desk_params, params_256):
        rng = random.Random(4)
        for params in (desk_params, params_256):
            for _ in range(20):
                a = rng.randrange(params.q)
                b = rng.randrange(params.q)
                lhs = mod_exp(params.g1, a + b, params.p)
                rhs = mod_exp(params.g1, a, params.p) * mod_exp(params.g1, b, params.p) % params.p
                assert lhs == rhs

    def test_jacobi_matches_exponentiation_membership(self, desk_params, params_256):
        for x in range(1, 23):
            by_exp = mod_exp(x, desk_params.q, desk_params.p) == 1
            by_jacobi = jacobi_symbol(x, desk_params.p) == 1
            assert by_exp == by_jacobi, x
        rng = random.Random(5)
        p, q = params_256.p, params_256.q
        for _ in range(25):
            x = rng.randrange(1, p)
            assert (mod_exp(x, q, p) == 1) == (jacobi_symbol(x, p) == 1)


class TestSerialization:
    def test_params_lines_roundtrip(self, params_256):
        lines = params_to_lines(params_256)
        assert lines[0].startswith("p=") and lines[0] == f"p={params_256.p:x}"
        mapping = dict(line.split("=", 1) for line in lines)
        assert params_from_mapping(mapping) == params_256

    def test_malformed_mapping(self):
        with pytest.raises(ParameterError):
            params_from_mapping({"p": "17"})
