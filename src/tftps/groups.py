"""Big-integer arithmetic over prime-order subgroups of Z_p*.

Every cryptographic piece of the suite works inside the subgroup of
quadratic residues of a safe prime p = 2q + 1, which has prime order q.
Conventions used throughout the package:

* scalars (exponents) are plain ints in ``[0, q)``
* group elements are plain ints in ``[1, p)`` with ``x^q = 1 (mod p)``

Small demonstration groups (including the full multiplicative group of a
small prime and its primitive roots) are supported alongside production
1024/2048-bit groups.

Every exponentiation goes through ``mod_exp``.  It uses the builtin ``pow``,
or, when the caller passes a table of the base's powers from
``fixed_base_table``, raises the base through that table at about a fifth
of the multiplications.  Neither path is constant-time.
"""

from __future__ import annotations

import contextlib
import functools
import random
import threading
from dataclasses import dataclass


class ParameterError(ValueError):
    """An argument violates an operation's preconditions."""


class Sentinel:
    """A named distinguished result, such as REJECT or TIMEOUT; compare it with ``is``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


_SYSTEM_RANDOM = random.SystemRandom()

# Trial-division primes used to pre-screen candidates before Miller-Rabin.
def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(2000)

# Standardized safe-prime moduli used for production key sizes.  Searching
# for a fresh safe prime at these sizes takes minutes in pure Python, and
# fixed, publicly vetted moduli are standard practice; generators are still
# drawn from the caller's RNG.  1024-bit: RFC 2409 group 2; 2048-bit:
# RFC 3526 group 14.  Both satisfy p = 2q + 1 with q prime.
_WELL_KNOWN_SAFE_PRIMES = {
    1024: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
        "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
        "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
        "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381"
        "FFFFFFFFFFFFFFFF",
        16,
    ),
    2048: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
        "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
        "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
        "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
        "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
        "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
        "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
        "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
        "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
        16,
    ),
}


# ---------------------------------------------------------------------------
# Operation tracing.  When enabled, mod_exp appends one record per call so
# tests can assert that secret-dependent code paths execute the exact same
# operation sequence (e.g. accept vs reject in decryption).
# ---------------------------------------------------------------------------

_trace_local = threading.local()


@contextlib.contextmanager
def trace_operations():
    """Record (op, exponent_bits, modulus_bits) tuples for the enclosed block."""
    trace: list[tuple[str, int, int]] = []
    _trace_local.trace = trace
    try:
        yield trace
    finally:
        _trace_local.trace = None


def mod_exp(base: int, exponent: int, modulus: int, table: tuple[int, ...] | None = None) -> int:
    """base**exponent mod modulus.

    table, if given, is ``fixed_base_table(base, modulus)``; the base is
    raised through it when the exponent fits it, and by the builtin ``pow``
    otherwise.  Neither path is constant-time: CPython's big-int arithmetic
    takes time that depends on the operand values, and the table path's time
    depends on the exponent's base-32 digits.  The timing defence for secret
    exponents is the padding that ``fixed_time.run_fixed`` puts around the
    key unwrap, not this function.
    """
    if modulus < 2:
        raise ParameterError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise ParameterError("exponent must be non-negative")
    trace = getattr(_trace_local, "trace", None)
    if trace is not None:
        trace.append(("mod_exp", exponent.bit_length(), modulus.bit_length()))
    if table is not None and exponent.bit_length() <= _WINDOW_BITS * len(table):
        return _table_pow(table, exponent, modulus)
    return pow(base, exponent, modulus)


# ---------------------------------------------------------------------------
# Fixed-base exponentiation (Brickell, Gordon, McCurley & Wilson, "Fast
# exponentiation with precomputation", EUROCRYPT '92).  The table of a base g
# holds g^(32^i) mod p for every base-32 digit of an exponent as long as p.
# Writing e = sum d_i 32^i, g^e is the product over d = 31..1 of (product of
# the g^(32^i) with d_i = d)^d, which the bucket method gets in one
# multiplication per nonzero digit plus 62: about 460 multiplications at 2048
# bits, where ``pow`` needs about 2,460.  A table costs about one ``pow`` to
# build and 0.12 MB at 2048 bits.
# ---------------------------------------------------------------------------

_WINDOW_BITS = 5


def fixed_base_table(base: int, modulus: int) -> tuple[int, ...]:
    """The table through which ``mod_exp`` raises base mod modulus to any exponent no longer than the modulus."""
    digits = -(-modulus.bit_length() // _WINDOW_BITS)
    power = base % modulus
    table = [power]
    for _ in range(digits - 1):
        # Five squarings, as fast as pow(power, 32, modulus); every pow
        # call left in this module is then a whole exponentiation.
        for _ in range(_WINDOW_BITS):
            power = power * power % modulus
        table.append(power)
    return tuple(table)


def _table_pow(table: tuple[int, ...], exponent: int, modulus: int) -> int:
    buckets = [1] * (1 << _WINDOW_BITS)
    mask = (1 << _WINDOW_BITS) - 1
    for power in table:
        if not exponent:
            break
        digit = exponent & mask
        if digit:
            buckets[digit] = buckets[digit] * power % modulus
        exponent >>= _WINDOW_BITS
    result = running = 1
    for digit in range(mask, 0, -1):
        running = running * buckets[digit] % modulus
        result = result * running % modulus
    return result


def element_order(g: int, p: int) -> int:
    """Smallest k >= 1 with g^k = 1 (mod p), by linear scan.

    Meant for small demonstration primes only.
    """
    if g < 1 or g >= p:
        raise ParameterError(f"g must be in [1, p), got g={g}, p={p}")
    value = g % p
    k = 1
    while value != 1:
        value = (value * g) % p
        k += 1
        if k > p:
            raise ParameterError(f"{g} has no finite order mod {p} (p not prime?)")
    return k


def is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the full multiplicative group of the prime p."""
    return element_order(g, p) == p - 1


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0.

    For a safe prime p = 2q + 1 this gives subgroup membership without an
    exponentiation: x is a quadratic residue (order-q element) iff
    (x/p) = 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ParameterError("jacobi_symbol requires odd n > 0")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_probable_prime(n: int, rounds: int = 64, rng: random.Random | None = None) -> bool:
    """Miller-Rabin with `rounds` random bases (error probability <= 4^-rounds)."""
    if n < 2:
        return False
    for prime in _SMALL_PRIMES:
        if n == prime:
            return True
        if n % prime == 0:
            return False
    rng = rng or _SYSTEM_RANDOM
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """A safe-prime group: p = 2q + 1 with two generators of the order-q subgroup."""

    p: int
    q: int
    g1: int
    g2: int

    @property
    def bits(self) -> int:
        return self.p.bit_length()

    def is_member(self, x: int) -> bool:
        """Membership in the order-q subgroup (the quadratic residues of p)."""
        return 1 <= x < self.p and jacobi_symbol(x, self.p) == 1


#: Tiny group used by brute-force oracles and fast tests: the unique 5-bit
#: safe prime.  4 and 9 are quadratic residues mod 23, hence of order 11.
DESK_PARAMS = GroupParams(p=23, q=11, g1=4, g2=9)


def _search_safe_prime(bit_length: int, rng: random.Random) -> tuple[int, int]:
    """Random search for q prime with p = 2q + 1 prime and p of bit_length bits."""
    lo = 1 << (bit_length - 2)
    hi = 1 << (bit_length - 1)
    while True:
        q = rng.randrange(lo, hi) | 1
        if any(q % sp == 0 and q != sp for sp in _SMALL_PRIMES):
            continue
        p = 2 * q + 1
        if any(p % sp == 0 and p != sp for sp in _SMALL_PRIMES):
            continue
        # Cheap screen first, full 64 rounds once both survive.
        if not is_probable_prime(q, rounds=2, rng=rng):
            continue
        if not is_probable_prime(p, rounds=2, rng=rng):
            continue
        if is_probable_prime(q, rounds=64, rng=rng) and is_probable_prime(p, rounds=64, rng=rng):
            return p, q


def random_subgroup_element(params: GroupParams, rng: random.Random) -> int:
    """Uniform random element of the order-q subgroup, never the identity."""
    while True:
        x = rng.randrange(2, params.p)
        e = (x * x) % params.p
        if e != 1:
            return e


def gen_group_params(bit_length: int, rng: random.Random | None = None) -> GroupParams:
    """Generate group parameters; deterministic for a seeded rng.

    Sizes 1024 and 2048 use standardized safe-prime moduli (fresh search at
    those sizes is impractical in pure Python); smaller sizes are searched
    randomly.  Generators are always drawn from the rng.
    """
    if bit_length < 5:
        raise ParameterError("bit_length must be at least 5")
    rng = rng or _SYSTEM_RANDOM
    if bit_length in _WELL_KNOWN_SAFE_PRIMES:
        p = _WELL_KNOWN_SAFE_PRIMES[bit_length]
        q = (p - 1) // 2
    else:
        p, q = _search_safe_prime(bit_length, rng)
    params_pq = GroupParams(p, q, 0, 0)
    g1 = random_subgroup_element(params_pq, rng)
    g2 = g1
    while g2 == g1:
        g2 = random_subgroup_element(params_pq, rng)
    return GroupParams(p=p, q=q, g1=g1, g2=g2)


def validate_group_params(params: GroupParams) -> list[str]:
    """Return a list of violated invariants; empty means the params are sound.

    The standardized moduli of ``gen_group_params`` are recognised by value;
    any other p and q are proved.  Memoised per params (the primality proofs
    dominate keygen); every call returns a fresh list.
    """
    return list(_group_violations(params))


@functools.lru_cache(maxsize=16)
def _group_violations(params: GroupParams) -> tuple[str, ...]:
    violations = []
    p, q = params.p, params.q
    if p == 2 * q + 1 and _WELL_KNOWN_SAFE_PRIMES.get(p.bit_length()) == p:
        # RFC 2409 section 6.2 and RFC 3526 section 3 publish these moduli as
        # safe primes; recognising them by value spares 64 rounds on q.
        p_prime = q_prime = True
    elif (q_prime := is_probable_prime(q, rounds=64)) and q > 2 and p == 2 * q + 1:
        # Pocklington's criterion with the prime factor q > sqrt(p) - 1 of
        # p - 1 (Brillhart, Lehmer & Selfridge, Math. Comp. 29, 1975): p is
        # prime iff 2^(p-1) = 1 (mod p) and gcd(2^2 - 1, p) = 1.  One
        # exponentiation where Miller-Rabin takes 64.
        p_prime = p % 3 != 0 and pow(2, p - 1, p) == 1
    else:
        p_prime = is_probable_prime(p, rounds=64)
    if not p_prime:
        violations.append(f"p={p} is not prime")
    if not q_prime:
        violations.append(f"q={q} is not prime")
    if p != 2 * q + 1:
        violations.append("p != 2q + 1")
    for name, g in (("g1", params.g1), ("g2", params.g2)):
        if not 1 <= g < p:
            violations.append(f"{name}={g} out of range [1, p)")
        elif g == 1:
            violations.append(f"{name} is the identity")
        elif mod_exp(g, q, p) != 1:
            violations.append(f"{name} is not in the order-q subgroup")
    if params.g1 == params.g2:
        violations.append("g1 == g2")
    return tuple(violations)


# ---------------------------------------------------------------------------
# Key-file serialization: one text section of `name=<hex>` lines.
# ---------------------------------------------------------------------------

def params_to_lines(params: GroupParams) -> list[str]:
    return [
        f"p={params.p:x}",
        f"q={params.q:x}",
        f"g1={params.g1:x}",
        f"g2={params.g2:x}",
    ]


def params_from_mapping(fields: dict[str, str]) -> GroupParams:
    try:
        return GroupParams(
            p=int(fields["p"], 16),
            q=int(fields["q"], 16),
            g1=int(fields["g1"], 16),
            g2=int(fields["g2"], 16),
        )
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed group parameter section: {exc}") from exc
