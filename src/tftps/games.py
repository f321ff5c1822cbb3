"""Executable indistinguishability experiments against the implementation.

Two games, both run as wrapper programs around a pluggable adversary:

* the chosen-ciphertext game: the adversary gets a decryption oracle
  before and after the challenge, submits two equal-length messages, and
  must tell which one the challenger encrypted (the oracle refuses the
  challenge ciphertext itself);
* the timing variant: every oracle answer and the challenge come with
  observed execution times (plus sampled network delay), and the scheme
  under test runs either with a planted timing leak exposed (LEAKY) or
  padded to a worst-case fixed-time budget (FIXED).

Statistical advantage |2*Pr[correct] - 1| with a normal-approximation
confidence interval substitutes for the asymptotic negligibility bound,
which a finite experiment cannot assert.

A textbook multiplicative-homomorphic scheme in the same group serves as
the vulnerable control: its mauled ciphertexts decrypt to related
plaintexts, which the malleability adversary converts into a near-perfect
distinguisher, while the same attack collapses against Cramer-Shoup's
validity check.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from . import cramer_shoup, fixed_time
from .cramer_shoup import REJECT, CsCiphertext
from .groups import GroupParams, ParameterError, Sentinel, gen_group_params, mod_exp, random_subgroup_element
from .transport import ChannelModel, FixedDelay

LEAKY = "leaky"
FIXED = "fixed"

LEAK_PER_BIT_S = 50e-6  # planted leak: 50 microseconds per set plaintext bit

Z_99 = 2.5758293035489004


REFUSED = Sentinel("REFUSED")


@dataclass(frozen=True)
class GameConfig:
    n_trials: int = 200
    security_parameter_bits: int = 256
    seed: int = 0
    query_budget: int = 32
    message_length: int = 16
    channel: ChannelModel | None = None
    params: GroupParams | None = None
    pin_cpu: bool = False

    def __post_init__(self):
        if self.n_trials < 30:
            raise ParameterError("n_trials must be >= 30")
        if self.query_budget < 0:
            raise ParameterError("query budget must be >= 0")

    @property
    def threshold(self) -> float:
        return 3.0 / math.sqrt(self.n_trials)


@dataclass
class GameResult:
    trials: int
    correct: int
    forfeits: int
    advantage: float
    ci99: float
    threshold: float
    transcript: list[dict] = field(default_factory=list)

    def report(self, **meta) -> dict:
        out = {
            "trials": self.trials,
            "correct": self.correct,
            "advantage": round(self.advantage, 6),
            "ci99": round(self.ci99, 6),
            "forfeits": self.forfeits,
            "threshold": round(self.threshold, 6),
        }
        out.update(meta)
        return out


def max_message_length(params: GroupParams) -> int:
    """Largest payload (octets) that encodes into the group with its prefix byte."""
    return (params.q.bit_length() - 1) // 8 - 1


def estimate_advantage(transcripts: list[dict]) -> tuple[float, float]:
    """Advantage and 99% CI half-width of the underlying success proportion."""
    trials = len(transcripts)
    if trials < 30:
        raise ParameterError("need at least 30 trials to estimate an advantage")
    correct = sum(1 for t in transcripts if t.get("correct"))
    p_hat = correct / trials
    advantage = abs(2.0 * p_hat - 1.0)
    ci99 = Z_99 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return advantage, ci99


# ---------------------------------------------------------------------------
# Scheme adapters: a uniform keygen/encrypt/decrypt/maul surface over group
# elements, so the same game loop drives both schemes.
# ---------------------------------------------------------------------------

class _Scheme:
    """The group a scheme works in, and its message encoding."""

    def __init__(self, params: GroupParams):
        self.params = params

    def encode(self, data: bytes) -> int:
        return cramer_shoup.encode_message(data, self.params)

    def decode(self, element: int) -> bytes:
        return cramer_shoup.decode_message(element, self.params)


class CramerShoupScheme(_Scheme):
    name = "cs"

    def keygen(self, rng):
        return cramer_shoup.keygen(self.params, rng)

    def encrypt(self, pk, element: int, rng):
        return cramer_shoup.encrypt_with_rng(pk, element, rng)

    def decrypt(self, sk, ct):
        try:
            return cramer_shoup.decrypt(sk, self.params, ct)
        except ParameterError:
            return REJECT

    def maul(self, ct: CsCiphertext, factor: int) -> CsCiphertext:
        return CsCiphertext(u1=ct.u1, u2=ct.u2, e=ct.e * factor % self.params.p, v=ct.v)


@dataclass(frozen=True)
class _EgCiphertext:
    u: int
    e: int


class _ElGamalScheme(_Scheme):
    """Textbook multiplicative ElGamal in the same subgroup; no validity tag.

    Vulnerable control only: accepts mauled ciphertexts, which is exactly
    the property the games demonstrate.  Not part of the public surface.
    """

    name = "elgamal"

    def keygen(self, rng):
        z = rng.randrange(self.params.q)
        return mod_exp(self.params.g1, z, self.params.p), z

    def encrypt(self, pk, element: int, rng):
        r = 0
        while r == 0:
            r = rng.randrange(self.params.q)
        p = self.params.p
        return _EgCiphertext(u=mod_exp(self.params.g1, r, p), e=mod_exp(pk, r, p) * element % p)

    def decrypt(self, sk, ct):
        if not isinstance(ct, _EgCiphertext):
            return REJECT
        p, q = self.params.p, self.params.q
        if not (1 <= ct.u < p and 1 <= ct.e < p):
            return REJECT
        return ct.e * mod_exp(ct.u, (q - sk) % q, p) % p

    def maul(self, ct: _EgCiphertext, factor: int) -> _EgCiphertext:
        return _EgCiphertext(u=ct.u, e=ct.e * factor % self.params.p)


def make_scheme(name: str, params: GroupParams):
    if name == "cs":
        return CramerShoupScheme(params)
    if name == "elgamal":
        return _ElGamalScheme(params)
    raise ParameterError(f"unknown scheme {name!r}")


def leaky_fixture(scheme, per_bit_s: float = LEAK_PER_BIT_S):
    """Wrap a scheme so decryption time grows with the plaintext's set bits.

    The bits counted are those of the decoded message (falling back to the
    element's own bits when it is not a message encoding).  Outputs are
    untouched; only the elapsed time changes.  The leak is a spin to a
    deadline, not a sleep, because a sleep can overshoot by milliseconds on
    a busy host.  Everything but decryption is the wrapped scheme's own.
    """

    def weight(element) -> int:
        try:
            payload = scheme.decode(element)
        except cramer_shoup.EncodingError:
            payload = element.to_bytes((element.bit_length() + 7) // 8 or 1, "big")
        return sum(bin(byte).count("1") for byte in payload)

    class _LeakyScheme:
        name = scheme.name + "+leak"

        def __getattr__(self, attr):
            return getattr(scheme, attr)

        def decrypt(self, sk, ct):
            result = scheme.decrypt(sk, ct)
            if result is not REJECT:
                deadline = time.perf_counter_ns() + int(per_bit_s * weight(result) * 1e9)
                while time.perf_counter_ns() < deadline:
                    pass
            return result

    return _LeakyScheme()


# ---------------------------------------------------------------------------
# Oracle and challenger.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReply:
    value: object  # plaintext element, REJECT, or REFUSED
    time_ns: int | None = None


@dataclass(frozen=True)
class Challenge:
    ciphertext: object
    time_ns: int | None = None


class DecryptionOracle:
    """Phase-aware decryption oracle with query budget and transcript.

    ``answer(ct)`` returns ``(value, time_ns)``; the time is None in a game
    that reports none.
    """

    def __init__(self, answer, budget: int, transcript: list):
        self._answer = answer
        self._budget = budget
        self._transcript = transcript
        self.phase = 1
        self.challenge_ct = None
        self.results: list[object] = []
        self.queries = 0

    def __call__(self, ct) -> OracleReply:
        self.queries += 1
        if self.queries > self._budget:
            self._transcript.append({"phase": self.phase, "event": "budget_exhausted"})
            return OracleReply(REFUSED)
        if self.phase == 2 and ct == self.challenge_ct:
            self._transcript.append({"phase": self.phase, "event": "refused_challenge"})
            return OracleReply(REFUSED)
        value, time_ns = self._answer(ct)
        self._transcript.append(
            {"phase": self.phase, "event": "reject" if value is REJECT else "answered"}
        )
        if value is not REJECT:
            self.results.append(value)
        return OracleReply(value, time_ns)


@dataclass
class AdversaryContext:
    scheme: object
    params: GroupParams
    pk: object
    rng: random.Random
    message_length: int
    element_mode: bool = False  # tiny groups: messages are raw element bytes

    def encode(self, data: bytes) -> int:
        """Message bytes -> group element, honoring the group's capacity."""
        if not self.element_mode:
            return self.scheme.encode(data)
        element = int.from_bytes(data, "big")
        if not self.params.is_member(element):
            raise cramer_shoup.EncodingError(f"{element} is not a subgroup member")
        return element

    def random_message(self) -> bytes:
        """A fresh random message of the game's fixed encoded length."""
        if not self.element_mode:
            return self.rng.randbytes(self.message_length)
        element = random_subgroup_element(self.params, self.rng)
        return element.to_bytes(self.message_length, "big")

    def distinct_messages(self) -> tuple[bytes, bytes]:
        """Two different random messages, the first drawn first."""
        first = self.random_message()
        second = self.random_message()
        while second == first:
            second = self.random_message()
        return first, second


# ---------------------------------------------------------------------------
# Adversaries.  A factory builds one instance per trial; instances implement
# phase1(oracle), choose() -> (m0, m1) bytes, guess(challenge, oracle) -> bit.
# ---------------------------------------------------------------------------

class RandomGuessAdversary:
    """Baseline: ignores everything and flips a coin."""

    name = "random"

    def __init__(self, ctx: AdversaryContext):
        self.ctx = ctx

    def phase1(self, oracle) -> None:
        pass

    def choose(self) -> tuple[bytes, bytes]:
        return self.ctx.distinct_messages()

    def guess(self, challenge: Challenge, oracle) -> int:
        return self.ctx.rng.getrandbits(1)


class MalleabilityAdversary:
    """Multiplies the challenge's payload component and asks the oracle.

    A scheme without ciphertext validity answers with the related
    plaintext, identifying the challenge bit exactly; a scheme that binds
    its components rejects, leaving a coin flip.
    """

    name = "malleate"

    def __init__(self, ctx: AdversaryContext):
        self.ctx = ctx
        self.m0 = None
        self.m1 = None

    def phase1(self, oracle) -> None:
        pass

    def choose(self) -> tuple[bytes, bytes]:
        self.m0, self.m1 = self.ctx.distinct_messages()
        return self.m0, self.m1

    def guess(self, challenge: Challenge, oracle) -> int:
        scheme, params = self.ctx.scheme, self.ctx.params
        factor = params.g1
        mauled = scheme.maul(challenge.ciphertext, factor)
        reply = oracle(mauled)
        if reply.value is REJECT or reply.value is REFUSED:
            return self.ctx.rng.getrandbits(1)
        expect0 = self.ctx.encode(self.m0) * factor % params.p
        expect1 = self.ctx.encode(self.m1) * factor % params.p
        if reply.value == expect0:
            return 0
        if reply.value == expect1:
            return 1
        return self.ctx.rng.getrandbits(1)


class TimingDictionaryAdversary:
    """Builds a per-class decryption-time dictionary, classifies the challenge.

    Phase 1 encrypts proxy messages (same bit-weight classes as its
    candidates, never the candidates themselves) and measures the oracle's
    answer times; the guess is the class whose median time is nearest the
    challenge time.  The median, unlike the mean, ignores one host stall
    among a class's samples.
    """

    name = "timedict"
    samples_per_class = 4

    def __init__(self, ctx: AdversaryContext):
        self.ctx = ctx
        self.medians: dict[int, float] | None = None
        k = ctx.message_length
        self.m0 = bytes(k)  # all-zero bits
        self.m1 = b"\xff" * k  # all-one bits

    def phase1(self, oracle) -> None:
        if self.ctx.element_mode:
            return  # weight classes need byte payloads; degrade to coin flips
        k = self.ctx.message_length
        low = bytes(k - 1) + b"\x01"  # weight 1, distinct from m0
        high = b"\xff" * (k - 1) + b"\xfe"  # weight 8k-1, distinct from m1
        times: dict[int, list[int]] = {0: [], 1: []}
        for bit, proxy in ((0, low), (1, high)):
            element = self.ctx.encode(proxy)
            for _ in range(self.samples_per_class):
                ct = self.ctx.scheme.encrypt(self.ctx.pk, element, self.ctx.rng)
                reply = oracle(ct)
                if reply.value is REFUSED or reply.time_ns is None:
                    continue
                times[bit].append(reply.time_ns)
        if times[0] and times[1]:
            self.medians = {bit: statistics.median(times[bit]) for bit in (0, 1)}

    def choose(self) -> tuple[bytes, bytes]:
        if self.ctx.element_mode:
            return self.ctx.distinct_messages()
        return self.m0, self.m1

    def guess(self, challenge: Challenge, oracle) -> int:
        if self.medians is None or challenge.time_ns is None:
            return self.ctx.rng.getrandbits(1)
        d0 = abs(challenge.time_ns - self.medians[0])
        d1 = abs(challenge.time_ns - self.medians[1])
        if d0 == d1:
            return self.ctx.rng.getrandbits(1)
        return 0 if d0 < d1 else 1


_ADVERSARIES = {
    "random": RandomGuessAdversary,
    "malleate": MalleabilityAdversary,
    "timedict": TimingDictionaryAdversary,
}


def make_adversary(name: str):
    try:
        return _ADVERSARIES[name]
    except KeyError:
        raise ParameterError(f"unknown adversary {name!r}") from None


# ---------------------------------------------------------------------------
# Game runners.
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _pinned_cpu(enabled: bool):
    """Pin the process to one CPU for the duration (where the platform allows)."""
    previous = None
    if enabled:
        try:
            previous = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(previous)})
        except (AttributeError, OSError):
            previous = None
    try:
        yield
    finally:
        if previous is not None:
            try:
                os.sched_setaffinity(0, previous)
            except OSError:
                pass


def game_params(config: GameConfig, rng: random.Random | None = None) -> GroupParams:
    """The group a game should run in: explicit params or a seeded generation."""
    if config.params is not None:
        return config.params
    return gen_group_params(config.security_parameter_bits, rng or random.Random(config.seed ^ 0x9A11))


def _message_length(params: GroupParams, config: GameConfig) -> tuple[int, bool]:
    """Octets per game message, and whether messages are raw group elements."""
    capacity = max_message_length(params)
    if capacity < 1:
        # toy groups cannot hold a prefixed byte payload: messages are the
        # fixed-width big-endian bytes of raw subgroup elements instead
        return (params.p.bit_length() + 7) // 8, True
    return min(config.message_length, capacity), False


def _run_trials(scheme, adversary_factory, config: GameConfig, timed_answer=None) -> GameResult:
    """Play the game n_trials times; timed_answer(sk), if given, times the answers."""
    rng = random.Random(config.seed)
    transcript: list[dict] = []
    message_length, element_mode = _message_length(scheme.params, config)

    for trial in range(config.n_trials):
        pk, sk = scheme.keygen(rng)
        queries: list[dict] = []
        if timed_answer is not None:
            answer = timed_answer(sk)
        else:
            answer = lambda ct: (scheme.decrypt(sk, ct), None)
        oracle = DecryptionOracle(answer, config.query_budget, queries)
        ctx = AdversaryContext(
            scheme=scheme,
            params=scheme.params,
            pk=pk,
            rng=rng,
            message_length=message_length,
            element_mode=element_mode,
        )
        adversary = adversary_factory(ctx)

        record = {"trial": trial, "queries": queries, "forfeit": False, "correct": False}
        transcript.append(record)

        adversary.phase1(oracle)
        phase1_results = list(oracle.results)
        m0, m1 = adversary.choose()

        if len(m0) != len(m1):
            record["forfeit"] = "unequal message lengths"
            continue
        try:
            elem0, elem1 = ctx.encode(m0), ctx.encode(m1)
        except cramer_shoup.EncodingError as exc:
            record["forfeit"] = f"unencodable message: {exc}"
            continue
        if elem0 in phase1_results or elem1 in phase1_results:
            record["forfeit"] = "challenge message was decrypted in phase 1"
            continue

        b = rng.getrandbits(1)
        record["b"] = b
        challenge_elem = elem1 if b else elem0
        ct_star = scheme.encrypt(pk, challenge_elem, rng)
        # the timing game also reports the responder's processing of the challenge
        challenge = Challenge(ct_star, answer(ct_star)[1] if timed_answer is not None else None)

        oracle.phase = 2
        oracle.challenge_ct = ct_star
        b_prime = adversary.guess(challenge, oracle)
        record["b_prime"] = b_prime
        record["correct"] = b_prime == b

    advantage, ci99 = estimate_advantage(transcript)
    return GameResult(
        trials=config.n_trials,
        correct=sum(1 for t in transcript if t["correct"]),
        forfeits=sum(1 for t in transcript if t["forfeit"]),
        advantage=advantage,
        ci99=ci99,
        threshold=config.threshold,
        transcript=transcript,
    )


def run_ind_cca2(scheme, adversary_factory, config: GameConfig) -> GameResult:
    """The chosen-ciphertext experiment without timing information."""
    return _run_trials(scheme, adversary_factory, config)


def run_ind_cca2_scta(
    scheme,
    adversary_factory,
    timing_mode: str,
    config: GameConfig,
) -> GameResult:
    """The chosen-ciphertext experiment with a timing oracle.

    LEAKY mode exposes the planted decryption leak; FIXED mode runs the
    same leaky scheme under a worst-case fixed-time budget calibrated here.
    Sampled channel delay is added to every reported time; it is
    independent of the challenge bit by construction.
    Timing experiments should run single-threaded; config.pin_cpu
    additionally pins the process to one CPU where the platform allows.
    """
    if timing_mode not in (LEAKY, FIXED):
        raise ParameterError(f"timing_mode must be '{LEAKY}' or '{FIXED}'")

    setup_rng = random.Random(config.seed ^ 0x5C7A)
    leaky = leaky_fixture(scheme)
    message_length, element_mode = _message_length(leaky.params, config)
    if timing_mode == FIXED and element_mode:
        raise ParameterError(
            "fixed-mode calibration needs a group large enough for byte messages"
        )

    delay_model = config.channel.delay if config.channel is not None else FixedDelay(0.0)
    delay_rng = random.Random(config.seed ^ 0xDE1A)

    def timed_answer(sk):
        def answer(ct):
            operation = lambda: leaky.decrypt(sk, ct)
            if timing_mode == FIXED:
                value, elapsed_ns = fixed_time.run_fixed(budget, operation)
            else:
                value, sample = fixed_time.observe(operation)
                elapsed_ns = sample.elapsed_ns
            delay_ns = int(delay_model.sample(delay_rng) * 1e9)
            return value, elapsed_ns + delay_ns

        return answer

    with _pinned_cpu(config.pin_cpu):
        if timing_mode == FIXED:
            budget = calibrate_scta_budget(leaky, message_length, rng=setup_rng)
        return _run_trials(leaky, adversary_factory, config, timed_answer)


def calibrate_scta_budget(
    leaky_scheme,
    message_length: int,
    rng: random.Random | None = None,
    safety_factor: float = 1.5,
) -> fixed_time.TimeBudget:
    """Worst-case budget for the timing game's padded decryption.

    Calibrates against the maximum-weight message so the planted leak never
    overruns the budget during the experiment.
    """
    rng = rng or random.Random(0x5C7A)
    pk, sk = leaky_scheme.keygen(rng)
    worst = leaky_scheme.encode(b"\xff" * message_length)
    ct = leaky_scheme.encrypt(pk, worst, rng)
    op_class = fixed_time.OpClass(name="scta.decrypt", input_length=message_length)
    return fixed_time.calibrate(
        op_class, lambda: leaky_scheme.decrypt(sk, ct), n_samples=30, safety_factor=safety_factor
    )
