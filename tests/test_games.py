import hashlib
import json
import random
import time

import pytest

from tftps import fixed_time
from tftps.cramer_shoup import REJECT
from tftps.games import (
    FIXED,
    LEAKY,
    AdversaryContext,
    Challenge,
    GameConfig,
    OracleReply,
    RandomGuessAdversary,
    TimingDictionaryAdversary,
    calibrate_scta_budget,
    estimate_advantage,
    game_params,
    leaky_fixture,
    make_adversary,
    make_scheme,
    run_ind_cca2,
    run_ind_cca2_scta,
)
from tftps.groups import ParameterError, random_subgroup_element
from tftps.transport import ChannelModel, UniformDelay


class TestEstimateAdvantage:
    def test_balanced_is_zero(self):
        transcripts = [{"correct": i < 500} for i in range(1000)]
        advantage, _ = estimate_advantage(transcripts)
        assert advantage == 0.0

    def test_perfect_is_one(self):
        transcripts = [{"correct": True} for _ in range(1000)]
        advantage, ci = estimate_advantage(transcripts)
        assert advantage == 1.0
        assert ci == 0.0

    def test_sixty_percent(self):
        transcripts = [{"correct": i < 600} for i in range(1000)]
        advantage, ci = estimate_advantage(transcripts)
        assert advantage == pytest.approx(0.2)
        assert ci == pytest.approx(0.04, abs=0.005)

    def test_too_few_trials(self):
        with pytest.raises(ParameterError):
            estimate_advantage([{"correct": True}] * 29)


class TestGameConfig:
    def test_default_threshold(self):
        config = GameConfig(n_trials=1000)
        assert config.threshold == pytest.approx(3.0 / 1000**0.5)

    def test_minimum_trials(self):
        with pytest.raises(ParameterError):
            GameConfig(n_trials=29)


class TestIndCca2:
    def test_random_adversary_near_coin(self, params_256):
        config = GameConfig(n_trials=300, seed=1, params=params_256)
        result = run_ind_cca2(make_scheme("cs", params_256), make_adversary("random"), config)
        assert result.advantage <= config.threshold
        assert result.forfeits == 0

    def test_malleability_beats_elgamal(self, params_256):
        config = GameConfig(n_trials=100, seed=2, params=params_256)
        result = run_ind_cca2(make_scheme("elgamal", params_256), make_adversary("malleate"), config)
        assert result.advantage >= 0.99

    def test_malleability_loses_to_cramer_shoup(self, params_256):
        config = GameConfig(n_trials=100, seed=3, params=params_256)
        result = run_ind_cca2(make_scheme("cs", params_256), make_adversary("malleate"), config)
        assert result.advantage <= 0.2
        # every mauled query was rejected, never answered
        for trial in result.transcript:
            phase2 = [q for q in trial["queries"] if q["phase"] == 2]
            assert all(q["event"] == "reject" for q in phase2)

    def test_challenge_bit_roughly_uniform(self, params_256):
        config = GameConfig(n_trials=1000, seed=4, params=params_256)
        result = run_ind_cca2(make_scheme("cs", params_256), make_adversary("random"), config)
        ones = sum(t["b"] for t in result.transcript)
        assert 0.45 <= ones / 1000 <= 0.55

    def test_oracle_hygiene_challenge_never_answered(self, params_256):
        config = GameConfig(n_trials=60, seed=5, params=params_256)

        def cheating_factory(ctx):
            class CheatingAdversary(RandomGuessAdversary):
                def guess(self, challenge, oracle):
                    reply = oracle(challenge.ciphertext)  # must be refused
                    assert repr(reply.value) == "REFUSED"
                    return self.ctx.rng.getrandbits(1)

            return CheatingAdversary(ctx)

        result = run_ind_cca2(make_scheme("cs", params_256), cheating_factory, config)
        for trial in result.transcript:
            events = [q["event"] for q in trial["queries"]]
            assert "refused_challenge" in events
            assert "answered" not in events

    def test_unequal_lengths_forfeit_and_never_score(self, params_256):
        config = GameConfig(n_trials=40, seed=6, params=params_256)

        def forfeiting_factory(ctx):
            class ForfeitingAdversary(RandomGuessAdversary):
                def choose(self):
                    return b"\x01", b"\x02\x03"

            return ForfeitingAdversary(ctx)

        result = run_ind_cca2(make_scheme("cs", params_256), forfeiting_factory, config)
        assert result.forfeits == 40
        assert result.correct == 0
        assert result.advantage == 1.0  # |2*0 - 1|: forfeiting everything is maximally wrong

    def test_phase1_decryption_of_candidate_forfeits(self, params_256):
        config = GameConfig(n_trials=30, seed=7, params=params_256)

        def sneaky_factory(ctx):
            class SneakyAdversary(RandomGuessAdversary):
                def __init__(self, ctx):
                    super().__init__(ctx)
                    self.m0 = b"\x11" * 4
                    self.m1 = b"\x22" * 4

                def phase1(self, oracle):
                    ct = ctx.scheme.encrypt(ctx.pk, ctx.scheme.encode(self.m0), ctx.rng)
                    oracle(ct)  # decrypt own candidate: breaks the fairness rule

                def choose(self):
                    return self.m0, self.m1

            return SneakyAdversary(ctx)

        result = run_ind_cca2(make_scheme("cs", params_256), sneaky_factory, config)
        assert result.forfeits == 30

    def test_query_budget_refuses_excess(self, params_256):
        config = GameConfig(n_trials=30, seed=8, params=params_256, query_budget=2)

        def greedy_factory(ctx):
            class GreedyAdversary(RandomGuessAdversary):
                def phase1(self, oracle):
                    element = random_subgroup_element(ctx.params, ctx.rng)
                    replies = [
                        oracle(ctx.scheme.encrypt(ctx.pk, element, ctx.rng)) for _ in range(4)
                    ]
                    assert repr(replies[-1].value) == "REFUSED"

            return GreedyAdversary(ctx)

        result = run_ind_cca2(make_scheme("cs", params_256), greedy_factory, config)
        assert result.trials == 30


class TestTranscriptPin:
    """Seeded chosen-ciphertext runs are byte-for-byte reproducible.

    The digest covers each run's report and full transcript, so any change to
    the order of the game's random draws, or to what the oracle answers,
    changes it.  Timing runs are left out: their guesses depend on the host.
    """

    DIGEST = "7b1f53dc7884d17c4a0608359da5bd9fcafd407e04da1545249918ed6cb7dc79"

    def test_seeded_cca2_transcripts_are_pinned(self, params_256):
        toy = game_params(GameConfig(n_trials=60, security_parameter_bits=8, seed=3))
        runs = [
            ("cs", "random", GameConfig(n_trials=60, seed=1, params=params_256)),
            ("elgamal", "malleate", GameConfig(n_trials=60, seed=2, params=params_256)),
            ("cs", "malleate", GameConfig(n_trials=60, seed=3, params=params_256)),
            ("cs", "random", GameConfig(n_trials=60, seed=3, params=toy)),
            ("cs", "timedict", GameConfig(n_trials=60, seed=3, params=toy)),
        ]
        digest = hashlib.sha256()
        for scheme, adversary, config in runs:
            result = run_ind_cca2(make_scheme(scheme, config.params), make_adversary(adversary), config)
            digest.update(json.dumps(result.report(), sort_keys=True).encode())
            digest.update(json.dumps(result.transcript, sort_keys=True, default=repr).encode())
        assert digest.hexdigest() == self.DIGEST


class TestLeakyFixture:
    def test_outputs_unchanged(self, params_256):
        rng = random.Random(9)
        base = make_scheme("cs", params_256)
        leaky = leaky_fixture(base, per_bit_s=1e-6)
        pk, sk = base.keygen(random.Random(10))
        for _ in range(20):
            m = random_subgroup_element(params_256, rng)
            ct = base.encrypt(pk, m, rng)
            assert leaky.decrypt(sk, ct) == base.decrypt(sk, ct) == m
        mauled = base.maul(base.encrypt(pk, params_256.g1, rng), params_256.g2)
        assert leaky.decrypt(sk, mauled) is REJECT

    def test_observed_time_monotone_in_weight(self, params_256):
        base = make_scheme("cs", params_256)
        leaky = leaky_fixture(base, per_bit_s=50e-6)
        rng = random.Random(11)
        pk, sk = base.keygen(rng)
        light = base.encrypt(pk, base.encode(bytes(8)), rng)
        heavy = base.encrypt(pk, base.encode(b"\xff" * 8), rng)
        wins = 0
        pairs = 40
        for _ in range(pairs):
            _, t_light = fixed_time.observe(lambda: leaky.decrypt(sk, light))
            _, t_heavy = fixed_time.observe(lambda: leaky.decrypt(sk, heavy))
            if t_light.elapsed_ns < t_heavy.elapsed_ns:
                wins += 1
        assert wins >= 0.95 * pairs

    def test_leak_spins_and_never_sleeps(self, params_256, monkeypatch):
        base = make_scheme("cs", params_256)
        leaky = leaky_fixture(base, per_bit_s=50e-6)
        rng = random.Random(19)
        pk, sk = base.keygen(rng)
        heavy = base.encrypt(pk, base.encode(b"\xff" * 8), rng)

        def no_sleep(seconds):
            raise AssertionError("the planted leak slept")

        monkeypatch.setattr(time, "sleep", no_sleep)
        _, sample = fixed_time.observe(lambda: leaky.decrypt(sk, heavy))
        assert sample.elapsed_ns >= 64 * 50_000

    def test_padding_flattens_the_same_comparison(self, params_256):
        base = make_scheme("cs", params_256)
        leaky = leaky_fixture(base, per_bit_s=50e-6)
        rng = random.Random(12)
        pk, sk = base.keygen(rng)
        budget = calibrate_scta_budget(leaky, 8, rng=rng)
        light = base.encrypt(pk, base.encode(bytes(8)), rng)
        heavy = base.encrypt(pk, base.encode(b"\xff" * 8), rng)
        wins = 0
        pairs = 100
        for _ in range(pairs):
            _, t_light = fixed_time.run_fixed(budget, lambda: leaky.decrypt(sk, light))
            _, t_heavy = fixed_time.run_fixed(budget, lambda: leaky.decrypt(sk, heavy))
            if t_light < t_heavy:
                wins += 1
        assert 0.15 * pairs <= wins <= 0.85 * pairs


class TestTimingDictionaryAdversary:
    def test_one_stall_does_not_flip_the_dictionary(self, params_256):
        scheme = make_scheme("cs", params_256)
        pk, _ = scheme.keygen(random.Random(20))
        ctx = AdversaryContext(scheme=scheme, params=params_256, pk=pk, rng=random.Random(21), message_length=12)
        adversary = TimingDictionaryAdversary(ctx)
        ms = 1_000_000
        # phase 1 asks 4 light proxies, then 4 heavy ones; one light answer stalls 20 ms
        times = iter([1 * ms, 1 * ms, 20 * ms, 1 * ms, 5 * ms, 5 * ms, 5 * ms, 5 * ms])
        adversary.phase1(lambda ct: OracleReply(value=1, time_ns=next(times)))
        assert next(times, None) is None
        assert adversary.guess(Challenge(ciphertext=None, time_ns=1 * ms), oracle=None) == 0


class TestScta:
    def test_dictionary_wins_when_leak_exposed(self, params_256):
        config = GameConfig(n_trials=100, seed=13, params=params_256, message_length=12,
                            channel=ChannelModel(delay=UniformDelay(0.0, 0.001)))
        result = run_ind_cca2_scta(make_scheme("cs", params_256), make_adversary("timedict"), LEAKY, config)
        assert result.advantage >= 0.8

    def test_dictionary_blinded_by_fixed_time(self, params_256):
        config = GameConfig(n_trials=100, seed=14, params=params_256, message_length=12,
                            channel=ChannelModel(delay=UniformDelay(0.0, 0.001)))
        fixed_time.consume_overrun_events()
        result = run_ind_cca2_scta(make_scheme("cs", params_256), make_adversary("timedict"), FIXED, config)
        assert result.advantage <= 0.25
        # ~900 padded calls; scheduler spikes may overrun occasionally (< 1%)
        assert len(fixed_time.consume_overrun_events()) <= 9

    def test_random_adversary_baseline_either_mode(self, params_256):
        config = GameConfig(n_trials=200, seed=15, params=params_256, message_length=12)
        result = run_ind_cca2_scta(make_scheme("cs", params_256), make_adversary("random"), LEAKY, config)
        assert result.advantage <= config.threshold

    def test_zero_budget_degenerates_to_coin(self, params_256):
        config = GameConfig(n_trials=200, seed=16, params=params_256, message_length=12, query_budget=0)
        result = run_ind_cca2_scta(make_scheme("cs", params_256), make_adversary("timedict"), LEAKY, config)
        assert result.advantage <= config.threshold

    def test_invalid_mode(self, params_256):
        config = GameConfig(n_trials=30, seed=17, params=params_256)
        with pytest.raises(ParameterError):
            run_ind_cca2_scta(make_scheme("cs", params_256), make_adversary("random"), "loud", config)


class TestPlumbing:
    def test_make_scheme_unknown(self, params_256):
        with pytest.raises(ParameterError):
            make_scheme("rsa", params_256)

    def test_make_adversary_unknown(self):
        with pytest.raises(ParameterError):
            make_adversary("psychic")

    def test_game_params_generates_deterministically(self):
        config = GameConfig(n_trials=30, security_parameter_bits=64, seed=99)
        assert game_params(config) == game_params(config)

    def test_report_shape(self, params_256):
        config = GameConfig(n_trials=50, seed=18, params=params_256)
        result = run_ind_cca2(make_scheme("cs", params_256), make_adversary("random"), config)
        report = result.report(game="cca2", scheme="cs", adversary="random", mode=None, seed=18)
        for field in ("game", "scheme", "adversary", "trials", "correct", "advantage", "ci99", "mode", "seed"):
            assert field in report
