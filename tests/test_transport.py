import hashlib
import itertools
import random

import pytest

from reference_arq import reference_stop_and_wait
from tftps.groups import ParameterError
from tftps.transport import (
    TIMEOUT,
    ChannelModel,
    FixedDelay,
    SimulatedNetwork,
    UdpNetwork,
    UniformDelay,
    flip_random_bit,
    run_scenario,
    trace_to_jsonl,
)


class TestChannelModel:
    def test_rates_validated(self):
        with pytest.raises(ParameterError):
            ChannelModel(loss_rate=1.5)
        with pytest.raises(ParameterError):
            ChannelModel(corrupt_rate=-0.1)

    def test_delay_samples(self):
        rng = random.Random(0)
        assert FixedDelay(0.25).sample(rng) == 0.25
        for _ in range(100):
            value = UniformDelay(0.1, 0.2).sample(rng)
            assert 0.1 <= value <= 0.2

    def test_flip_random_bit_changes_exactly_one_bit(self):
        rng = random.Random(1)
        data = rng.randbytes(50)
        flipped = flip_random_bit(data, rng)
        diff = [a ^ b for a, b in zip(data, flipped)]
        assert sum(bin(d).count("1") for d in diff) == 1


class TestSimulatedNetwork:
    def test_lossless_fifo_delivery(self):
        net = SimulatedNetwork(ChannelModel())
        a, b = net.endpoint(), net.endpoint()
        for i in range(20):
            a.send(bytes([i]), b.address)
        for i in range(20):
            data, src = b.recv(0.5)
            assert data == bytes([i]) and src == a.address

    def test_total_loss_means_timeout(self):
        net = SimulatedNetwork(ChannelModel(loss_rate=1.0))
        a, b = net.endpoint(), net.endpoint()
        a.send(b"gone", b.address)
        assert b.recv(0.02) is TIMEOUT

    def test_loss_pattern_replays_exactly(self):
        def pattern(seed):
            net = SimulatedNetwork(ChannelModel(loss_rate=0.1, seed=seed))
            a, b = net.endpoint(), net.endpoint()
            received = []
            for i in range(1000):
                a.send(i.to_bytes(2, "big"), b.address)
                result = b.recv(0.002)
                received.append(None if result is TIMEOUT else result[0])
            return received

        assert pattern(17) == pattern(17)
        assert pattern(17) != pattern(18)

    def test_loss_statistics_converge(self):
        net = SimulatedNetwork(ChannelModel(loss_rate=0.1, seed=5))
        a, b = net.endpoint(), net.endpoint()
        delivered = 0
        n = 10_000
        for i in range(n):
            a.send(b"x", b.address)
            if b.recv(0.002) is not TIMEOUT:
                delivered += 1
        observed_loss = 1 - delivered / n
        assert 0.08 <= observed_loss <= 0.12

    def test_duplicates(self):
        net = SimulatedNetwork(ChannelModel(duplicate_rate=1.0))
        a, b = net.endpoint(), net.endpoint()
        a.send(b"twice", b.address)
        assert b.recv(0.1)[0] == b"twice"
        assert b.recv(0.1)[0] == b"twice"

    def test_corruption_flips_one_bit(self):
        net = SimulatedNetwork(ChannelModel(corrupt_rate=1.0, seed=2))
        a, b = net.endpoint(), net.endpoint()
        original = bytes(64)
        a.send(original, b.address)
        data, _ = b.recv(0.1)
        assert sum(bin(x ^ y).count("1") for x, y in zip(original, data)) == 1

    def test_oversized_datagram(self):
        net = SimulatedNetwork(ChannelModel())
        a, b = net.endpoint(), net.endpoint()
        with pytest.raises(ParameterError):
            a.send(bytes(65508), b.address)

    def test_wiretap_records_everything_that_crossed(self):
        net = SimulatedNetwork(ChannelModel())
        a, b = net.endpoint(), net.endpoint()
        a.send(b"one", b.address)
        b.send(b"two", a.address)
        assert net.wiretap == [b"one", b"two"]


class TestUdp:
    def test_loopback_roundtrip(self):
        net = UdpNetwork()
        a, b = net.endpoint(), net.endpoint()
        a.send(b"ping", b.address)
        data, src = b.recv(1.0)
        assert data == b"ping" and src[1] == a.address[1]
        assert b.recv(0.01) is TIMEOUT
        a.close()
        b.close()

    def test_oversized_datagram(self):
        net = UdpNetwork()
        a = net.endpoint()
        with pytest.raises(ParameterError):
            a.send(bytes(70000), ("127.0.0.1", 1))
        a.close()


class TestRunScenario:
    def test_clean_run(self):
        result = run_scenario([b"alpha", b"beta"])
        assert result.outcome == "DONE"
        assert result.delivered == [b"alpha", b"beta"]
        assert result.datagrams_sent == 4
        assert result.retransmissions == 0

    def test_dropped_ack_causes_one_retransmission(self):
        result = run_scenario([b"alpha", b"beta"], {1: "drop"})
        assert result.outcome == "DONE"
        assert result.delivered == [b"alpha", b"beta"]
        assert result.retransmissions == 1
        events = [(e["kind"], e["event"]) for e in result.trace]
        assert ("ACK", "drop") in events
        assert ("DATA", "timeout") in events

    def test_corrupted_data_dropped_then_retransmitted(self):
        result = run_scenario([b"alpha", b"beta"], {2: "corrupt"})
        assert result.outcome == "DONE"
        assert result.delivered == [b"alpha", b"beta"]
        assert result.retransmissions == 1
        assert any(e["event"].startswith("dropped:") or e["event"] == "undecodable" for e in result.trace)

    def test_empty_script_equals_clean_trace(self):
        assert trace_to_jsonl(run_scenario([b"x", b"y"]).trace) == trace_to_jsonl(
            run_scenario([b"x", b"y"], {}).trace
        )

    def test_deterministic_trace(self):
        script = {0: "drop", 3: "corrupt"}
        a = run_scenario([b"a", b"b", b"c"], script)
        b = run_scenario([b"a", b"b", b"c"], script)
        assert trace_to_jsonl(a.trace) == trace_to_jsonl(b.trace)

    def test_script_index_out_of_range(self):
        with pytest.raises(ParameterError):
            run_scenario([b"only"], {99: "drop"})

    def test_unknown_action(self):
        with pytest.raises(ParameterError):
            run_scenario([b"x"], {0: "explode"})

    def test_persistent_loss_fails_after_retries(self):
        # every DATA transmission of the single frame dropped: initial + 5 retries
        script = {i: "drop" for i in range(6)}
        result = run_scenario([b"x"], script, max_retries=5)
        assert result.outcome == "FAIL"
        assert result.delivered == []

    def test_matches_reference_model_on_samples(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(1, 5)
            events = {}
            for _ in range(rng.randrange(0, 3)):
                events[rng.randrange(0, 2 * n + 2)] = rng.choice(["drop", "corrupt"])
            try:
                result = run_scenario([bytes([i]) for i in range(n)], dict(events))
            except ParameterError:
                continue  # event index beyond the datagrams this pattern produces
            outcome, delivered, datagrams = reference_stop_and_wait(n, dict(events))
            assert result.outcome == outcome
            assert [d[0] for d in result.delivered] == delivered
            assert result.datagrams_sent == datagrams

    def test_acknowledged_frames_timer_never_fires_for_a_later_frame(self):
        # seq_bits=1: DATA 0 is sent at 0.0 and again, for the third payload,
        # at 0.004; only the second emission's own deadline may time it out.
        result = run_scenario([b"a", b"b", b"c"], {4: "drop"}, seq_bits=1, timeout=0.5)
        timeouts = [(e["seq"], e["t"]) for e in result.trace if e["event"] == "timeout"]
        assert timeouts == [(0, 0.504)]
        assert result.delivered == [b"a", b"b", b"c"]

    # SHA-256 over trace_to_jsonl of every drop-only script below (208 runs),
    # computed once each retransmission timer was keyed to its own emission.
    DROP_ONLY_TRACES_SHA256 = "aa104ecbbb971396c9511fbff82617c0b3e364b01cd76e61960283e3faad5dcc"

    def test_drop_only_traces_are_pinned(self):
        digest = hashlib.sha256()
        runs = 0
        for seq_bits in (1, 16):
            for n in range(1, 5):
                payloads = [bytes([i]) * 3 for i in range(n)]
                limit = 2 * n + 4
                scripts = [{}] + [{i: "drop"} for i in range(limit)] + [
                    {i: "drop", j: "drop"} for i, j in itertools.combinations(range(limit), 2)
                ]
                for script in scripts:
                    try:
                        result = run_scenario(payloads, script, seq_bits=seq_bits)
                    except ParameterError:
                        continue  # event index beyond the datagrams this pattern produces
                    runs += 1
                    digest.update(trace_to_jsonl(result.trace).encode())
        assert runs == 208
        assert digest.hexdigest() == self.DROP_ONLY_TRACES_SHA256
