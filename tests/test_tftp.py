import errno
import hashlib
import logging
import os
import random
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from tftps import arq, cramer_shoup, groups, records, tftp
from tftps.cramer_shoup import keygen
from tftps.groups import ParameterError
from tftps.packets import (
    ERR_ACCESS_VIOLATION,
    ERR_DISK_FULL,
    ERR_NOT_DEFINED,
    ERR_SECURITY,
    ERR_UNKNOWN_TID,
    SEC_SCHEME,
    AckPacket,
    DataPacket,
    ErrorPacket,
    OptionAck,
    ReadRequest,
    SecurityOptions,
    TransferPolicy,
    WriteRequest,
    decode_packet,
    encode_packet,
)
from tftps.tftp import (
    _DALLY_SLOTS,
    PLAINTEXT_PER_BLOCK,
    SECURITY_FAILURE,
    KeyStore,
    TftpClient,
    TftpServer,
    _Dallier,
    key_exchange_receive,
    key_exchange_send,
)
from tftps.transport import TIMEOUT, ChannelModel, SimulatedNetwork, UdpNetwork


@pytest.fixture(scope="module")
def keypair_1024(params_1024):
    return keygen(params_1024, random.Random(0xAA))


@pytest.fixture()
def keystore(keypair_1024):
    store = KeyStore()
    entry = store.add(*keypair_1024)
    return store, entry


@contextmanager
def running_server(net, tmp_path, store, **kwargs):
    kwargs.setdefault("rng", random.Random(1))
    kwargs.setdefault("timeout", 0.1)
    kwargs.setdefault("decrypt_budget", None)
    server = TftpServer(net, root=tmp_path, keystore=store, **kwargs)
    stop = threading.Event()
    thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        stop.set()
        thread.join(timeout=5)


def sources_within(probe, seconds):
    """The sources of every datagram the probe receives in the next seconds."""
    sources = set()
    deadline = time.monotonic() + seconds
    while (left := deadline - time.monotonic()) > 0:
        reply = probe.recv(left)
        if reply is not TIMEOUT:
            sources.add(reply[1])
    return sources


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestKeyExchange:
    def test_roundtrip_recovers_material(self, keypair_1024, params_1024):
        pk, sk = keypair_1024
        rng = random.Random(2)
        material, chunks = key_exchange_send(pk, rng)
        keys = key_exchange_receive(chunks, sk, params_1024)
        assert keys is not SECURITY_FAILURE
        assert keys.enc_key == material[:32]
        assert keys.mac_key == material[32:]

    def test_chunk_arithmetic_at_2048(self, params_2048):
        pk, sk = keygen(params_2048, random.Random(3))
        material, chunks = key_exchange_send(pk, random.Random(4))
        wire_len = sum(len(c) for c in chunks)
        # four length-prefixed 256-octet integers: 4 * (2 + 256)
        assert wire_len == 1032
        assert len(chunks) == 3
        assert [len(c) for c in chunks] == [512, 512, 8]

    def test_chunk_arithmetic_at_1024(self, keypair_1024):
        pk, _ = keypair_1024
        _, chunks = key_exchange_send(pk, random.Random(5))
        assert sum(len(c) for c in chunks) == 4 * (2 + 128)
        assert len(chunks) == 2

    def test_group_too_small_for_material(self, params_256):
        pk, _ = keygen(params_256, random.Random(6))
        with pytest.raises(cramer_shoup.EncodingError):
            key_exchange_send(pk, random.Random(7))

    def test_tampered_chunk_fails(self, keypair_1024, params_1024):
        pk, sk = keypair_1024
        rng = random.Random(8)
        for trial in range(20):
            _, chunks = key_exchange_send(pk, rng)
            blob = bytearray(b"".join(chunks))
            bit = rng.randrange(len(blob) * 8)
            blob[bit // 8] ^= 1 << (bit % 8)
            outcome = key_exchange_receive([bytes(blob)], sk, params_1024)
            assert outcome is SECURITY_FAILURE, trial

    def test_wrong_recipient_key_fails(self, params_1024):
        rng = random.Random(9)
        pk_a, _ = keygen(params_1024, rng)
        rejects = 0
        trials = 100
        for _ in range(trials):
            _, sk_b = keygen(params_1024, rng)
            _, chunks = key_exchange_send(pk_a, rng)
            if key_exchange_receive(chunks, sk_b, params_1024) is SECURITY_FAILURE:
                rejects += 1
        assert rejects == trials

    def test_garbage_chunks_fail(self, keypair_1024, params_1024):
        _, sk = keypair_1024
        assert key_exchange_receive([b"not a ciphertext"], sk, params_1024) is SECURITY_FAILURE


class TestKeyStore:
    def test_a_key_too_small_to_wrap_the_material_is_refused(self, params_256):
        pk, sk = keygen(params_256, random.Random(6))
        with pytest.raises(ParameterError, match="cannot wrap"):
            KeyStore().add(pk, sk)

    @pytest.mark.parametrize("field", ["C", "D", "H"])
    def test_a_key_file_with_a_component_outside_the_subgroup_is_refused(self, tmp_path, keypair_1024, field):
        pk, sk = keypair_1024
        p = pk.params.p
        for bad in (p - 1, 1, 0, p):
            path = tmp_path / "bad.key"
            cramer_shoup.write_secret_file(path, pk, sk)
            lines = [f"{field}={bad:x}" if line.startswith(f"{field}=") else line for line in path.read_text().splitlines()]
            path.write_text("\n".join(lines) + "\n")
            store = KeyStore()
            with pytest.raises(ParameterError, match=f"component {field}"):
                store.load_file(path)
            assert len(store) == 0

    def test_a_key_file_with_a_composite_p_is_refused(self, tmp_path, keypair_1024):
        pk, sk = keypair_1024
        path = tmp_path / "bad.key"
        cramer_shoup.write_secret_file(path, pk, sk)
        p = pk.params.p + 18  # 5 divides it
        q = (p - 1) // 2
        edited = {"p": f"p={p:x}", "q": f"q={q:x}"}
        lines = [edited.get(line.partition("=")[0], line) for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        store = KeyStore()
        with pytest.raises(ParameterError, match=f"invalid group parameters: p={p} is not prime"):
            store.load_file(path)
        assert len(store) == 0

    def test_a_wrap_under_a_keystore_key_raises_no_base_with_pow(self, keypair_1024, pow_calls):
        pk, sk = keypair_1024
        entry = KeyStore().add(pk, sk)
        material, chunks = key_exchange_send(entry.public, random.Random(2))
        assert pow_calls == []  # g1, g2, h, c and d all take a table
        assert key_exchange_receive(chunks, sk, pk.params).enc_key == material[:32]

    def test_a_key_outside_every_keystore_wraps_with_pow(self, keypair_1024, pow_calls):
        pk, sk = keypair_1024
        KeyStore().add(pk, sk)  # an equal key, with tables, in some store
        pow_calls.clear()
        material, chunks = key_exchange_send(pk, random.Random(2))
        assert len(pow_calls) == 5
        assert key_exchange_receive(chunks, sk, pk.params).enc_key == material[:32]

    def test_re_adding_a_key_builds_no_table(self, keypair_1024, monkeypatch):
        builds = []
        build = groups.fixed_base_table
        monkeypatch.setattr(cramer_shoup, "fixed_base_table", lambda *args: builds.append(args) or build(*args))
        pk, sk = keypair_1024
        store = KeyStore()
        entry = store.add(pk, sk)
        assert len(builds) == 5  # g1, g2, h, c and d
        assert store.add(pk, sk).public is entry.public
        assert store.add(pk).public is entry.public
        KeyStore().add(entry.public)  # a key that brings its tables
        assert len(builds) == 5


class TestEndToEnd:
    def test_secure_put_then_get(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        data = random.Random(10).randbytes(40_000)
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(11), timeout=0.1, decrypt_budget=None)
            summary = client.put(data, server.address, "fw.bin", SecurityOptions(kid=entry.kid))
            assert summary.ok and summary.security
            assert (tmp_path / "fw.bin").read_bytes() == data
            fetched, get_summary = client.get("fw.bin", server.address, SecurityOptions(kid=entry.kid))
            assert get_summary.ok
            assert fetched == data
            assert get_summary.phases == ["NEGOTIATE", "KEY_EXCHANGE", "DATA_TRANSFER", "DONE"]

    def test_block_geometry(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        # exactly two full plaintext blocks: forces the empty end marker
        data = bytes(2 * PLAINTEXT_PER_BLOCK)
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(12), timeout=0.1, decrypt_budget=None)
            summary = client.put(data, server.address, "exact.bin", SecurityOptions(kid=entry.kid))
            assert summary.ok
            assert (tmp_path / "exact.bin").read_bytes() == data

    def test_empty_file(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(13), timeout=0.1, decrypt_budget=None)
            assert client.put(b"", server.address, "empty.bin", SecurityOptions(kid=entry.kid)).ok
            assert (tmp_path / "empty.bin").read_bytes() == b""
            fetched, summary = client.get("empty.bin", server.address, SecurityOptions(kid=entry.kid))
            assert summary.ok and fetched == b""

    def test_legacy_put_and_get(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        data = random.Random(14).randbytes(1500)
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(15), timeout=0.1, decrypt_budget=None)
            assert client.put(data, server.address, "plain.bin", None).ok
            assert (tmp_path / "plain.bin").read_bytes() == data
            fetched, summary = client.get("plain.bin", server.address, None)
            assert summary.ok and fetched == data

    def test_corruption_mid_transfer_heals(self, tmp_path, keystore):
        store, entry = keystore
        # aggressive corruption; the seed is chosen so the handshake survives
        net = SimulatedNetwork(ChannelModel(corrupt_rate=0.02, seed=23))
        data = random.Random(16).randbytes(60_000)
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(17), timeout=0.05, decrypt_budget=None)
            summary = client.put(data, server.address, "noisy.bin", SecurityOptions(kid=entry.kid))
            assert summary.ok
            assert (tmp_path / "noisy.bin").read_bytes() == data
            assert wait_for(lambda: len(server.session_logs) == 1)
            log = server.session_logs[0].summary
            assert log.mac_failures > 0  # corruption actually hit sealed blocks
            assert log.blocks_accepted == log.mac_checks - log.mac_failures

    def test_loss_mid_transfer_heals(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel(loss_rate=0.03, seed=5))
        data = random.Random(18).randbytes(60_000)
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(19), timeout=0.05, decrypt_budget=None)
            summary = client.put(data, server.address, "lossy.bin", SecurityOptions(kid=entry.kid))
            assert summary.ok
            assert summary.retransmissions > 0
            assert (tmp_path / "lossy.bin").read_bytes() == data

    def test_two_concurrent_clients(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        data_a = random.Random(20).randbytes(30_000)
        data_b = random.Random(21).randbytes(30_000)
        results = {}
        with running_server(net, tmp_path, store) as server:

            def upload(name, data, seed):
                client = TftpClient(net, store, rng=random.Random(seed), timeout=0.2, decrypt_budget=None)
                results[name] = client.put(data, server.address, name, SecurityOptions(kid=entry.kid))

            t1 = threading.Thread(target=upload, args=("a.bin", data_a, 22))
            t2 = threading.Thread(target=upload, args=("b.bin", data_b, 23))
            t1.start(), t2.start()
            t1.join(10), t2.join(10)
        assert results["a.bin"].ok and results["b.bin"].ok
        assert (tmp_path / "a.bin").read_bytes() == data_a
        assert (tmp_path / "b.bin").read_bytes() == data_b

    def test_fixed_time_budget_in_key_exchange(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        data = b"small payload"
        with running_server(net, tmp_path, store, decrypt_budget="auto") as server:
            server.warm_up()
            client = TftpClient(net, store, rng=random.Random(24), timeout=0.5, decrypt_budget=None)
            summary = client.put(data, server.address, "padded.bin", SecurityOptions(kid=entry.kid))
            assert summary.ok
            assert (tmp_path / "padded.bin").read_bytes() == data

    def test_warm_up_logs_each_budget_in_ms(self, tmp_path, keystore, caplog):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store, decrypt_budget="auto") as server:
            with caplog.at_level(logging.INFO, logger="tftps.tftp"):
                server.warm_up()
            budget_ms = server._budget_cache[entry.kid].budget_ns / 1e6
        assert f"fixed-time decrypt budget for key {entry.kid}: {budget_ms:.1f} ms" in caplog.text


class TestFailureModes:
    def test_missing_file_error_1(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(25), timeout=0.1, decrypt_budget=None)
            fetched, summary = client.get("absent.bin", server.address, None)
            assert fetched is None
            assert not summary.ok
            assert summary.error_code == 1

    def test_require_security_policy_error_9(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store, policy=TransferPolicy(require_security=True)) as server:
            client = TftpClient(net, store, rng=random.Random(26), timeout=0.1, decrypt_budget=None)
            summary = client.put(b"data", server.address, "f.bin", None)
            assert not summary.ok
            assert summary.error_code == ERR_SECURITY

    def test_unknown_kid_refused_by_client(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(27), timeout=0.1, decrypt_budget=None)
            with pytest.raises(ParameterError):
                client.put(b"x", server.address, "f.bin", SecurityOptions(kid="0" * 16))

    def test_unknown_kid_refused_by_server(self, tmp_path, keystore, keypair_1024):
        store, _ = keystore
        pk, _ = keypair_1024
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            _, chunks = key_exchange_send(pk, random.Random(28))
            options = SecurityOptions(keyblocks=len(chunks), kid="f" * 16).to_options()
            probe.send(encode_packet(WriteRequest("f.bin", "octet", options)), server.address)
            reply = probe.recv(1.0)
            packet = decode_packet(reply[0])
            assert isinstance(packet, ErrorPacket) and packet.code == 8

    def test_netascii_rejected(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            probe.send(encode_packet(WriteRequest("f.txt", "netascii")), server.address)
            reply = probe.recv(1.0)
            assert reply is not TIMEOUT
            packet = decode_packet(reply[0])
            assert isinstance(packet, ErrorPacket) and packet.code == 4

    def test_path_escape_rejected(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            probe.send(encode_packet(WriteRequest("../escape.bin", "octet")), server.address)
            reply = probe.recv(1.0)
            packet = decode_packet(reply[0])
            assert isinstance(packet, ErrorPacket) and packet.code == 2

    def test_tampered_key_block_aborts_with_error_9(self, tmp_path, keystore, keypair_1024):
        store, entry = keystore
        pk, _ = keypair_1024
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            material, chunks = key_exchange_send(pk, random.Random(28))
            options = SecurityOptions(keyblocks=len(chunks), kid=entry.kid).to_options()
            probe.send(encode_packet(WriteRequest("evil.bin", "octet", options)), server.address)
            reply = probe.recv(1.0)
            assert isinstance(decode_packet(reply[0]), OptionAck)
            session_addr = reply[1]
            # flip one bit in the first key block
            tampered = bytearray(chunks[0])
            tampered[0] ^= 0x01
            probe.send(encode_packet(DataPacket(1, bytes(tampered))), session_addr)
            ack1 = probe.recv(1.0)
            assert isinstance(decode_packet(ack1[0]), AckPacket)
            probe.send(encode_packet(DataPacket(2, chunks[1])), session_addr)
            reply = probe.recv(2.0)
            packet = decode_packet(reply[0])
            assert isinstance(packet, ErrorPacket) and packet.code == ERR_SECURITY

    def test_wrong_tid_gets_error_5(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        outcome = {}
        with running_server(net, tmp_path, store) as server:

            def slow_upload():
                client = TftpClient(net, store, rng=random.Random(29), timeout=0.3, decrypt_budget=None)
                outcome["summary"] = client.put(
                    random.Random(30).randbytes(200_000), server.address, "big.bin",
                    SecurityOptions(kid=entry.kid),
                )

            thread = threading.Thread(target=slow_upload)
            thread.start()
            # find the session endpoint: wait for the data stream to start
            assert wait_for(lambda: net.sent > 10)
            stranger = net.endpoint()
            # the session endpoint is the first one the server allocated after its
            # listening endpoint; probe a few candidates and collect replies
            got_error_5 = False
            for candidate in range(2, 6):
                if candidate == stranger.address:
                    continue
                stranger.send(encode_packet(AckPacket(0)), candidate)
                reply = stranger.recv(0.3)
                if reply is not TIMEOUT:
                    packet = decode_packet(reply[0])
                    if isinstance(packet, ErrorPacket) and packet.code == ERR_UNKNOWN_TID:
                        got_error_5 = True
                        break
            thread.join(15)
        assert got_error_5
        assert outcome["summary"].ok  # the stray packet did not disturb the session

    def test_shutdown_aborts_in_flight_session_with_error_0(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        server = TftpServer(net, root=tmp_path, keystore=store, rng=random.Random(31),
                            timeout=1.0, decrypt_budget=None)
        stop = threading.Event()
        thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
        thread.start()
        probe = net.endpoint()
        probe.send(encode_packet(WriteRequest("stalled.bin", "octet")), server.address)
        reply = probe.recv(1.0)
        assert isinstance(decode_packet(reply[0]), AckPacket)  # session is now waiting for DATA
        stop.set()
        deadline = time.monotonic() + 5
        saw_abort = False
        while time.monotonic() < deadline:
            result = probe.recv(0.5)
            if result is TIMEOUT:
                continue
            packet = decode_packet(result[0])
            if isinstance(packet, ErrorPacket) and packet.code == ERR_NOT_DEFINED:
                saw_abort = True
                break
        thread.join(5)
        assert saw_abort

    def test_no_data_block_accepted_before_key_exchange(self, tmp_path, keystore, keypair_1024):
        store, entry = keystore
        pk, _ = keypair_1024
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            material, chunks = key_exchange_send(pk, random.Random(32))
            options = SecurityOptions(keyblocks=len(chunks), kid=entry.kid).to_options()
            probe.send(encode_packet(WriteRequest("strict.bin", "octet", options)), server.address)
            reply = probe.recv(1.0)
            assert isinstance(decode_packet(reply[0]), OptionAck)
            session_addr = reply[1]
            # inject a data-phase block before any key block: must not be acked
            probe.send(encode_packet(DataPacket(len(chunks) + 1, b"A" * 100)), session_addr)
            early = probe.recv(0.3)
            assert early is TIMEOUT or not isinstance(decode_packet(early[0]), AckPacket)
            assert wait_for(lambda: len(server.session_logs) == 1, timeout=3.0)
            log = server.session_logs[0].summary
            assert log.blocks_accepted == 0
            assert "DATA_TRANSFER" not in log.phases or log.phases.index("KEY_EXCHANGE") < log.phases.index(
                "DATA_TRANSFER"
            )

    def test_failed_store_keeps_old_file_and_leaves_no_temp(self, tmp_path, keystore, monkeypatch):
        store, _ = keystore
        (tmp_path / "fw.bin").write_bytes(b"old firmware")
        real_write_bytes = Path.write_bytes

        def disk_fills_midway(path, data):
            real_write_bytes(path, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            monkeypatch.setattr(Path, "write_bytes", disk_fills_midway)
            client = TftpClient(net, store, rng=random.Random(36), timeout=0.1, decrypt_budget=None)
            summary = client.put(random.Random(37).randbytes(2000), server.address, "fw.bin", None)
        assert not summary.ok and summary.error_code == ERR_DISK_FULL
        assert (tmp_path / "fw.bin").read_bytes() == b"old firmware"
        assert [child.name for child in tmp_path.iterdir()] == ["fw.bin"]

    def test_a_file_the_server_cannot_read_gets_error_2(self, tmp_path, keystore, monkeypatch):
        store, _ = keystore
        target = tmp_path / "fw.bin"
        target.write_bytes(b"firmware")
        real_read_bytes = Path.read_bytes

        def refused_for_target(path):
            if path == target:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", refused_for_target)
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(38), timeout=0.1, decrypt_budget=None)
            payload, summary = client.get("fw.bin", server.address, None)
            assert summary.error_code == ERR_ACCESS_VIOLATION and payload is None
            assert wait_for(lambda: len(server.session_logs) == 1)
        assert [(log.summary.status, log.summary.error_code) for log in server.session_logs] == [("FAILED", ERR_ACCESS_VIOLATION)]


class TestResourceBounds:
    def test_each_block_sealed_only_when_sent(self, keystore, monkeypatch):
        store, entry = keystore
        sealed = []
        real_seal_block = records.seal_block

        def counting_seal_block(keys, seq, plaintext, rng=None):
            sealed.append(seq)
            return real_seal_block(keys, seq, plaintext, rng)

        monkeypatch.setattr(records, "seal_block", counting_seal_block)

        class ScriptedEndpoint:
            """Acknowledges every DATA block at once, noting what was sealed by then."""

            def __init__(self):
                self.replies = []
                self.sent_blocks = []
                self.address = 100

            def send(self, data, dst):
                packet = decode_packet(data)
                if isinstance(packet, WriteRequest):
                    self.replies.append((encode_packet(OptionAck(packet.options)), 200))
                elif isinstance(packet, DataPacket):
                    self.sent_blocks.append((packet.block, list(sealed)))
                    self.replies.append((encode_packet(AckPacket(packet.block)), 200))

            def recv(self, timeout):
                return self.replies.pop(0) if self.replies else TIMEOUT

            def close(self):
                pass

        class ScriptedNetwork:
            def __init__(self):
                self.ep = ScriptedEndpoint()

            def endpoint(self, port=None):
                return self.ep

        net = ScriptedNetwork()
        client = TftpClient(net, store, rng=random.Random(39), timeout=0.05, decrypt_budget=None)
        data = random.Random(40).randbytes(3 * PLAINTEXT_PER_BLOCK + 7)
        summary = client.put(data, 1, "lazy.bin", SecurityOptions(kid=entry.kid))
        assert summary.ok
        first_sealed = summary.blocks - 3
        assert sealed == list(range(first_sealed, summary.blocks + 1))
        for block, sealed_by_then in net.ep.sent_blocks:
            assert all(seq <= block for seq in sealed_by_then)
        assert [block for block, _ in net.ep.sent_blocks] == list(range(1, summary.blocks + 1))

    def test_finished_session_threads_are_dropped(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(41), timeout=0.1, decrypt_budget=None)
            for i in range(20):
                assert client.put(b"x" * 100, server.address, f"f{i}.bin", None).ok
                assert wait_for(lambda: len(server.session_logs) == i + 1)
            assert len(server._threads) <= 2

    def test_closed_endpoints_leave_the_simulated_network(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(42), timeout=0.1, decrypt_budget=None)
            for i in range(200):
                assert client.put(b"x" * 100, server.address, f"f{i}.bin", None).ok
            # every client endpoint closes at once, every session endpoint when its dally ends
            assert wait_for(lambda: list(net._endpoints) == [server.address], timeout=2.0), len(net._endpoints)

    @pytest.mark.parametrize("kind", ["udp", "simulated"])
    def test_serve_forever_closes_its_listening_endpoint(self, tmp_path, keystore, kind):
        store, _ = keystore
        net = UdpNetwork() if kind == "udp" else SimulatedNetwork(ChannelModel())
        server = TftpServer(net, root=tmp_path, keystore=store, timeout=0.1, decrypt_budget=None)
        stop = threading.Event()
        stop.set()
        server.serve_forever(stop)
        port = server.address[1] if kind == "udp" else server.address
        net.endpoint(port).close()  # binding fails while the server still holds the address
        server.endpoint.close()  # a second close is harmless


    def test_session_logs_keep_the_newest_1024(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            for i in range(1100):
                name = f"f{i}.txt"
                probe.send(encode_packet(WriteRequest(name, "netascii")), server.address)
                reply = probe.recv(5.0)
                assert reply is not TIMEOUT and isinstance(decode_packet(reply[0]), ErrorPacket)
                deadline = time.monotonic() + 5.0
                while not (server.session_logs and server.session_logs[-1].filename == name):
                    assert time.monotonic() < deadline, f"no session log for {name}"
                    time.sleep(0.0005)
        assert len(server.session_logs) == 1024
        assert server.session_logs[0].filename == "f76.txt"
        assert server.session_logs[-1].filename == "f1099.txt"
        assert all(log.summary.status == "FAILED" for log in server.session_logs)

    def test_wrq_with_more_key_blocks_than_a_wrapped_key_fills_gets_error_8(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            options = SecurityOptions(keyblocks=65535, kid=entry.kid).to_options()
            probe.send(encode_packet(WriteRequest("f.bin", "octet", options)), server.address)
            replies = []
            deadline = time.monotonic() + 0.5  # five of the server's timeouts: an OACK would be resent
            while (left := deadline - time.monotonic()) > 0:
                reply = probe.recv(left)
                if reply is not TIMEOUT:
                    replies.append(decode_packet(reply[0]))
            assert wait_for(lambda: len(server.session_logs) == 1)
        assert len(replies) == 1
        assert isinstance(replies[0], ErrorPacket) and replies[0].code == 8
        assert server.session_logs[0].summary.error_code == 8
        assert not (tmp_path / "f.bin").exists()

    @pytest.mark.parametrize("keyblocks", [3, 65535])
    def test_get_refuses_an_oack_with_more_key_blocks_than_a_wrapped_key_fills(self, keystore, keyblocks):
        store, entry = keystore  # a 1024-bit key: a wrap fills at most 2 blocks

        class ScriptedEndpoint:
            def __init__(self):
                self.sent = []
                self.replies = []
                self.address = 100

            def send(self, data, dst):
                packet = decode_packet(data)
                self.sent.append((packet, dst))
                if isinstance(packet, ReadRequest):
                    oack = OptionAck(SecurityOptions(keyblocks=keyblocks, kid=entry.kid).to_options())
                    self.replies.append((encode_packet(oack), 200))

            def recv(self, timeout):
                return self.replies.pop(0) if self.replies else TIMEOUT

            def close(self):
                pass

        class ScriptedNetwork:
            def __init__(self):
                self.ep = ScriptedEndpoint()

            def endpoint(self, port=None):
                return self.ep

        net = ScriptedNetwork()
        client = TftpClient(net, store, rng=random.Random(43), timeout=0.05, decrypt_budget=None)
        fetched, summary = client.get("f.bin", 1, SecurityOptions(kid=entry.kid))
        assert fetched is None
        assert summary.error_code == 8
        (request, _), (refusal, dst) = net.ep.sent
        assert isinstance(request, ReadRequest)
        assert isinstance(refusal, ErrorPacket) and refusal.code == 8 and dst == 200


class TestDally:
    """A receiving session ends at its final ACK; the node's dallier answers a lost one."""

    def test_lost_final_ack_is_answered_after_get_returns(self, tmp_path, keystore):
        store, entry = keystore
        data = random.Random(50).randbytes(1000)
        (tmp_path / "fw.bin").write_bytes(data)
        keyblocks = len(key_exchange_send(entry.public, random.Random(0))[1])
        final = keyblocks + len(data) // PLAINTEXT_PER_BLOCK + 1
        # The server resends after 0.5 s, well inside the client's 1 s dally:
        # with equal timeouts the resend races the dally's end.
        server_timeout, client_timeout = 0.5, 1.0
        net = SimulatedNetwork(ChannelModel())
        sent_final_data, sent_final_acks = [], []
        transmit = net.transmit

        def drop_first_final_ack(src, dst, datagram):
            packet = decode_packet(datagram)
            if isinstance(packet, DataPacket) and packet.block == final:
                sent_final_data.append(time.monotonic())
            elif isinstance(packet, AckPacket) and packet.block == final:
                sent_final_acks.append(time.monotonic())
                if len(sent_final_acks) == 1:
                    return  # lost on the wire
            transmit(src, dst, datagram)

        net.transmit = drop_first_final_ack
        with running_server(net, tmp_path, store, timeout=server_timeout) as server:
            client = TftpClient(net, store, rng=random.Random(51), timeout=client_timeout, decrypt_budget=None)
            fetched, summary = client.get("fw.bin", server.address, SecurityOptions(kid=entry.kid))
            returned = time.monotonic()
            assert summary.ok and fetched == data
            assert wait_for(lambda: len(server.session_logs) == 1)
            assert server.session_logs[0].summary.status == "DONE"
        assert len(sent_final_data) >= 2 and len(sent_final_acks) >= 2
        assert returned < sent_final_data[1], "get waited for the sender's retransmission"
        assert 0 <= sent_final_acks[1] - sent_final_data[1] < client_timeout / 2

    def test_lossless_get_returns_well_inside_one_timeout(self, tmp_path, keystore):
        store, entry = keystore
        data = random.Random(52).randbytes(4096)
        (tmp_path / "boot.img").write_bytes(data)
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store, timeout=2.0) as server:
            client = TftpClient(net, store, rng=random.Random(53), timeout=2.0, decrypt_budget=None)
            started = time.monotonic()
            fetched, summary = client.get("boot.img", server.address, SecurityOptions(kid=entry.kid))
            elapsed = time.monotonic() - started
        assert summary.ok and fetched == data
        assert elapsed < 1.0 and summary.elapsed_s < 1.0

    def test_server_write_session_ends_at_its_final_ack(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store, timeout=2.0) as server:
            client = TftpClient(net, store, rng=random.Random(54), timeout=2.0, decrypt_budget=None)
            assert client.put(b"x" * 1000, server.address, "up.bin", SecurityOptions(kid=entry.kid)).ok
            assert wait_for(lambda: len(server.session_logs) == 1, timeout=1.0)
            assert server.session_logs[0].summary.ok

    def test_back_to_back_gets_share_one_dallier_that_closes_every_endpoint(self, tmp_path, keystore):
        store, entry = keystore
        (tmp_path / "boot.img").write_bytes(b"x" * 1000)
        timeout = 1.0
        net = SimulatedNetwork(ChannelModel())
        made = []

        class RecordingNetwork:
            def endpoint(self, port=None):
                made.append(net.endpoint(port))
                return made[-1]

        with running_server(net, tmp_path, store, timeout=timeout) as server:
            client = TftpClient(RecordingNetwork(), store, rng=random.Random(55), timeout=timeout, decrypt_budget=None)
            before = set(threading.enumerate())
            dalliers = set()
            returned = []
            for _ in range(10):
                fetched, summary = client.get("boot.img", server.address, SecurityOptions(kid=entry.kid))
                returned.append(time.monotonic())
                assert summary.ok and fetched == b"x" * 1000
                dalliers |= {t for t in threading.enumerate() if t.name == "tftps-dallier" and t not in before}
            assert len(dalliers) == 1  # one thread for the client node, none started per get
            assert len(made) == 10
            for endpoint, at in zip(made, returned):
                assert wait_for(lambda: endpoint.closed, at + timeout + 0.5 - time.monotonic())
            (dallier,) = dalliers
            dallier.join(timeout=1.0)
            assert not dallier.is_alive()  # it ends once it holds nothing

    def test_resend_just_after_one_timeout_is_answered(self, tmp_path, keystore):
        """With equal timeouts, a final block resent a little after one timeout still finds the dally open."""
        store, entry = keystore
        data = random.Random(56).randbytes(1000)
        (tmp_path / "fw.bin").write_bytes(data)
        keyblocks = len(key_exchange_send(entry.public, random.Random(0))[1])
        final = keyblocks + len(data) // PLAINTEXT_PER_BLOCK + 1
        timeout = 0.5
        net = SimulatedNetwork(ChannelModel())
        final_data, final_acks, timers = [], [], []
        transmit = net.transmit

        def drop_first_final_ack_and_delay_the_resend(src, dst, datagram):
            packet = decode_packet(datagram)
            if isinstance(packet, AckPacket) and packet.block == final:
                final_acks.append(packet)
                if len(final_acks) == 1:
                    return  # lost on the wire
            elif isinstance(packet, DataPacket) and packet.block == final:
                final_data.append(packet)
                if len(final_data) == 2:
                    timers.append(threading.Timer(0.1 * timeout, transmit, (src, dst, datagram)))
                    timers[-1].start()
                    return  # delivered late
            transmit(src, dst, datagram)

        net.transmit = drop_first_final_ack_and_delay_the_resend
        with running_server(net, tmp_path, store, timeout=timeout, max_retries=2) as server:
            client = TftpClient(net, store, rng=random.Random(57), timeout=timeout, decrypt_budget=None)
            fetched, summary = client.get("fw.bin", server.address, SecurityOptions(kid=entry.kid))
            assert summary.ok and fetched == data
            assert wait_for(lambda: len(server.session_logs) == 1)
        for timer in timers:
            timer.join(timeout=1.0)
        assert len(final_data) >= 2
        assert server.session_logs[0].summary.status == "DONE"

    def test_a_hand_over_to_a_full_dallier_ends_the_oldest_hold_and_keeps_the_newest(self):
        net = SimulatedNetwork(ChannelModel())
        peer = net.endpoint()
        held = [net.endpoint() for _ in range(_DALLY_SLOTS + 1)]
        dallier = _Dallier()
        for endpoint in held:
            dallier.hand_over(endpoint, peer.address, b"final ack", 1.0)
        peer.send(encode_packet(DataPacket(3, b"")), held[-1].address)  # the newest session's final ACK was lost
        assert peer.recv(1.0) == (b"final ack", held[-1].address)
        assert wait_for(lambda: held[0].closed, 0.2)
        assert not any(endpoint.closed for endpoint in held[1:])  # their holds run 1.25 s
        dallier._thread.join(timeout=5)
        assert all(endpoint.closed for endpoint in held)

    def test_concurrent_hand_overs_close_every_endpoint_once(self):
        """Four threads hand over 200 endpoints; the dallier never reads a closed one."""
        timeout = 0.05
        lock = threading.Lock()
        errors, listening = [], []

        class FakeEndpoint:
            def __init__(self):
                self.closes = 0
                self.in_recv = False

            def recv(self, seconds):
                with lock:
                    if self.closes:
                        errors.append("recv on a closed endpoint")
                    self.in_recv = True
                    listening.append(self)
                    if len(listening) > 1:
                        errors.append("two recvs at once")
                threading.Event().wait(seconds)
                with lock:
                    self.in_recv = False
                    listening.remove(self)
                return TIMEOUT

            def send(self, data, dst):
                errors.append("answered silence")

            def close(self):
                with lock:
                    if self.in_recv:
                        errors.append("closed during recv")
                    self.closes += 1

        dallier = _Dallier()
        batches = [[FakeEndpoint() for _ in range(50)] for _ in range(4)]

        def hand_over_all(endpoints, rng):
            for i, endpoint in enumerate(endpoints):
                dallier.hand_over(endpoint, 1, b"ack", timeout)
                if len(dallier._held) > _DALLY_SLOTS:
                    errors.append("held more than its slots")
                if i % 10 == 9:
                    time.sleep(rng.random() * 2 * timeout)  # let it drain and stop now and then

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hand_over_all, args=(batch, random.Random(n)))
                for n, batch in enumerate(batches)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            endpoints = [endpoint for batch in batches for endpoint in batch]
            assert wait_for(lambda: all(endpoint.closes for endpoint in endpoints))
            dallier._thread.join(timeout=5)
            assert not dallier._thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert [endpoint.closes for endpoint in endpoints] == [1] * 200


class ScriptedServer:
    """A network of one client endpoint whose requests and blocks the script answers from TID 200."""

    def __init__(self, answer):
        self.answer = answer
        self.sent = []
        self.replies = []
        self.address = 100

    def endpoint(self, port=None):
        return self

    def send(self, data, dst):
        packet = decode_packet(data)
        self.sent.append((packet, dst))
        reply = self.answer(packet)
        if reply is not None:
            self.replies.append((encode_packet(reply), 200))

    def recv(self, timeout):
        return self.replies.pop(0) if self.replies else TIMEOUT

    def close(self):
        pass


def request_with(client, call, kid):
    """Run one client call against server 1 and return its summary."""
    if call == "put":
        return client.put(b"payload", 1, "f.bin", SecurityOptions(kid=kid))
    security = SecurityOptions(kid=kid) if call == "secured get" else None
    return client.get("f.bin", 1, security)[1]


MALFORMED_OACKS = [
    pytest.param(
        call,
        OptionAck((("sec", SEC_SCHEME), ("keyblocks", keyblocks))),
        id=f"malformed-oack-{call.replace(' ', '-')}-keyblocks-{keyblocks}",
    )
    for call in ("put", "secured get", "legacy get")
    for keyblocks in ("zero", "0")
]


class TestRefusals:
    """A request answered by what it cannot use fails with one ERROR 8, and nothing is wrapped or stored."""

    @pytest.mark.parametrize(
        "call, reply",
        [
            pytest.param("put", AckPacket(0), id="put-ack-0"),
            pytest.param(
                "put", OptionAck(SecurityOptions(keyblocks=1, kid="k").to_options()), id="put-keyblocks-changed"
            ),
            pytest.param("secured get", DataPacket(1, b"plain"), id="secured-get-data-1"),
            pytest.param(
                "legacy get", OptionAck(SecurityOptions(keyblocks=2, kid="k").to_options()), id="legacy-get-oack"
            ),
            *MALFORMED_OACKS,
        ],
    )
    def test_reply_that_does_not_answer_the_request_gets_error_8(self, keystore, call, reply):
        store, entry = keystore  # a 1024-bit key: a put's wrap fills 2 blocks
        net = ScriptedServer(lambda packet: reply if isinstance(packet, (ReadRequest, WriteRequest)) else None)
        client = TftpClient(net, store, rng=random.Random(45), timeout=0.05, decrypt_budget=None)
        summary = request_with(client, call, entry.kid)
        assert summary.status == "FAILED" and summary.error_code == 8
        refusal, dst = net.sent[-1]
        assert isinstance(refusal, ErrorPacket) and refusal.code == 8 and dst == 200

    @pytest.mark.parametrize(
        "request_type, with_known_kid",
        [(WriteRequest, True), (ReadRequest, False)],
        ids=["wrq-without-keyblocks", "rrq-for-an-unknown-kid"],
    )
    def test_secured_request_the_server_cannot_serve_gets_one_error_8(
        self, tmp_path, keystore, monkeypatch, request_type, with_known_kid
    ):
        store, entry = keystore
        (tmp_path / "fw.bin").write_bytes(b"firmware")
        wraps = []
        real_key_exchange_send = tftp.key_exchange_send

        def counting_key_exchange_send(*args, **kwargs):
            wraps.append(args)
            return real_key_exchange_send(*args, **kwargs)

        monkeypatch.setattr(tftp, "key_exchange_send", counting_key_exchange_send)
        options = SecurityOptions(kid=entry.kid if with_known_kid else "f" * 16).to_options()
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            probe.send(encode_packet(request_type("fw.bin", "octet", options)), server.address)
            replies = [decode_packet(reply[0]) for reply in iter(lambda: probe.recv(0.5), TIMEOUT)]
            assert wait_for(lambda: len(server.session_logs) == 1)
        assert len(replies) == 1
        assert isinstance(replies[0], ErrorPacket) and replies[0].code == 8
        assert server.session_logs[0].summary.error_code == 8
        assert wraps == []
        assert [path.name for path in tmp_path.iterdir()] == ["fw.bin"]
        assert (tmp_path / "fw.bin").read_bytes() == b"firmware"


class TestLiveness:
    @pytest.mark.parametrize("request_type", [WriteRequest, ReadRequest])
    def test_repeated_stale_packet_does_not_hold_session_open(self, tmp_path, keystore, request_type):
        store, _ = keystore
        (tmp_path / "boot.img").write_bytes(b"x" * 100)
        timeout, retries = 0.05, 5
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store, timeout=timeout, max_retries=retries) as server:
            probe = net.endpoint()
            probe.send(encode_packet(request_type("boot.img", "octet")), server.address)
            reply = probe.recv(1.0)
            assert reply is not TIMEOUT
            session_addr = reply[1]
            # ACK 0 is never what the session awaits: a write waits for DATA 1,
            # a read for ACK 1.  Sent more often than the timeout, it must not
            # restart the session's timer.
            deadline = time.monotonic() + (retries + 2) * timeout + 1.0
            while not server.session_logs and time.monotonic() < deadline:
                probe.send(encode_packet(AckPacket(0)), session_addr)
                time.sleep(0.03)
            assert server.session_logs, "stale ACKs held the session open"
            assert server.session_logs[0].summary.status == "FAILED"

    def test_retransmitted_request_starts_no_second_session(self, tmp_path, keystore):
        store, _ = keystore
        (tmp_path / "boot.img").write_bytes(b"\xde\xad\xbe\xef")
        timeout, retries = 0.1, 5
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store, timeout=timeout, max_retries=retries) as server:
            probe = net.endpoint()
            rrq = encode_packet(ReadRequest("boot.img", "octet"))
            probe.send(rrq, server.address)
            _, session_addr = probe.recv(1.0)
            probe.send(rrq, server.address)  # the request again, as if DATA 1 were late
            sources = sources_within(probe, 3 * timeout)
            probe.send(encode_packet(AckPacket(1)), session_addr)
            sources |= sources_within(probe, (retries + 2) * timeout)
        assert sources <= {session_addr}
        assert len(server.session_logs) == 1
        assert server.session_logs[0].summary.ok


class TestWireTranscript:
    """Same seeds, same bytes on the wire: pins what the session code sends."""

    SIZES = (0, 456, 912, 5_000)
    # (put.blocks, get.blocks) per transfer, secured sizes first; both sides
    # count every DATA block, the key-exchange blocks included.
    BLOCKS = [(3, 3), (4, 4), (5, 5), (13, 13), (1, 1), (1, 1), (2, 2), (10, 10)]
    WIRETAP_SHA256 = "5623a38e04763e292a530270a6ba7d3ad474c0f970c59cd25b8dde0579935293"

    def test_put_and_get_wire_bytes_are_pinned(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        blocks = []
        with running_server(net, tmp_path, store, timeout=1.0) as server:
            client = TftpClient(net, store, rng=random.Random(42), timeout=1.0, decrypt_budget=None)
            for security in (SecurityOptions(kid=entry.kid), None):
                for size in self.SIZES:
                    data = random.Random(size).randbytes(size)
                    name = f"{size}-{security is not None}.bin"
                    put = client.put(data, server.address, name, security)
                    fetched, get = client.get(name, server.address, security)
                    assert put.ok and get.ok and fetched == data
                    blocks.append((put.blocks, get.blocks))
        digest = hashlib.sha256()
        for datagram in net.wiretap:
            digest.update(len(datagram).to_bytes(4, "big") + datagram)
        assert blocks == self.BLOCKS
        assert digest.hexdigest() == self.WIRETAP_SHA256


class TestNoCrcOnTftpPath:
    def test_put_and_get_compute_no_crc(self, tmp_path, keystore, monkeypatch):
        """The UDP checksum and the record MAC cover TFTP blocks; the CRC is the demo codec's alone."""

        def no_crc(data):
            raise AssertionError("the TFTP path computed a CRC")

        monkeypatch.setattr(arq, "crc32", no_crc)
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        data = random.Random(5).randbytes(2_000)
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(6), timeout=0.5, decrypt_budget=None)
            for security in (SecurityOptions(kid=entry.kid), None):
                name = f"nocrc-{security is not None}.bin"
                put = client.put(data, server.address, name, security)
                fetched, get = client.get(name, server.address, security)
                assert put.ok, put.error_message
                assert get.ok, get.error_message
                assert fetched == data
            assert wait_for(lambda: len(server.session_logs) == 4)
            assert all(log.summary.ok for log in server.session_logs)


class TestLegacyInterop:
    """Byte-exact fixtures in RFC 1350 lock-step form."""

    def test_server_write_session_speaks_rfc_bytes(self, tmp_path, keystore):
        store, _ = keystore
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            wrq = bytes.fromhex("0002") + b"greet.txt\x00octet\x00"
            probe.send(wrq, server.address)
            data, session_addr = probe.recv(1.0)
            assert data == bytes.fromhex("00040000")  # ACK 0
            probe.send(bytes.fromhex("00030001") + b"Hello, TFTP!", session_addr)
            data, _ = probe.recv(1.0)
            assert data == bytes.fromhex("00040001")  # ACK 1
            assert wait_for(lambda: (tmp_path / "greet.txt").exists())
            assert (tmp_path / "greet.txt").read_bytes() == b"Hello, TFTP!"

    def test_server_read_session_speaks_rfc_bytes(self, tmp_path, keystore):
        store, _ = keystore
        (tmp_path / "boot.img").write_bytes(b"\xde\xad\xbe\xef")
        net = SimulatedNetwork(ChannelModel())
        with running_server(net, tmp_path, store) as server:
            probe = net.endpoint()
            rrq = bytes.fromhex("0001") + b"boot.img\x00octet\x00"
            probe.send(rrq, server.address)
            data, session_addr = probe.recv(1.0)
            assert data == bytes.fromhex("00030001") + b"\xde\xad\xbe\xef"  # DATA 1
            probe.send(bytes.fromhex("00040001"), session_addr)  # ACK 1
            assert wait_for(lambda: len(server.session_logs) == 1)
            assert server.session_logs[0].summary.ok

    def test_client_put_emits_rfc_bytes(self, keystore):
        store, _ = keystore

        class ScriptedEndpoint:
            def __init__(self):
                self.sent = []
                self.replies = []
                self.address = 100

            def send(self, data, dst):
                self.sent.append((bytes(data), dst))
                if len(self.sent) == 1:
                    assert data == bytes.fromhex("0002") + b"greet.txt\x00octet\x00"
                    self.replies.append((bytes.fromhex("00040000"), 200))
                elif len(self.sent) == 2:
                    assert data == bytes.fromhex("00030001") + b"Hello, TFTP!"
                    self.replies.append((bytes.fromhex("00040001"), 200))

            def recv(self, timeout):
                return self.replies.pop(0) if self.replies else TIMEOUT

            def close(self):
                pass

        class ScriptedNetwork:
            def __init__(self):
                self.ep = ScriptedEndpoint()

            def endpoint(self, port=None):
                return self.ep

        net = ScriptedNetwork()
        client = TftpClient(net, store, rng=random.Random(33), timeout=0.05, decrypt_budget=None)
        summary = client.put(b"Hello, TFTP!", 1, "greet.txt", None)
        assert summary.ok
        assert [dst for _, dst in net.ep.sent] == [1, 200]


class TestConfidentiality:
    def test_wiretap_contains_no_plaintext_windows(self, tmp_path, keystore):
        store, entry = keystore
        net = SimulatedNetwork(ChannelModel())
        file_rng = random.Random(34)
        data = file_rng.randbytes(1 << 20)  # 1 MB
        client_seed = 35
        with running_server(net, tmp_path, store) as server:
            client = TftpClient(net, store, rng=random.Random(client_seed), timeout=0.5, decrypt_budget=None)
            summary = client.put(data, server.address, "secret.bin", SecurityOptions(kid=entry.kid))
            assert summary.ok
        # the session key material is the client rng's first 64 bytes
        material = random.Random(client_seed).randbytes(64)
        wiretap = net.wiretap

        window = 64

        def digests(blob):
            return {
                int.from_bytes(hashlib.blake2b(blob[i : i + window], digest_size=10).digest(), "big")
                for i in range(0, max(len(blob) - window + 1, 0))
            }

        file_windows = digests(data)
        for datagram in wiretap:
            assert material not in datagram
            assert not (digests(datagram) & file_windows)
