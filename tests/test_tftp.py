import errno
import hashlib
import os
import random
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from tftps import cramer_shoup, records
from tftps.cramer_shoup import keygen
from tftps.groups import ParameterError
from tftps.packets import (
    ERR_DISK_FULL,
    ERR_NOT_DEFINED,
    ERR_SECURITY,
    ERR_UNKNOWN_TID,
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
    PLAINTEXT_PER_BLOCK,
    SECURITY_FAILURE,
    KeyStore,
    TftpClient,
    TftpServer,
    key_exchange_receive,
    key_exchange_send,
)
from tftps.transport import TIMEOUT, ChannelModel, SimulatedNetwork


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
    # (put.blocks, get.blocks) per transfer, secured sizes first; a secured
    # put counts its key blocks, a secured get only the data blocks.
    BLOCKS = [(3, 1), (4, 2), (5, 3), (13, 11), (1, 1), (1, 1), (2, 2), (10, 10)]
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
