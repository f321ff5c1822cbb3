"""Secure TFTP sessions: key exchange over DATA blocks, then sealed records.

A transfer with the ``sec`` option runs in phases: NEGOTIATE (request and
OACK), KEY_EXCHANGE (the data sender wraps 64 octets of fresh session
material under the data receiver's public key; the serialized ciphertext
rides in the first ``keyblocks`` DATA blocks), then DATA_TRANSFER (every
block is a sealed record, 456 plaintext octets per 512-octet block).  The
receiving side decrypts the key material under a fixed-time budget.

Block numbers are the stop-and-wait sequence numbers; the lock-step
DATA/ACK exchange is driven by the state machines in tftps.arq.  A record
that fails MAC verification is treated exactly like a corrupted frame:
dropped without acknowledgement, healed by retransmission.  Security
failures that cannot be healed (a tampered or misdirected key exchange,
policy refusals) terminate the session with ERROR 9.

Client put and get and server read and write all run on one _Session.
Its run() brackets the session: phases from NEGOTIATE to DONE, or to
FAILED with the abort's code and message, then the endpoint is closed.
Its wait() is the one receive loop: the awaited packet gets one timeout,
and other packets are answered but do not restart the timer.  exchange()
resends a request, OACK or ACK 0 on each timeout and gives up after
max_retries; DATA blocks are retransmitted by the arq sender.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import arq, cramer_shoup, fixed_time, packets, records
from .cramer_shoup import REJECT, CsPublicKey, CsSecretKey, EncodingError
from .groups import GroupParams, ParameterError
from .packets import (
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
from .transport import TIMEOUT

log = logging.getLogger(__name__)

BLOCK_SIZE = packets.BLOCK_SIZE
PLAINTEXT_PER_BLOCK = BLOCK_SIZE - records.RECORD_OVERHEAD  # 456 octets
KEYSTORE_ENV = "TFTPS_KEYSTORE"

_DEFAULT_RNG = random.SystemRandom()


class SecurityFailureResult:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SECURITY_FAILURE"


SECURITY_FAILURE = SecurityFailureResult()


class Phase:
    NEGOTIATE = "NEGOTIATE"
    KEY_EXCHANGE = "KEY_EXCHANGE"
    DATA_TRANSFER = "DATA_TRANSFER"
    DONE = "DONE"
    FAILED = "FAILED"


_PHASE_ORDER = [Phase.NEGOTIATE, Phase.KEY_EXCHANGE, Phase.DATA_TRANSFER, Phase.DONE, Phase.FAILED]


# ---------------------------------------------------------------------------
# Keystore.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyEntry:
    kid: str
    public: CsPublicKey
    secret: CsSecretKey | None = None

    @property
    def params(self) -> GroupParams:
        return self.public.params


class KeyStore:
    """Pre-installed keys, addressed by their 16-hex-char identifier."""

    def __init__(self):
        self._entries: dict[str, KeyEntry] = {}

    def add(self, pk: CsPublicKey, sk: CsSecretKey | None = None) -> KeyEntry:
        entry = KeyEntry(kid=cramer_shoup.key_id(pk), public=pk, secret=sk)
        existing = self._entries.get(entry.kid)
        if existing is not None and existing.secret is not None and sk is None:
            return existing  # never downgrade a secret entry to public-only
        self._entries[entry.kid] = entry
        return entry

    def load_file(self, path: str | Path) -> KeyEntry:
        pk, sk = cramer_shoup.load_key_file(path)
        return self.add(pk, sk)

    def load_dir(self, path: str | Path) -> "KeyStore":
        for child in sorted(Path(path).iterdir()):
            if child.suffix in (".pub", ".key") and child.is_file():
                self.load_file(child)
        return self

    def get(self, kid: str) -> KeyEntry | None:
        return self._entries.get(kid)

    def kids(self) -> list[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Key exchange.
# ---------------------------------------------------------------------------

def key_exchange_send(
    recipient: CsPublicKey,
    rng: random.Random | None = None,
    block_size: int = BLOCK_SIZE,
) -> tuple[bytes, list[bytes]]:
    """Draw fresh session material and wrap it for the recipient.

    Returns (material, key-exchange DATA payloads).  The 64 octets plus the
    encoding prefix need a group of more than 520 bits; smaller groups are
    refused rather than silently truncated.
    """
    rng = rng or _DEFAULT_RNG
    material = rng.randbytes(records.KEY_MATERIAL_LEN)
    element = cramer_shoup.encode_message(material, recipient.params)
    ct = cramer_shoup.encrypt_with_rng(recipient, element, rng)
    wire = cramer_shoup.ciphertext_to_bytes(ct)
    chunks = arq.chunk_payload(wire, block_size)
    return material, list(chunks.chunks)


def key_exchange_receive(
    chunks: list[bytes],
    sk: CsSecretKey,
    params: GroupParams,
    budget: fixed_time.TimeBudget | None = None,
):
    """Reassemble, decrypt (optionally under a fixed-time budget), derive keys.

    Any failure — undecodable ciphertext, validity rejection, an element
    that is not a key-material encoding — collapses to SECURITY_FAILURE; no
    partial keys are ever retained.
    """
    blob = b"".join(chunks)
    try:
        ct = cramer_shoup.ciphertext_from_bytes(blob)
    except (EncodingError, ParameterError):
        return SECURITY_FAILURE

    def _decrypt():
        try:
            return cramer_shoup.decrypt(sk, params, ct)
        except (ParameterError, EncodingError):
            return REJECT

    if budget is not None:
        result, _ = fixed_time.run_fixed(budget, _decrypt)
    else:
        result = _decrypt()
    if result is REJECT:
        return SECURITY_FAILURE
    try:
        material = cramer_shoup.decode_message(result, params)
    except EncodingError:
        return SECURITY_FAILURE
    if len(material) != records.KEY_MATERIAL_LEN:
        return SECURITY_FAILURE
    return records.derive_session_keys(material)


def calibrate_decrypt_budget(
    entry: KeyEntry,
    rng: random.Random | None = None,
    n_samples: int = 30,
    safety_factor: float = 1.5,
) -> fixed_time.TimeBudget:
    """Worst-case budget for unwrapping key material under this entry's key."""
    if entry.secret is None:
        raise ParameterError(f"key {entry.kid} has no secret half to calibrate with")
    rng = rng or random.Random(0xC0DEC)
    material = rng.randbytes(records.KEY_MATERIAL_LEN)
    element = cramer_shoup.encode_message(material, entry.params)
    ct = cramer_shoup.encrypt_with_rng(entry.public, element, rng)
    wire_len = len(cramer_shoup.ciphertext_to_bytes(ct))
    op_class = fixed_time.OpClass(name="cs.decrypt", input_length=wire_len)
    return fixed_time.calibrate(
        op_class,
        lambda: cramer_shoup.decrypt(entry.secret, entry.params, ct),
        n_samples=n_samples,
        safety_factor=safety_factor,
    )


# ---------------------------------------------------------------------------
# Session bookkeeping.
# ---------------------------------------------------------------------------

@dataclass
class TransferSummary:
    status: str = Phase.FAILED
    error_code: int | None = None
    error_message: str = ""
    bytes_transferred: int = 0
    blocks: int = 0
    retransmissions: int = 0
    mac_failures: int = 0
    mac_checks: int = 0
    blocks_accepted: int = 0
    elapsed_s: float = 0.0
    key_exchange_s: float = 0.0
    security: bool = False
    phases: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == Phase.DONE


class _SessionAborted(Exception):
    def __init__(self, code: int | None, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _ack(block: int):
    """A wait handler that awaits ACK block."""
    return lambda packet: packet if isinstance(packet, AckPacket) and packet.block == block else None


class _Session:
    """One lock-step exchange on its own endpoint, for client and server alike."""

    def __init__(self, node: "_Node", peer, summary: TransferSummary, stop=None):
        self.endpoint = node.network.endpoint()
        self.peer = peer
        self.timeout = node.timeout
        self.max_retries = node.max_retries
        self.summary = summary
        self.stop = stop
        self.last_ack: bytes | None = None

    @contextlib.contextmanager
    def run(self):
        """Run the with-body as this session.

        The phases start at NEGOTIATE and end at DONE when the body returns,
        or at FAILED when it aborts, whose code and message the summary
        keeps.  Either way the endpoint is closed and elapsed_s is set.
        """
        summary = self.summary
        started = time.monotonic()
        try:
            self.enter_phase(Phase.NEGOTIATE)
            yield
            self.enter_phase(Phase.DONE)
            summary.status = Phase.DONE
        except _SessionAborted as abort:
            summary.status = Phase.FAILED
            if not summary.error_message:
                summary.error_message = abort.message
            if abort.code is not None and summary.error_code is None:
                summary.error_code = abort.code
            summary.phases.append(Phase.FAILED)
        finally:
            self.endpoint.close()
            summary.elapsed_s = time.monotonic() - started

    def enter_phase(self, phase: str) -> None:
        phases = self.summary.phases
        if phases:
            if _PHASE_ORDER.index(phase) < _PHASE_ORDER.index(phases[-1]):
                raise AssertionError(f"phase regression {phases[-1]} -> {phase}")
        if not phases or phases[-1] != phase:
            phases.append(phase)

    def send_packet(self, packet, dst=None) -> None:
        self.endpoint.send(encode_packet(packet), dst if dst is not None else self.peer)

    def abort(self, code: int | None, message: str, notify_peer: bool = True) -> None:
        if notify_peer and self.peer is not None and code is not None:
            try:
                self.send_packet(ErrorPacket(code, message))
            except Exception:
                pass
        raise _SessionAborted(code, message)

    def check_stop(self) -> None:
        if self.stop is not None and self.stop.is_set():
            self.abort(packets.ERR_NOT_DEFINED, "server shutting down")

    def wait(self, handle):
        """Wait up to one timeout for the packet this step of the session awaits.

        handle(packet) returns something other than None for the awaited
        packet; wait returns that, and the packet's source becomes the
        locked TID.  Other packets are left to handle (a duplicate DATA is
        re-acknowledged there) but keep the deadline where it was, so a peer
        that repeats itself cannot hold the session open.  ERROR from the
        peer aborts.  Wrong-TID datagrams get ERROR 5 and are skipped;
        undecodable datagrams are treated as channel noise and skipped.
        Returns TIMEOUT once the deadline passes.
        """
        deadline = time.monotonic() + self.timeout
        while True:
            self.check_stop()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return TIMEOUT
            result = self.endpoint.recv(remaining)
            if result is TIMEOUT:
                return TIMEOUT
            data, src = result
            if self.peer is not None and src != self.peer:
                try:
                    self.send_packet(ErrorPacket(packets.ERR_UNKNOWN_TID, "unknown transfer id"), src)
                except Exception:
                    pass
                continue
            try:
                packet = decode_packet(data)
            except packets.MalformedPacketError:
                continue  # bit errors on the wire; the retransmission timer recovers
            awaited = handle(packet)
            if awaited is not None:
                self.peer = src
                return awaited
            if isinstance(packet, ErrorPacket):
                self.summary.error_code = packet.code
                self.abort(None, f"peer error {packet.code}: {packet.message}", notify_peer=False)

    def exchange(self, wire: bytes | None, handle, give_up: str, dst=None):
        """Send wire, then wait for what handle awaits, resending wire on every timeout.

        Without a wire, only waits.  Aborts with give_up once max_retries
        timeouts in a row have passed.
        """
        for attempt in range(self.max_retries + 1):
            if wire is not None:
                if attempt:
                    self.summary.retransmissions += 1
                self.endpoint.send(wire, dst if dst is not None else self.peer)
            awaited = self.wait(handle)
            if awaited is not TIMEOUT:
                return awaited
        self.abort(None, give_up, notify_peer=False)

    def request(self, wire: bytes, server):
        """Send a request to the server until it replies; the reply locks the TID, an ERROR ends the session."""
        reply = self.exchange(wire, lambda packet: packet, "no response from server", dst=server)
        if isinstance(reply, ErrorPacket):
            self.summary.error_code, self.summary.error_message = reply.code, reply.message
            self.abort(None, f"server refused: {reply.message}", notify_peer=False)
        return reply

    # -- data sender ---------------------------------------------------------

    def send_stream(
        self, data: bytes, keys: records.SessionKeys | None, key_payloads: list[bytes], rng
    ) -> None:
        """Send key_payloads, then data, as DATA blocks 1.. in lock-step.

        Under session keys each file chunk is sealed only after the block
        before it has been sent, so DATA 1 leaves at once whatever the file
        size, at most two sealed blocks are held, and nonces are drawn in
        block order.
        """
        size = PLAINTEXT_PER_BLOCK if keys is not None else BLOCK_SIZE
        # An exact multiple of the chunk size ends with an empty block.
        blocks = len(key_payloads) + len(data) // size + 1
        if blocks > 0xFFFF:
            self.abort(packets.ERR_NOT_DEFINED, "transfer exceeds the 16-bit block space")
        chunks = (data[i : i + size] for i in range(0, len(data) + 1, size))
        if keys is not None:
            chunks = (
                records.record_to_bytes(records.seal_block(keys, seq, chunk, rng))
                for seq, chunk in enumerate(chunks, 1 + len(key_payloads))
            )
        self.enter_phase(Phase.DATA_TRANSFER)
        sender = arq.new_sender(seq_bits=16, max_retries=self.max_retries, start_seq=1)
        payloads = itertools.chain(key_payloads, chunks)
        event = arq.Send(next(payloads))
        while event is not None:
            sender, actions = arq.sender_step(sender, event)
            for action in actions:
                if isinstance(action, arq.EmitFrame):
                    if isinstance(event, arq.Timeout):
                        self.summary.retransmissions += 1
                    self.send_packet(DataPacket(block=action.frame.seq, data=action.frame.payload))
                elif isinstance(action, arq.Fail):
                    self.abort(None, f"transfer failed: {action.reason}", notify_peer=False)
            if isinstance(event, arq.Send):
                # Seal the next block while this one is in flight; sealing it
                # between the ACK and its send would lengthen every round trip.
                upcoming = next(payloads, None)
            if arq.Done() in actions:
                event = arq.Send(upcoming) if upcoming is not None else None
            else:
                ack = self.wait(_ack(sender.seq))
                event = arq.Timeout() if ack is TIMEOUT else arq.AckReceived(ack.block)
        self.summary.blocks = blocks
        self.summary.bytes_transferred = len(data)

    # -- data receiver -------------------------------------------------------

    def recv_stream(
        self,
        prompt: bytes | None,
        keyblocks: int = 0,
        entry: KeyEntry | None = None,
        budget: fixed_time.TimeBudget | None = None,
        first: DataPacket | None = None,
        on_final=None,
    ) -> bytes:
        """Receive DATA blocks 1.. in lock-step until a short block ends the transfer.

        prompt (the OACK or ACK 0 that starts the stream) is resent on each
        timeout until block 1 arrives; first is a DATA 1 that came in as the
        reply to the request.  With keyblocks, blocks 1..keyblocks carry the
        key exchange, unwrapped with entry's secret key under budget, and
        every later block is a sealed record; without, blocks are raw data.
        on_final(data) runs before the final block is acknowledged, so a
        sender that sees the last ACK knows the payload was persisted.
        """
        receiver = arq.new_receiver(seq_bits=16, start_seq=1)
        keys: records.SessionKeys | None = None
        key_chunks: list[bytes] = []
        out = bytearray()
        if not keyblocks:
            self.enter_phase(Phase.DATA_TRANSFER)

        def take(packet):
            """Feed a DATA packet to the receiver: True for a new final block, False for another new block."""
            nonlocal receiver, keys
            if not isinstance(packet, DataPacket):
                return None
            payload = packet.data
            if keys is not None and packet.block == receiver.expected_seq:
                try:
                    record = records.record_from_bytes(packet.data)
                except ParameterError:
                    return None  # truncated record: treat as corruption
                self.summary.mac_checks += 1
                payload = records.open_block(keys, packet.block, record)
                if payload is records.MAC_FAILURE:
                    self.summary.mac_failures += 1
                    return None  # no ACK; the sender retransmits

            receiver, actions = arq.receiver_step(receiver, arq.make_data_frame(packet.block, payload))
            delivered = False
            ack: bytes | None = None
            for action in actions:
                if isinstance(action, arq.Deliver):
                    delivered = True
                    if len(key_chunks) < keyblocks:
                        key_chunks.append(action.payload)
                        if len(key_chunks) == keyblocks:
                            started = time.monotonic()
                            keys = key_exchange_receive(key_chunks, entry.secret, entry.params, budget)
                            self.summary.key_exchange_s = time.monotonic() - started
                            if keys is SECURITY_FAILURE:
                                self.abort(packets.ERR_SECURITY, "key exchange failed")
                            self.enter_phase(Phase.DATA_TRANSFER)
                    else:
                        out.extend(action.payload)
                        self.summary.blocks += 1
                        self.summary.blocks_accepted += 1
                elif isinstance(action, arq.EmitFrame):
                    ack = encode_packet(AckPacket(block=action.frame.seq))
            final = delivered and packet.block > keyblocks and len(packet.data) < BLOCK_SIZE
            if final and on_final is not None:
                on_final(bytes(out))  # persist before the final ACK
            if ack is not None:
                self.endpoint.send(ack, self.peer)
                self.last_ack = ack
            return final if delivered else None

        # Nudge with the prompt until the stream starts; once DATA flows,
        # recovery is the sender's timer alone.  Re-sending stale data ACKs
        # is dangerous: a bit error can turn ACK(n-1) into the awaited ACK(n)
        # and desynchronize the lock-step.
        finished = take(first) if first is not None else False
        while not finished:
            nudge = prompt if receiver.last_acked is None else None
            finished = self.exchange(nudge, take, "peer silent, retries exhausted")
        self.summary.bytes_transferred = len(out)
        self.dally()
        return bytes(out)

    def dally(self) -> None:
        """Re-acknowledge retransmitted final blocks for one timeout slice."""
        deadline = time.monotonic() + self.timeout
        while time.monotonic() < deadline:
            result = self.endpoint.recv(max(deadline - time.monotonic(), 0.001))
            if result is TIMEOUT:
                return
            data, src = result
            if src == self.peer and self.last_ack is not None:
                try:
                    if isinstance(decode_packet(data), DataPacket):
                        self.endpoint.send(self.last_ack, self.peer)
                except packets.MalformedPacketError:
                    pass


class _Node:
    """What client and server share: network, keys, retransmission settings
    and a decrypt budget per key, calibrated on first use."""

    def __init__(self, network, keystore, rng, timeout, max_retries, decrypt_budget):
        self.network = network
        self.keystore = keystore or KeyStore()
        self.rng = rng or _DEFAULT_RNG
        self.timeout = timeout
        self.max_retries = max_retries
        self.decrypt_budget = decrypt_budget
        self._budget_cache: dict[str, fixed_time.TimeBudget] = {}
        self._budget_lock = threading.Lock()

    def _budget_for(self, entry: KeyEntry) -> fixed_time.TimeBudget | None:
        if self.decrypt_budget is None:
            return None
        if isinstance(self.decrypt_budget, fixed_time.TimeBudget):
            return self.decrypt_budget
        with self._budget_lock:
            if entry.kid not in self._budget_cache:
                log.info("calibrating fixed-time decrypt budget for key %s", entry.kid)
                self._budget_cache[entry.kid] = calibrate_decrypt_budget(entry)
            return self._budget_cache[entry.kid]


# ---------------------------------------------------------------------------
# Client.
# ---------------------------------------------------------------------------

class TftpClient(_Node):
    """Blocking TFTP client over a real or simulated datagram network."""

    def __init__(
        self,
        network,
        keystore: KeyStore | None = None,
        *,
        rng: random.Random | None = None,
        timeout: float = arq.DEFAULT_TIMEOUT,
        max_retries: int = arq.DEFAULT_MAX_RETRIES,
        decrypt_budget: fixed_time.TimeBudget | str | None = "auto",
    ):
        super().__init__(network, keystore, rng, timeout, max_retries, decrypt_budget)

    def put(
        self,
        data: bytes,
        server,
        remote_name: str,
        security: SecurityOptions | None = None,
    ) -> TransferSummary:
        """Upload bytes; returns a summary whose status is DONE or FAILED."""
        summary = TransferSummary(security=security is not None)
        session = _Session(self, None, summary)
        with session.run():
            options: tuple[tuple[str, str], ...] = ()
            key_payloads: list[bytes] = []
            keys = None
            if security is not None:
                entry = self.keystore.get(security.kid)
                if entry is None:
                    raise ParameterError(f"recipient key {security.kid!r} not in keystore")
                kx_started = time.monotonic()
                material, key_payloads = key_exchange_send(entry.public, self.rng)
                summary.key_exchange_s = time.monotonic() - kx_started
                options = replace(security, keyblocks=len(key_payloads)).to_options()

            request = WriteRequest(filename=remote_name, mode="octet", options=options)
            reply = session.request(encode_packet(request), server)

            if security is not None:
                if not isinstance(reply, OptionAck):
                    session.abort(packets.ERR_OPTION_REFUSED, "server did not acknowledge security options")
                echoed = packets.security_from_options(reply.options)
                if (
                    echoed is None
                    or echoed.scheme != security.scheme
                    or echoed.keyblocks != len(key_payloads)
                ):
                    session.abort(packets.ERR_OPTION_REFUSED, "server altered security options")
                session.enter_phase(Phase.KEY_EXCHANGE)
                keys = records.derive_session_keys(material)
            else:
                if not isinstance(reply, (AckPacket, OptionAck)):
                    session.abort(None, f"unexpected reply {reply!r}", notify_peer=False)
                if isinstance(reply, AckPacket) and reply.block != 0:
                    session.abort(None, "unexpected initial ACK block", notify_peer=False)

            session.send_stream(data, keys, key_payloads, self.rng)
        return summary

    def get(
        self,
        remote_name: str,
        server,
        security: SecurityOptions | None = None,
    ) -> tuple[bytes | None, TransferSummary]:
        """Download a file; returns (bytes or None, summary)."""
        summary = TransferSummary(security=security is not None)
        session = _Session(self, None, summary)
        payload: bytes | None = None
        with session.run():
            options: tuple[tuple[str, str], ...] = ()
            entry: KeyEntry | None = None
            budget = None
            if security is not None:
                entry = self.keystore.get(security.kid)
                if entry is None or entry.secret is None:
                    raise ParameterError(f"no secret key {security.kid!r} in keystore for download")
                budget = self._budget_for(entry)  # calibrate before the clock starts
                options = SecurityOptions(scheme=security.scheme, kid=security.kid).to_options()

            request = ReadRequest(filename=remote_name, mode="octet", options=options)
            reply = session.request(encode_packet(request), server)

            keyblocks = 0
            prompt = first = None
            if isinstance(reply, OptionAck):
                echoed = packets.security_from_options(reply.options)
                if security is None:
                    session.abort(packets.ERR_OPTION_REFUSED, "unsolicited security options")
                if echoed is None or echoed.scheme != security.scheme or not echoed.keyblocks:
                    session.abort(packets.ERR_OPTION_REFUSED, "server altered security options")
                keyblocks = echoed.keyblocks
                prompt = encode_packet(AckPacket(block=0))
                session.enter_phase(Phase.KEY_EXCHANGE)
            elif isinstance(reply, DataPacket):
                if security is not None:
                    session.abort(packets.ERR_OPTION_REFUSED, "server ignored security options")
                if reply.block != 1:
                    session.abort(None, "legacy transfer did not start at block 1", notify_peer=False)
                first = reply  # a legacy transfer already in flight
            else:
                session.abort(None, f"unexpected reply {reply!r}", notify_peer=False)

            payload = session.recv_stream(prompt, keyblocks, entry, budget, first=first)
        return payload, summary


# ---------------------------------------------------------------------------
# Server.
# ---------------------------------------------------------------------------

@dataclass
class SessionLog:
    peer: object
    operation: str
    filename: str
    security: bool
    summary: TransferSummary


class TftpServer(_Node):
    """Serves read and write requests, one session thread per transfer."""

    def __init__(
        self,
        network,
        root: str | Path,
        keystore: KeyStore | None = None,
        policy: TransferPolicy | None = None,
        *,
        port: int | None = None,
        rng: random.Random | None = None,
        timeout: float = arq.DEFAULT_TIMEOUT,
        max_retries: int = arq.DEFAULT_MAX_RETRIES,
        decrypt_budget: fixed_time.TimeBudget | str | None = "auto",
    ):
        super().__init__(network, keystore, rng, timeout, max_retries, decrypt_budget)
        self.root = Path(root)
        self.policy = policy or TransferPolicy()
        self.endpoint = network.endpoint(port) if port is not None else network.endpoint()
        self.session_logs: list[SessionLog] = []
        self._log_lock = threading.Lock()
        # Live session threads by (source address, request datagram).
        self._threads: dict[tuple[object, bytes], threading.Thread] = {}

    @property
    def address(self):
        return self.endpoint.address

    def warm_up(self) -> None:
        """Calibrate decrypt budgets for every secret key before serving.

        Lazy calibration would otherwise delay the first secured session past
        the client's retransmission timeout.
        """
        for kid in self.keystore.kids():
            entry = self.keystore.get(kid)
            if entry is not None and entry.secret is not None:
                self._budget_for(entry)

    def serve_forever(self, stop: threading.Event) -> None:
        """Accept requests until the stop event is set; then abort sessions."""
        while not stop.is_set():
            result = self.endpoint.recv(0.1)
            if result is TIMEOUT:
                continue
            data, src = result
            try:
                packet = decode_packet(data)
            except packets.MalformedPacketError as exc:
                self.endpoint.send(encode_packet(ErrorPacket(packets.ERR_ILLEGAL_OPERATION, str(exc))), src)
                continue
            if isinstance(packet, (ReadRequest, WriteRequest)):
                self._threads = {key: thread for key, thread in self._threads.items() if thread.is_alive()}
                if (src, data) in self._threads:
                    continue  # a retransmitted request: its session is already answering
                thread = threading.Thread(
                    target=self._run_session, args=(packet, src, stop), daemon=True
                )
                thread.start()
                self._threads[(src, data)] = thread
            else:
                self.endpoint.send(
                    encode_packet(ErrorPacket(packets.ERR_ILLEGAL_OPERATION, "not a transfer request")), src
                )
        for thread in self._threads.values():
            thread.join(timeout=2 * self.timeout + 1)

    def _run_session(self, request, src, stop) -> None:
        summary = TransferSummary()
        try:
            summary.security = packets.security_from_options(request.options) is not None
        except packets.MalformedPacketError:
            pass
        operation = "get" if isinstance(request, ReadRequest) else "put"
        serve = self._serve_read if operation == "get" else self._serve_write
        session = _Session(self, src, summary, stop)
        try:
            with session.run():
                serve(session, request)
        finally:
            with self._log_lock:
                self.session_logs.append(
                    SessionLog(
                        peer=src,
                        operation=operation,
                        filename=request.filename,
                        security=summary.security,
                        summary=summary,
                    )
                )
            log.info(
                "session %s %r from %s: %s bytes=%d blocks=%d retrans=%d mac_failures=%d security=%s",
                operation,
                request.filename,
                src,
                summary.status,
                summary.bytes_transferred,
                summary.blocks,
                summary.retransmissions,
                summary.mac_failures,
                summary.security,
            )

    def _resolve(self, session: _Session, filename: str, must_exist: bool) -> Path:
        candidate = (self.root / filename).resolve()
        root = self.root.resolve()
        if root != candidate and root not in candidate.parents:
            session.abort(packets.ERR_ACCESS_VIOLATION, "path escapes the served root")
        if must_exist and not candidate.is_file():
            session.abort(packets.ERR_FILE_NOT_FOUND, f"no such file: {filename}")
        return candidate

    def _check_mode(self, session: _Session, request) -> None:
        if request.mode.lower() != "octet":
            session.abort(packets.ERR_ILLEGAL_OPERATION, f"only octet mode is served, not {request.mode!r}")

    def _negotiate(self, session: _Session, request) -> SecurityOptions | None:
        outcome = packets.negotiate(request.options, self.policy)
        if isinstance(outcome, ErrorPacket):
            session.abort(outcome.code, outcome.message)
        return packets.security_from_options(outcome)

    def _serve_write(self, session: _Session, request: WriteRequest) -> None:
        self._check_mode(session, request)
        target = self._resolve(session, request.filename, must_exist=False)
        sec = self._negotiate(session, request)

        entry = None
        budget = None
        initial = encode_packet(AckPacket(block=0))
        if sec is not None:
            if sec.keyblocks is None:
                session.abort(packets.ERR_OPTION_REFUSED, "secured write needs a keyblocks option")
            entry = self.keystore.get(sec.kid)
            if entry is None or entry.secret is None:
                session.abort(packets.ERR_OPTION_REFUSED, f"no secret key for kid {sec.kid!r}")
            budget = self._budget_for(entry)  # calibrate before answering
            initial = encode_packet(OptionAck(options=sec.to_options()))
            session.enter_phase(Phase.KEY_EXCHANGE)

        def store(data: bytes) -> None:
            # Write beside the target, then rename over it: a failed write
            # leaves the served file whole, and a get never reads half a file.
            temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.part")
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                temp.write_bytes(data)
                os.replace(temp, target)
            except OSError as exc:
                with contextlib.suppress(OSError):
                    temp.unlink()
                session.abort(packets.ERR_DISK_FULL, f"cannot store file: {exc}")

        session.recv_stream(initial, sec.keyblocks if sec else 0, entry, budget, on_final=store)

    def _serve_read(self, session: _Session, request: ReadRequest) -> None:
        summary = session.summary
        self._check_mode(session, request)
        source = self._resolve(session, request.filename, must_exist=True)
        sec = self._negotiate(session, request)
        data = source.read_bytes()

        keys = None
        key_payloads: list[bytes] = []
        if sec is not None:
            entry = self.keystore.get(sec.kid)
            if entry is None:
                session.abort(packets.ERR_OPTION_REFUSED, f"no public key for kid {sec.kid!r}")
            session.enter_phase(Phase.KEY_EXCHANGE)
            kx_started = time.monotonic()
            material, key_payloads = key_exchange_send(entry.public, self.rng)
            keys = records.derive_session_keys(material)
            summary.key_exchange_s = time.monotonic() - kx_started
            oack = OptionAck(
                options=SecurityOptions(scheme=sec.scheme, keyblocks=len(key_payloads), kid=sec.kid).to_options()
            )
            session.exchange(encode_packet(oack), _ack(0), "client never acknowledged options")

        session.send_stream(data, keys, key_payloads, self.rng)
