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
max_retries; DATA blocks are retransmitted by the arq sender.  The key
exchange is one step per side: wrap() for the data sender, and
accept_keyblocks() for the data receiver; echoed() checks the OACK that
answers a secured request.

The receiving side of a transfer (a client get, a server write) ends when
its final ACK is sent, as RFC 1350 section 6 allows.  Its endpoint goes to
the node's dallier, one background thread that re-sends the final ACK for
any DATA from the peer for 1.25 timeouts, in case that ACK was lost, and
then closes the endpoint.  The hold outlasts the sender's one-timeout
timer, so a final block resent a little late is still answered.  An
endpoint handed over while every slot is full ends the oldest one's hold.
"""

from __future__ import annotations

import collections
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
from .groups import GroupParams, ParameterError, Sentinel, validate_group_params
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

_DEFAULT_RNG = random.SystemRandom()

# Endpoints one dallier holds at once; one handed over when all are full ends the oldest's hold.
_DALLY_SLOTS = 8
# How long, in timeouts, a dallier holds an endpoint: past the sender's resend at one timeout.
_DALLY_HOLD = 1.25


SECURITY_FAILURE = Sentinel("SECURITY_FAILURE")


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
        """Install a key that a secured transfer can use, with the tables of its wrap.

        The entry's public key is ``cramer_shoup.precompute(pk)``; re-adding
        an equal key reuses the tables of the entry it replaces.  Raises
        ParameterError for an invalid group, a group too small to wrap the
        session material, or c, d or h outside the order-q subgroup or equal
        to 1.
        """
        params = pk.params
        violations = validate_group_params(params)
        if violations:
            raise ParameterError("invalid group parameters: " + "; ".join(violations))
        try:
            cramer_shoup.encode_message(b"\xff" * records.KEY_MATERIAL_LEN, params)
        except EncodingError as exc:
            raise ParameterError(
                f"a {params.bits}-bit key cannot wrap {records.KEY_MATERIAL_LEN} octets of session material"
            ) from exc
        for name, value in (("C", pk.c), ("D", pk.d), ("H", pk.h)):
            if value == 1 or not params.is_member(value):
                raise ParameterError(f"public component {name} is not in the order-q subgroup or is 1")
        kid = cramer_shoup.key_id(pk)
        existing = self._entries.get(kid)
        if existing is not None and existing.secret is not None and sk is None:
            return existing  # never downgrade a secret entry to public-only
        if existing is not None and existing.public == pk:
            pk = existing.public  # its tables are built
        entry = KeyEntry(kid=kid, public=cramer_shoup.precompute(pk), secret=sk)
        self._entries[kid] = entry
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


def _max_keyblocks(params: GroupParams) -> int:
    """The most DATA blocks a wrapped key can fill: four length-prefixed integers below p."""
    return -(-4 * (2 + -(-params.bits // 8)) // BLOCK_SIZE)


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


def calibrate_decrypt_budget(entry: KeyEntry) -> fixed_time.TimeBudget:
    """Worst-case budget for unwrapping key material under this entry's key."""
    if entry.secret is None:
        raise ParameterError(f"key {entry.kid} has no secret half to calibrate with")
    rng = random.Random(0xC0DEC)
    material = rng.randbytes(records.KEY_MATERIAL_LEN)
    element = cramer_shoup.encode_message(material, entry.params)
    ct = cramer_shoup.encrypt_with_rng(entry.public, element, rng)
    wire_len = len(cramer_shoup.ciphertext_to_bytes(ct))
    op_class = fixed_time.OpClass(name="cs.decrypt", input_length=wire_len)
    return fixed_time.calibrate(
        op_class,
        lambda: cramer_shoup.decrypt(entry.secret, entry.params, ct),
        n_samples=30,
        safety_factor=1.5,
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
    """Raised by _Session.abort; its args are the session's (error code, message)."""


def _ack(block: int):
    """A wait handler that awaits ACK block."""
    return lambda packet: packet if isinstance(packet, AckPacket) and packet.block == block else None


class _Session:
    """One lock-step exchange on its own endpoint, for client and server alike."""

    def __init__(self, node: "_Node", peer, summary: TransferSummary, stop=None):
        self.endpoint = node.network.endpoint()
        self.dallier = node._dallier
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
        keeps.  Either way elapsed_s is set.  The endpoint is closed, unless
        the session received a transfer to its end: then it goes to the
        node's dallier with the final ACK.
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
            summary.error_code, summary.error_message = abort.args
            summary.phases.append(Phase.FAILED)
        finally:
            summary.elapsed_s = time.monotonic() - started
            if summary.ok and self.last_ack is not None:
                self.dallier.hand_over(self.endpoint, self.peer, self.last_ack, self.timeout)
            else:
                self.endpoint.close()

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
        """End the session with code and message, sending them as ERROR unless notify_peer is false."""
        if notify_peer and self.peer is not None and code is not None:
            with contextlib.suppress(Exception):
                self.send_packet(ErrorPacket(code, message))
        raise _SessionAborted(code, message)

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
            if self.stop is not None and self.stop.is_set():
                self.abort(packets.ERR_NOT_DEFINED, "server shutting down")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return TIMEOUT
            result = self.endpoint.recv(remaining)
            if result is TIMEOUT:
                return TIMEOUT
            data, src = result
            if self.peer is not None and src != self.peer:
                with contextlib.suppress(Exception):
                    self.send_packet(ErrorPacket(packets.ERR_UNKNOWN_TID, "unknown transfer id"), src)
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
                self.abort(packet.code, f"peer error {packet.code}: {packet.message}", notify_peer=False)

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
            self.abort(reply.code, reply.message, notify_peer=False)
        return reply

    def echoed(self, reply, security: SecurityOptions) -> SecurityOptions:
        """The security options that reply, an OACK, echoes; any other reply is refused with ERROR 8."""
        try:
            options = packets.security_from_options(reply.options) if isinstance(reply, OptionAck) else None
        except packets.MalformedPacketError as exc:
            self.abort(packets.ERR_OPTION_REFUSED, f"malformed OACK: {exc}")
        if options is None or options.scheme != security.scheme:
            self.abort(packets.ERR_OPTION_REFUSED, "server did not echo the security options")
        return options

    # -- data sender ---------------------------------------------------------

    def wrap(self, entry: KeyEntry | None, rng) -> tuple[records.SessionKeys, list[bytes]]:
        """Data sender: wrap fresh session material for entry's key; returns the keys and key blocks."""
        if entry is None:
            self.abort(packets.ERR_OPTION_REFUSED, "no key for the requested kid")
        started = time.monotonic()
        material, payloads = key_exchange_send(entry.public, rng)
        keys = records.derive_session_keys(material)
        self.summary.key_exchange_s = time.monotonic() - started
        return keys, payloads

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

    def accept_keyblocks(self, entry: KeyEntry | None, keyblocks: int | None) -> None:
        """Data receiver: refuse with ERROR 8 a key it cannot unwrap with, or more key blocks than its wrap fills."""
        if entry is None or entry.secret is None:
            self.abort(packets.ERR_OPTION_REFUSED, "no secret key for the requested kid")
        limit = _max_keyblocks(entry.params)
        if not keyblocks or keyblocks > limit:
            self.abort(packets.ERR_OPTION_REFUSED, f"keyblocks must be 1 to {limit} for key {entry.kid}")
        self.enter_phase(Phase.KEY_EXCHANGE)

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
        Returns once the final ACK is sent; if that ACK is lost, the node's
        dallier answers the resent final block after the session has ended.
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
                    self.summary.blocks += 1
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
        return bytes(out)


class _Dallier:
    """Re-acknowledges lost final ACKs for the finished sessions of one node.

    Each handed-over endpoint is held for _DALLY_HOLD timeouts: DATA from its
    peer is answered with the session's final ACK, then the endpoint is
    closed.  One thread serves all of them and alone closes what it holds.
    An endpoint handed over while every slot is full releases the oldest,
    whose hold ends there.  The thread starts with the first hand-over, ends
    once it holds nothing, and is not a daemon, so a process that exits
    right after a get still answers a lost final ACK.  It waits only in
    endpoint.recv, on each held endpoint in turn for timeout / 2 divided
    among them, so a resent final block is answered within timeout / 2.
    After each of these slices it closes every endpoint whose hold has ended.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._held: collections.deque[tuple] = collections.deque()  # (deadline, endpoint, peer, ack, timeout)
        self._released: list[tuple] = []  # out of _held before its deadline, not yet closed
        self._thread: threading.Thread | None = None
        self._running = False

    def hand_over(self, endpoint, peer, ack: bytes, timeout: float) -> None:
        with self._lock:
            if len(self._held) == _DALLY_SLOTS:
                oldest = min(self._held, key=lambda item: item[0])
                self._held.remove(oldest)
                self._released.append(oldest)
            self._held.append((time.monotonic() + _DALLY_HOLD * timeout, endpoint, peer, ack, timeout))
            if not self._running:
                if self._thread is not None:
                    self._thread.join()  # it has left its loop; only its return remains
                self._running = True
                self._thread = threading.Thread(target=self._run, name="tftps-dallier")
                self._thread.start()

    def _run(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                expired = [item for item in self._held if item[0] <= now]
                for item in expired:
                    self._held.remove(item)
                ended, self._released = self._released + expired, []
                if not self._held and not ended:
                    self._running = False
                    return
                turn = self._held[0] if self._held else None
                self._held.rotate(-1)
                shares = len(self._held)
            for item in ended:
                self._listen(item, now)  # one last read answers DATA that came in while the thread listened elsewhere
                item[1].close()
            if turn is not None:
                self._listen(turn, min(turn[0], time.monotonic() + turn[4] / 2 / shares))

    def _listen(self, item: tuple, until: float) -> None:
        """Answer DATA from the item's peer with its final ACK until `until`, reading at least once."""
        _, endpoint, peer, ack, _ = item
        try:
            while (result := endpoint.recv(max(until - time.monotonic(), 0.0))) is not TIMEOUT:
                data, src = result
                with contextlib.suppress(packets.MalformedPacketError):
                    if src == peer and isinstance(decode_packet(data), DataPacket):
                        endpoint.send(ack, peer)
                if time.monotonic() >= until:
                    break
        except OSError:
            pass  # a failed socket has nothing left to answer; it is closed once its hold ends


class _Node:
    """What client and server share: network, keys, retransmission settings
    and a decrypt budget per key, calibrated on first use."""

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
        self.network = network
        self.keystore = keystore or KeyStore()
        self.rng = rng or _DEFAULT_RNG
        self.timeout = timeout
        self.max_retries = max_retries
        self.decrypt_budget = decrypt_budget
        self._budget_cache: dict[str, fixed_time.TimeBudget] = {}
        self._budget_lock = threading.Lock()
        self._dallier = _Dallier()

    def _entry(self, kid: str, secret: bool) -> KeyEntry:
        """The key for kid, with its secret half if secret; raises ParameterError before anything is sent."""
        entry = self.keystore.get(kid)
        if entry is None or (secret and entry.secret is None):
            raise ParameterError(f"no {'secret' if secret else 'public'} key {kid!r} in keystore")
        return entry

    def _budget_for(self, entry: KeyEntry) -> fixed_time.TimeBudget | None:
        if self.decrypt_budget != "auto":
            return self.decrypt_budget  # None (no budget) or a fixed TimeBudget
        with self._budget_lock:
            if entry.kid not in self._budget_cache:
                budget = calibrate_decrypt_budget(entry)
                log.info("fixed-time decrypt budget for key %s: %.1f ms", entry.kid, budget.budget_ns / 1e6)
                self._budget_cache[entry.kid] = budget
            return self._budget_cache[entry.kid]


# ---------------------------------------------------------------------------
# Client.
# ---------------------------------------------------------------------------

class TftpClient(_Node):
    """Blocking TFTP client over a real or simulated datagram network."""

    def put(
        self,
        data: bytes,
        server,
        remote_name: str,
        security: SecurityOptions | None = None,
    ) -> TransferSummary:
        """Upload bytes; returns a summary whose status is DONE or FAILED."""
        entry = self._entry(security.kid, secret=False) if security is not None else None
        summary = TransferSummary(security=security is not None)
        session = _Session(self, None, summary)
        with session.run():
            options: tuple[tuple[str, str], ...] = ()
            keys, key_payloads = None, []
            if security is not None:
                keys, key_payloads = session.wrap(entry, self.rng)
                options = replace(security, keyblocks=len(key_payloads)).to_options()

            request = WriteRequest(filename=remote_name, mode="octet", options=options)
            reply = session.request(encode_packet(request), server)

            if security is not None:
                if session.echoed(reply, security).keyblocks != len(key_payloads):
                    session.abort(packets.ERR_OPTION_REFUSED, "server altered keyblocks")
                session.enter_phase(Phase.KEY_EXCHANGE)
            elif reply != AckPacket(block=0) and not isinstance(reply, OptionAck):
                session.abort(None, f"unexpected reply {reply!r}", notify_peer=False)

            session.send_stream(data, keys, key_payloads, self.rng)
        return summary

    def get(
        self,
        remote_name: str,
        server,
        security: SecurityOptions | None = None,
    ) -> tuple[bytes | None, TransferSummary]:
        """Download a file; returns (bytes or None, summary)."""
        entry = budget = None
        options: tuple[tuple[str, str], ...] = ()
        if security is not None:
            entry = self._entry(security.kid, secret=True)
            budget = self._budget_for(entry)  # calibrate before the clock starts
            options = SecurityOptions(scheme=security.scheme, kid=security.kid).to_options()
        summary = TransferSummary(security=security is not None)
        session = _Session(self, None, summary)
        payload: bytes | None = None
        with session.run():
            request = ReadRequest(filename=remote_name, mode="octet", options=options)
            reply = session.request(encode_packet(request), server)

            if security is not None:
                keyblocks = session.echoed(reply, security).keyblocks
                session.accept_keyblocks(entry, keyblocks)
                payload = session.recv_stream(encode_packet(AckPacket(block=0)), keyblocks, entry, budget)
            else:
                if isinstance(reply, OptionAck):
                    session.abort(packets.ERR_OPTION_REFUSED, "unsolicited options")
                if not isinstance(reply, DataPacket) or reply.block != 1:
                    session.abort(None, f"unexpected reply {reply!r}", notify_peer=False)
                payload = session.recv_stream(None, first=reply)  # a legacy transfer already in flight
        return payload, summary


# ---------------------------------------------------------------------------
# Server.
# ---------------------------------------------------------------------------

@dataclass
class SessionLog:
    peer: object
    operation: str
    filename: str
    summary: TransferSummary


class TftpServer(_Node):
    """Serves read and write requests, one session thread per transfer; settings are _Node's keywords."""

    def __init__(
        self,
        network,
        root: str | Path,
        keystore: KeyStore | None = None,
        policy: TransferPolicy | None = None,
        *,
        port: int | None = None,
        **settings,
    ):
        super().__init__(network, keystore, **settings)
        self.root = Path(root)
        self.policy = policy or TransferPolicy()
        self.endpoint = network.endpoint(port) if port is not None else network.endpoint()
        self.session_logs: collections.deque[SessionLog] = collections.deque(maxlen=1024)
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
        """Accept requests until the stop event is set; then abort sessions.

        The listening endpoint is closed once the session threads are joined.
        """
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
        self.endpoint.close()

    def _run_session(self, request, src, stop) -> None:
        summary = TransferSummary(security=packets.asks_for_security(request.options))
        operation = "get" if isinstance(request, ReadRequest) else "put"
        session = _Session(self, src, summary, stop)
        try:
            with session.run():
                if request.mode.lower() != "octet":
                    session.abort(packets.ERR_ILLEGAL_OPERATION, f"only octet mode is served, not {request.mode!r}")
                path = self._resolve(session, request.filename, must_exist=operation == "get")
                outcome = packets.negotiate(request.options, self.policy)
                if isinstance(outcome, ErrorPacket):
                    session.abort(outcome.code, outcome.message)
                sec = packets.security_from_options(outcome)
                entry = self.keystore.get(sec.kid) if sec is not None else None
                serve = self._serve_read if operation == "get" else self._serve_write
                serve(session, path, sec, entry)
        finally:
            with self._log_lock:
                self.session_logs.append(
                    SessionLog(
                        peer=src,
                        operation=operation,
                        filename=request.filename,
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

    def _serve_write(self, session: _Session, target: Path, sec: SecurityOptions | None, entry) -> None:
        keyblocks = 0
        budget = None
        initial = encode_packet(AckPacket(block=0))
        if sec is not None:
            session.accept_keyblocks(entry, sec.keyblocks)
            keyblocks = sec.keyblocks
            budget = self._budget_for(entry)  # calibrate before answering
            initial = encode_packet(OptionAck(options=sec.to_options()))

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

        session.recv_stream(initial, keyblocks, entry, budget, on_final=store)

    def _serve_read(self, session: _Session, source: Path, sec: SecurityOptions | None, entry) -> None:
        try:
            data = source.read_bytes()
        except OSError as exc:
            session.abort(packets.ERR_ACCESS_VIOLATION, f"cannot read file: {exc}")
        keys, key_payloads = None, []
        if sec is not None:
            keys, key_payloads = session.wrap(entry, self.rng)
            session.enter_phase(Phase.KEY_EXCHANGE)
            oack = OptionAck(options=replace(sec, keyblocks=len(key_payloads)).to_options())
            session.exchange(encode_packet(oack), _ack(0), "client never acknowledged options")
        session.send_stream(data, keys, key_payloads, self.rng)
