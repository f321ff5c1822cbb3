"""Datagram transport: real UDP sockets and a deterministic lossy channel.

The simulated channel applies Bernoulli loss, single random-bit corruption,
duplication, and a sampled delay to every datagram, all driven by one
seeded RNG so runs replay exactly.  A wiretap hook records every datagram
that actually crosses the channel, which the confidentiality tests inspect.

Scenario mode (run_scenario) drives a stop-and-wait sender and receiver
against a scripted channel on a virtual clock: scripts name exact datagram
indices to drop or corrupt, and the full exchange comes back as a trace.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import socket
import threading
import time
from dataclasses import dataclass

from . import arq
from .groups import ParameterError, Sentinel

MAX_DATAGRAM = 65507


TIMEOUT = Sentinel("TIMEOUT")


@dataclass(frozen=True)
class FixedDelay:
    seconds: float = 0.0

    def sample(self, rng: random.Random) -> float:
        return self.seconds


@dataclass(frozen=True)
class UniformDelay:
    lo: float
    hi: float

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class ChannelModel:
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay: FixedDelay | UniformDelay = FixedDelay(0.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("loss_rate", "corrupt_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {rate}")


def flip_random_bit(data: bytes, rng: random.Random) -> bytes:
    """Flip exactly one uniformly chosen bit (no-op on empty datagrams)."""
    if not data:
        return data
    bit = rng.randrange(len(data) * 8)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# ---------------------------------------------------------------------------
# Real UDP.
# ---------------------------------------------------------------------------

class UdpEndpoint:
    """Thin blocking wrapper over a bound UDP socket."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self.address: tuple[str, int] = self._sock.getsockname()  # still readable after close

    def send(self, data: bytes, dst) -> None:
        if len(data) > MAX_DATAGRAM:
            raise ParameterError(f"datagram of {len(data)} octets exceeds {MAX_DATAGRAM}")
        self._sock.sendto(data, tuple(dst))

    def recv(self, timeout: float):
        """Next (datagram, source address), or TIMEOUT."""
        self._sock.settimeout(timeout if timeout > 0 else 0.000001)
        try:
            data, src = self._sock.recvfrom(65535)
            return data, src
        except (socket.timeout, BlockingIOError):
            return TIMEOUT

    def close(self) -> None:
        self._sock.close()


class UdpNetwork:
    """Endpoint factory matching SimulatedNetwork's surface, for real sockets."""

    def __init__(self, host: str = "127.0.0.1"):
        self.host = host

    def endpoint(self, port: int = 0) -> UdpEndpoint:
        return UdpEndpoint(self.host, port)


# ---------------------------------------------------------------------------
# Simulated network (thread-safe, real-time waits, deterministic channel).
# ---------------------------------------------------------------------------

class SimEndpoint:
    def __init__(self, network: "SimulatedNetwork", address: int):
        self._network = network
        self.address = address
        self.queue: list[tuple[float, int, bytes, int]] = []  # (deliver_at, order, data, src)
        self.closed = False

    def send(self, data: bytes, dst: int) -> None:
        if len(data) > MAX_DATAGRAM:
            raise ParameterError(f"datagram of {len(data)} octets exceeds {MAX_DATAGRAM}")
        self._network.transmit(self.address, dst, data)

    def recv(self, timeout: float):
        return self._network.receive(self, timeout)

    def close(self) -> None:
        """Unbind the address and drop anything still queued; a second call does nothing."""
        self._network.release(self)


class SimulatedNetwork:
    """In-process datagram fabric with a seeded adverse channel.

    Endpoints are addressed by small integers (the simulation's ports); the
    channel decides loss/corruption/duplication/delay per datagram.  All
    surviving datagrams are appended to the wiretap.
    """

    def __init__(self, model: ChannelModel | None = None):
        self.model = model or ChannelModel()
        self._rng = random.Random(self.model.seed)
        self._cond = threading.Condition()
        self._endpoints: dict[int, SimEndpoint] = {}
        self._next_address = 1
        self._order = itertools.count()
        self.wiretap: list[bytes] = []
        self.dropped = 0
        self.corrupted = 0
        self.duplicated = 0
        self.sent = 0

    def endpoint(self, port: int | None = None) -> SimEndpoint:
        with self._cond:
            if port is None:
                while self._next_address in self._endpoints:
                    self._next_address += 1
                port = self._next_address
                self._next_address += 1
            if port in self._endpoints:
                raise ParameterError(f"simulated address {port} already bound")
            ep = SimEndpoint(self, port)
            self._endpoints[port] = ep
            return ep

    def release(self, endpoint: SimEndpoint) -> None:
        with self._cond:
            endpoint.closed = True
            endpoint.queue.clear()
            if self._endpoints.get(endpoint.address) is endpoint:
                del self._endpoints[endpoint.address]

    def transmit(self, src: int, dst: int, data: bytes) -> None:
        now = time.monotonic()
        with self._cond:
            self.sent += 1
            copies = []
            if self._rng.random() < self.model.loss_rate:
                self.dropped += 1
            else:
                payload = data
                if self._rng.random() < self.model.corrupt_rate:
                    payload = flip_random_bit(payload, self._rng)
                    self.corrupted += 1
                copies.append(payload)
                if self._rng.random() < self.model.duplicate_rate:
                    copies.append(payload)
                    self.duplicated += 1
            target = self._endpoints.get(dst)
            for payload in copies:
                self.wiretap.append(payload)
                if target is None:
                    continue
                deliver_at = now + self.model.delay.sample(self._rng)
                heapq.heappush(target.queue, (deliver_at, next(self._order), payload, src))
            self._cond.notify_all()

    def receive(self, endpoint: SimEndpoint, timeout: float):
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                if endpoint.queue and endpoint.queue[0][0] <= now:
                    _, _, data, src = heapq.heappop(endpoint.queue)
                    return data, src
                wait_until = deadline
                if endpoint.queue:
                    wait_until = min(deadline, endpoint.queue[0][0])
                remaining = wait_until - now
                if now >= deadline:
                    return TIMEOUT
                self._cond.wait(timeout=max(remaining, 0.0005))


# ---------------------------------------------------------------------------
# Scripted scenario runner (virtual clock).
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    outcome: str  # "DONE" or "FAIL"
    delivered: list[bytes]
    trace: list[dict]
    datagrams_sent: int
    retransmissions: int


def trace_to_jsonl(trace: list[dict]) -> str:
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in trace) + "\n"


def run_scenario(
    payloads: list[bytes],
    script: dict[int, str] | None = None,
    *,
    seq_bits: int = 16,
    timeout: float = arq.DEFAULT_TIMEOUT,
    max_retries: int = arq.DEFAULT_MAX_RETRIES,
    propagation_delay: float = 0.001,
    corrupt_rng_seed: int = 0,
) -> ScenarioResult:
    """Run a stop-and-wait transfer against a scripted channel, virtually timed.

    The script maps global datagram indices (counted in transmit order over
    both directions) to "drop" or "corrupt".  A corrupted frame fails its
    CRC at decode and is traced as "undecodable".  The next payload is sent
    once the previous one is acknowledged.  Every frame, adverse event,
    timeout, and delivery lands in the trace; indices beyond the datagrams
    actually sent are a parameter error.
    """
    script = dict(script or {})
    for action in script.values():
        if action not in ("drop", "corrupt"):
            raise ParameterError(f"unknown script action {action!r}")
    rng = random.Random(corrupt_rng_seed)

    sender = arq.new_sender(seq_bits=seq_bits, max_retries=max_retries)
    receiver = arq.new_receiver(seq_bits=seq_bits)
    trace: list[dict] = []
    delivered: list[bytes] = []
    outcome = "DONE" if not payloads else None
    datagram_index = 0
    retransmissions = 0
    live_timer = None  # index of the DATA datagram whose timer may still fire

    # Event heap entries: (time, tiebreak, kind, payload...)
    events: list = []
    order = itertools.count()

    def schedule(at: float, kind: str, item) -> None:
        heapq.heappush(events, (at, next(order), kind, item))

    def record(t: float, direction: str, kind, seq, event: str) -> None:
        trace.append({"t": round(t, 9), "direction": direction, "kind": kind, "seq": seq, "event": event})

    def transmit(t: float, direction: str, frame: arq.Frame) -> int:
        nonlocal datagram_index
        idx = datagram_index
        datagram_index += 1
        wire = arq.encode_frame(frame)
        action = script.pop(idx, None)
        kind_name = frame.kind.name
        record(t, direction, kind_name, frame.seq, "send")
        if action == "drop":
            record(t, direction, kind_name, frame.seq, "drop")
            return idx
        if action == "corrupt":
            wire = flip_random_bit(wire, rng)
            record(t, direction, kind_name, frame.seq, "corrupt")
        schedule(t + propagation_delay, "deliver_b" if direction == "a->b" else "deliver_a", wire)
        return idx

    upcoming = iter(payloads)

    def step_sender(t: float, event) -> None:
        """Feed the sender one event; on Done, send the next payload or finish."""
        nonlocal sender, outcome, retransmissions, live_timer
        sender, actions = arq.sender_step(sender, event)
        for action in actions:
            if isinstance(action, arq.EmitFrame):
                if sender.retries > 0:
                    retransmissions += 1
                live_timer = transmit(t, "a->b", action.frame)
                schedule(t + timeout, "timer", live_timer)
            elif isinstance(action, arq.Done):
                payload = next(upcoming, None)
                if payload is not None:
                    step_sender(t, arq.Send(payload))
                else:
                    record(t, "a->b", None, None, "done")
                    outcome = "DONE"
            elif isinstance(action, arq.Fail):
                record(t, "a->b", None, None, "fail")
                outcome = "FAIL"

    t = 0.0
    if payloads:
        step_sender(t, arq.Send(next(upcoming)))

    while events and outcome is None:
        t, _, kind, item = heapq.heappop(events)
        if kind == "timer":
            if item == live_timer and sender.pending is not None:
                record(t, "a->b", "DATA", sender.seq, "timeout")
                step_sender(t, arq.Timeout())
        elif kind == "deliver_b":
            try:
                frame = arq.decode_frame(item)
            except arq.FrameError:
                record(t, "a->b", None, None, "undecodable")
                continue
            record(t, "a->b", frame.kind.name, frame.seq, "deliver")
            receiver, actions = arq.receiver_step(receiver, frame)
            for action in actions:
                if isinstance(action, arq.Deliver):
                    delivered.append(action.payload)
                    record(t, "a->b", "DATA", frame.seq, "deliver_payload")
                elif isinstance(action, arq.EmitFrame):
                    transmit(t, "b->a", action.frame)
                elif isinstance(action, arq.Drop):
                    record(t, "a->b", frame.kind.name, frame.seq, f"dropped:{action.reason}")
        elif kind == "deliver_a":
            try:
                frame = arq.decode_frame(item)
            except arq.FrameError:
                record(t, "b->a", None, None, "undecodable")
                continue
            record(t, "b->a", frame.kind.name, frame.seq, "deliver")
            step_sender(t, arq.AckReceived(frame.seq))

    if script:
        raise ParameterError(
            f"script indices {sorted(script)} out of range; only {datagram_index} datagrams were sent"
        )
    return ScenarioResult(
        outcome=outcome or "FAIL",
        delivered=delivered,
        trace=trace,
        datagrams_sent=datagram_index,
        retransmissions=retransmissions,
    )
