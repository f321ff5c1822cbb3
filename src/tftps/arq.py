"""Simplex stop-and-wait ARQ: pure step functions over explicit state.

One DATA frame is outstanding at a time: the sender takes a payload only
when idle and reports Done when it is acknowledged.  The receiver
acknowledges each frame and re-acknowledges duplicates without
re-delivering.  The sequence width is a parameter: 1 bit for the classic
alternating-bit demo, 16 bits for TFTP block numbers.

Frames carry no checksum of their own.  The standalone demo wire format
appends a CRC-32, and decode_frame rejects a frame whose CRC fails, so a
corrupted frame never reaches the machines (the sender's timeout covers
the loss).  TFTP needs no CRC: the UDP checksum covers each datagram and
the MAC each sealed record.

The caller owns the event loop and all timers; these functions never
block, never sleep, and hold no hidden state.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import IntEnum

from .groups import ParameterError

DEFAULT_MAX_RETRIES = 5
DEFAULT_TIMEOUT = 0.5  # seconds, for drivers that need a retransmit interval


class FrameKind(IntEnum):
    DATA = 1
    ACK = 2


class FrameError(ValueError):
    """Raised when demo-format frame bytes cannot be decoded."""


def crc32(data: bytes) -> int:
    """Standard reflected CRC-32 (poly 0xEDB88320, init/xorout 0xFFFFFFFF)."""
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    seq: int
    payload: bytes


def make_data_frame(seq: int, payload: bytes) -> Frame:
    return Frame(FrameKind.DATA, seq, payload)


def make_ack_frame(seq: int) -> Frame:
    return Frame(FrameKind.ACK, seq, b"")


# Standalone demo wire format: kind(1) | seq(2 BE) | length(2 BE) | payload | crc32(4 BE),
# where the CRC covers seq(2 BE) | kind(1) | payload.

def _frame_crc(kind: int, seq_bytes: bytes, payload: bytes) -> bytes:
    return crc32(seq_bytes + bytes([kind]) + payload).to_bytes(4, "big")


def encode_frame(frame: Frame) -> bytes:
    seq_bytes = frame.seq.to_bytes(2, "big")
    return (
        bytes([frame.kind])
        + seq_bytes
        + len(frame.payload).to_bytes(2, "big")
        + frame.payload
        + _frame_crc(frame.kind, seq_bytes, frame.payload)
    )


def decode_frame(data: bytes) -> Frame:
    if len(data) < 9:
        raise FrameError("frame too short")
    kind_byte = data[0]
    if kind_byte not in (FrameKind.DATA, FrameKind.ACK):
        raise FrameError(f"unknown frame kind {kind_byte}")
    seq_bytes = data[1:3]
    length = int.from_bytes(data[3:5], "big")
    if len(data) != 9 + length:
        raise FrameError("frame length mismatch")
    payload = data[5 : 5 + length]
    if data[5 + length :] != _frame_crc(kind_byte, seq_bytes, payload):
        raise FrameError("checksum mismatch")
    return Frame(FrameKind(kind_byte), int.from_bytes(seq_bytes, "big"), payload)


# ---------------------------------------------------------------------------
# Chunking.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkSet:
    chunks: tuple[bytes, ...]
    original_length: int

    @property
    def total_chunks(self) -> int:
        return len(self.chunks)


def chunk_payload(data: bytes, max_payload: int) -> ChunkSet:
    """Split into ceil(len/max_payload) chunks, all full-size except the last.

    Empty input yields one empty chunk.  An exact multiple of max_payload
    gets no trailing empty chunk: TFTP's empty-final-block convention is
    the session's own chunker's job (tftp._Session.send_stream).
    """
    if max_payload < 1:
        raise ParameterError("max_payload must be >= 1")
    if not data:
        return ChunkSet(chunks=(b"",), original_length=0)
    chunks = tuple(bytes(data[i : i + max_payload]) for i in range(0, len(data), max_payload))
    return ChunkSet(chunks=chunks, original_length=len(data))


def reassemble(chunk_set: ChunkSet) -> bytes:
    data = b"".join(chunk_set.chunks)
    if len(data) != chunk_set.original_length:
        raise ParameterError(
            f"reassembled {len(data)} octets, expected {chunk_set.original_length}"
        )
    return data


# ---------------------------------------------------------------------------
# Events (driver -> machine) and actions (machine -> driver).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Send:
    payload: bytes


@dataclass(frozen=True)
class AckReceived:
    seq: int


@dataclass(frozen=True)
class Timeout:
    pass


@dataclass(frozen=True)
class EmitFrame:
    frame: Frame


@dataclass(frozen=True)
class Deliver:
    payload: bytes


@dataclass(frozen=True)
class Done:
    pass


@dataclass(frozen=True)
class Fail:
    reason: str


@dataclass(frozen=True)
class Drop:
    reason: str


@dataclass(frozen=True)
class SenderState:
    seq_bits: int = 16
    max_retries: int = DEFAULT_MAX_RETRIES
    seq: int = 0
    pending: bytes | None = None
    retries: int = 0
    failed: bool = False

    @property
    def seq_mod(self) -> int:
        return 1 << self.seq_bits


def new_sender(seq_bits: int = 16, max_retries: int = DEFAULT_MAX_RETRIES, start_seq: int = 0) -> SenderState:
    return SenderState(seq_bits=seq_bits, max_retries=max_retries, seq=start_seq)


def sender_step(state: SenderState, event) -> tuple[SenderState, list]:
    """Advance the sender by one event; returns (new state, actions).

    SEND transmits a payload and is accepted only when idle; a matching
    ACK advances the sequence and reports DONE, after which the caller may
    SEND the next payload; TIMEOUT retransmits the identical frame until
    max_retries is exceeded, which FAILs the transfer.  Non-matching ACKs
    change nothing.
    """
    if state.failed:
        return state, []

    if isinstance(event, Send):
        if state.pending is not None:
            raise ParameterError(f"send while frame {state.seq} is outstanding")
        new = SenderState(seq_bits=state.seq_bits, max_retries=state.max_retries, seq=state.seq, pending=event.payload)
        return new, [EmitFrame(make_data_frame(new.seq, event.payload))]

    if isinstance(event, AckReceived):
        if state.pending is None or event.seq != state.seq:
            return state, []
        next_seq = (state.seq + 1) % state.seq_mod
        return SenderState(seq_bits=state.seq_bits, max_retries=state.max_retries, seq=next_seq), [Done()]

    if isinstance(event, Timeout):
        if state.pending is None:
            return state, []
        retries = state.retries + 1
        if retries > state.max_retries:
            failed = SenderState(
                seq_bits=state.seq_bits,
                max_retries=state.max_retries,
                seq=state.seq,
                pending=state.pending,
                retries=state.retries,
                failed=True,
            )
            return failed, [Fail(f"retry limit {state.max_retries} exceeded")]
        new = SenderState(
            seq_bits=state.seq_bits,
            max_retries=state.max_retries,
            seq=state.seq,
            pending=state.pending,
            retries=retries,
        )
        return new, [EmitFrame(make_data_frame(state.seq, state.pending))]

    raise ParameterError(f"unknown sender event {event!r}")


@dataclass(frozen=True)
class ReceiverState:
    seq_bits: int = 16
    expected_seq: int = 0
    last_acked: int | None = None

    @property
    def seq_mod(self) -> int:
        return 1 << self.seq_bits


def new_receiver(seq_bits: int = 16, start_seq: int = 0) -> ReceiverState:
    return ReceiverState(seq_bits=seq_bits, expected_seq=start_seq)


def receiver_step(state: ReceiverState, frame: Frame) -> tuple[ReceiverState, list]:
    """Process one received frame.

    Duplicates are re-acknowledged but never re-delivered; the expected
    frame is delivered upward and acknowledged; anything else is dropped
    without acknowledgement.
    """
    if frame.kind != FrameKind.DATA:
        return state, [Drop("not a data frame")]
    if frame.seq == state.expected_seq:
        new = ReceiverState(
            seq_bits=state.seq_bits,
            expected_seq=(frame.seq + 1) % state.seq_mod,
            last_acked=frame.seq,
        )
        return new, [Deliver(frame.payload), EmitFrame(make_ack_frame(frame.seq))]
    if state.last_acked is not None and frame.seq == state.last_acked:
        return state, [EmitFrame(make_ack_frame(frame.seq))]
    return state, [Drop(f"out-of-order seq {frame.seq}")]
