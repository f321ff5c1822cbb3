import random

import pytest

from tftps.arq import (
    AckReceived,
    ChunkSet,
    Deliver,
    Done,
    Drop,
    EmitFrame,
    Fail,
    FrameError,
    FrameKind,
    Send,
    Timeout,
    chunk_payload,
    crc32,
    decode_frame,
    encode_frame,
    make_ack_frame,
    make_data_frame,
    new_receiver,
    new_sender,
    reassemble,
    receiver_step,
    sender_step,
)
from tftps.groups import ParameterError


def crc32_reference(data: bytes) -> int:
    """Independent bitwise CRC-32 (reflected, poly 0xEDB88320)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


class TestCrc32:
    def test_published_check_value(self):
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty_input(self):
        assert crc32(b"") == 0x00000000

    def test_matches_bitwise_reference(self):
        rng = random.Random(0)
        for length in (1, 7, 64, 300):
            data = rng.randbytes(length)
            assert crc32(data) == crc32_reference(data)

    def test_detects_every_single_bit_flip(self):
        data = random.Random(1).randbytes(512)
        baseline = crc32(data)
        for bit in range(len(data) * 8):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert crc32(bytes(flipped)) != baseline, bit


class TestChunking:
    def test_exact_multiple(self):
        chunks = chunk_payload(bytes(1024), 512)
        assert chunks.total_chunks == 2
        assert all(len(c) == 512 for c in chunks.chunks)

    def test_remainder_chunk(self):
        chunks = chunk_payload(bytes(1025), 512)
        assert [len(c) for c in chunks.chunks] == [512, 512, 1]

    def test_empty_payload_single_empty_chunk(self):
        chunks = chunk_payload(b"", 512)
        assert chunks.chunks == (b"",)
        assert chunks.original_length == 0

    def test_zero_max_payload(self):
        with pytest.raises(ParameterError):
            chunk_payload(b"data", 0)

    def test_reassembly_is_inverse_for_all_small_lengths(self):
        rng = random.Random(2)
        for length in range(0, 2049):
            data = rng.randbytes(length)
            assert reassemble(chunk_payload(data, 512)) == data

    def test_reassemble_checks_length(self):
        with pytest.raises(ParameterError):
            reassemble(ChunkSet(chunks=(b"ab",), original_length=3))


class TestFrameCodec:
    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(100):
            frame = make_data_frame(rng.randrange(1 << 16), rng.randbytes(rng.randrange(0, 100)))
            assert decode_frame(encode_frame(frame)) == frame
        assert decode_frame(encode_frame(make_ack_frame(7))) == make_ack_frame(7)

    def test_wire_layout(self):
        wire = encode_frame(make_data_frame(0x0102, b"hi"))
        assert len(wire) == 11
        assert wire[0] == FrameKind.DATA
        assert wire[1:3] == b"\x01\x02"
        assert wire[3:5] == b"\x00\x02"
        assert wire[5:7] == b"hi"
        assert wire[7:] == crc32_reference(b"\x01\x02" + bytes([FrameKind.DATA]) + b"hi").to_bytes(4, "big")

    def test_checksum_covers_seq_kind_payload(self):
        data_crc = encode_frame(make_data_frame(5, b"xyz"))[-4:]
        assert int.from_bytes(data_crc, "big") == crc32_reference(b"\x00\x05" + bytes([FrameKind.DATA]) + b"xyz")
        ack_crc = encode_frame(make_ack_frame(5))[-4:]
        assert int.from_bytes(ack_crc, "big") == crc32_reference(b"\x00\x05" + bytes([FrameKind.ACK]))

    def test_any_single_bit_flip_is_caught(self):
        wire = encode_frame(make_data_frame(9, b"payload bytes"))
        for bit in range(len(wire) * 8):
            mutated = bytearray(wire)
            mutated[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameError):
                decode_frame(bytes(mutated))

    def test_decode_rejects_bad_crc(self):
        wire = bytearray(encode_frame(make_data_frame(0, b"hello")))
        wire[-1] ^= 1
        with pytest.raises(FrameError, match="checksum mismatch"):
            decode_frame(bytes(wire))

    def test_truncated(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x01\x00")


class TestSender:
    def test_clean_two_frame_run(self):
        state = new_sender()
        state, actions = sender_step(state, Send(b"one"))
        assert actions == [EmitFrame(make_data_frame(0, b"one"))]
        state, actions = sender_step(state, AckReceived(0))
        assert actions == [Done()]
        state, actions = sender_step(state, Send(b"two"))  # the next payload goes after Done
        assert actions == [EmitFrame(make_data_frame(1, b"two"))]
        state, actions = sender_step(state, AckReceived(1))
        assert actions == [Done()]

    def test_send_while_outstanding_raises(self):
        state = new_sender()
        state, _ = sender_step(state, Send(b"one"))
        with pytest.raises(ParameterError):
            sender_step(state, Send(b"two"))

    def test_timeout_retransmits_bit_exact(self):
        state = new_sender()
        state, first = sender_step(state, Send(b"payload"))
        state, retry = sender_step(state, Timeout())
        assert retry == first
        assert encode_frame(retry[0].frame) == encode_frame(first[0].frame)

    def test_retry_limit_fails(self):
        state = new_sender(max_retries=5)
        state, _ = sender_step(state, Send(b"x"))
        for _ in range(5):
            state, actions = sender_step(state, Timeout())
            assert isinstance(actions[0], EmitFrame)
        state, actions = sender_step(state, Timeout())  # 6th consecutive timeout
        assert actions == [Fail("retry limit 5 exceeded")]

    def test_mismatched_ack_ignored(self):
        state = new_sender()
        state, _ = sender_step(state, Send(b"x"))
        after, actions = sender_step(state, AckReceived(3))
        assert actions == [] and after == state

    def test_idle_timeout_ignored(self):
        state = new_sender()
        after, actions = sender_step(state, Timeout())
        assert actions == [] and after == state

    def test_alternating_bit_wraps(self):
        state = new_sender(seq_bits=1)
        for expected_seq in (0, 1, 0, 1):
            state, actions = sender_step(state, Send(b"p"))
            assert actions[0].frame.seq == expected_seq
            state, actions = sender_step(state, AckReceived(expected_seq))
            assert actions == [Done()]


class TestReceiver:
    def test_fresh_frame_delivered_and_acked(self):
        state = new_receiver()
        state, actions = receiver_step(state, make_data_frame(0, b"hello"))
        assert actions == [Deliver(b"hello"), EmitFrame(make_ack_frame(0))]

    def test_duplicate_reacked_not_redelivered(self):
        state = new_receiver()
        state, _ = receiver_step(state, make_data_frame(0, b"hello"))
        state, actions = receiver_step(state, make_data_frame(0, b"hello"))
        assert actions == [EmitFrame(make_ack_frame(0))]

    def test_out_of_window_dropped(self):
        state = new_receiver()
        _, actions = receiver_step(state, make_data_frame(5, b"stray"))
        assert actions == [Drop("out-of-order seq 5")]

    def test_ack_frames_dropped(self):
        state = new_receiver()
        _, actions = receiver_step(state, make_ack_frame(0))
        assert actions == [Drop("not a data frame")]

    def test_in_order_sequence_delivery(self):
        state = new_receiver()
        payloads = [b"a", b"b", b"c"]
        delivered = []
        for i, payload in enumerate(payloads):
            state, actions = receiver_step(state, make_data_frame(i, payload))
            delivered += [a.payload for a in actions if isinstance(a, Deliver)]
        assert delivered == payloads


class TestAlternatingBitAgreement:
    def test_sender_receiver_agree_at_delivery_points(self):
        sender = new_sender(seq_bits=1)
        receiver = new_receiver(seq_bits=1)
        payloads = [bytes([i]) for i in range(6)]
        delivered = []
        for payload in payloads:
            sender, actions = sender_step(sender, Send(payload))
            frame = actions[0].frame
            assert frame.seq == receiver.expected_seq
            receiver, r_actions = receiver_step(receiver, frame)
            delivered += [a.payload for a in r_actions if isinstance(a, Deliver)]
            ack = next(a.frame for a in r_actions if isinstance(a, EmitFrame))
            sender, _ = sender_step(sender, AckReceived(ack.seq))
        assert delivered == payloads
