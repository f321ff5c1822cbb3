"""TFTP wire codec (RFC 1350 layout, RFC 2347 options) and negotiation.

Six opcodes: RRQ/WRQ carry a NUL-terminated filename and mode plus an
optional alternating list of NUL-terminated option name/value strings;
DATA carries a 16-bit block number and up to 512 payload octets; ACK a
block number; ERROR a code and message; OACK the accepted options.

Security rides in three options (lower-case on the wire):

* ``sec``       scheme tag, currently only "cs1"
* ``keyblocks`` how many leading DATA blocks carry wrapped key material
* ``kid``       identifier of the recipient key the material is wrapped to

Decoding never raises anything but MalformedPacketError, whatever bytes
arrive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


BLOCK_SIZE = 512
SEC_SCHEME = "cs1"

ERR_NOT_DEFINED = 0
ERR_FILE_NOT_FOUND = 1
ERR_ACCESS_VIOLATION = 2
ERR_DISK_FULL = 3
ERR_ILLEGAL_OPERATION = 4
ERR_UNKNOWN_TID = 5
ERR_FILE_EXISTS = 6
ERR_NO_SUCH_USER = 7
ERR_OPTION_REFUSED = 8
ERR_SECURITY = 9  # extension: MAC or decrypt failure, policy refusal


class Opcode(IntEnum):
    RRQ = 1
    WRQ = 2
    DATA = 3
    ACK = 4
    ERROR = 5
    OACK = 6


class MalformedPacketError(ValueError):
    pass


@dataclass(frozen=True)
class ReadRequest:
    filename: str
    mode: str
    options: tuple[tuple[str, str], ...] = ()

    opcode = Opcode.RRQ


@dataclass(frozen=True)
class WriteRequest:
    filename: str
    mode: str
    options: tuple[tuple[str, str], ...] = ()

    opcode = Opcode.WRQ


@dataclass(frozen=True)
class DataPacket:
    block: int
    data: bytes

    opcode = Opcode.DATA


@dataclass(frozen=True)
class AckPacket:
    block: int

    opcode = Opcode.ACK


@dataclass(frozen=True)
class ErrorPacket:
    code: int
    message: str = ""

    opcode = Opcode.ERROR


@dataclass(frozen=True)
class OptionAck:
    options: tuple[tuple[str, str], ...] = ()

    opcode = Opcode.OACK


TftpPacket = ReadRequest | WriteRequest | DataPacket | AckPacket | ErrorPacket | OptionAck


def _asciiz(text: str) -> bytes:
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise MalformedPacketError(f"non-ASCII string {text!r}") from exc
    if b"\x00" in raw:
        raise MalformedPacketError("embedded NUL in string")
    return raw + b"\x00"


def _encode_request(opcode: Opcode, filename: str, mode: str, options) -> bytes:
    out = opcode.to_bytes(2, "big") + _asciiz(filename) + _asciiz(mode)
    for name, value in options:
        out += _asciiz(name) + _asciiz(value)
    return out


def encode_packet(packet: TftpPacket) -> bytes:
    if isinstance(packet, (ReadRequest, WriteRequest)):
        return _encode_request(packet.opcode, packet.filename, packet.mode, packet.options)
    if isinstance(packet, DataPacket):
        if len(packet.data) > BLOCK_SIZE:
            raise MalformedPacketError(f"DATA payload of {len(packet.data)} exceeds {BLOCK_SIZE}")
        if not 0 <= packet.block <= 0xFFFF:
            raise MalformedPacketError("block number out of range")
        return Opcode.DATA.to_bytes(2, "big") + packet.block.to_bytes(2, "big") + packet.data
    if isinstance(packet, AckPacket):
        if not 0 <= packet.block <= 0xFFFF:
            raise MalformedPacketError("block number out of range")
        return Opcode.ACK.to_bytes(2, "big") + packet.block.to_bytes(2, "big")
    if isinstance(packet, ErrorPacket):
        if not 0 <= packet.code <= 0xFFFF:
            raise MalformedPacketError("error code out of range")
        return Opcode.ERROR.to_bytes(2, "big") + packet.code.to_bytes(2, "big") + _asciiz(packet.message)
    if isinstance(packet, OptionAck):
        out = Opcode.OACK.to_bytes(2, "big")
        for name, value in packet.options:
            out += _asciiz(name) + _asciiz(value)
        return out
    raise MalformedPacketError(f"cannot encode {packet!r}")


def _split_strings(data: bytes) -> list[str]:
    if data and not data.endswith(b"\x00"):
        raise MalformedPacketError("string section not NUL-terminated")
    parts = data.split(b"\x00")[:-1] if data else []
    out = []
    for part in parts:
        try:
            out.append(part.decode("ascii"))
        except UnicodeDecodeError as exc:
            raise MalformedPacketError("non-ASCII string on the wire") from exc
    return out


def _pair_options(strings: list[str]) -> tuple[tuple[str, str], ...]:
    if len(strings) % 2 != 0:
        raise MalformedPacketError("dangling option name without value")
    pairs = []
    for i in range(0, len(strings), 2):
        if not strings[i]:
            raise MalformedPacketError("empty option name")
        pairs.append((strings[i], strings[i + 1]))
    return tuple(pairs)


def decode_packet(data: bytes) -> TftpPacket:
    """Decode wire bytes; raises MalformedPacketError on anything invalid."""
    if len(data) < 2:
        raise MalformedPacketError("packet shorter than an opcode")
    opcode = int.from_bytes(data[:2], "big")
    body = data[2:]
    if opcode in (Opcode.RRQ, Opcode.WRQ):
        strings = _split_strings(body)
        if len(strings) < 2:
            raise MalformedPacketError("request missing filename or mode")
        filename, mode = strings[0], strings[1]
        if not filename:
            raise MalformedPacketError("empty filename")
        options = _pair_options(strings[2:])
        cls = ReadRequest if opcode == Opcode.RRQ else WriteRequest
        return cls(filename=filename, mode=mode, options=options)
    if opcode == Opcode.DATA:
        if len(body) < 2:
            raise MalformedPacketError("DATA missing block number")
        payload = body[2:]
        if len(payload) > BLOCK_SIZE:
            raise MalformedPacketError("DATA payload exceeds block size")
        return DataPacket(block=int.from_bytes(body[:2], "big"), data=bytes(payload))
    if opcode == Opcode.ACK:
        if len(body) != 2:
            raise MalformedPacketError("ACK must be exactly 4 octets")
        return AckPacket(block=int.from_bytes(body, "big"))
    if opcode == Opcode.ERROR:
        if len(body) < 2:
            raise MalformedPacketError("ERROR missing code")
        strings = _split_strings(body[2:])
        if len(strings) != 1:
            raise MalformedPacketError("ERROR message malformed")
        return ErrorPacket(code=int.from_bytes(body[:2], "big"), message=strings[0])
    if opcode == Opcode.OACK:
        return OptionAck(options=_pair_options(_split_strings(body)))
    raise MalformedPacketError(f"unknown opcode {opcode}")


# ---------------------------------------------------------------------------
# Security options and negotiation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityOptions:
    """Parsed security options; keyblocks may be unset until the data sender knows it."""

    scheme: str = SEC_SCHEME
    keyblocks: int | None = None
    kid: str = ""

    def to_options(self) -> tuple[tuple[str, str], ...]:
        pairs = [("sec", self.scheme)]
        if self.keyblocks is not None:
            pairs.append(("keyblocks", str(self.keyblocks)))
        if self.kid:
            pairs.append(("kid", self.kid))
        return tuple(pairs)


def asks_for_security(options) -> bool:
    """Whether a request/OACK option list carries the sec option, whether or not the rest parses."""
    return any(name.lower() == "sec" for name, _ in options)


def security_from_options(options) -> SecurityOptions | None:
    """Extract security options from a request/OACK option list; None if absent."""
    if not asks_for_security(options):
        return None
    mapping = {name.lower(): value for name, value in options}
    keyblocks = None
    if "keyblocks" in mapping:
        try:
            keyblocks = int(mapping["keyblocks"])
        except ValueError as exc:
            raise MalformedPacketError(f"keyblocks is not an integer: {mapping['keyblocks']!r}") from exc
        if keyblocks < 1:
            raise MalformedPacketError("keyblocks must be >= 1")
    return SecurityOptions(scheme=mapping["sec"], keyblocks=keyblocks, kid=mapping.get("kid", ""))


@dataclass(frozen=True)
class TransferPolicy:
    require_security: bool = False


def negotiate(request_options, policy: TransferPolicy):
    """Server-side option negotiation.

    Returns the option pairs to echo in an OACK (empty tuple means plain
    legacy TFTP, no OACK at all), or an ErrorPacket: code 8 for an option
    we refuse, code 9 when policy demands security and the request has none.
    """
    try:
        sec = security_from_options(request_options)
    except MalformedPacketError as exc:
        return ErrorPacket(ERR_OPTION_REFUSED, str(exc))
    if sec is None:
        if policy.require_security:
            return ErrorPacket(ERR_SECURITY, "server policy requires a secured transfer")
        return ()
    if sec.scheme != SEC_SCHEME:
        return ErrorPacket(ERR_OPTION_REFUSED, f"unsupported security scheme {sec.scheme!r}")
    return sec.to_options()
