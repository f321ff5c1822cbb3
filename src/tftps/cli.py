"""Command-line front door: keygen, serve, get, put, games, simulate.

Exit codes: 0 success, 1 usage, 2 IO/config, 3 protocol failure,
4 security failure, 5 assertion failure (games).  Every subcommand is
deterministic under --seed for everything except wall-clock measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import random
import signal
import sys
import threading
import time
from pathlib import Path

from . import cramer_shoup, games, packets, records, tftp, transport
from .groups import ParameterError, gen_group_params
from .packets import SecurityOptions, TransferPolicy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_SECURITY = 4
EXIT_ASSERTION = 5

KEYSTORE_ENV = "TFTPS_KEYSTORE"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_USAGE, message)


def _rng_from(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _keystore_from(args) -> tftp.KeyStore:
    store = tftp.KeyStore()
    path = getattr(args, "keystore", None) or os.environ.get(KEYSTORE_ENV)
    if path:
        target = Path(path)
        if target.is_dir():
            store.load_dir(target)
        elif target.is_file():
            store.load_file(target)
        else:
            raise CliError(EXIT_CONFIG, f"keystore path {path!r} does not exist")
    for extra in getattr(args, "key_file", None) or []:
        try:
            store.load_file(extra)
        except (OSError, ParameterError) as exc:
            raise CliError(EXIT_CONFIG, f"cannot load key file {extra}: {exc}") from exc
    return store


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

# The smallest p, in bits, whose keys a keystore accepts: the session
# material's encoding, 0x01 then 64 octets, is a 513-bit integer that must
# be below q, so q >= 2^513 and p = 2q + 1 has at least 515 bits.
_MIN_TRANSFER_KEY_BITS = 8 * records.KEY_MATERIAL_LEN + 3


def cmd_keygen(args) -> int:
    rng = _rng_from(args.seed)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_CONFIG, f"cannot create output directory: {exc}") from exc
    params = gen_group_params(args.bits, rng)
    pk, sk = cramer_shoup.keygen(params, rng)
    kid = cramer_shoup.key_id(pk)
    name = args.name or kid
    pub_path = out_dir / f"{name}.pub"
    key_path = out_dir / f"{name}.key"
    try:
        cramer_shoup.write_public_file(pub_path, pk)
        cramer_shoup.write_secret_file(key_path, pk, sk)
    except OSError as exc:
        raise CliError(EXIT_CONFIG, f"cannot write key files: {exc}") from exc
    if params.bits < _MIN_TRANSFER_KEY_BITS:
        print(
            f"note: a {params.bits}-bit key is for the games only; a secured transfer "
            f"needs at least {_MIN_TRANSFER_KEY_BITS} bits",
            file=sys.stderr,
        )
    if args.json:
        _print_json({"kid": kid, "bits": args.bits, "public": str(pub_path), "secret": str(key_path)})
    else:
        print(kid)
    return EXIT_OK


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def cmd_serve(args) -> int:
    keystore = _keystore_from(args)
    policy = TransferPolicy(require_security=args.require_security)
    network = transport.UdpNetwork(host=args.host)
    try:
        server = tftp.TftpServer(
            network,
            root=args.root,
            keystore=keystore,
            policy=policy,
            port=args.port,
            rng=_rng_from(args.seed),
            timeout=args.timeout,
        )
    except OSError as exc:
        raise CliError(EXIT_CONFIG, f"cannot bind UDP {args.host}:{args.port}: {exc}") from exc

    server.warm_up()
    stop = threading.Event()

    def _signal_handler(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, _signal_handler)
    signal.signal(signal.SIGTERM, _signal_handler)
    print(f"serving {args.root} on {server.address[0]}:{server.address[1]} "
          f"(security {'required' if args.require_security else 'optional'}, {len(keystore)} keys)")
    server.serve_forever(stop)
    print("shutdown complete")
    return EXIT_OK


# ---------------------------------------------------------------------------
# get / put
# ---------------------------------------------------------------------------

def _parse_server(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise CliError(EXIT_USAGE, f"server must be host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad port in {text!r}") from exc


def _security_options(args, keystore: tftp.KeyStore) -> SecurityOptions | None:
    if not args.sec:
        return None
    kid = args.kid
    if not kid:
        secret_kids = [k for k in keystore.kids() if keystore.get(k).secret is not None]
        candidates = secret_kids or keystore.kids()
        if len(candidates) == 1:
            kid = candidates[0]
        else:
            raise CliError(EXIT_CONFIG, "--sec needs --kid when the keystore holds multiple keys")
    if keystore.get(kid) is None:
        raise CliError(EXIT_CONFIG, f"key {kid!r} not found in keystore")
    return SecurityOptions(kid=kid)


def _summary_json(summary: tftp.TransferSummary, extra: dict | None = None) -> dict:
    payload = {
        "status": summary.status,
        "bytes": summary.bytes_transferred,
        "blocks": summary.blocks,
        "retransmissions": summary.retransmissions,
        "elapsed_s": round(summary.elapsed_s, 6),
        "key_exchange_s": round(summary.key_exchange_s, 6),
        "security": summary.security,
        "error_code": summary.error_code,
        "error": summary.error_message,
    }
    payload.update(extra or {})
    return payload


def _transfer_exit(summary: tftp.TransferSummary) -> int:
    if summary.ok:
        return EXIT_OK
    if summary.error_code == packets.ERR_SECURITY:
        return EXIT_SECURITY
    return EXIT_PROTOCOL


def cmd_put(args) -> int:
    keystore = _keystore_from(args)
    sec = _security_options(args, keystore)
    source = Path(args.file)
    if not source.is_file():
        raise CliError(EXIT_CONFIG, f"no such file: {source}")
    data = source.read_bytes()
    client = tftp.TftpClient(
        transport.UdpNetwork(), keystore, rng=_rng_from(args.seed), timeout=args.timeout
    )
    summary = client.put(data, _parse_server(args.server), args.remote or source.name, sec)
    report = _summary_json(summary, {"file": str(source), "sha256": hashlib.sha256(data).hexdigest()})
    if args.json:
        _print_json(report)
    else:
        print(
            f"{summary.status}: {summary.bytes_transferred} bytes in {summary.blocks} blocks, "
            f"{summary.retransmissions} retransmissions, {summary.elapsed_s:.3f}s "
            f"(key exchange {summary.key_exchange_s:.3f}s)"
        )
        if not summary.ok:
            print(f"error {summary.error_code}: {summary.error_message}", file=sys.stderr)
    return _transfer_exit(summary)


def cmd_get(args) -> int:
    keystore = _keystore_from(args)
    sec = _security_options(args, keystore)
    client = tftp.TftpClient(
        transport.UdpNetwork(), keystore, rng=_rng_from(args.seed), timeout=args.timeout
    )
    data, summary = client.get(args.remote, _parse_server(args.server), sec)
    if summary.ok and data is not None:
        target = Path(args.out or args.remote)
        try:
            target.write_bytes(data)
        except OSError as exc:
            raise CliError(EXIT_CONFIG, f"cannot write {target}: {exc}") from exc
        digest = hashlib.sha256(data).hexdigest()
    else:
        digest = None
    report = _summary_json(summary, {"sha256": digest})
    if args.json:
        _print_json(report)
    else:
        print(
            f"{summary.status}: {summary.bytes_transferred} bytes, "
            f"{summary.retransmissions} retransmissions, {summary.elapsed_s:.3f}s"
        )
        if not summary.ok:
            print(f"error {summary.error_code}: {summary.error_message}", file=sys.stderr)
    return _transfer_exit(summary)


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------

def cmd_games(args) -> int:
    rng = random.Random(args.seed)
    config = games.GameConfig(
        n_trials=args.trials,
        security_parameter_bits=args.bits,
        seed=args.seed,
        query_budget=args.query_budget,
        message_length=args.message_length,
        channel=transport.ChannelModel(delay=transport.UniformDelay(0.0, args.delay_ms / 1000.0))
        if args.delay_ms
        else None,
        pin_cpu=args.pin_cpu,
    )
    params = games.game_params(config, rng)
    scheme = games.make_scheme(args.scheme, params)
    adversary = games.make_adversary(args.adversary)

    if args.game == "cca2":
        result = games.run_ind_cca2(scheme, adversary, config)
        mode = None
    elif args.game == "scta":
        result = games.run_ind_cca2_scta(scheme, adversary, args.mode, config)
        mode = args.mode
    else:
        raise CliError(EXIT_USAGE, f"unknown game {args.game!r}")

    report = result.report(game=args.game, scheme=args.scheme, adversary=args.adversary, mode=mode, seed=args.seed)
    _print_json(report)
    if args.transcript:
        with open(args.transcript, "w") as fh:
            for entry in result.transcript:
                fh.write(json.dumps(entry, default=repr) + "\n")

    if args.assert_secure:
        threshold = args.threshold if args.threshold is not None else config.threshold
        if result.advantage > threshold:
            print(f"assertion failed: advantage {result.advantage:.4f} > {threshold:.4f}", file=sys.stderr)
            return EXIT_ASSERTION
    if args.assert_vulnerable:
        threshold = args.vulnerable_threshold
        if result.advantage < threshold:
            print(f"assertion failed: advantage {result.advantage:.4f} < {threshold:.4f}", file=sys.stderr)
            return EXIT_ASSERTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    rng = random.Random(args.seed)
    model = transport.ChannelModel(
        loss_rate=args.loss,
        corrupt_rate=args.corrupt,
        duplicate_rate=args.duplicate,
        delay=transport.FixedDelay(args.delay_ms / 1000.0),
        seed=args.seed,
    )
    network = transport.SimulatedNetwork(model)
    data = rng.randbytes(args.size)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        keystore = tftp.KeyStore()
        sec = None
        if args.sec:
            params = gen_group_params(args.bits, rng)
            pk, sk = cramer_shoup.keygen(params, rng)
            entry = keystore.add(pk, sk)
            sec = SecurityOptions(kid=entry.kid)
        server = tftp.TftpServer(
            network,
            root=tmp,
            keystore=keystore,
            rng=random.Random(args.seed + 1),
            timeout=args.timeout,
            decrypt_budget="auto" if args.sec else None,
        )
        server.warm_up()
        stop = threading.Event()
        thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
        thread.start()
        client = tftp.TftpClient(
            network, keystore, rng=random.Random(args.seed + 2), timeout=args.timeout
        )
        started = time.monotonic()
        summary = client.put(data, server.address, "simulated.bin", sec)
        elapsed = time.monotonic() - started
        stop.set()
        thread.join()
        received = Path(tmp, "simulated.bin")
        match = received.is_file() and received.read_bytes() == data

    report = _summary_json(
        summary,
        {
            "size": args.size,
            "bit_exact": bool(match),
            "loss": args.loss,
            "corrupt": args.corrupt,
            "channel_sent": network.sent,
            "channel_dropped": network.dropped,
            "channel_corrupted": network.corrupted,
            "wall_s": round(elapsed, 6),
        },
    )
    if args.json:
        _print_json(report)
    else:
        print(
            f"{summary.status}: {args.size} bytes over loss={args.loss} corrupt={args.corrupt}; "
            f"bit_exact={match} retransmissions={summary.retransmissions} wall={elapsed:.3f}s"
        )
    if not summary.ok or not match:
        return EXIT_PROTOCOL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="tftps", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_transfer(p):
        p.add_argument("--server", required=True, help="host:port")
        p.add_argument("--keystore", help=f"key directory/file (or ${KEYSTORE_ENV})")
        p.add_argument("--key-file", action="append", help="extra key file(s)")
        p.add_argument("--sec", action="store_true", help="wrap the transfer with cs1 security")
        p.add_argument("--kid", help="recipient/own key identifier")
        p.add_argument("--seed", type=int, help="deterministic randomness")
        p.add_argument("--timeout", type=float, default=0.5)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("keygen", help="generate group parameters and a key pair")
    p.add_argument("--bits", type=int, default=2048)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--name", help="file basename (defaults to the key id)")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("serve", help="run the server until SIGINT")
    p.add_argument("--host", default="0.0.0.0")
    p.add_argument("--port", type=int, default=69, help="UDP port")
    p.add_argument("--root", default=".", help="served directory")
    p.add_argument("--keystore")
    p.add_argument("--key-file", action="append")
    p.add_argument("--require-security", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--timeout", type=float, default=0.5)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("put", help="upload a file")
    p.add_argument("file")
    p.add_argument("--remote", help="remote name (defaults to the local basename)")
    common_transfer(p)
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="download a file")
    p.add_argument("remote")
    p.add_argument("--out", help="local output path (defaults to the remote name)")
    common_transfer(p)
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("games", help="run an indistinguishability experiment")
    p.add_argument("--game", choices=["cca2", "scta"], default="cca2")
    p.add_argument("--scheme", choices=["cs", "elgamal"], default="cs")
    p.add_argument("--adversary", choices=sorted(games._ADVERSARIES), default="random")
    p.add_argument("--mode", choices=[games.LEAKY, games.FIXED], default=games.LEAKY,
                   help="timing mode for --game scta")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--bits", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--query-budget", type=int, default=32)
    p.add_argument("--message-length", type=int, default=16)
    p.add_argument("--delay-ms", type=float, default=0.0, help="uniform channel delay bound")
    p.add_argument("--pin-cpu", action="store_true")
    p.add_argument("--threshold", type=float, help="override the 3/sqrt(N) assert threshold")
    p.add_argument("--vulnerable-threshold", type=float, default=0.99)
    p.add_argument("--assert", dest="assert_secure", action="store_true",
                   help="exit 5 unless advantage <= threshold")
    p.add_argument("--assert-vulnerable", action="store_true",
                   help="exit 5 unless advantage >= vulnerable threshold")
    p.add_argument("--transcript", help="dump per-trial transcripts as JSON lines")
    p.set_defaults(func=cmd_games)

    p = sub.add_parser("simulate", help="end-to-end transfer over the simulated channel")
    p.add_argument("--size", type=int, default=1 << 20)
    p.add_argument("--loss", type=float, default=0.01)
    p.add_argument("--corrupt", type=float, default=0.001)
    p.add_argument("--duplicate", type=float, default=0.0)
    p.add_argument("--delay-ms", type=float, default=0.0)
    p.add_argument("--sec", action="store_true", help="wrap the transfer with cs1 security")
    p.add_argument("--bits", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=0.05)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                            format="%(asctime)s %(name)s %(levelname)s %(message)s")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParameterError, cramer_shoup.EncodingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
