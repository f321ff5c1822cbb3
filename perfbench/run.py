"""tftps benchmark: secured TFTP sessions, end to end and layer by layer.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0 --out results.jsonl

Each run generates its inputs from --seed, sets up (key generation, server
warm_up calibration, client calibration, one after the other), then drives
closed-loop secured put/get sessions for --seconds, checks every transfer
bit-exact, and prints a report.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; metrics are the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  Exit codes: 0 correct, 1 a transfer or the wiretap check
failed, 2 the benchmark could not run (for example no tftps sources).

Workloads (see WORKLOADS): bulk and handshake run the server in its own
process on loopback UDP; lossy runs client and server in one process over
the simulated channel.  BENCHMARK.json lists bulk and handshake only, and
--workload all runs those; lossy runs on request (see WORKLOADS for why).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import common
import wiretap
from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    channel: str  # "udp" (loopback, server in its own process) or "sim" (in-process simulated channel)
    file_size: int
    key_bits: int
    timeout: float
    loss: float = 0.0


# Why each workload exists is recorded in BENCHMARK.json.  Each has one
# client, closed loop.  Two concurrent handshake clients made the latency
# medians unsteady: two 2048-bit key wraps before the OACK outlast the 0.5 s
# request timeout, each retransmitted request spawns another server session
# with its own wrap, and that cascade swings with machine load.  Two lossy
# clients in one process failed one run in 17: a get's client and server
# both gave up ("peer silent", "client never acknowledged options") while
# their threads contended for the interpreter.
#
# bulk moves 2 MB images under a 1024-bit key, so that a run holds about
# twenty sessions while key exchange stays under a tenth of each: 8 MB
# images under a 2048-bit key fitted three or four sessions in a run, and
# their medians swung by more than a quarter from run to run.  The whole
# file is sealed and queued before the first DATA block and the peer gives
# up after six silent timeouts, so sizes stay well below what completes at
# all: 16 MB gets fail at timeout 0.5 s; at timeout 0.05 s 2.8 MB gets fail
# with "peer silent" and 1.4 MB gets now and then under load.
#
# lossy is left out of BENCHMARK.json, which may list no workload that
# fails an operation: about one 30-second run in 25 failed a session, at a
# 0.05 s timeout and at 0.1 s alike, most often while the shared host was
# busy.  The failures seen were in the secured handshake ("peer silent" at
# the client, "client never acknowledged options" at the server).  lossy
# stays runnable by name until that defect is fixed.  It keeps the 0.05 s
# timeout and the 1024-bit key of `tftps simulate`.  The server's key wrap
# before its OACK outlasts that timeout, so most gets spawn a second server
# session from the retransmitted request; at 2048 bits the wrap outlasts all
# of the client's request retries and every secured get fails.  Its channel
# drops but does not corrupt: a corrupted request, OACK or key-exchange
# block ends the session (nothing authenticates them before the session
# keys exist), which would fail a few runs in every hundred.
WORKLOADS = {
    "bulk": Workload("bulk", "udp", file_size=2_000_000, key_bits=1024, timeout=0.5),
    "handshake": Workload("handshake", "udp", file_size=4096, key_bits=2048, timeout=0.5),
    "lossy": Workload("lossy", "sim", file_size=500_000, key_bits=1024, timeout=0.05, loss=0.01),
}


@dataclass
class Session:
    kind: str
    size: int
    seconds: float
    exact: bool
    retransmissions: int
    error: str = ""


@dataclass
class RunResult:
    setup_s: float
    wall_s: float
    cpu_s: float
    sessions: list[Session]
    server: dict
    budgets: dict[str, float]
    overruns: int
    client_rss_mb: float
    wiretap_ok: bool = True
    wiretap_detail: str = ""
    trace: dict | None = None


class KeyMaterialRecorder(random.Random):
    """A seeded RNG that remembers every draw of session-key-material length.

    The wiretap check needs the key material of every session; both sides
    draw it from their RNG in tftp.key_exchange_send.
    """

    def __init__(self, seed: int, length: int):
        super().__init__(seed)
        self.length = length
        self.draws: list[bytes] = []

    def randbytes(self, n: int) -> bytes:
        out = super().randbytes(n)
        if n == self.length:
            self.draws.append(out)
        return out


# ---------------------------------------------------------------------------
# The load: one closed-loop client.
# ---------------------------------------------------------------------------

def images(seed: int, size: int):
    """The files the client puts, in order."""
    rng = random.Random(common.derive_seed(seed, "files"))
    while True:
        yield rng.randbytes(size)


def drive(client, spec: Workload, seed: int, address, sec, stored, seconds: float, after_first_get) -> list[Session]:
    """Alternate put and get of fresh images, checking each transfer, and
    stop at the first get that ends past the deadline, so that every run
    holds whole put/get pairs and the mix of the two kinds does not vary.

    after_first_get() is called once, when the first put and get are done:
    peak memory is read there, after a fixed amount of work, because it
    keeps creeping up with every further session a run fits in.
    """
    deadline = time.perf_counter() + seconds
    sessions: list[Session] = []
    for n, data in enumerate(images(seed, spec.file_size)):
        name = f"image-{n}.bin"
        started = time.perf_counter()
        summary = client.put(data, address, name, sec)
        elapsed = time.perf_counter() - started
        target = stored / name
        exact = summary.ok and target.is_file() and target.read_bytes() == data
        sessions.append(Session("put", len(data), elapsed, exact, summary.retransmissions, summary.error_message))
        if not exact:
            break
        started = time.perf_counter()
        payload, summary = client.get(name, address, sec)
        elapsed = time.perf_counter() - started
        exact = summary.ok and payload == data
        sessions.append(Session("get", len(data), elapsed, exact, summary.retransmissions, summary.error_message))
        target.unlink()
        if n == 0:
            after_first_get()
        if not exact or time.perf_counter() >= deadline:
            break
    return sessions


def make_key(tftps, spec: Workload, seed: int):
    rng = random.Random(common.derive_seed(seed, "keygen"))
    params = tftps.groups.gen_group_params(spec.key_bits, rng)
    return tftps.cramer_shoup.keygen(params, rng)


# ---------------------------------------------------------------------------
# UDP workloads: the server in its own process.
# ---------------------------------------------------------------------------

class ServerProcess:
    def __init__(self, cfg: dict, log_path: Path):
        self._log = open(log_path, "w")
        self.log_path = log_path
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), json.dumps(cfg)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )

    def _failure(self, what: str) -> RuntimeError:
        self._log.flush()
        tail = self.log_path.read_text()[-4000:]
        return RuntimeError(f"{what}; server stderr:\n{tail}")

    def ready(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise self._failure("server exited before it was ready")
        return json.loads(line)

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def finish(self) -> dict:
        out, _ = self.proc.communicate("stop\n", timeout=90)
        lines = [line for line in out.splitlines() if line.strip()]
        if self.proc.returncode != 0 or not lines:
            raise self._failure(f"server failed (exit {self.proc.returncode})")
        return json.loads(lines[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def run_udp(tftps, spec: Workload, seed: int, seconds: float, tracer, work: Path, spans: Path | None) -> RunResult:
    from tftps import fixed_time, packets, tftp, transport

    root = work / "served"
    root.mkdir()
    keyfile = work / "server.key"
    started = time.perf_counter()
    pk, sk = make_key(tftps, spec, seed)
    tftps.cramer_shoup.write_secret_file(keyfile, pk, sk)
    cfg = {
        "keyfile": str(keyfile),
        "root": str(root),
        "rng_seed": common.derive_seed(seed, "server"),
        "timeout": spec.timeout,
        "trace": tracer is not None,
        "spans": str(spans.with_name(spans.name.replace(".jsonl", "-server.jsonl"))) if spans else None,
    }
    server = ServerProcess(cfg, work / "server.log")
    try:
        ready = server.ready()
        store = tftp.KeyStore()
        entry = store.add(pk, sk)
        budget = tftp.calibrate_decrypt_budget(entry)
        setup_s = time.perf_counter() - started

        client = tftp.TftpClient(
            transport.UdpNetwork(),
            store,
            rng=random.Random(common.derive_seed(seed, "client")),
            timeout=spec.timeout,
            decrypt_budget=budget,
        )
        if tracer is not None:
            tracer.begin_run()
        fixed_time.consume_overrun_events()
        server.command("start")
        rss: list[float] = []

        def after_first_get() -> None:
            rss.append(common.peak_rss_mb())
            server.command("mark")

        cpu_start = common.cpu_seconds()
        t0 = time.perf_counter()
        sessions = drive(
            client, spec, seed, tuple(ready["address"]), packets.SecurityOptions(kid=entry.kid), root, seconds, after_first_get
        )
        wall = time.perf_counter() - t0
        cpu = common.cpu_seconds() - cpu_start
        if not rss:  # the first get never ran; the run is not correct
            rss.append(common.peak_rss_mb())
        overruns = len(fixed_time.consume_overrun_events())
        facts = server.finish()
    finally:
        server.close()
    return RunResult(
        setup_s=setup_s,
        wall_s=wall,
        cpu_s=cpu,
        sessions=sessions,
        server=facts,
        budgets={"server": ready["budget_ms"][0], "client": budget.budget_ns / 1e6},
        overruns=overruns + facts["overruns"],
        client_rss_mb=rss[0],
    )


# ---------------------------------------------------------------------------
# Simulated channel: client and server in one process, as `tftps simulate`.
# ---------------------------------------------------------------------------

def run_sim(tftps, spec: Workload, seed: int, seconds: float, tracer, work: Path) -> RunResult:
    from tftps import fixed_time, packets, records, tftp, transport

    root = work / "served"
    root.mkdir()
    started = time.perf_counter()
    pk, sk = make_key(tftps, spec, seed)
    store = tftp.KeyStore()
    entry = store.add(pk, sk)
    channel_seed = common.derive_seed(seed, "channel")
    network = transport.SimulatedNetwork(
        transport.ChannelModel(loss_rate=spec.loss, seed=channel_seed)
    )
    server_rng = KeyMaterialRecorder(common.derive_seed(seed, "server"), records.KEY_MATERIAL_LEN)
    server = tftp.TftpServer(network, root=root, keystore=store, rng=server_rng, timeout=spec.timeout)
    server.warm_up()
    stop = threading.Event()
    serving = threading.Thread(target=server.serve_forever, args=(stop,), name="serve")
    serving.start()
    try:
        budget = tftp.calibrate_decrypt_budget(entry)
        setup_s = time.perf_counter() - started
        client_rng = KeyMaterialRecorder(common.derive_seed(seed, "client"), records.KEY_MATERIAL_LEN)
        client = tftp.TftpClient(network, store, rng=client_rng, timeout=spec.timeout, decrypt_budget=budget)
        if tracer is not None:
            tracer.begin_run()
        fixed_time.consume_overrun_events()
        rss: list[float] = []
        cpu_start = common.cpu_seconds()
        t0 = time.perf_counter()
        sessions = drive(
            client, spec, seed, server.address, packets.SecurityOptions(kid=entry.kid), root, seconds,
            lambda: rss.append(common.peak_rss_mb()),
        )
        wall = time.perf_counter() - t0
        cpu = common.cpu_seconds() - cpu_start
        if not rss:  # the first get never ran; the run is not correct
            rss.append(common.peak_rss_mb())
    finally:
        stop.set()
        serving.join(timeout=30)
    overruns = len(fixed_time.consume_overrun_events())
    puts = sum(s.kind == "put" for s in sessions)
    files = list(itertools.islice(images(seed, spec.file_size), puts))
    leak = wiretap.find_leak(network.wiretap, client_rng.draws + server_rng.draws, files)
    facts = {
        "sessions": [common.session_record(entry) for entry in list(server.session_logs)],
        "overruns": 0,  # counted with the client's: one process
        "cpu_s": 0.0,  # included in the load generator's CPU: one process
        "peak_rss_mb": rss[0],
        "sim": {"sent": network.sent, "dropped": network.dropped},
    }
    return RunResult(
        setup_s=setup_s,
        wall_s=wall,
        cpu_s=cpu,
        sessions=sessions,
        server=facts,
        budgets={"server": next(iter(server._budget_cache.values())).budget_ns / 1e6, "client": budget.budget_ns / 1e6},
        overruns=overruns,
        client_rss_mb=rss[0],
        wiretap_ok=leak is None,
        wiretap_detail=leak or f"clean: {len(network.wiretap)} datagrams",
    )


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def end_to_end(result: RunResult) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count)."""
    done = [s for s in result.sessions if s.exact]
    out: dict[str, tuple[float, int]] = {"setup_s": (result.setup_s, 1)}
    for kind in ("put", "get"):
        mine = [s for s in done if s.kind == kind]
        seconds = [s.seconds for s in mine]
        # With none completed the run is not correct; it reports zeros rather than stop here.
        out[f"{kind}_MBps"] = (sum(s.size for s in mine) / 1e6 / sum(seconds) if mine else 0.0, len(mine))
        out[f"{kind}_p50_ms"] = (statistics.median(seconds) * 1000 if mine else 0.0, len(mine))
    out["sessions_per_s"] = (len(done) / result.wall_s, len(done))
    cpu = result.cpu_s + result.server["cpu_s"]
    out["cpu_ms_per_session"] = (cpu * 1000 / max(len(done), 1), len(done))
    out["server_rss_MB"] = (result.server["peak_rss_mb"], 1)
    out["client_rss_MB"] = (result.client_rss_mb, 1)
    return out


def per_layer(result: RunResult, e2e: dict[str, tuple[float, int]]) -> dict[str, tuple[float, int]]:
    trace = result.trace
    run, setup, counters = trace["aggs"]["run"], trace["aggs"]["setup"], trace["counters"]["run"]
    done = [s for s in result.sessions if s.exact]
    n = len(done)

    def calls(name: str) -> int:
        return run.get(name, [0, 0, 0])[0]

    def mean(name: str, unit_ns: float, aggs=run) -> float:
        count, busy, _ = aggs.get(name, [0, 0, 0])
        return busy / count / unit_ns if count else 0.0

    def per_session(value: float) -> tuple[float, int]:
        return (value / n, n)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    emitted = counters.get("arq.first_frames", 0) + counters.get("arq.retransmitted_frames", 0)
    server_sessions = result.server["sessions"]
    retransmissions = sum(s.retransmissions for s in result.sessions) + sum(s["retransmissions"] for s in server_sessions)
    sim = result.server.get("sim", {})
    phases = trace["sessions"]
    out = {
        "groups.mod_exp.calls_per_session": per_session(calls("groups.mod_exp")),
        "groups.mod_exp.ms_per_session": per_session(run.get("groups.mod_exp", [0, 0, 0])[1] / 1e6),
        "groups.validate_group_params.ms": (mean("groups.validate_group_params", 1e6, setup), 1),
        "cramer_shoup.encrypt.ms": (mean("cramer_shoup.encrypt", 1e6), calls("cramer_shoup.encrypt")),
        "cramer_shoup.decrypt.ms": (mean("cramer_shoup.decrypt", 1e6), calls("cramer_shoup.decrypt")),
        "cramer_shoup.keygen.ms": (mean("cramer_shoup.keygen", 1e6, setup), 1),
        "fixed_time.calibrate.ms": (mean("fixed_time.calibrate", 1e6, setup), setup.get("fixed_time.calibrate", [0])[0]),
        "fixed_time.budget_ms.server": (result.budgets["server"], 1),
        "fixed_time.budget_ms.client": (result.budgets["client"], 1),
        "fixed_time.pad_ms": (ratio(counters.get("fixed_time.pad_ns", 0) / 1e6, calls("fixed_time.run_fixed")), calls("fixed_time.run_fixed")),
        "fixed_time.run_fixed.calls": per_session(calls("fixed_time.run_fixed")),
        "fixed_time.overruns": per_session(result.overruns),
        "fixed_time.overrun_ratio": (ratio(result.overruns, calls("fixed_time.run_fixed")), calls("fixed_time.run_fixed")),
        "records.seal_block.calls": per_session(calls("records.seal_block")),
        "records.seal_block.us": (mean("records.seal_block", 1e3), calls("records.seal_block")),
        "records.open_block.calls": per_session(calls("records.open_block")),
        "records.open_block.us": (mean("records.open_block", 1e3), calls("records.open_block")),
        "arq.sender_step.calls": per_session(calls("arq.sender_step")),
        "arq.sender_step.us": (mean("arq.sender_step", 1e3), calls("arq.sender_step")),
        "arq.receiver_step.calls": per_session(calls("arq.receiver_step")),
        "arq.receiver_step.us": (mean("arq.receiver_step", 1e3), calls("arq.receiver_step")),
        "arq.timeouts": per_session(counters.get("arq.timeouts", 0)),
        "arq.first_send_ratio": (ratio(counters.get("arq.first_frames", 0), emitted), emitted),
        "packets.encode.calls": per_session(calls("packets.encode_packet")),
        "packets.encode.us": (mean("packets.encode_packet", 1e3), calls("packets.encode_packet")),
        "packets.decode.calls": per_session(calls("packets.decode_packet")),
        "packets.decode.us": (mean("packets.decode_packet", 1e3), calls("packets.decode_packet")),
        "transport.datagrams_sent": per_session(counters.get("transport.datagrams_sent", 0)),
        "transport.wire_bytes_per_file_byte": (
            ratio(counters.get("transport.wire_bytes", 0), sum(s.size for s in done)),
            counters.get("transport.datagrams_sent", 0),
        ),
        "transport.send.us": (mean("transport.send", 1e3), calls("transport.send")),
        "transport.recv_wait_ms_per_session": per_session(counters.get("transport.recv_wait_ns", 0) / 1e6),
        "transport.recv_timeouts": per_session(counters.get("transport.recv_timeouts", 0)),
        "transport.sim.dropped": per_session(sim.get("dropped", 0)),
        "tftp.retransmissions_per_session": per_session(retransmissions),
        "tftp.server_sessions_per_request": (ratio(len(server_sessions), len(result.sessions)), len(server_sessions)),
    }
    for phase in ("negotiate", "key_exchange", "seal", "transfer", "dally"):
        values = [p[f"{phase}_ns"] / 1e6 for p in phases]
        out[f"tftp.phase.{phase}_ms"] = (statistics.fmean(values) if values else 0.0, len(values))
    for name, value in e2e.items():
        out[f"traced.{name}"] = value
    return out


def merge_traces(mine: dict, server: dict | None) -> dict:
    """Add the server process's trace snapshot into this process's."""
    if server is None:
        return mine
    for section in ("aggs", "counters"):
        for window, entries in server[section].items():
            ours = mine[section][window]
            for name, value in entries.items():
                if isinstance(value, list):
                    ours[name] = [x + y for x, y in zip(ours.get(name, [0] * len(value)), value)]
                else:
                    ours[name] = ours.get(name, 0) + value
    for key in ("sessions", "spans_kept", "spans_total"):
        mine[key] += server[key]
    return mine


# ---------------------------------------------------------------------------
# Context recorded with every result.
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """The commit of this checkout, read from .git without running git."""
    head = common.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = common.ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = common.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    src = common.ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def seed_purposes(spec: Workload) -> list[str]:
    """Every seed a run derives from the workload seed (see common.derive_seed)."""
    return ["keygen", "server", "client", "files"] + (["channel"] if spec.channel == "sim" else [])


def context(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import cryptography

    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "channel": "udp-loopback" if spec.channel == "udp" else "simulated-in-process",
        "loss": spec.loss,
        "file_size": spec.file_size,
        "key_bits": spec.key_bits,
        "timeout_s": spec.timeout,
        "seeds": {purpose: common.derive_seed(seed, purpose) for purpose in seed_purposes(spec)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Running one workload.
# ---------------------------------------------------------------------------

def run_workload(spec: Workload, seed: int, seconds: float, trace: bool, out: Path | None) -> int:
    tftps = common.import_tftps()
    tracer = Tracer(tftps).install() if trace else None
    common.WORK.mkdir(exist_ok=True)
    work = common.WORK / f"{spec.name}-{seed}-{os.getpid()}"
    work.mkdir()
    spans = None
    if trace:
        (common.WORK / "spans").mkdir(exist_ok=True)
        spans = common.WORK / "spans" / f"{spec.name}-{seed}-{os.getpid()}.jsonl"
    try:
        if spec.channel == "udp":
            result = run_udp(tftps, spec, seed, seconds, tracer, work, spans)
        else:
            result = run_sim(tftps, spec, seed, seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        result.trace = merge_traces(tracer.snapshot(), result.server.get("trace"))
        tracer.write_spans(spans, "load")
        tracer.uninstall()

    failed = [s for s in result.sessions if not s.exact]
    correct = not failed and result.wiretap_ok
    e2e = end_to_end(result)
    metrics = per_layer(result, e2e) if trace else e2e
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"benchmark computed no value for {sorted(missing)}")
    ctx = context(spec, seed, seconds, trace)
    ctx.update(
        {
            "fixed_time.budget_ms": result.budgets,
            "fixed_time.overruns": result.overruns,
            "wiretap": result.wiretap_detail if spec.channel == "sim" else "not applicable",
            "server_sessions": len(result.server["sessions"]),
            "server_sessions_done": sum(s["status"] == "DONE" for s in result.server["sessions"]),
            "setup_s": result.setup_s,
            "wall_s": result.wall_s,
        }
    )
    if trace:
        ctx["spans"] = {"file": str(spans), "kept": result.trace["spans_kept"], "calls": result.trace["spans_total"]}

    print_report(ctx, metrics, units, result, failed)
    record = {
        "correct": correct,
        "attempted": len(result.sessions),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
    }
    if out is not None:
        full = dict(record, context=ctx)
        full["metrics"] = {name: dict(record["metrics"][name], n=metrics[name][1]) for name in units}
        full["sessions"] = [[s.kind, s.seconds, s.exact, s.retransmissions, s.error] for s in result.sessions]
        full["server_sessions"] = result.server["sessions"]
        with open(out, "a") as stream:
            stream.write(json.dumps(full) + "\n")
    print(json.dumps(record))
    return 0 if correct else 1


def print_report(ctx: dict, metrics: dict, units: dict, result: RunResult, failed: list[Session]) -> None:
    print(
        f"== {ctx['workload']}: seed {ctx['seed']}, {ctx['channel']}, "
        f"{ctx['file_size']} B files, {ctx['key_bits']}-bit key, timeout {ctx['timeout_s']} s, "
        f"nproc {ctx['nproc']}, Python {ctx['python']}, cryptography {ctx['cryptography']}"
    )
    for name in units:
        value, n = metrics[name]
        print(f"   {name:<40} {value:>14.6g} {units[name]:<12} n={n}")
    budgets = ctx["fixed_time.budget_ms"]
    print(
        f"   fixed_time.budget_ms: server {budgets['server']:.1f}, client {budgets['client']:.1f}; "
        f"overruns {ctx['fixed_time.overruns']}; server sessions {ctx['server_sessions']} "
        f"({ctx['server_sessions_done']} done) for {len(result.sessions)} client sessions"
    )
    print(f"   wiretap: {ctx['wiretap']}; commit {ctx['commit']}, sources {ctx['source_sha256']}")
    for session in failed:
        print(f"   FAILED {session.kind} of {session.size} B after {session.seconds:.2f} s: {session.error or 'not bit-exact'}")


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in [workload["name"] for workload in BENCHMARK["workloads"]]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if worst == 2:
        return 2
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full result (metrics, sample counts, context) as JSON")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out)
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
