"""TFTP server process for the UDP workloads.

Started by run.py with one JSON argument.  Loads the key file, calibrates
with warm_up(), serves on a loopback UDP port and prints one JSON "ready"
line.  It then reads commands on stdin: "start" opens the measured window
(CPU, overruns and traced aggregates count from there), "mark" reads the
peak RSS after the client's first put and get, "stop" (or end of input)
shuts the server down.  Its last stdout line is a JSON report of the
server's own facts: session logs, overruns, CPU, peak RSS and trace data.
"""

from __future__ import annotations

import json
import random
import sys
import threading

import common
from tracer import Tracer


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    cfg = json.loads(sys.argv[1])
    tftps = common.import_tftps()
    from tftps import fixed_time, tftp, transport

    tracer = Tracer(tftps).install() if cfg["trace"] else None
    store = tftp.KeyStore()
    store.load_file(cfg["keyfile"])
    server = tftp.TftpServer(
        transport.UdpNetwork(),
        root=cfg["root"],
        keystore=store,
        rng=random.Random(cfg["rng_seed"]),
        timeout=cfg["timeout"],
    )
    server.warm_up()
    budgets = [b.budget_ns / 1e6 for b in server._budget_cache.values()]  # what warm_up calibrated
    stop = threading.Event()
    serving = threading.Thread(target=server.serve_forever, args=(stop,), name="serve")
    serving.start()
    emit({"ready": True, "address": list(server.address), "budget_ms": budgets})

    cpu_start = common.cpu_seconds()
    rss = None
    for line in sys.stdin:
        command = line.strip()
        if command == "start":
            cpu_start = common.cpu_seconds()
            fixed_time.consume_overrun_events()
            if tracer is not None:
                tracer.begin_run()
        elif command == "mark":
            rss = common.peak_rss_mb()
        elif command == "stop":
            break
    stop.set()
    serving.join(timeout=30)
    server.endpoint.close()
    cpu = common.cpu_seconds() - cpu_start
    overruns = fixed_time.consume_overrun_events()
    sessions = [common.session_record(entry) for entry in list(server.session_logs)]
    report = {
        "sessions": sessions,
        "overruns": len(overruns),
        "cpu_s": cpu,
        "peak_rss_mb": rss if rss is not None else common.peak_rss_mb(),
    }
    if tracer is not None:
        report["trace"] = tracer.snapshot()
        if cfg.get("spans"):
            tracer.write_spans(cfg["spans"], "server")
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
