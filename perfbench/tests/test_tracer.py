"""The tracer wraps every call site, splits sessions into phases, and unwinds."""

import json
import random
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402
from tracer import Tracer  # noqa: E402

tftps = common.import_tftps()
from tftps import cramer_shoup, fixed_time, groups, packets, tftp, transport  # noqa: E402


def test_secured_put_and_get_are_traced_layer_by_layer(tmp_path):
    original_mod_exp = groups.mod_exp
    tracer = Tracer(tftps).install()
    try:
        assert cramer_shoup.mod_exp is not original_mod_exp  # bound by `from .groups import mod_exp`
        assert cramer_shoup.mod_exp is groups.mod_exp
        rng = random.Random(7)
        pk, sk = cramer_shoup.keygen(groups.gen_group_params(1024, rng), rng)
        store = tftp.KeyStore()
        entry = store.add(pk, sk)
        budget = fixed_time.TimeBudget(fixed_time.OpClass("cs.decrypt", 0), 200_000_000, 30, 1.5)
        network = transport.SimulatedNetwork()
        server = tftp.TftpServer(network, tmp_path, store, rng=random.Random(8), timeout=0.5, decrypt_budget=budget)
        stop = threading.Event()
        serving = threading.Thread(target=server.serve_forever, args=(stop,))
        serving.start()
        client = tftp.TftpClient(network, store, rng=random.Random(9), timeout=0.5, decrypt_budget=budget)
        tracer.begin_run()
        data = random.Random(10).randbytes(5000)
        sec = packets.SecurityOptions(kid=entry.kid)
        assert client.put(data, server.address, "f.bin", sec).ok
        payload, summary = client.get("f.bin", server.address, sec)
        stop.set()
        serving.join(timeout=10)
        assert summary.ok and payload == data
        snap = tracer.snapshot()
        tracer.write_spans(tmp_path / "spans.jsonl", "test")
    finally:
        tracer.uninstall()
    assert groups.mod_exp is original_mod_exp and cramer_shoup.mod_exp is original_mod_exp

    setup, run, counters = snap["aggs"]["setup"], snap["aggs"]["run"], snap["counters"]["run"]
    assert setup["cramer_shoup.keygen"][0] == 1 and "cramer_shoup.keygen" not in run
    assert run["groups.mod_exp"][0] == 16  # per session: 5 in the wrap, 3 in the unwrap
    assert run["fixed_time.run_fixed"][0] == 2
    assert counters["fixed_time.pad_ns"] > 0
    assert counters["arq.first_frames"] > 0 and counters["transport.datagrams_sent"] > 0
    blocks = len(data) // 456 + 1
    assert run["records.seal_block"][0] == 2 * blocks and run["records.open_block"][0] == 2 * blocks

    phases = {p["kind"]: p for p in snap["sessions"]}
    assert set(phases) == {"put", "get"}
    for kind in ("put", "get"):
        parts = [phases[kind][f"{name}_ns"] for name in ("negotiate", "key_exchange", "seal", "transfer", "dally")]
        assert min(parts) >= 0
        assert sum(parts) == run[f"tftp.TftpClient.{kind}"][1]  # the phases tile the session
    assert phases["get"]["dally_ns"] > 0 and phases["put"]["dally_ns"] == 0

    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    encrypts = [s for s in spans if s["name"] == "cramer_shoup.encrypt" and s["session"]]
    assert encrypts
    children = [s for s in spans if s["parent"] == encrypts[0]["id"]]
    assert sum(s["name"] == "groups.mod_exp" for s in children) == 5
    assert all(s["session"] == encrypts[0]["session"] for s in children)
    assert all(by_id[s["parent"]]["start_us"] <= s["start_us"] for s in spans if s["parent"] in by_id)
