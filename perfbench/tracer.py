"""Spans and counters recorded around the public functions of tftps.

The tracer patches the program from the outside: every public module-level
function of the traced modules, plus the endpoint and session methods listed
in METHODS, is replaced by a wrapper in every tftps namespace that holds a
reference to it (so ``from .groups import mod_exp`` call sites are covered).

Each call becomes a span: name, start, end, parent span and session id.
Aggregates (calls, busy time, self time) and counters are exact; span
records are kept in memory up to SPANS_PER_NAME per name, so a run of a
million per-block calls stays bounded, and are written out when the run ends.

Aggregates and counters are keyed by a window, "setup" or "run", switched by
begin_run(), so calibration and key generation do not count as session work.
Client sessions (TftpClient.put/get) also yield a phase split, taken from the
packets the client encodes and decodes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

TRACED_MODULES = ("groups", "cramer_shoup", "fixed_time", "records", "arq", "packets", "transport", "tftp")

# (module, class, method, span name).  Endpoint classes share one name so the
# UDP and the simulated transport land in the same aggregate.  The server's
# _run_session is its only per-session entry point, so it is traced too.
METHODS = (
    ("transport", "UdpEndpoint", "send", "transport.send"),
    ("transport", "UdpEndpoint", "recv", "transport.recv"),
    ("transport", "SimEndpoint", "send", "transport.send"),
    ("transport", "SimEndpoint", "recv", "transport.recv"),
    ("transport", "SimulatedNetwork", "transmit", "transport.SimulatedNetwork.transmit"),
    ("transport", "SimulatedNetwork", "receive", "transport.SimulatedNetwork.receive"),
    ("tftp", "TftpClient", "put", "tftp.TftpClient.put"),
    ("tftp", "TftpClient", "get", "tftp.TftpClient.get"),
    ("tftp", "TftpServer", "warm_up", "tftp.TftpServer.warm_up"),
    ("tftp", "TftpServer", "serve_forever", "tftp.TftpServer.serve_forever"),
    ("tftp", "TftpServer", "_run_session", "tftp.TftpServer.session"),
)

CLIENT_SESSIONS = {"tftp.TftpClient.put": "put", "tftp.TftpClient.get": "get"}
SERVER_SESSION = "tftp.TftpServer.session"
SPANS_PER_NAME = 1000


class _ThreadState:
    __slots__ = ("stack", "session", "marks", "aggs", "counters", "spans", "sessions")

    def __init__(self):
        self.stack: list[list[int]] = []  # [span id, start ns, child ns]
        self.session = 0
        self.marks: dict[str, int] = {}
        self.aggs: dict[tuple[str, str], list[int]] = {}  # (window, name) -> [calls, busy ns, self ns]
        self.counters: dict[tuple[str, str], int] = {}
        self.spans: list[tuple] = []
        self.sessions: list[dict] = []


class Tracer:
    def __init__(self, tftps_package):
        self._pkg = tftps_package
        self._mods = {name: getattr(tftps_package, name) for name in TRACED_MODULES}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._kept: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.window = "setup"
        self.origin_ns = time.perf_counter_ns()
        self._hooks = self._make_hooks()

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        namespaces = [self._pkg] + list(self._mods.values())
        for short, mod in self._mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, name, wrapper)
        for short, cls_name, method, span in METHODS:
            cls = getattr(self._mods[short], cls_name)
            self._patch(cls, method, self._wrap(span, vars(cls)[method]))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def begin_run(self) -> None:
        """Count everything from here on as session work, not set-up."""
        self.window = "run"

    # -- recording --------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def count(self, st: _ThreadState, name: str, amount: int = 1) -> None:
        key = (self.window, name)
        st.counters[key] = st.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        tracer = self
        before, after = self._hooks.get(name, (None, None))
        session_kind = CLIENT_SESSIONS.get(name) or ("server" if name == SERVER_SESSION else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            outer_session = st.session
            outer_marks = st.marks
            if session_kind is not None:
                st.session = next(tracer._ids)
                st.marks = {}
            if before is not None:
                args = before(st, args)
            span_id = next(tracer._ids)
            parent = st.stack[-1][0] if st.stack else 0
            frame = [span_id, time.perf_counter_ns(), 0]
            st.stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                st.stack.pop()
                start = frame[1]
                duration = end - start
                if st.stack:
                    st.stack[-1][2] += duration
                key = (tracer.window, name)
                agg = st.aggs.get(key)
                if agg is None:
                    agg = st.aggs[key] = [0, 0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
                if tracer._kept.get(name, 0) < SPANS_PER_NAME:
                    with tracer._lock:
                        tracer._kept[name] = tracer._kept.get(name, 0) + 1
                    st.spans.append((span_id, name, start, end, parent, st.session))
                if after is not None:
                    after(st, args, result, error, start, end)
                if session_kind is not None:
                    if session_kind != "server" and tracer.window == "run":
                        st.sessions.append(_client_phases(session_kind, start, end, st.marks))
                    st.session = outer_session
                    st.marks = outer_marks

        return wrapper

    # -- hooks: counts and phase marks at the layer boundaries ------------------

    def _make_hooks(self) -> dict:
        arq, packets, transport = (self._mods[m] for m in ("arq", "packets", "transport"))
        count = self.count

        def sender_step(st, args, result, error, start, end):
            if error is not None:
                return
            emitted = sum(isinstance(action, arq.EmitFrame) for action in result[1])
            if isinstance(args[1], arq.Timeout):
                count(st, "arq.timeouts")
                count(st, "arq.retransmitted_frames", emitted)
            else:
                count(st, "arq.first_frames", emitted)

        def encode_packet(st, args, result, error, start, end):
            if not st.session or error is not None:
                return
            packet = args[0]
            if isinstance(packet, (packets.ReadRequest, packets.WriteRequest)):
                st.marks.setdefault("request", start)
            elif isinstance(packet, packets.DataPacket):
                st.marks.setdefault("sent_data", start)
            elif isinstance(packet, packets.AckPacket):
                st.marks["last_ack"] = end

        def decode_packet(st, args, result, error, start, end):
            if not st.session or error is not None:
                return
            if isinstance(result, packets.OptionAck):
                st.marks.setdefault("oack", end)
            elif isinstance(result, packets.DataPacket) and result.block >= 2:
                st.marks.setdefault("stream", end)  # the sender has sealed and queued the file
            elif isinstance(result, packets.AckPacket) and result.block == st.marks.get("keyblocks"):
                st.marks.setdefault("keys", end)

        def key_exchange_send(st, args, result, error, start, end):
            if error is None and st.session:
                st.marks.setdefault("keyblocks", len(result[1]))

        def key_exchange_receive(st, args, result, error, start, end):
            if st.session:
                st.marks.setdefault("keys", end)

        def send(st, args, result, error, start, end):
            count(st, "transport.datagrams_sent")
            count(st, "transport.wire_bytes", len(args[1]))

        def recv(st, args, result, error, start, end):
            if st.session:  # the server's listener poll is not session work
                if "sent_data" in st.marks:
                    st.marks.setdefault("stream", start)  # the sender has sealed and queued the file
                count(st, "transport.recv_wait_ns", end - start)
                if result is transport.TIMEOUT:
                    count(st, "transport.recv_timeouts")

        def run_fixed_before(st, args):
            budget, operation = args[0], args[1]

            def timed():
                began = time.perf_counter_ns()
                try:
                    return operation()
                finally:
                    count(st, "fixed_time.pad_ns", budget.budget_ns - (time.perf_counter_ns() - began))

            return (budget, timed) + tuple(args[2:])

        return {
            "arq.sender_step": (None, sender_step),
            "packets.encode_packet": (None, encode_packet),
            "packets.decode_packet": (None, decode_packet),
            "tftp.key_exchange_send": (None, key_exchange_send),
            "tftp.key_exchange_receive": (None, key_exchange_receive),
            "transport.send": (None, send),
            "transport.recv": (None, recv),
            "fixed_time.run_fixed": (run_fixed_before, None),
        }

    # -- output -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Merged aggregates, counters and client session phases, JSON-ready."""
        aggs: dict[str, dict[str, list[int]]] = {"setup": {}, "run": {}}
        counters: dict[str, dict[str, int]] = {"setup": {}, "run": {}}
        sessions: list[dict] = []
        with self._lock:
            states = list(self._states)
        for st in states:
            for (window, name), (calls, busy, own) in list(st.aggs.items()):
                merged = aggs[window].setdefault(name, [0, 0, 0])
                merged[0] += calls
                merged[1] += busy
                merged[2] += own
            for (window, name), value in list(st.counters.items()):
                counters[window][name] = counters[window].get(name, 0) + value
            sessions.extend(st.sessions)
        kept = sum(len(st.spans) for st in states)
        calls = sum(agg[0] for window in aggs.values() for agg in window.values())
        return {"aggs": aggs, "counters": counters, "sessions": sessions, "spans_kept": kept, "spans_total": calls}

    def write_spans(self, path, process: str) -> None:
        with self._lock:
            states = list(self._states)
        with open(path, "w") as out:
            for st in states:
                for span_id, name, start, end, parent, session in st.spans:
                    out.write(
                        json.dumps(
                            {
                                "process": process,
                                "id": span_id,
                                "name": name,
                                "start_us": (start - self.origin_ns) / 1000,
                                "end_us": (end - self.origin_ns) / 1000,
                                "parent": parent,
                                "session": session,
                            }
                        )
                        + "\n"
                    )


def _client_phases(kind: str, start: int, end: int, marks: dict) -> dict:
    """Split one client session into consecutive phases that sum to its length.

    negotiate: request sent -> OACK.  seal: OACK -> lock-step streaming
    starts, that is, the sending side has sealed and queued the whole file
    (a put's first wait for an ACK; a get's DATA block 2).  key_exchange: the
    client's own wrap before the request (put) plus streaming -> key blocks
    unwrapped by the receiver.  transfer: -> last DATA acknowledged.  dally:
    the get's wait after its final ACK.  A get's server wraps the key before
    its OACK, so that wrap shows in negotiate.  Missing marks (a failed
    session) collapse to zero.
    """
    request = marks.get("request", start)
    oack = max(marks.get("oack", request), request)
    stream = max(marks.get("stream", oack), oack)
    keys = max(marks.get("keys", stream), stream)
    last = end if kind == "put" else max(marks.get("last_ack", end), keys)
    return {
        "kind": kind,
        "negotiate_ns": oack - request,
        "key_exchange_ns": (request - start) + (keys - stream),
        "seal_ns": stream - oack,
        "transfer_ns": last - keys,
        "dally_ns": end - last,
    }
