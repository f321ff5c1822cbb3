"""The load driver runs whole put/get pairs and checks each transfer."""

import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

SPEC = run.Workload("fake", "sim", file_size=100, key_bits=0, timeout=0.0)


@dataclass
class Summary:
    ok: bool = True
    retransmissions: int = 0
    error_message: str = ""


class FakeClient:
    """Stores puts in a directory, as the server would, and serves gets from it."""

    def __init__(self, stored: Path, corrupt_get: bool = False):
        self.stored = stored
        self.corrupt_get = corrupt_get

    def put(self, data, address, name, sec):
        (self.stored / name).write_bytes(data)
        return Summary()

    def get(self, name, address, sec):
        data = (self.stored / name).read_bytes()
        return (data[::-1] if self.corrupt_get else data), Summary()


def test_a_run_past_its_deadline_still_ends_with_a_get(tmp_path):
    marks = []
    sessions = run.drive(FakeClient(tmp_path), SPEC, 1, None, None, tmp_path, 0.0, lambda: marks.append(1))
    assert [(s.kind, s.exact) for s in sessions] == [("put", True), ("get", True)]
    assert marks == [1]
    assert list(tmp_path.iterdir()) == []  # each get removes its image


def test_a_wrong_get_is_not_exact_and_ends_the_run(tmp_path):
    sessions = run.drive(FakeClient(tmp_path, corrupt_get=True), SPEC, 1, None, None, tmp_path, 60.0, lambda: None)
    assert [(s.kind, s.exact) for s in sessions] == [("put", True), ("get", False)]
