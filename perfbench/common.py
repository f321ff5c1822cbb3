"""Helpers shared by the load generator and the server process."""

from __future__ import annotations

import hashlib
import importlib
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"


class SourceMissing(RuntimeError):
    pass


def import_tftps():
    """Import tftps from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "tftps" / "__init__.py").is_file():
        raise SourceMissing(f"no tftps sources under {src}")
    sys.path.insert(0, str(src))
    tftps = importlib.import_module("tftps")
    if src.resolve() not in Path(tftps.__file__).resolve().parents:
        raise SourceMissing(f"tftps was imported from {tftps.__file__}, not from {src}")
    return tftps


def derive_seed(seed: int, purpose: str) -> int:
    """A 64-bit seed for one purpose, derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{purpose}".encode()).digest()[:8], "big")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def session_record(entry) -> dict:
    """One server SessionLog as JSON-ready facts."""
    s = entry.summary
    return {
        "operation": entry.operation,
        "filename": entry.filename,
        "status": s.status,
        "error": s.error_message,
        "bytes": s.bytes_transferred,
        "retransmissions": s.retransmissions,
        "mac_failures": s.mac_failures,
        "elapsed_s": s.elapsed_s,
    }
