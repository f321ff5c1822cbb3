"""Confidentiality check on the simulated channel's wiretap.

As acceptance criterion 9 does: no session key material and no 64-octet
window of any file may appear in a datagram.  Each file is indexed by its
64-octet windows at stride 64, so any contiguous plaintext leak of 127
octets or more contains a whole indexed window.  The search keys each
window by its first 8 octets and tests every datagram offset at once with
numpy, then confirms candidates by comparing all 64 octets.
"""

from __future__ import annotations

import numpy as np

WINDOW = 64
KEY = 8


def find_leak(datagrams: list[bytes], materials: list[bytes], files: list[bytes]) -> str | None:
    """A description of the first leak found, or None when the wiretap is clean."""
    for index, datagram in enumerate(datagrams):
        for material in materials:
            if material in datagram:
                return f"key material in datagram {index}"

    windows: dict[bytes, list[bytes]] = {}
    for data in files:
        for i in range(0, len(data) - WINDOW + 1, WINDOW):
            window = data[i : i + WINDOW]
            windows.setdefault(window[:KEY], []).append(window)
    if not windows:
        return None
    keys = np.frombuffer(b"".join(windows), dtype=np.uint64)

    wire = b"".join(datagrams)
    starts = np.cumsum([0] + [len(d) for d in datagrams])
    for shift in range(KEY):
        usable = (len(wire) - shift) // KEY * KEY
        if usable <= 0:
            break
        words = np.frombuffer(wire, dtype=np.uint64, count=usable // KEY, offset=shift)
        for slot in np.flatnonzero(np.isin(words, keys)):
            offset = shift + int(slot) * KEY
            which = int(np.searchsorted(starts, offset, side="right")) - 1
            if offset + WINDOW > starts[which + 1]:
                continue  # the window would straddle two datagrams
            if wire[offset : offset + WINDOW] in windows.get(wire[offset : offset + KEY], ()):
                return f"plaintext window in datagram {which} at offset {offset - starts[which]}"
    return None
