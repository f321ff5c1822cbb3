"""The wiretap check finds planted key material and plaintext windows."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import wiretap  # noqa: E402


def _setup():
    rng = random.Random(5)
    image = rng.randbytes(20_000)
    material = rng.randbytes(64)
    datagrams = [rng.randbytes(rng.randrange(4, 517)) for _ in range(300)]
    return image, material, datagrams


def test_clean_wiretap():
    image, material, datagrams = _setup()
    assert wiretap.find_leak(datagrams, [material], [image]) is None


def test_key_material_is_found():
    image, material, datagrams = _setup()
    datagrams[17] = datagrams[17][:10] + material + datagrams[17][10:]
    assert "key material" in wiretap.find_leak(datagrams, [material], [image])


def test_any_127_octet_plaintext_run_is_found_at_every_alignment():
    image, material, datagrams = _setup()
    for start in range(1000, 1064):
        leaked = list(datagrams)
        leaked[42] = b"\x00" * 7 + image[start : start + 127] + b"\x01" * 3
        assert "plaintext window in datagram 42" in wiretap.find_leak(leaked, [material], [image])


def test_window_split_across_datagrams_is_not_a_leak():
    image, material, datagrams = _setup()
    datagrams[3] = image[:32]
    datagrams[4] = image[32:64]
    assert wiretap.find_leak(datagrams, [material], [image]) is None
