import argparse
import json
import random
import threading
import time
from pathlib import Path

import pytest

from tftps import cli, cramer_shoup, tftp, transport
from tftps.groups import validate_group_params


def run_cli(*argv):
    return cli.main(list(argv))


class TestKeygen:
    def test_writes_valid_key_files(self, tmp_path, capsys):
        code = run_cli("keygen", "--bits", "256", "--out", str(tmp_path), "--seed", "5", "--name", "alpha")
        assert code == 0
        kid = capsys.readouterr().out.strip()
        assert len(kid) == 16
        pk, sk = cramer_shoup.load_key_file(tmp_path / "alpha.key")
        assert sk is not None
        assert validate_group_params(pk.params) == []
        assert cramer_shoup.key_id(pk) == kid
        assert (tmp_path / "alpha.key").stat().st_mode & 0o777 == 0o600

    def test_seed_reproduces_files(self, tmp_path, capsys):
        run_cli("keygen", "--bits", "64", "--out", str(tmp_path / "a"), "--seed", "9", "--name", "k")
        run_cli("keygen", "--bits", "64", "--out", str(tmp_path / "b"), "--seed", "9", "--name", "k")
        assert (tmp_path / "a" / "k.key").read_text() == (tmp_path / "b" / "k.key").read_text()

    def test_json_output(self, tmp_path, capsys):
        assert run_cli("keygen", "--bits", "64", "--out", str(tmp_path), "--seed", "1", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"kid", "bits", "public", "secret"}

    def test_a_key_too_small_for_transfers_gets_a_note(self, tmp_path, capsys):
        assert run_cli("keygen", "--bits", "256", "--out", str(tmp_path), "--seed", "5") == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip()) == 16
        assert captured.err.count("\n") == 1
        assert "games only" in captured.err and "at least 515 bits" in captured.err
        assert run_cli("keygen", "--bits", "1024", "--out", str(tmp_path), "--seed", "5") == 0
        assert capsys.readouterr().err == ""

    def test_toy_keys_work_with_the_game_runner(self, tmp_path, capsys):
        assert run_cli("keygen", "--bits", "8", "--out", str(tmp_path), "--seed", "3", "--name", "toy") == 0
        pk, sk = cramer_shoup.load_key_file(tmp_path / "toy.key")
        assert validate_group_params(pk.params) == []
        assert pk.params.p.bit_length() == 8
        capsys.readouterr()
        code = run_cli("games", "--adversary", "random", "--trials", "60", "--bits", "8",
                       "--seed", "3", "--assert")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["forfeits"] == 0


class TestGames:
    def test_random_adversary_assert_passes(self, capsys):
        code = run_cli(
            "games", "--game", "cca2", "--adversary", "random", "--trials", "120",
            "--bits", "64", "--seed", "3", "--assert",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 120
        assert {"game", "scheme", "adversary", "trials", "correct", "advantage", "ci99", "mode", "seed"} <= set(report)

    def test_elgamal_control_vulnerable(self, capsys):
        code = run_cli(
            "games", "--scheme", "elgamal", "--adversary", "malleate", "--trials", "60",
            "--bits", "192", "--seed", "4", "--assert-vulnerable",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["advantage"] >= 0.99

    def test_assert_failure_exit_code(self, capsys):
        code = run_cli(
            "games", "--scheme", "elgamal", "--adversary", "malleate", "--trials", "60",
            "--bits", "192", "--seed", "4", "--assert", "--threshold", "0.5",
        )
        assert code == cli.EXIT_ASSERTION

    def test_fixed_mode_calibrates_in_process(self, capsys):
        code = run_cli(
            "games", "--game", "scta", "--mode", "fixed", "--adversary", "timedict",
            "--trials", "40", "--bits", "64", "--message-length", "4", "--seed", "1",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "fixed"

    def test_transcript_dump(self, tmp_path, capsys):
        transcript = tmp_path / "trials.jsonl"
        run_cli(
            "games", "--adversary", "random", "--trials", "40", "--bits", "64",
            "--seed", "6", "--transcript", str(transcript),
        )
        lines = transcript.read_text().splitlines()
        assert len(lines) == 40
        assert all("correct" in json.loads(line) for line in lines)


class TestSimulate:
    def test_clean_secure_simulation(self, capsys):
        code = run_cli(
            "simulate", "--size", "8000", "--loss", "0", "--corrupt", "0",
            "--seed", "1", "--sec", "--bits", "1024", "--json",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bit_exact"] is True and report["security"] is True

    def test_lossy_secure_simulation(self, capsys):
        code = run_cli(
            "simulate", "--size", "30000", "--loss", "0.02", "--corrupt", "0.002",
            "--seed", "4", "--sec", "--bits", "1024", "--json",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["bit_exact"] is True


class TestTransfers:
    @pytest.fixture()
    def server_setup(self, tmp_path):
        params_rng = random.Random(40)
        from tftps.groups import gen_group_params

        params = gen_group_params(1024, params_rng)
        pk, sk = cramer_shoup.keygen(params, params_rng)
        keydir = tmp_path / "keys"
        keydir.mkdir()
        kid = cramer_shoup.key_id(pk)
        cramer_shoup.write_secret_file(keydir / "server.key", pk, sk)
        root = tmp_path / "root"
        root.mkdir()
        store = tftp.KeyStore()
        store.load_dir(keydir)
        net = transport.UdpNetwork()
        server = tftp.TftpServer(
            net, root=root, keystore=store, port=0, rng=random.Random(41), timeout=0.2, decrypt_budget=None
        )
        stop = threading.Event()
        thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
        thread.start()
        yield server, keydir, root, kid
        stop.set()
        thread.join(timeout=5)

    def test_put_and_get_over_udp(self, tmp_path, server_setup, capsys, monkeypatch):
        server, keydir, root, kid = server_setup
        host, port = server.address
        source = tmp_path / "upload.bin"
        payload = random.Random(42).randbytes(3000)
        source.write_bytes(payload)

        code = run_cli(
            "put", str(source), "--server", f"{host}:{port}", "--remote", "stored.bin",
            "--keystore", str(keydir), "--sec", "--kid", kid, "--seed", "7", "--timeout", "0.2", "--json",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "DONE" and report["security"] is True
        assert (root / "stored.bin").read_bytes() == payload

        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "get", "stored.bin", "--server", f"{host}:{port}", "--out", "fetched.bin",
            "--keystore", str(keydir), "--sec", "--kid", kid, "--seed", "8", "--timeout", "0.2", "--json",
        )
        assert code == 0
        assert (tmp_path / "fetched.bin").read_bytes() == payload

    def test_get_missing_file_is_protocol_error(self, tmp_path, server_setup, capsys, monkeypatch):
        server, keydir, root, kid = server_setup
        host, port = server.address
        monkeypatch.chdir(tmp_path)
        code = run_cli("get", "absent.bin", "--server", f"{host}:{port}", "--timeout", "0.2")
        assert code == cli.EXIT_PROTOCOL

    def test_put_without_recipient_key_is_config_error(self, tmp_path, server_setup):
        server, keydir, root, kid = server_setup
        host, port = server.address
        source = tmp_path / "f.bin"
        source.write_bytes(b"data")
        code = run_cli(
            "put", str(source), "--server", f"{host}:{port}", "--sec", "--kid", "0" * 16,
            "--keystore", str(tmp_path / "root"),
        )
        assert code == cli.EXIT_CONFIG


class TestServe:
    def test_sigint_shuts_down_cleanly(self, tmp_path):
        import signal
        import subprocess
        import sys

        root = tmp_path / "root"
        root.mkdir()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tftps.cli", "serve", "--root", str(root),
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        time.sleep(1.5)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert "serving" in out
        assert "shutdown complete" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("fly") == cli.EXIT_USAGE

    def test_calibrate_is_not_a_subcommand(self, capsys):
        assert run_cli("calibrate") == cli.EXIT_USAGE

    def test_readme_cli_block_lists_exactly_the_subcommands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
        listed = {line.split()[1] for line in block.splitlines() if line.startswith("tftps ")}
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert listed == set(subparsers.choices)

    def test_missing_required_flag(self, capsys):
        assert run_cli("put", "nonexistent.bin") == cli.EXIT_USAGE

    def test_missing_file_is_config_error(self, tmp_path):
        assert run_cli("put", str(tmp_path / "ghost.bin"), "--server", "127.0.0.1:9") == cli.EXIT_CONFIG
