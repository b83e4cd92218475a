import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphaeta
from alphaeta import cipher, keyrate, montecarlo, names
from alphaeta.cipher import MAPPINGS, Constellation
from alphaeta.cli import CHUNK_BYTES, MAX_M, build_parser, main
from alphaeta.keyrate import KEYRATE_EVE_STRATEGIES, key_rate_at_s
from alphaeta.names import EVE_STRATEGIES, RECEIVER_KINDS
from alphaeta.receivers import BER_LAWS

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"
READS_VMHWM = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")


# not a string of hex digits with a nonzero value below 2^32; int(key, 16) would
# take 1deadbeef as deadbeef and read -1, +1, de_ad, ' 1' and 0x1 as numbers
BAD_SEED_KEYS = ["0", "zz", "100000000", "1deadbeef", "-1", "+1", "de_ad", " 1", "0x1"]


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_child(*argv, probe="pass", timeout=120):
    """Run main(argv), then probe, in a fresh interpreter; return (stdout, peak RSS in MB).

    The peak is VmHWM, not ru_maxrss: a child's ru_maxrss starts from this
    process's peak.
    """
    code = ("import sys; from alphaeta.cli import main; code = main(sys.argv[1:]); "
            f"{probe}; "
            "print([l for l in open('/proc/self/status') if l.startswith('VmHWM')][0], "
            "file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(alphaeta.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, timeout=timeout, check=True)
    return run.stdout, int(run.stderr.split()[-2]) / 1024  # "VmHWM: <n> kB"


def run_fresh(*argv, setup="main(sys.argv[1:])"):
    """Run setup (by default main(argv)) in a fresh interpreter.

    Returns (exit code, stdout, stderr, loaded): loaded is the set of numpy,
    dataclasses and alphaeta modules in sys.modules once setup has returned or exited.
    """
    code = ("import json, sys\n"
            "from alphaeta.cli import build_parser, main\n"
            f"try:\n    code = {setup}\nexcept SystemExit as exc:\n    code = exc.code\n"
            "print(json.dumps(sorted(m for m in sys.modules if m in ('numpy', 'dataclasses')\n"
            "                        or m.startswith('alphaeta.'))))\n"
            "sys.exit(code if isinstance(code, int) else 0)")
    env = dict(os.environ, PYTHONPATH=str(Path(alphaeta.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, timeout=120)
    *out, loaded = run.stdout.splitlines(keepends=True)
    return run.returncode, "".join(out), run.stderr, set(json.loads(loaded))


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestBerTable:
    def test_s7_row_reproduces_hierarchy_orders(self):
        code, out = run_cli("ber-table", "--s-min", "7", "--s-max", "7", "--steps", "2")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["optimal_asymptotic"]) == pytest.approx(6.9e-13, rel=0.01)
        assert float(row["phase_asymptotic"]) == pytest.approx(8.3e-7, rel=0.01)
        assert float(row["heterodyne_asymptotic"]) == pytest.approx(9.1e-4, rel=0.01)

    def test_s0_row_all_half(self):
        code, out = run_cli("ber-table", "--s-min", "0", "--s-max", "0", "--steps", "2")
        assert code == 0
        header, rows = parse_csv(out)
        for col, value in zip(header[1:], rows[0][1:]):
            if col.endswith("_exact"):
                assert float(value) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_range_single_row(self):
        code, out = run_cli("ber-table", "--s-min", "3", "--s-max", "3", "--steps", "2")
        assert code == 0
        assert len(parse_csv(out)[1]) == 1

    def test_json_format(self):
        code, out = run_cli("ber-table", "--s-min", "1", "--s-max", "2", "--steps", "2",
                            "--receivers", "optimal", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2
        assert set(records[0]) == {"S", "optimal_exact", "optimal_asymptotic"}

    def test_bad_range_is_usage_error(self):
        code, _ = run_cli("ber-table", "--s-min", "5", "--s-max", "1", "--steps", "4")
        assert code == 2
        code, _ = run_cli("ber-table", "--receivers", "optimal,psychic")
        assert code == 2

    def test_phase_where_e_minus_s_over_2_underflows(self):
        code, out = run_cli("ber-table", "--receivers", "phase", "--s-min", "1490",
                            "--s-max", "2000", "--steps", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["S", "phase_exact", "phase_asymptotic"] and len(rows) == 3
        assert all(0.0 <= float(r[1]) < 1e-24 for r in rows)  # the ~2e-32 FFT floor

    @pytest.mark.parametrize("argv", [["--s-min", "nan"], ["--s-max", "inf"],
                                      ["--receivers", ","],
                                      ["--receivers", "optimal,phase, phase"]],
                             ids=["s-min-nan", "s-max-inf", "no-receivers", "repeated-receiver"])
    def test_bad_flag_is_usage_error(self, argv):
        assert run_cli("ber-table", *argv)[0] == 2

    def test_repeated_receiver_is_named(self, capsys):
        # JSON records are dicts, so a repeated kind would keep one set of columns
        code, out = run_cli("ber-table", "--receivers", "phase,phase", "--format", "json")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: --receivers lists 'phase' more than once\n"


class TestEveNokey:
    def test_m1_equals_optimal_exact(self):
        code, out = run_cli("eve-nokey", "--s", "7", "--m-list", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(1.729e-13, rel=1e-2)

    def test_s7_sweep_nondecreasing(self):
        code, out = run_cli("eve-nokey", "--s", "7")
        assert code == 0
        _, rows = parse_csv(out)
        vals = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_alternating_geq_plain_at_m16(self):
        _, alt = run_cli("eve-nokey", "--s", "7", "--m-list", "16", "--mapping", "alternating")
        _, plain = run_cli("eve-nokey", "--s", "7", "--m-list", "16", "--mapping", "plain")
        assert float(parse_csv(alt)[1][0][1]) >= float(parse_csv(plain)[1][0][1])

    @pytest.mark.parametrize("m_list", ["3", "0", "abc"])
    def test_bad_m_is_usage_error(self, m_list):
        assert run_cli("eve-nokey", "--s", "7", "--m-list", m_list)[0] == 2

    @pytest.mark.parametrize("s", ["-1", "nan"])
    def test_bad_s_is_usage_error(self, s):
        assert run_cli("eve-nokey", "--s", s)[0] == 2

    def test_beyond_fock_range(self):
        code, out = run_cli("eve-nokey", "--s", "2000", "--m-list", "1,64")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["1", "64"]
        assert all(0.0 <= float(r[1]) <= 0.5 for r in rows)

    @READS_VMHWM
    def test_deployed_regime_fast_and_small(self):
        """S=1e4, M=4096 (8192 points) in < 2 s and < 200 MB, start-up included."""
        start = time.perf_counter()
        out, peak_mb = run_child("eve-nokey", "--s", "1e4", "--m-list", "4096")
        wall = time.perf_counter() - start
        _, rows = parse_csv(out)
        assert rows[0][0] == "4096" and 0.499 < float(rows[0][1]) <= 0.5
        assert wall < 2.0 and peak_mb < 200

    @READS_VMHWM
    def test_largest_m_at_small_s_stays_small(self):
        # 65536 points; only the ~60 residues that carry Poisson mass enter the solve
        out, peak_mb = run_child("eve-nokey", "--s", "7", "--m-list", "32768")
        assert parse_csv(out)[1][0][0] == "32768"
        assert peak_mb < 100

    @READS_VMHWM
    def test_does_not_load_the_monte_carlo_engine(self):
        loaded = ("print(sorted(m for m in ('alphaeta.montecarlo', 'concurrent.futures', "
                  "'logging') if m in sys.modules))")
        out, _ = run_child("eve-nokey", "--s", "7", "--m-list", "1,2", probe=loaded)
        assert out.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
        MemoryError()])
    def test_out_of_memory_is_computation_error(self, monkeypatch, capsys, exc):
        def exhausted(*args):
            raise exc
        monkeypatch.setattr("alphaeta.receivers.eve_nokey_helstrom", exhausted)
        code, out = run_cli("eve-nokey", "--s", "7", "--m-list", "32768")
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("computation failed: ") and err.count("\n") == 1
        assert len(err.strip()) > len("computation failed:")


class TestSimulate:
    def test_deterministic_byte_identical(self):
        argv = ["simulate", "--s", "2", "--trials", "200000", "--master-seed", "5",
                "--workers", "4"]
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
        _, serial = run_cli(*argv[:-2], "--workers", "1")
        assert serial == out1

    def test_s7_heterodyne_ci_contains_exact(self):
        code, out = run_cli("simulate", "--s", "7", "--bob", "heterodyne",
                            "--trials", "2000000", "--master-seed", "12", "--workers", "4")
        assert code == 0
        doc = json.loads(out)
        exact = 0.5 * math.erfc(math.sqrt(7))
        assert doc["bob"]["ci_low"] <= exact <= doc["bob"]["ci_high"]
        assert doc["analytic_bob"] == pytest.approx(exact, rel=1e-12)

    @READS_VMHWM
    def test_deployed_regime_nearest_point(self):
        """S=1e4, M=4096: the phase sampler at a signal where e^{-S/2} underflows."""
        start = time.perf_counter()
        out, peak_mb = run_child("simulate", "--s", "1e4", "--m", "4096", "--eve",
                                 "nearest-point", "--trials", "200000", "--workers", "2")
        wall = time.perf_counter() - start
        doc = json.loads(out)
        assert doc["bob"]["errors"] == 0
        # the phase noise 1/(2 sqrt S) spans about 6.5 point spacings pi/M
        assert 0.45 < doc["eve"]["p_hat"] < 0.55
        assert wall < 10.0 and peak_mb < 200

    @READS_VMHWM
    @pytest.mark.parametrize("eve", ["phase-deferred", "nearest-point"])
    def test_memory_bounded_by_chunk(self, eve):
        """32 batches peak within 6 MB of one batch (--workers no longer changes the
        run): the batches run one after another, and each holds only its cell counts
        and, for a nearest-point Eve, its bases, bits and points."""
        def peak_rss_mb(trials, workers):
            return run_child("simulate", "--s", "7", "--m", "32", "--bob", "heterodyne",
                             "--eve", eve, "--trials", str(trials),
                             "--workers", str(workers), "--master-seed", "5")[1]

        assert peak_rss_mb(1 << 21, 4) < peak_rss_mb(1 << 16, 1) + 6

    @pytest.mark.parametrize("eve", ["phase-deferred", "nearest-point"])
    def test_int64_points_above_m_2_15(self, eve):
        """M = 2^16 has 2^17 points, past uint16: 2^17 offset cells, and the int64
        sent points of a nearest-point batch."""
        code, out = run_cli("simulate", "--s", "1", "--m", "65536", "--dsr-d", "3",
                            "--eve", eve, "--trials", "70000")
        assert code == 0
        doc = json.loads(out)
        for who in ("bob", "eve"):
            assert doc[who]["ci_low"] <= doc[f"analytic_{who}"] <= doc[who]["ci_high"]

    def test_report_validates_against_schema(self):
        schema = json.loads((SCHEMA_DIR / "trial_report.schema.json").read_text())
        _, out = run_cli("simulate", "--s", "1", "--trials", "10000",
                         "--eve", "nearest-point")
        jsonschema.validate(json.loads(out), schema)

    def test_nearest_point_law_meets_closed_form(self):
        """At S = 1e4 Eve reads the sent point without error, so she errs exactly
        when a DSR dither of +-1 (probability 2/3) moves the point onto a neighbour
        with the other bit.  Under the alternating mapping every neighbour carries
        the other bit except across the edges (M - 1, M) and (2M - 1, 0), 2 of the
        2M edges: her law is (2/3)(1 - 1/M), 31/48 at M = 32, above the 1/2 of a
        coin flip."""
        schema = json.loads((SCHEMA_DIR / "trial_report.schema.json").read_text())
        _, out = run_cli("simulate", "--s", "1e4", "--m", "32", "--dsr-d", "1", "--bob", "phase",
                         "--eve", "nearest-point", "--trials", "1000")
        doc = json.loads(out)
        assert abs(doc["analytic_eve"] - 31 / 48) < 1e-9
        jsonschema.validate(doc, schema)

    def test_schema_enums_are_the_cli_names(self):
        config = json.loads((SCHEMA_DIR / "trial_report.schema.json").read_text())[
            "properties"]["config"]["properties"]
        assert config["bob_receiver"]["enum"] == list(RECEIVER_KINDS)
        assert config["eve_strategy"]["enum"] == [*EVE_STRATEGIES, "none"]
        assert config["mapping"]["enum"] == list(MAPPINGS)

    def test_dsr_violation_is_usage_error(self):
        code, _ = run_cli("simulate", "--s", "1", "--m", "8", "--dsr-d", "4")
        assert code == 2

    @pytest.mark.parametrize("argv", [["simulate", "--s", "1", "--trials", "10"],
                                      ["ber-table", "--receivers", "phase"]],
                             ids=["simulate", "ber-table"])
    def test_resolution_is_not_a_flag(self, argv):
        """Every phase value, simulate's tables and the scalar law alike, is read from
        fock.phase_tails on the grid that fock.phase_grid sizes from S and M, so no
        command offers one to set; the simulate report names the receiver by its
        kind alone."""
        for resolution in ("4096", "8192"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--resolution", resolution])
            assert exc.value.code == 2
        _, out = run_cli("simulate", "--s", "1", "--trials", "10", "--bob", "phase")
        assert json.loads(out)["config"]["bob_receiver"] == "phase"

    @pytest.mark.parametrize("key", BAD_SEED_KEYS)
    def test_bad_seed_key_is_usage_error(self, key, capsys):
        code, out = run_cli("simulate", "--s", "1", "--trials", "10", f"--seed-key={key}")
        assert (code, out) == (2, "")
        assert "computation failed" not in capsys.readouterr().err


class TestKeyrate:
    def test_phase_deferred_report(self):
        code, out = run_cli("keyrate", "--s", "7", "--eve", "phase-deferred")
        assert code == 0
        doc = json.loads(out)
        assert doc["reference_rate_order"] == 1e3
        assert doc["rate"] == doc["line_rate"] * doc["fraction"]
        schema = json.loads((SCHEMA_DIR / "key_rate_report.schema.json").read_text())
        jsonschema.validate(doc, schema)

    def test_heterodyne_deferred_order(self):
        code, out = run_cli("keyrate", "--s", "7", "--eve", "heterodyne-deferred")
        assert code == 0
        doc = json.loads(out)
        assert doc["reference_rate_order"] == 1e6
        assert 1e6 <= doc["rate"] <= 1e8

    def test_explicit_probabilities(self):
        code, out = run_cli("keyrate", "--p-bob", "0.01", "--p-eve", "0.01")
        assert code == 0
        assert json.loads(out)["rate"] == 0.0

    def test_conflicting_flags_usage_error(self):
        code, _ = run_cli("keyrate", "--s", "7", "--p-bob", "0.1", "--p-eve", "0.2")
        assert code == 2
        code, _ = run_cli("keyrate", "--p-bob", "0.1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--s", "-1"],
        ["--s", "nan"],
        ["--p-bob", "1.5", "--p-eve", "0.1"],
        ["--p-bob", "0.1", "--p-eve", "-0.2"],
        ["--s", "7", "--line-rate", "0"],
        ["--s", "7", "--line-rate", "inf"],
    ])
    def test_invalid_input_is_usage_error(self, argv):
        assert run_cli("keyrate", *argv)[0] == 2

    def test_phase_deferred_where_e_minus_s_over_2_underflows(self):
        # both BERs are below 1e-24 at S=2000, so no key is left to distil
        code, out = run_cli("keyrate", "--s", "2000", "--eve", "phase-deferred")
        assert code == 0
        doc = json.loads(out)
        assert doc["p_eve"] < 1e-24 and doc["rate"] < 1e-12 * doc["line_rate"]


class TestEncryptDecrypt:
    def _roundtrip(self, tmp_path, nbytes, key="c0ffee11", m="32"):
        data = np.random.default_rng(41).integers(0, 256, nbytes, dtype=np.uint8).tobytes()
        pt = tmp_path / "pt.bin"
        ct = tmp_path / "ct.bin"
        rt = tmp_path / "rt.bin"
        pt.write_bytes(data)
        assert run_cli("encrypt", "--input", str(pt), "--output", str(ct),
                       "--seed-key", key, "--m", m)[0] == 0
        assert run_cli("decrypt", "--input", str(ct), "--output", str(rt),
                       "--seed-key", key)[0] == 0
        return data, ct, rt

    def test_round_trip_identity(self, tmp_path):
        data, _, rt = self._roundtrip(tmp_path, 4096)
        assert rt.read_bytes() == data

    def test_ciphertext_format(self, tmp_path):
        data, ct, _ = self._roundtrip(tmp_path, 64)
        blob = ct.read_bytes()
        assert blob[:8] == b"Y00STRM1"
        assert len(blob) == 16 + 2 * 8 * len(data)
        points = np.frombuffer(blob[16:], dtype="<u2")
        assert points.max() < 64  # 2M for M=32

    def test_wrong_key_half_errors(self, tmp_path):
        data, ct, _ = self._roundtrip(tmp_path, 2500)  # 2e4 bits
        bad = tmp_path / "bad.bin"
        assert run_cli("decrypt", "--input", str(ct), "--output", str(bad),
                       "--seed-key", "12345678")[0] == 0
        a = np.unpackbits(np.frombuffer(data, np.uint8))
        b = np.unpackbits(np.frombuffer(bad.read_bytes(), np.uint8))
        assert abs(np.mean(a != b) - 0.5) < 0.03

    def test_m1_is_transparent(self, tmp_path):
        data, ct, rt = self._roundtrip(tmp_path, 128, m="1")
        points = np.frombuffer(ct.read_bytes()[16:], dtype="<u2")
        assert np.array_equal(points, np.unpackbits(np.frombuffer(data, np.uint8)))
        assert rt.read_bytes() == data

    def test_largest_m_round_trips(self, tmp_path):
        data, ct, rt = self._roundtrip(tmp_path, 256, m="32768")
        assert rt.read_bytes() == data
        assert np.frombuffer(ct.read_bytes()[16:], dtype="<u2").max() >= 32768

    @pytest.mark.parametrize("m", ["65536", "131072"])
    def test_m_beyond_u16_body_is_usage_error(self, tmp_path, capsys, m):
        pt = tmp_path / "pt.bin"
        pt.write_bytes(b"abc")
        code, _ = run_cli("encrypt", "--input", str(pt), "--output", str(tmp_path / "ct.bin"),
                          "--seed-key", "1", "--m", m)
        assert code == 2
        assert "32768" in capsys.readouterr().err

    @pytest.mark.parametrize("key", BAD_SEED_KEYS)
    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_bad_seed_key_is_usage_error_without_output(self, tmp_path, command, key):
        _, ct, _ = self._roundtrip(tmp_path, 64)
        src = tmp_path / ("pt.bin" if command == "encrypt" else "ct.bin")
        out = tmp_path / "out.bin"
        assert run_cli(command, "--input", str(src), "--output", str(out),
                       f"--seed-key={key}")[0] == 2
        assert not out.exists()

    def test_header_mismatch_is_usage_error(self, tmp_path):
        _, ct, _ = self._roundtrip(tmp_path, 64)
        code, _ = run_cli("decrypt", "--input", str(ct), "--output",
                          str(tmp_path / "x.bin"), "--seed-key", "1", "--m", "16")
        assert code == 2

    # (name, ciphertext mutation, message fragment) for a three-chunk M=32 file
    BAD_CIPHERTEXTS = [
        ("magic", lambda b: b"X" + b[1:], "bad magic"),
        ("version", lambda b: b[:8] + struct.pack("<H", 2) + b[10:], "version 2"),
        ("m-zero", lambda b: b[:10] + struct.pack("<H", 0) + b[12:], "power of two"),
        ("m-not-power-of-two", lambda b: b[:10] + struct.pack("<H", 3) + b[12:], "power of two"),
        ("mapping-code", lambda b: b[:12] + bytes([7]) + b[13:], "mapping code 7"),
        ("reserved-bytes", lambda b: b[:15] + bytes([1]) + b[16:], "reserved header bytes 000001"),
        ("odd-length-body", lambda b: b + b"\x00", "odd number of bytes"),
        ("truncated-body", lambda b: b[:-2], "whole number of bytes"),
        ("out-of-range-point-in-last-chunk", lambda b: b[:-2] + struct.pack("<H", 64),
         "out-of-range"),
    ]

    @pytest.mark.parametrize("mutate, message", [case[1:] for case in BAD_CIPHERTEXTS],
                             ids=[case[0] for case in BAD_CIPHERTEXTS])
    def test_bad_ciphertext_fails_without_output(self, tmp_path, capsys, mutate, message):
        _, ct, _ = self._roundtrip(tmp_path, 2 * CHUNK_BYTES + 3)
        ct.write_bytes(mutate(ct.read_bytes()))
        out = tmp_path / "out.bin"
        capsys.readouterr()
        code, _ = run_cli("decrypt", "--input", str(ct), "--output", str(out),
                          "--seed-key", "c0ffee11")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("computation failed: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()  # no partial plaintext

    @pytest.mark.parametrize("command, name", [("encrypt", "pt.bin"), ("decrypt", "ct.bin")])
    def test_output_onto_input_is_usage_error(self, tmp_path, command, name):
        self._roundtrip(tmp_path, 64)
        src = tmp_path / name
        before = src.read_bytes()
        (tmp_path / "sub").mkdir()
        for out in (src, tmp_path / "sub" / ".." / name):  # also another spelling of it
            assert run_cli(command, "--input", str(src), "--output", str(out),
                           "--seed-key", "c0ffee11")[0] == 2
            assert src.read_bytes() == before

    @READS_VMHWM
    def test_decrypt_memory_bounded_by_chunk(self, tmp_path):
        """A 1 MB decrypt peaks within 20 MB of a 1 kB one: the file is streamed."""
        def peak_rss_mb(ct):
            return run_child("decrypt", "--input", str(ct), "--output", str(ct) + ".out",
                             "--seed-key", "c0ffee11")[1]

        small, large = tmp_path / "small", tmp_path / "large"
        small.mkdir()
        large.mkdir()
        _, small_ct, _ = self._roundtrip(small, 1000)
        _, large_ct, _ = self._roundtrip(large, 1_000_000)
        assert peak_rss_mb(large_ct) < peak_rss_mb(small_ct) + 20

    @settings(max_examples=30, deadline=None)
    @given(nbytes=st.builds(lambda chunks, off: max(0, chunks * CHUNK_BYTES + off),
                            st.integers(0, 2), st.integers(-2, 2)),
           m_exp=st.integers(0, MAX_M.bit_length() - 1), mapping=st.sampled_from(MAPPINGS),
           key=st.integers(1, 2 ** 32 - 1), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip_across_chunks_is_identity(self, nbytes, m_exp, mapping, key, seed):
        """Every power-of-two M up to the u16 limit, both mappings, any nonzero key."""
        data = np.random.default_rng(seed).bytes(nbytes)
        with tempfile.TemporaryDirectory() as tmp:
            pt, ct, rt = (Path(tmp) / name for name in ("pt.bin", "ct.bin", "rt.bin"))
            pt.write_bytes(data)
            flags = ["--seed-key", f"{key:x}"]
            assert run_cli("encrypt", "--input", str(pt), "--output", str(ct), *flags,
                           "--m", str(1 << m_exp), "--mapping", mapping)[0] == 0
            assert run_cli("decrypt", "--input", str(ct), "--output", str(rt), *flags)[0] == 0
            assert rt.read_bytes() == data

    def test_garbage_input_is_computation_error(self, tmp_path):
        bad = tmp_path / "garbage.bin"
        bad.write_bytes(b"not a ciphertext at all")
        code, _ = run_cli("decrypt", "--input", str(bad), "--output",
                          str(tmp_path / "x.bin"), "--seed-key", "1")
        assert code == 1


class TestConfigFile:
    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
                             ids=["space", "equals", "prefix"])
    def test_config_provides_defaults(self, tmp_path, spelling):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s=2\ntrials=5000\nmaster-seed=9\n")
        code, out = run_cli("simulate", *(a.format(cfg) for a in spelling))
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["s"] == 2.0
        assert doc["config"]["trials"] == 5000

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s=2\ntrials=5000\n")
        _, out = run_cli("simulate", "--config", str(cfg), "--trials", "7000")
        assert json.loads(out)["config"]["trials"] == 7000

    @pytest.mark.parametrize("line", ["format=xml", "s=abc"])
    def test_bad_value_rejected_like_a_flag(self, tmp_path, capsys, line):
        cfg = tmp_path / "nokey.cfg"
        cfg.write_text(f"s=7\nm-list=1\n{line}\n")
        code, out = run_cli("eve-nokey", "--config", str(cfg))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: config line 3:") and err.count("\n") == 1

    @pytest.mark.parametrize("problem", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_is_usage_error(self, tmp_path, capsys, problem):
        cfg = tmp_path / "sim.cfg"
        if problem == "directory":
            cfg.mkdir()
        elif problem == "not-utf8":
            cfg.write_bytes(b"s=2\n# \xff\xfe\n")
        code, out = run_cli("simulate", f"--config={cfg}", "--s", "1")
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["simulate", "--s", "1"], ["ber-table"]],
                             ids=["simulate", "ber-table"])
    @pytest.mark.parametrize("key", ["warp-factor=9", "resolution=4096"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key, argv):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{key}\n")
        code, _ = run_cli(argv[0], "--config", str(cfg), *argv[1:])
        assert code == 2
        name = key.partition("=")[0]
        assert capsys.readouterr().err == f"error: config line 1: unknown key {name!r}\n"


def test_flag_choices_match_the_registry():
    _, sub = build_parser()

    def action(command, dest):
        return next(a for a in sub[command]._actions if a.dest == dest)

    assert set(action("simulate", "bob").choices) == set(BER_LAWS)
    assert set(action("simulate", "eve").choices) == set(EVE_STRATEGIES) | {"none"}
    assert set(action("keyrate", "eve").choices) == {
        name for name, kind in EVE_STRATEGIES.items() if kind is not None}
    assert action("ber-table", "receivers").default.split(",") == list(BER_LAWS)


def test_name_tables_are_defined_once():
    for engine, name in ((cipher, "MAPPINGS"), (montecarlo, "RECEIVER_KINDS"),
                         (montecarlo, "EVE_STRATEGIES"), (keyrate, "KEYRATE_EVE_STRATEGIES")):
        assert getattr(engine, name) is getattr(names, name)
    _, sub = build_parser()

    def choices(command, dest):
        return next(a for a in sub[command]._actions if a.dest == dest).choices

    for command in ("eve-nokey", "simulate", "encrypt", "decrypt"):
        assert choices(command, "mapping") == MAPPINGS
    assert choices("simulate", "bob") == RECEIVER_KINDS == tuple(BER_LAWS)
    assert choices("simulate", "eve") == (*EVE_STRATEGIES, "none")
    assert choices("keyrate", "eve") == KEYRATE_EVE_STRATEGIES == tuple(
        name for name, kind in EVE_STRATEGIES.items() if kind is not None)

    for mapping in MAPPINGS:
        assert Constellation(4, mapping).mapping == mapping
    for mapping in ("Alternating", "gray", "", "none"):
        with pytest.raises(ValueError):
            Constellation(4, mapping)
    for strategy in set(EVE_STRATEGIES) - set(KEYRATE_EVE_STRATEGIES):
        with pytest.raises(ValueError):
            key_rate_at_s(1.0, strategy, 1e9)


# commands whose S reaches fock.photon_window; "{s}" stands for the signal level
HUGE_S_ARGV = {
    "simulate": ["simulate", "--s", "{s}", "--bob", "phase", "--trials", "10"],
    "eve-nokey": ["eve-nokey", "--s", "{s}"],
    "ber-table": ["ber-table", "--s-min", "{s}", "--s-max", "{s}", "--receivers", "phase"],
    "keyrate": ["keyrate", "--s", "{s}"],
}


@pytest.mark.parametrize("s", ["1e20", "1e300"])
@pytest.mark.parametrize("command", sorted(HUGE_S_ARGV))
def test_signal_from_2_53_is_a_one_line_error(command, s, capsys):
    """From S = 2^53 on, doubles skip integers and no photon window is exact: each
    command exits 1 with one line, not a traceback.  Only S far past the limit
    is run: S in [1e10, 2^53) builds a window of gigabytes."""
    code, out = run_cli(*(arg.format(s=s) for arg in HUGE_S_ARGV[command]))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"computation failed: mean photon number must be below 2^53, got {float(s):g}\n")


class TestImports:
    """The front end loads no numerics; each command loads only its own engine."""

    ENGINES = {f"alphaeta.{m}" for m in ("cipher", "receivers", "keyrate", "fock", "montecarlo")}

    def test_parser_loads_no_engine(self):
        code, _, _, loaded = run_fresh(setup="build_parser()")
        assert code == 0
        assert "numpy" not in loaded and not loaded & self.ENGINES
        assert "dataclasses" not in loaded  # only the reports need it, not the parser

    def test_file_cipher_loads_only_cipher(self, tmp_path):
        pt, ct = tmp_path / "pt.bin", tmp_path / "ct.bin"
        pt.write_bytes(b"alpha-eta")
        key = ["--seed-key", "c0ffee"]
        for command, src, dst in (("encrypt", pt, ct), ("decrypt", ct, tmp_path / "rt.bin")):
            code, _, _, loaded = run_fresh(command, "--input", str(src), "--output", str(dst),
                                           *key)
            assert code == 0
            assert loaded & self.ENGINES == {"alphaeta.cipher"}
            assert "numpy" not in loaded
        assert (tmp_path / "rt.bin").read_bytes() == pt.read_bytes()

    def test_eve_nokey_loads_no_keyrate_or_monte_carlo(self):
        code, out, _, loaded = run_fresh("eve-nokey", "--s", "7", "--m-list", "1,2")
        assert code == 0 and out.startswith("M,p_e\n")
        assert "alphaeta.receivers" in loaded
        assert not loaded & {"alphaeta.keyrate", "alphaeta.montecarlo"}

    @pytest.mark.parametrize("argv, numerics", [
        (["keyrate", "--s", "7", "--eve", "heterodyne-deferred"], False),
        (["ber-table", "--receivers", "optimal,homodyne,heterodyne"], False),
        (["keyrate", "--s", "7", "--eve", "phase-deferred"], True),  # the check has teeth
    ], ids=["keyrate-heterodyne-deferred", "ber-table-closed-forms", "keyrate-phase-deferred"])
    def test_only_the_phase_law_loads_numpy(self, argv, numerics):
        code, out, _, loaded = run_fresh(*argv)
        assert code == 0 and out
        assert "alphaeta.receivers" in loaded
        expected = {"numpy", "alphaeta.fock"} if numerics else set()
        assert loaded & {"numpy", "alphaeta.fock"} == expected

    @READS_VMHWM
    def test_nearest_point_simulate_starts_no_thread_pool(self):
        probe = "print('concurrent.futures' in sys.modules)"
        out, _ = run_child("simulate", "--s", "7", "--m", "8", "--eve", "nearest-point",
                           "--trials", "70000", "--workers", "2", probe=probe)
        assert out.splitlines()[-1] == "False"
        # the check has teeth: numpy, which the run imports, does not load it either
        out, _ = run_child("eve-nokey", "--s", "7", "--m-list", "1",
                           probe=f"import numpy; {probe}")
        assert out.splitlines()[-1] == "False"

    @pytest.mark.parametrize("argv, code, err", [
        (["--help"], 0, ""),
        (["simulate", "--s", "1", "--workers", "0"], 2, "error: workers must be >= 1\n"),
        (["encrypt", "--input", "pt.bin", "--output", "ct.bin", "--seed-key", "1",
          "--m", "65536"], 2,
         "error: --m must be <= 32768: the ciphertext stores point indices as u16\n"),
        (["keyrate", "--s", "7", "--p-bob", "0.1"], 2,
         "error: give either --s or both --p-bob and --p-eve, not both\n"),
        (["eve-nokey", "--s", "nan"], 2, "error: --s must be finite and >= 0\n"),
        (["simulate", "--config", "{cfg}", "--s", "1"], 2,
         "error: config line 1: unknown key 'warp-factor'\n"),
    ], ids=["help", "workers-0", "encrypt-m-65536", "keyrate-s-and-p", "nokey-s-nan",
            "config-unknown-key"])
    def test_usage_error_exits_before_numpy(self, tmp_path, argv, code, err):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("warp-factor=9\n")
        got, out, stderr, loaded = run_fresh(*(a.format(cfg=cfg) for a in argv))
        assert (got, stderr) == (code, err)
        assert out.startswith("usage: alphaeta") if argv == ["--help"] else out == ""
        assert "numpy" not in loaded and not loaded & self.ENGINES
        assert "dataclasses" not in loaded  # only the reports need it, not the parser
