import csv
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from alphaeta.cli import build_parser, main
from alphaeta.receivers import BER_LAWS, EVE_STRATEGIES

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


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

    @pytest.mark.parametrize("argv", [["--s-min", "nan"], ["--s-max", "inf"],
                                      ["--resolution", "4097"], ["--receivers", ","]],
                             ids=["s-min-nan", "s-max-inf", "resolution-4097", "no-receivers"])
    def test_bad_flag_is_usage_error(self, argv):
        assert run_cli("ber-table", *argv)[0] == 2


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

    def test_report_validates_against_schema(self):
        schema = json.loads((SCHEMA_DIR / "trial_report.schema.json").read_text())
        _, out = run_cli("simulate", "--s", "1", "--trials", "10000",
                         "--eve", "nearest-point")
        jsonschema.validate(json.loads(out), schema)

    def test_dsr_violation_is_usage_error(self):
        code, _ = run_cli("simulate", "--s", "1", "--m", "8", "--dsr-d", "4")
        assert code == 2


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
    ])
    def test_invalid_input_is_usage_error(self, argv):
        assert run_cli("keyrate", *argv)[0] == 2

    def test_numeric_failure_is_computation_error(self, capsys):
        # the phase-deferred BER needs the Fock path, whose amplitudes underflow at S=2000
        code, _ = run_cli("keyrate", "--s", "2000", "--eve", "phase-deferred")
        assert code == 1
        assert "amplitude underflow" in capsys.readouterr().err


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

    def test_header_mismatch_is_usage_error(self, tmp_path):
        _, ct, _ = self._roundtrip(tmp_path, 64)
        code, _ = run_cli("decrypt", "--input", str(ct), "--output",
                          str(tmp_path / "x.bin"), "--seed-key", "1", "--m", "16")
        assert code == 2

    def test_garbage_input_is_computation_error(self, tmp_path):
        bad = tmp_path / "garbage.bin"
        bad.write_bytes(b"not a ciphertext at all")
        code, _ = run_cli("decrypt", "--input", str(bad), "--output",
                          str(tmp_path / "x.bin"), "--seed-key", "1")
        assert code == 1


class TestConfigFile:
    def test_config_provides_defaults(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("s=2\ntrials=5000\nmaster-seed=9\n")
        code, out = run_cli("simulate", "--config", str(cfg))
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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("warp-factor=9\n")
        code, _ = run_cli("simulate", "--config", str(cfg), "--s", "1")
        assert code == 2


def test_flag_choices_match_the_registry():
    _, sub = build_parser()

    def action(command, dest):
        return next(a for a in sub[command]._actions if a.dest == dest)

    assert set(action("simulate", "bob").choices) == set(BER_LAWS)
    assert set(action("simulate", "eve").choices) == set(EVE_STRATEGIES) | {"none"}
    assert set(action("keyrate", "eve").choices) == {
        name for name, kind in EVE_STRATEGIES.items() if kind is not None}
    assert action("ber-table", "receivers").default.split(",") == list(BER_LAWS)
