"""Golden SHA-256 digests of CLI outputs for fixed flags.

Every output below is deterministic for its flags.  The digests pin them
byte for byte, so a refactor that claims to keep seeded results unchanged is
checked here.  A change that alters a seeded output on purpose (a different
RNG draw, say) must update the affected digests and say why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from alphaeta.cli import main
from alphaeta.montecarlo import wilson_interval

SIM = ["simulate", "--s", "2", "--m", "16", "--trials", "70000", "--master-seed", "3"]

# name -> argv without --output; each simulate run spans two 65536-trial batches
CASES = {
    "sim-optimal": [*SIM, "--bob", "optimal"],
    "sim-heterodyne-hetdeferred": [*SIM, "--bob", "heterodyne", "--eve", "heterodyne-deferred"],
    "sim-heterodyne-hetdeferred-w2": [*SIM, "--bob", "heterodyne", "--eve",
                                      "heterodyne-deferred", "--workers", "2"],
    "sim-homodyne-phasedeferred-plain": [*SIM, "--bob", "homodyne", "--eve", "phase-deferred",
                                         "--mapping", "plain"],
    "sim-phase-nearest": [*SIM, "--bob", "phase", "--eve", "nearest-point"],
    "sim-phase-nearest-plain-w2": [*SIM, "--bob", "phase", "--eve", "nearest-point",
                                   "--mapping", "plain", "--workers", "2"],
    "sim-phase-dsr": [*SIM, "--bob", "phase", "--dsr-d", "3", "--eve", "phase-deferred"],
    "sim-phase-nearest-dsr": [*SIM, "--bob", "phase", "--eve", "nearest-point", "--dsr-d", "3"],
    "sim-optimal-hetdeferred-plain": [*SIM, "--bob", "optimal", "--eve", "heterodyne-deferred",
                                      "--mapping", "plain"],
    "ber-table-csv": ["ber-table", "--s-min", "0", "--s-max", "8", "--steps", "5"],
    "ber-table-json": ["ber-table", "--s-min", "0.5", "--s-max", "3", "--steps", "3",
                       "--receivers", "phase,heterodyne", "--format", "json"],
    "ber-table-closed-forms": ["ber-table", "--receivers", "optimal,homodyne,heterodyne",
                               "--s-min", "0", "--s-max", "10", "--steps", "201"],
    "keyrate-s": ["keyrate", "--s", "3", "--eve", "phase-deferred"],
    "keyrate-s-het": ["keyrate", "--s", "3", "--eve", "heterodyne-deferred"],
    "keyrate-p": ["keyrate", "--p-bob", "0.01", "--p-eve", "0.2", "--line-rate", "1e6"],
    "eve-nokey-csv": ["eve-nokey", "--s", "7", "--m-list", "1,2,4,8"],
    "eve-nokey-plain": ["eve-nokey", "--s", "30", "--m-list", "4,16", "--mapping", "plain"],
}

# (M, mapping) -> ciphertext of PLAINTEXT under key "c0ffee"
CIPHERS = [(32, "alternating"), (4, "plain"), (32768, "alternating")]
PLAINTEXT = np.random.default_rng(2024).bytes(2048)

DIGESTS = {
    "ber-table-closed-forms":
        "150e2118ed97b9a2a7bc832f7b4b83fc9ffe4289f34525d854ae7ff94dd015ed",
    "ber-table-csv":
        "52350c0daca7b611745b62b1f7ba41b264b99b412c6f91102d98a1612b09e65e",
    "ber-table-json":
        "a643802db93a9b3a447ee9309b286b0b08b9d340802eacceb4b9b60e3cce618d",
    "decrypt-m32-alternating":
        "0e779645a0ed84119935dcb3a273fd0b5472dc94739393c26f332fb609423cd0",
    "decrypt-m32768-alternating":
        "0e779645a0ed84119935dcb3a273fd0b5472dc94739393c26f332fb609423cd0",
    "decrypt-m4-plain":
        "0e779645a0ed84119935dcb3a273fd0b5472dc94739393c26f332fb609423cd0",
    "decrypt-wrongkey-m32-alternating":
        "b9f2cde7c1aad988cfe87993ae9506cfd0f5d371602aeafdfed375bf7cf42b36",
    "decrypt-wrongkey-m32768-alternating":
        "9149259ee06f9af0e4cc82bac90884cd4f6096b58ee48d6573cb922c9d7919e1",
    "decrypt-wrongkey-m4-plain":
        "5d4eeff02dbdc8ea9f355aebdfad1724be74ea98d7505b2f54c6fefbbc346fe9",
    "encrypt-m32-alternating":
        "5c1ef19e0cd8d8dfeb341898028122b54b0b6cfaf75ca0421346a500f267df71",
    "encrypt-m32768-alternating":
        "b54b4f9a085f1e3aa45369c30322b64e62dcb72891c0f03e51b8d4496a3e776f",
    "encrypt-m4-plain":
        "dc3aaf61a9d5725747388d714ff109107e1249e722430cd1f02ec9732a9110cb",
    "eve-nokey-csv":
        "d7cc31c8a47ef0287babd12445d8bc9b9add44df7d72937f199db36a705d7fa1",
    "eve-nokey-plain":
        "6f7ceed265b6b8b26d80932f698c128ea6c5b083a92607ea857f7e6e40a2dff1",
    "keyrate-p":
        "098eb2bfeb3187647102b72e48929b49da902d739fd48654b2dc6c688bccbe7f",
    "keyrate-s":
        "e8a1c1359088ff54e5c6ccd63494e39fe1f3b4fa2aa6df33807f8310c668b093",
    "keyrate-s-het":
        "366a53b759f9ccda65f6576824d1d90b57338cec71a5d556ad8fd975ccec9fb3",
    "sim-heterodyne-hetdeferred":
        "4cff31d44f023bfda44336a9ae3865367756ccab60825e19ceb3ad7385f2b1fc",
    "sim-heterodyne-hetdeferred-w2":
        "4cff31d44f023bfda44336a9ae3865367756ccab60825e19ceb3ad7385f2b1fc",
    "sim-homodyne-phasedeferred-plain":
        "5d965e225c8bbabf40e3044895ff9d83b9ea2bd15c0c30e9ea8f9a21fc0de2bd",
    "sim-optimal":
        "7f30fa3ef9cb166bd20c55c811bceb72b024dc547b4e86aab19727ea150dabca",
    "sim-optimal-hetdeferred-plain":
        "515d97226a9d1ea6c05b811c39098274544e42325d9d86805f60e86d38202b47",
    "sim-phase-dsr":
        "8a0901c1be4f02608ebe2ec0d35b5d2ccdc7b8d22eb6443fc33db34b76fe584d",
    "sim-phase-nearest":
        "ec50f5c92f75f00890bd8ee413199bf34ecdd8818a3632e876d765ad64bf20bb",
    "sim-phase-nearest-dsr":
        "a37b0659c7e8e13434e98ee6b9da4579facca2b8479e7c97dee83ab0239997f4",
    "sim-phase-nearest-plain-w2":
        "ef4d8f128bdc9d42c23abf573615f084786873b069ffa42667c30e09aff0414c",
}

# name -> (bob errors, eve errors or None without an Eve) of every simulate case,
# pinned apart from its digest: a re-recorded digest (the report's schema, or the
# last digits of analytic_bob and analytic_eve) must not hide a change in the draws
SIM_ERROR_COUNTS = {
    "sim-optimal": (7, None),
    "sim-heterodyne-hetdeferred": (1567, 1577),
    "sim-heterodyne-hetdeferred-w2": (1567, 1577),
    "sim-homodyne-phasedeferred-plain": (166, 891),
    "sim-phase-dsr": (1161, 1234),
    "sim-phase-nearest": (925, 34315),
    "sim-phase-nearest-dsr": (1179, 34490),
    "sim-phase-nearest-plain-w2": (925, 7689),
    "sim-optimal-hetdeferred-plain": (7, 1610),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_to_file(argv, out) -> bytes:
    assert main([*argv, "--output", str(out)]) == 0
    return out.read_bytes()


def cipher_outputs(tmp_path, m, mapping) -> dict[str, bytes]:
    """Ciphertext, right-key decrypt and wrong-key decrypt for one (M, mapping)."""
    plain = tmp_path / "plain.bin"
    plain.write_bytes(PLAINTEXT)
    ct = tmp_path / "ct.bin"
    key = ["--seed-key", "c0ffee"]
    cipher = run_to_file(["encrypt", "--input", str(plain), *key, "--m", str(m),
                          "--mapping", mapping], ct)
    right = run_to_file(["decrypt", "--input", str(ct), *key], tmp_path / "right.bin")
    wrong = run_to_file(["decrypt", "--input", str(ct), "--seed-key", "c0ffef"],
                        tmp_path / "wrong.bin")
    return {f"encrypt-m{m}-{mapping}": cipher, f"decrypt-m{m}-{mapping}": right,
            f"decrypt-wrongkey-m{m}-{mapping}": wrong}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(tmp_path, name):
    assert _sha(run_to_file(CASES[name], tmp_path / "out")) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("sim-")))
def test_simulate_estimates_cover_analytic_law(tmp_path, name):
    """Each pinned report is one a correct program can give: its estimates cover
    the analytic laws at z=5."""
    doc = json.loads(run_to_file(CASES[name], tmp_path / "out"))
    for who in ("bob", "eve"):
        if doc[who] is None:  # no eavesdropper: no estimate and no law
            assert doc[f"analytic_{who}"] is None
            continue
        low, high = wilson_interval(doc[who]["errors"], doc[who]["trials"], 5.0)
        assert low <= doc[f"analytic_{who}"] <= high, who


@pytest.mark.parametrize("name", sorted(SIM_ERROR_COUNTS))
def test_simulate_cases_keep_their_error_counts(tmp_path, name):
    doc = json.loads(run_to_file(CASES[name], tmp_path / "out"))
    eve = doc["eve"] and doc["eve"]["errors"]
    assert (doc["bob"]["errors"], eve) == SIM_ERROR_COUNTS[name]


@pytest.mark.parametrize("m,mapping", CIPHERS)
def test_cipher_digests(tmp_path, m, mapping):
    outputs = cipher_outputs(tmp_path, m, mapping)
    assert outputs[f"decrypt-m{m}-{mapping}"] == PLAINTEXT
    for name, data in outputs.items():
        assert _sha(data) == DIGESTS[name], name


def test_worker_count_leaves_digest_unchanged():
    assert DIGESTS["sim-heterodyne-hetdeferred-w2"] == DIGESTS["sim-heterodyne-hetdeferred"]
