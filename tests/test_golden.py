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
        "60d3efc4303f0681011a619a68aaeac258c4b65223fb2c291aacd58fc848a59c",
    "ber-table-json":
        "90435fbfac1a900b93eee901095fa4a3cf69731532504ee0f02be9c2071c593f",
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
        "120e3287b8147079aa98974204c934b97a602a7d2cc0b041a31457929735022b",
    "eve-nokey-plain":
        "d831de3b7975647b08645a3d74e957a9eae11f802fd7afd74b9ce33da8255a7e",
    "keyrate-p":
        "098eb2bfeb3187647102b72e48929b49da902d739fd48654b2dc6c688bccbe7f",
    "keyrate-s":
        "293b5bc9cf0cfef6b6d6f7385b63194cabad329679afce4f96e735c6c52bcf77",
    "keyrate-s-het":
        "366a53b759f9ccda65f6576824d1d90b57338cec71a5d556ad8fd975ccec9fb3",
    "sim-heterodyne-hetdeferred":
        "87e8cc9b3a6155d5b3baecfc50244c8ac3e1fe30400bc8b66300b7abf7990e6b",
    "sim-heterodyne-hetdeferred-w2":
        "87e8cc9b3a6155d5b3baecfc50244c8ac3e1fe30400bc8b66300b7abf7990e6b",
    "sim-homodyne-phasedeferred-plain":
        "6c01477efd2eadd2f0205d03652a27fdf84b07f38e845d815a7648419e9ae761",
    "sim-optimal":
        "eba715090ece8f1bc06ee5744c451fdd0465b44d2db993f6b0f9f67e2b6e0539",
    "sim-optimal-hetdeferred-plain":
        "609dce8b715f0bb984945795a465bc7a75f4025ed1bd22c97d30020cc4cce566",
    "sim-phase-dsr":
        "3de61f0b73cf85672e7a9c69da840aeb668a2924137e3a3fc551ff600e81e8be",
    "sim-phase-nearest":
        "88b3a0d459b2b01148ed86859c4537e72a5a5b83a0acae4ad2eff7be9253a57b",
    "sim-phase-nearest-dsr":
        "fe73439f339d858cf15be8c713981ae7670d5860f35e5278ada9882a5c078bcc",
    "sim-phase-nearest-plain-w2":
        "109e7ed744f16ec76ab6aeae274c0ba364304be1e0f6dc32939429637ae0c899",
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
        if doc[f"analytic_{who}"] is None:  # no eavesdropper, or nearest-point (no law)
            continue
        low, high = wilson_interval(doc[who]["errors"], doc[who]["trials"], 5.0)
        assert low <= doc[f"analytic_{who}"] <= high, who


@pytest.mark.parametrize("m,mapping", CIPHERS)
def test_cipher_digests(tmp_path, m, mapping):
    outputs = cipher_outputs(tmp_path, m, mapping)
    assert outputs[f"decrypt-m{m}-{mapping}"] == PLAINTEXT
    for name, data in outputs.items():
        assert _sha(data) == DIGESTS[name], name


def test_worker_count_leaves_digest_unchanged():
    assert DIGESTS["sim-heterodyne-hetdeferred-w2"] == DIGESTS["sim-heterodyne-hetdeferred"]
