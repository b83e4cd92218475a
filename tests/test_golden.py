"""Golden SHA-256 digests of CLI outputs for fixed flags.

Every output below is deterministic for its flags.  The digests pin them
byte for byte, so a refactor that claims to keep seeded results unchanged is
checked here.  A change that alters a seeded output on purpose (a different
RNG draw, say) must update the affected digests and say why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from alphaeta.cli import main

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
    "sim-optimal-hetdeferred-plain": [*SIM, "--bob", "optimal", "--eve", "heterodyne-deferred",
                                      "--mapping", "plain"],
    "ber-table-csv": ["ber-table", "--s-min", "0", "--s-max", "8", "--steps", "5"],
    "ber-table-json": ["ber-table", "--s-min", "0.5", "--s-max", "3", "--steps", "3",
                       "--receivers", "phase,heterodyne", "--resolution", "8192",
                       "--format", "json"],
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
    "ber-table-csv":
        "326b30cb6322592878f93fac7f63a89228f58b99a923c49e98d9699acf4049df",
    "ber-table-json":
        "6697b345cdf66de70c3799eab10e7ca2e8edeea7bcb53aa7cfa79a3e7e7b985f",
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
        "34e007199a3b7e28425aa637098bc269a9eaf85c37a3fdb626e8bab4d6b3dabb",
    "eve-nokey-plain":
        "d831de3b7975647b08645a3d74e957a9eae11f802fd7afd74b9ce33da8255a7e",
    "keyrate-p":
        "098eb2bfeb3187647102b72e48929b49da902d739fd48654b2dc6c688bccbe7f",
    "keyrate-s":
        "39f58dee85bf17278a6f745c15432161ab9c0f026a448cf88b5e11f739044a0c",
    "keyrate-s-het":
        "366a53b759f9ccda65f6576824d1d90b57338cec71a5d556ad8fd975ccec9fb3",
    "sim-heterodyne-hetdeferred":
        "e2f3e84cab54b45fb67a16830fae5c82ecfa2a6e50bdd6d28c82ad5d9f0da304",
    "sim-heterodyne-hetdeferred-w2":
        "e2f3e84cab54b45fb67a16830fae5c82ecfa2a6e50bdd6d28c82ad5d9f0da304",
    "sim-homodyne-phasedeferred-plain":
        "1f3409a9966e54cb0c077913769f1c6ecd0531abfa644be23f414f6b829dbb89",
    "sim-optimal":
        "206552ec7e6df27f78ff5c9aa0618a43cfa785b2dbe77645024032c43ba37ac7",
    "sim-optimal-hetdeferred-plain":
        "023858f27fdf2d6dd00389df98527e826aae0e2474f6c225b51fe606f64f8c4b",
    "sim-phase-dsr":
        "87289fd37dc6383f9e89b4ffa028c5ce46f933c646aaa502571ddf2ab9d5e066",
    "sim-phase-nearest":
        "6f1ff00502ff9b072b6221b816794dba0fa371060b8fdc0c071130c8bc881261",
    "sim-phase-nearest-plain-w2":
        "261b57644b162cccf494af7d4297358defe3e3bc6076563873eeb60481840167",
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


@pytest.mark.parametrize("m,mapping", CIPHERS)
def test_cipher_digests(tmp_path, m, mapping):
    outputs = cipher_outputs(tmp_path, m, mapping)
    assert outputs[f"decrypt-m{m}-{mapping}"] == PLAINTEXT
    for name, data in outputs.items():
        assert _sha(data) == DIGESTS[name], name


def test_worker_count_leaves_digest_unchanged():
    assert DIGESTS["sim-heterodyne-hetdeferred-w2"] == DIGESTS["sim-heterodyne-hetdeferred"]
