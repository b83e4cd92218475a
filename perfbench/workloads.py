"""The benchmark workloads: the CLI processes of one op, seeded inputs and output checks.

An op is a list of `alphaeta` CLI invocations run back to back.  `draw`
makes one op's inputs from the workload's random stream, `steps` writes any
input files and returns the argument lists, and `check` returns the problems
found in the outputs (an empty list when the op is correct).  The checks use
closed forms written here, not the program's own functions.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

import jsonschema

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def _schema(name: str) -> dict:
    with open(SCHEMAS / name, encoding="utf-8") as fh:
        return json.load(fh)


def _schema_problems(doc, schema_name: str) -> list[str]:
    try:
        jsonschema.validate(doc, _schema(schema_name))
    except jsonschema.ValidationError as exc:
        return [f"{schema_name}: {exc.message}"]
    return []


def _key(rng: random.Random) -> str:
    return f"{rng.randrange(1, 1 << 32):08x}"  # a nonzero 32-bit LFSR fill


def wilson_interval(errors: int, trials: int, z: float) -> tuple[float, float]:
    p = errors / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return centre - half, centre + half


def helstrom(s: float) -> float:
    x = math.exp(-4.0 * s)
    return 0.5 * x / (1.0 + math.sqrt(1.0 - x))


# Closed forms of the ber-table columns that have one: (exact, asymptotic).
CLOSED_FORMS = {
    "optimal": lambda s: (helstrom(s), math.exp(-4.0 * s)),
    "homodyne": lambda s: (0.5 * math.erfc(math.sqrt(2.0 * s)), math.exp(-2.0 * s)),
    "heterodyne": lambda s: (0.5 * math.erfc(math.sqrt(s)), math.exp(-s)),
}


def _csv_rows(text: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text.decode("utf-8"))))


class Workload:
    name: str
    headline_name: str  # the workload's own end-to-end figure, derived from op time
    headline_unit: str

    def headline(self, op_s: float) -> float:
        raise NotImplementedError

    def serial(self) -> "Workload | None":
        """The same op with one worker, when the workload has a thread pool."""
        return None


class SimulateDeferred(Workload):
    """Keyed heterodyne Bob against a phase-deferred Eve, at S=7 and M=32."""

    name = "simulate-deferred"
    headline_name, headline_unit = "trials_per_s", "trials/s"
    z = 5.0  # a correct program leaves the interval about once in 1.7 million

    def __init__(self, trials: int = 1 << 21, workers: int = 2):
        self.trials = trials
        self.workers = workers

    def headline(self, op_s: float) -> float:
        return self.trials / op_s

    def serial(self) -> "SimulateDeferred":
        return SimulateDeferred(self.trials, workers=1)

    def draw(self, rng: random.Random) -> dict:
        return {"master_seed": rng.getrandbits(63), "seed_key": _key(rng)}

    def steps(self, inputs, work: Path) -> list[list[str]]:
        return [["simulate", "--s", "7", "--m", "32", "--mapping", "alternating",
                 "--bob", "heterodyne", "--eve", "phase-deferred",
                 "--trials", str(self.trials), "--workers", str(self.workers),
                 "--master-seed", str(inputs["master_seed"]), "--seed-key", inputs["seed_key"]]]

    def check(self, inputs, work: Path, outputs: list[bytes]) -> list[str]:
        doc = json.loads(outputs[0])
        problems = _schema_problems(doc, "trial_report.schema.json")
        if problems:
            return problems
        config = doc["config"]
        if (config["master_seed"], config["seed_key"]) != (inputs["master_seed"],
                                                           inputs["seed_key"]):
            problems.append("report echoes another master seed or seed key")
        for who in ("bob", "eve"):
            est = doc[who]
            if est["trials"] != self.trials:
                problems.append(f"{who}: {est['trials']} trials, expected {self.trials}")
                continue
            low, high = wilson_interval(est["errors"], est["trials"], self.z)
            if not low <= doc[f"analytic_{who}"] <= high:
                problems.append(f"{who}: analytic {doc[f'analytic_{who}']} outside the "
                                f"z={self.z:g} interval [{low}, {high}] of the estimate")
        return problems


class FileCipher(Workload):
    """Encrypt seeded bytes, decrypt with the right key, then with a wrong key."""

    name = "file-cipher"
    headline_name, headline_unit = "plaintext_bytes_per_s", "B/s"
    # A wrong key decodes at (1 - 1/M)/2: 0.484 at M=32, not 0.5, as a matching
    # basis (probability 1/M) decodes every bit right.
    wrong_key_ber = (0.48, 0.52)

    def __init__(self, size: int = 125_000):
        self.size = size

    def headline(self, op_s: float) -> float:
        return self.size / op_s

    def draw(self, rng: random.Random) -> dict:
        key = _key(rng)
        wrong = key
        while wrong == key:
            wrong = _key(rng)
        return {"plaintext": rng.randbytes(self.size), "key": key, "wrong_key": wrong}

    def steps(self, inputs, work: Path) -> list[list[str]]:
        (work / "plain.bin").write_bytes(inputs["plaintext"])
        return [
            ["encrypt", "--input", str(work / "plain.bin"), "--output", str(work / "cipher.bin"),
             "--seed-key", inputs["key"], "--m", "32", "--mapping", "alternating"],
            ["decrypt", "--input", str(work / "cipher.bin"), "--output", str(work / "right.bin"),
             "--seed-key", inputs["key"]],
            ["decrypt", "--input", str(work / "cipher.bin"), "--output", str(work / "wrong.bin"),
             "--seed-key", inputs["wrong_key"]],
        ]

    def check(self, inputs, work: Path, outputs: list[bytes]) -> list[str]:
        plain = inputs["plaintext"]
        problems = []
        size = (work / "cipher.bin").stat().st_size
        if size != 16 + 16 * len(plain):
            problems.append(f"ciphertext is {size} bytes, expected {16 + 16 * len(plain)}")
        if (work / "right.bin").read_bytes() != plain:
            problems.append("right-key decrypt differs from the plaintext")
        wrong = (work / "wrong.bin").read_bytes()
        if len(wrong) != len(plain):
            problems.append(f"wrong-key decrypt is {len(wrong)} bytes, expected {len(plain)}")
        else:
            flips = (int.from_bytes(wrong, "big") ^ int.from_bytes(plain, "big")).bit_count()
            ber = flips / (8 * len(plain))
            low, high = self.wrong_key_ber
            if not low <= ber <= high:
                problems.append(f"wrong-key BER {ber:.4f} outside [{low}, {high}]")
        return problems


class NokeySweep(Workload):
    """No-key Helstrom bound at three S bands, the BER table and both key rates."""

    name = "nokey-sweep"
    headline_name, headline_unit = "sweep_s", "s"

    def __init__(self, centres=(7.0, 100.0, 400.0), m_list=(1, 2, 4, 8, 16, 32, 64),
                 table_steps: int = 201):
        self.centres = centres
        self.m_list = m_list
        self.table_steps = table_steps

    def headline(self, op_s: float) -> float:
        return op_s

    def draw(self, rng: random.Random) -> dict:
        # Narrow bands: the cost at S~400 grows as the cube of the Fock dimension.
        return {"s": [f"{c * rng.uniform(0.99, 1.01):.6f}" for c in self.centres]}

    def steps(self, inputs, work: Path) -> list[list[str]]:
        m_list = ",".join(map(str, self.m_list))
        return ([["eve-nokey", "--s", s, "--m-list", m_list] for s in inputs["s"]]
                + [["ber-table", "--s-min", "0", "--s-max", "10",
                    "--steps", str(self.table_steps)]]
                + [["keyrate", "--s", "7", "--eve", eve]
                   for eve in ("phase-deferred", "heterodyne-deferred")])

    def check(self, inputs, work: Path, outputs: list[bytes]) -> list[str]:
        n = len(inputs["s"])
        problems = []
        for s, out in zip(inputs["s"], outputs[:n]):
            problems += [f"eve-nokey S={s}: {p}" for p in self._nokey_problems(float(s), out)]
        problems += self._table_problems(outputs[n])
        for eve, out in zip(("phase-deferred", "heterodyne-deferred"), outputs[n + 1:]):
            doc = json.loads(out)
            problems += _schema_problems(doc, "key_rate_report.schema.json")
            if doc.get("eve_strategy") != eve or doc.get("s") != 7:
                problems.append(f"keyrate report is not for S=7 and Eve {eve}")
        return problems

    def _nokey_problems(self, s: float, out: bytes) -> list[str]:
        rows = _csv_rows(out)
        if rows[0] != ["M", "p_e"] or [int(r[0]) for r in rows[1:]] != list(self.m_list):
            return [f"unexpected table layout {rows[:2]}"]
        p_e = [float(r[1]) for r in rows[1:]]
        problems = [f"p_e {p} outside [0, 0.5]" for p in p_e if not 0.0 <= p <= 0.5]
        problems += [f"p_e falls from {a} to {b} as M grows"
                     for a, b in zip(p_e, p_e[1:]) if b < a - 1e-12]
        if self.m_list[0] == 1 and abs(p_e[0] - helstrom(s)) > 1e-12:
            problems.append(f"M=1 p_e {p_e[0]} is not the Helstrom bound {helstrom(s)}")
        return problems

    def _table_problems(self, out: bytes) -> list[str]:
        rows = _csv_rows(out)
        header, body = rows[0], rows[1:]
        if len(body) != self.table_steps:
            return [f"ber-table has {len(body)} rows, expected {self.table_steps}"]
        problems = []
        for receiver, law in CLOSED_FORMS.items():
            cols = header.index(f"{receiver}_exact"), header.index(f"{receiver}_asymptotic")
            for row in body:
                s = float(row[0])
                for col, ref in zip(cols, law(s)):
                    if not math.isclose(float(row[col]), ref, rel_tol=1e-12, abs_tol=1e-300):
                        problems.append(f"ber-table {header[col]} at S={s}: {row[col]} != {ref}")
        return problems


WORKLOADS = {w.name: w for w in (SimulateDeferred, FileCipher, NokeySweep)}
