"""Self-test of the benchmark at a tiny size.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that:
- each workload reports every metric BENCHMARK.json names, with its unit,
  with tracing off (end_to_end) and on (per_layer), and no op fails;
- a corrupted output (a flipped decrypted byte, a p_e above 0.5, a wrong
  trial count, an unparsable report) counts as a failed op and the run
  still ends with a result;
- run.py exits nonzero without printing a result in a directory that holds
  only BENCHMARK.json and perfbench/.
Exits 1 and lists what went wrong if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import FileCipher, NokeySweep, SimulateDeferred

OUT = run.ROOT / ".perfbench_out" / "selftest"


def tiny_simulate(cls=SimulateDeferred):
    return cls(trials=2 * 65536)


def tiny_file_cipher(cls=FileCipher):
    return cls(size=12_500)  # 1e5 bits keep the wrong-key BER 2.8 sigma inside its band


def tiny_nokey(cls=NokeySweep):
    return cls(centres=(1.0, 2.0, 3.0), m_list=(1, 2, 4), table_steps=11)


class FlippedDecrypt(FileCipher):
    def check(self, inputs, work, outputs):
        right = work / "right.bin"
        data = bytearray(right.read_bytes())
        data[0] ^= 1
        right.write_bytes(bytes(data))
        return super().check(inputs, work, outputs)


class MaskingBroken(NokeySweep):
    def check(self, inputs, work, outputs):
        lines = outputs[0].decode().splitlines()
        lines[-1] = lines[-1].split(",")[0] + ",0.6"
        return super().check(inputs, work, ["\n".join(lines).encode(), *outputs[1:]])


class WrongTrials(SimulateDeferred):
    def check(self, inputs, work, outputs):
        doc = json.loads(outputs[0])
        doc["bob"]["trials"] += 1
        return super().check(inputs, work, [json.dumps(doc).encode()])


class Unparsable(SimulateDeferred):
    def check(self, inputs, work, outputs):
        return super().check(inputs, work, [b"not json"])


def main() -> int:
    errors = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for make in (tiny_simulate, tiny_file_cipher, tiny_nokey):
            wl = make()
            record = run.run_workload(wl, 1, 0, trace, OUT / f"{wl.name}-{key}")
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            if got != expected:
                errors.append(f"{wl.name} {key}: metrics {sorted(set(got) ^ set(expected))} "
                              f"or their units differ from BENCHMARK.json")
            if record["failed"]:
                errors.append(f"{wl.name} {key}: failed ops {record['problems']}")

    for wl, symptom in ((tiny_file_cipher(FlippedDecrypt), "right-key decrypt differs"),
                        (tiny_nokey(MaskingBroken), "outside [0, 0.5]"),
                        (tiny_simulate(WrongTrials), "trials, expected"),
                        (tiny_simulate(Unparsable), "check raised")):
        record = run.run_workload(wl, 1, 0, False, OUT / f"{type(wl).__name__}")
        if record["failed"] != record["attempted"] or not any(
                symptom in p for p in record["problems"]):
            errors.append(f"{type(wl).__name__}: expected every op to fail with "
                          f"{symptom!r}, got {record['problems']}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "file-cipher",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or done.stdout.strip():
        errors.append(f"without the program: exit {done.returncode}, output {done.stdout!r}")

    for line in errors:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
