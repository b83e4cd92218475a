"""src/alphaeta holds only what the CLI runs.

A child process installs a profiler before it imports alphaeta, runs every
subcommand in-process, and reports each code object it entered: module and
class bodies, functions, methods, lambdas and comprehensions.  Every code
object compiled from src/alphaeta/*.py must be among them, except the few
named in NOT_RUN, each with the reason it stays.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="code objects carry co_qualname from Python 3.11")

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "alphaeta"

# (file, qualified name) -> why it stays although no subcommand runs it.
# perfbench/tracer.py probes each of these for a per-layer metric, and
# tests/test_perfbench_probes.py requires a live target for every metric.
NOT_RUN = {
    ("fock.py", "DensityMatrix.__post_init__"):
        "checks the dense Fock oracle, whose builders tracer.py probes",
    ("fock.py", "DensityMatrix.dim"):
        "read by fock.mix, the tracer.py target of fock.mix.busy_s",
    ("fock.py", "pure_density"): "tracer.py target of fock.pure_density.busy_s",
    ("fock.py", "mix"): "tracer.py target of fock.mix.busy_s",
    ("fock.py", "hermitian_eigenvalues"):
        "tracer.py target of fock.hermitian_eigenvalues.busy_s and .max_dim",
    ("montecarlo.py", "PhaseSampler.sample"):
        "tracer.py target of montecarlo.sample.draws, .busy_s and .overlap; simulate "
        "reads PhaseSampler.tails and draws no phase",
}

CHILD = r"""
import contextlib, io, json, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)  # this thread only: no subcommand starts a thread
from alphaeta.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:  # argparse rejects a bad flag
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": [
    [c.co_filename, c.co_firstlineno, c.co_qualname] for c in entered]}))
"""


def cli_runs(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every subcommand and its paths."""
    pt = tmp / "pt.bin"
    pt.write_bytes(bytes(range(256)) * 3)
    (tmp / "bad.y00").write_bytes(b"not a ciphertext")
    config = tmp / "sim.cfg"
    config.write_text("# simulate flags\ns = 1.5\ntrials = 2000\nbob = homodyne\ndsr-d = 2\n")
    out = str(tmp / "out")
    sim = ["simulate", "--s", "2", "--trials", "3000", "--output", out]
    runs = [
        (["ber-table", "--s-max", "3", "--steps", "4", "--output", out], 0),
        (["ber-table", "--s-max", "3", "--steps", "4", "--format", "json", "--output", out], 0),
        (["eve-nokey", "--s", "0", "--m-list", "1,2,8", "--output", out], 0),
        (["eve-nokey", "--s", "7", "--m-list", "1,4,32", "--format", "json",
          "--output", out], 0),
        *(([*sim, "--bob", bob], 0) for bob in ("optimal", "phase", "homodyne", "heterodyne")),
        *(([*sim, "--eve", eve], 0)
          for eve in ("phase-deferred", "heterodyne-deferred", "nearest-point")),
        ([*sim, "--bob", "phase", "--eve", "phase-deferred", "--dsr-d", "3"], 0),
        ([*sim, "--eve", "nearest-point", "--dsr-d", "3", "--mapping", "plain"], 0),
        (["simulate", "--config", str(config), "--output", out], 0),
        (["keyrate", "--s", "7", "--eve", "phase-deferred", "--output", out], 0),
        (["keyrate", "--s", "7", "--eve", "heterodyne-deferred", "--output", out], 0),
        (["keyrate", "--p-bob", "0.01", "--p-eve", "0.3", "--output", out], 0),
    ]
    for m in ("32", "4096"):
        ct, rt = str(tmp / f"ct{m}.y00"), str(tmp / f"rt{m}.bin")
        runs += [
            (["encrypt", "--input", str(pt), "--output", ct, "--seed-key", "c0ffee",
              "--m", m], 0),
            (["decrypt", "--input", ct, "--output", rt, "--seed-key", "c0ffee"], 0),
        ]
    runs += [
        (["decrypt", "--input", str(tmp / "bad.y00"), "--output", out, "--seed-key", "1"], 1),
        (["simulate", "--s", "1", "--bogus"], 2),
    ]
    return runs


def code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from code_objects(const)


def test_every_code_object_runs_under_the_cli(tmp_path):
    runs = cli_runs(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps([a for a, _ in runs])],
                           env=env, capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(child.stdout)
    assert report["codes"] == [code for _, code in runs]
    entered = {(os.path.basename(f), line, name) for f, line, name in report["entered"]
               if Path(f).resolve().parent == PACKAGE}

    compiled = {(path.name, code.co_firstlineno, code.co_qualname)
                for path in sorted(PACKAGE.glob("*.py"))
                for code in code_objects(compile(path.read_text(), str(path), "exec"))}
    assert entered <= compiled
    # a comprehension or nested function counts as part of its enclosing function
    not_run = {(f, name.split(".<locals>.")[0]) for f, _, name in compiled - entered}
    unlisted = not_run - set(NOT_RUN)
    assert not unlisted, f"code that no subcommand runs: {sorted(unlisted)}"
    assert set(NOT_RUN) <= not_run, f"gone or now run: {sorted(set(NOT_RUN) - not_run)}"
