"""Benchmark of the alphaeta CLI, end to end and layer by layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is simulate-deferred, file-cipher, nokey-sweep or all.  The benchmark is
a closed loop with one client: an op is one or more fresh `python -m
alphaeta.cli` processes run back to back, and the next op starts when the last
one ended.  A run, set-up included, lasts about S seconds: an op starts only if
it would end within S seconds of the start, were it as slow as the slowest op
so far (the first op always runs).  Every op
draws its inputs from the seeded stream and has its outputs checked; an op
with a nonzero exit, a traceback or a wrong output counts as failed.

--trace 0 reports the end-to-end metrics: setup_s (median wall time of a
fresh interpreter that imports alphaeta.cli and builds its parser), op_s
(median wall time of an op) and peak_rss_mb (largest ru_maxrss of any op
process).  It also prints, not in the JSON line, the workload's own figure
(trials_per_s, plaintext_bytes_per_s or sweep_s) and failed_op_ratio.

--trace 1 runs one untraced op, then (for workloads with a thread pool) one
traced op with one worker, then traced ops under perfbench/tracer.py, and
reports the per-layer metrics of perfbench/layers.py, the tracing overhead
and the parallel speed-up.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans and a result record with the
environment are kept under .perfbench_out/.

Needs numpy (the program's own dependency) and jsonschema, with which the
simulate and keyrate reports are checked against schemas/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import jsonschema  # noqa: F401  the report checks need it; fail here, not in every op
except ImportError:
    sys.exit("error: the benchmark needs jsonschema to check reports against schemas/")

import layers
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # every process is killed by then, so a run ends within 180 s


@dataclass
class Op:
    wall_s: float = 0.0
    maxrss_mb: float = 0.0
    io_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Runs CLI processes from the checkout, each waited for and reaped."""

    def __init__(self, out: Path):
        self.out = out
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def process(self, argv: list[str], stdout: Path) -> tuple[int, float, float, bytes]:
        """(exit code, wall s, ru_maxrss MB, stderr) of one process, killed at the deadline."""
        stderr = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr.read_bytes()

    def setup_times(self) -> list[float]:
        code = "from alphaeta.cli import build_parser; build_parser()"
        log = self.out / "setup.out"
        probe = "import alphaeta.cli as c; print(c.__file__)"
        rc, _, _, err = self.process([sys.executable, "-c", probe], log)
        where = log.read_text().strip()
        if rc != 0 or not Path(where).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"alphaeta.cli does not import from {ROOT / 'src'}: "
                             f"{where or err.decode(errors='replace').strip()}")
        times = []
        for _ in range(SETUP_REPEATS):
            rc, wall, _, err = self.process([sys.executable, "-c", code], log)
            if rc != 0:
                raise SystemExit(f"setup failed: {err.decode(errors='replace').strip()}")
            times.append(wall)
        return times

    def op(self, wl: Workload, inputs, op_id: int, traced: bool) -> Op:
        work = self.out / "op"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        op = Op()
        outputs = []
        for i, args in enumerate(wl.steps(inputs, work)):
            stdout = work / f"step{i}.out"
            if traced:
                spans = self.out / "spans" / f"op{op_id}-step{i}.json"
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]
                op.spans.append(spans)
            else:
                argv = [sys.executable, "-m", "alphaeta.cli", *args]
            rc, wall, rss, err = self.process(argv, stdout)
            op.wall_s += wall
            op.maxrss_mb = max(op.maxrss_mb, rss)
            if rc != 0 or b"Traceback" in err:
                tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
                op.problems.append(f"{args[0]} exited {rc}: {tail[0]}")
                return op
            outputs.append(stdout.read_bytes())
            op.io_bytes += len(outputs[-1]) + sum(
                Path(a).stat().st_size
                for flag, a in zip(args, args[1:]) if flag in ("--input", "--output"))
        try:
            op.problems += wl.check(inputs, work, outputs)
        except Exception as exc:  # a malformed output is a failed op, not a failed run
            op.problems.append(f"check raised {exc!r}")
        return op


def run_ops(runner: Runner, wl: Workload, rng: random.Random, until: float,
            traced: bool, first_id: int) -> list[Op]:
    """Ops back to back; another starts only if, as slow as the slowest so far, it ends by `until`."""
    ops = [runner.op(wl, wl.draw(rng), first_id, traced)]
    while time.monotonic() + max(op.wall_s for op in ops) <= min(until, runner.deadline):
        ops.append(runner.op(wl, wl.draw(rng), first_id + len(ops), traced))
    return ops


def _ok_median(ops: list[Op], value) -> float:
    good = [op for op in ops if op.ok] or ops
    return statistics.median(value(op) for op in good)


def _op_layer_values(op: Op) -> tuple[dict[str, float], list[str]]:
    stats = layers.OpStats()
    for path in op.spans:
        if path.exists():  # a killed process writes no spans
            stats.add_file(path)
    values, notes = layers.layer_values(stats)
    values["cli.io_bytes"] = op.io_bytes
    return values, notes


def end_to_end(runner: Runner, wl: Workload, rng: random.Random, until: float):
    setup = runner.setup_times()
    ops = run_ops(runner, wl, rng, until, traced=False, first_id=0)
    op_s = _ok_median(ops, lambda op: op.wall_s)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_s": (op_s, "s", len(ops)),
        "peak_rss_mb": (max(op.maxrss_mb for op in ops), "MB", len(ops)),
    }
    shown = {wl.headline_name: (_ok_median(ops, lambda op: wl.headline(op.wall_s)),
                                wl.headline_unit, len(ops))}
    return ops, metrics, shown, []


def per_layer(runner: Runner, wl: Workload, rng: random.Random, until: float):
    plain = runner.op(wl, wl.draw(rng), 0, traced=False)
    ops = [plain]
    serial = wl.serial()
    serial_op = None
    if serial is not None:
        serial_op = runner.op(serial, serial.draw(rng), 1, traced=True)
        ops.append(serial_op)
    traced = run_ops(runner, wl, rng, until, traced=True, first_id=2)
    ops += traced

    per_op = [_op_layer_values(op) for op in traced if op.ok] or [_op_layer_values(traced[0])]
    notes = sorted({note for _, op_notes in per_op for note in op_notes})
    units = {name: unit for name, (unit, _, _) in layers.LAYER_METRICS.items()}
    units["cli.io_bytes"] = "B"
    metrics = {name: (statistics.median(v[name] for v, _ in per_op), unit, len(per_op))
               for name, unit in units.items() if name in per_op[0][0]}
    traced_wall = _ok_median(traced, lambda op: op.wall_s)
    metrics["trace.overhead_ratio"] = (traced_wall / plain.wall_s - 1.0, "ratio", 1)
    if serial_op is not None:
        metrics["montecarlo.parallel_speedup"] = (serial_op.wall_s / traced_wall, "ratio", 1)
    else:
        notes.append("montecarlo.parallel_speedup is 0: the workload has no thread pool")
        metrics["montecarlo.parallel_speedup"] = (0.0, "ratio", 0)
    return ops, metrics, {}, notes


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "numba": version("numba") is not None,
            "commit": commit, "seed": seed}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Measure one workload and return its result record."""
    until = time.monotonic() + seconds
    shutil.rmtree(out, ignore_errors=True)
    (out / "spans").mkdir(parents=True)
    runner = Runner(out)
    rng = random.Random(f"{wl.name}:{seed}")
    measure = per_layer if trace else end_to_end
    ops, metrics, shown, notes = measure(runner, wl, rng, until)
    shutil.rmtree(out / "op", ignore_errors=True)
    failed = sum(not op.ok for op in ops)
    shown["failed_op_ratio"] = (failed / len(ops), "ratio", len(ops))
    record = {
        "workload": wl.name, "trace": trace, "env": environment(seed),
        "attempted": len(ops), "failed": failed,
        "problems": [p for op in ops for p in op.problems], "notes": notes,
        "ops": [{"wall_s": op.wall_s, "maxrss_mb": op.maxrss_mb, "ok": op.ok} for op in ops],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "shown": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in shown.items()},
    }
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  trace {int(record['trace'])}  "
          f"ops {record['attempted']}  failed {record['failed']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in {**record["metrics"], **record["shown"]}.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:8s} n={m['n']}")
    for line in record["notes"] + record["problems"]:
        print(f"  note: {line}")
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "alphaeta" / "cli.py").is_file():
        print(f"error: no alphaeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        out = ROOT / ".perfbench_out" / f"{name}-seed{args.seed}-trace{args.trace}"
        report(run_workload(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace), out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
