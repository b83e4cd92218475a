"""Run the alphaeta CLI with spans recorded around the public functions of each layer.

Usage: python3 perfbench/tracer.py SPANS_FILE -- CLI_ARGS...

Each probe replaces a module attribute (a function, or a method on a class)
with a wrapper that records one span: (id, name, start, end, parent id,
thread id, count).  A function is replaced under every alphaeta module that
binds it, so `from .fock import pure_density` in receivers.py is traced too.
Spans stay in memory and are written to SPANS_FILE as JSON when the CLI
returns.  A probe whose target no longer exists is listed under "missing"
instead of failing the run.

Parent of a span: the innermost open span of its own thread; in a worker
thread with no open span, the innermost open span of the main thread, which
is the call that handed the work to the pool.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def _dim(result) -> int:
    return len(result)


# (span name, module, attribute, count taken from the result or None).
# Several probes may share one span name; COUNT_ONLY probes record no span,
# only how often they were called.
COUNT_ONLY = "count-only"
PROBES = (
    ("cli.main", "alphaeta.cli", "main", None),
    ("cli.encrypt", "alphaeta.cli", "cmd_encrypt", None),
    ("cli.decrypt", "alphaeta.cli", "cmd_decrypt", None),
    ("cipher.keystream", "alphaeta.cipher", "KeystreamGen.bits", _size),
    ("cipher.decode", "alphaeta.cipher", "decode_lenient", None),
    ("montecarlo.run_simulation", "alphaeta.montecarlo", "run_simulation", None),
    ("montecarlo.phase_sampler.build", "alphaeta.montecarlo", "PhaseSampler.__init__", None),
    ("montecarlo.sample", "alphaeta.montecarlo", "PhaseSampler.sample", _size),
    ("montecarlo.sample", "alphaeta.montecarlo", "sample_heterodyne", _size),
    ("montecarlo.sample", "alphaeta.montecarlo", "sample_homodyne", _size),
    ("montecarlo.batch", "alphaeta.montecarlo", "_run_batch", COUNT_ONLY),
    ("fock.coherent_amplitudes", "alphaeta.fock", "coherent_amplitudes", None),
    ("fock.phase_distribution", "alphaeta.fock", "phase_distribution", None),
    ("fock.pure_density", "alphaeta.fock", "pure_density", None),
    ("fock.mix", "alphaeta.fock", "mix", None),
    ("fock.hermitian_eigenvalues", "alphaeta.fock", "hermitian_eigenvalues", _dim),
    ("receivers.eve_nokey_helstrom", "alphaeta.receivers", "eve_nokey_helstrom", None),
    ("receivers.canonical_phase_antipodal", "alphaeta.receivers",
     "canonical_phase_antipodal", None),
    ("keyrate", "alphaeta.keyrate", "key_rate", None),
    ("keyrate", "alphaeta.keyrate", "eve_exact_ber", None),
)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        tail = self._stacks.get(self._main, [])[-1:]  # one read: the main thread may pop
        return tail[0] if tail else None

    def wrap(self, fn, name: str, count):
        if count == COUNT_ONLY:
            def counted(*args, **kwargs):
                with self._lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            sid = next(self._ids)
            parent = self._parent(stack)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = count(result) if count is not None and result is not None else None
                self.spans.append((sid, name, start, end, parent, tid, n))
        return traced

    def install(self) -> None:
        package = importlib.import_module("alphaeta")
        modules = [package] + [importlib.import_module(f"alphaeta.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        for name, module_name, attr, count in PROBES:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(original, name, count)
            if path:  # a method: replacing it on the class reaches every caller
                setattr(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        doc = {"missing": self.missing, "calls": self.calls, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- CLI_ARGS...", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module("alphaeta.cli")
    try:
        return cli.main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
