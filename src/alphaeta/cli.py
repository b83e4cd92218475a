"""Batch command-line front-end.

Subcommands: ber-table, eve-nokey, simulate, keyrate, encrypt, decrypt.
Outputs are CSV or JSON (deterministic byte-for-byte for fixed flags);
exit codes: 0 success, 2 usage/config error, 1 computation failure.

This module needs only the standard library: the parser takes its choices
from names.py, so --help, a bad flag or a bad config file is answered
without loading numpy.  Each command checks the flags it can check on its
own, then imports its engine:

    ber-table   receivers (fock and numpy only for the phase receiver)
    eve-nokey   receivers (with cipher and fock)
    simulate    montecarlo (with receivers, cipher and fock)
    keyrate     keyrate and receivers (fock and numpy only for phase-deferred Eve)
    encrypt     cipher (standard library only: no numpy)
    decrypt     cipher (standard library only: no numpy)

Ciphertext format: 16-byte header (magic "Y00STRM1", u16 version, u16 M,
u8 mapping code, 3 reserved bytes that must be 0) followed by one
little-endian u16 point index per plaintext bit.  There is no integrity
check: decrypting with the wrong seed key silently yields garbage bits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import struct
import sys
from functools import partial

from .names import EVE_STRATEGIES, KEYRATE_EVE_STRATEGIES, MAPPINGS, MAX_M, RECEIVER_KINDS

MAGIC = b"Y00STRM1"
FORMAT_VERSION = 1
HEADER = struct.Struct("<8sHHB3s")  # magic, version, M, mapping code, reserved
MAPPING_CODES = {"alternating": 0, "plain": 1}
MAPPING_NAMES = {v: k for k, v in MAPPING_CODES.items()}
CHUNK_BYTES = 1 << 14  # plaintext bytes encrypted or decrypted per read

REFERENCE_RATE_ORDERS = {"phase-deferred": 1e3, "heterodyne-deferred": 1e6}
RATE_FORMULA_NOTE = (
    "rate = line_rate * max(0, h(p_eve) - h(p_bob)); published order-of-magnitude "
    "figures for this regime assume an unspecified privacy-amplification "
    "accounting and need not match this formula exactly.")


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_table(args, header: list[str], rows: list[list]) -> None:
    if args.format == "csv":
        _write_output(_to_csv(header, rows), args.output)
    else:
        records = [dict(zip(header, row)) for row in rows]
        _write_output(_to_json(records), args.output)


def cmd_ber_table(args) -> int:
    from .receivers import BER_LAWS, signal_grid

    kinds = [r.strip() for r in args.receivers.split(",") if r.strip()]
    if not kinds:
        raise UsageError(f"receivers must be a comma list from {RECEIVER_KINDS}")
    for i, kind in enumerate(kinds):
        if kind not in BER_LAWS:
            raise UsageError(f"unknown receiver kind {kind!r}")
        if kind in kinds[:i]:  # a JSON record would keep only one of its columns
            raise UsageError(f"--receivers lists {kind!r} more than once")
    if not 0 <= args.s_min <= args.s_max < math.inf or args.steps < 2:
        raise UsageError("need finite 0 <= s-min <= s-max and steps >= 2")
    header = ["S"]
    for kind in kinds:
        header += [f"{kind}_exact", f"{kind}_asymptotic"]
    rows = []
    for s in signal_grid(args.s_min, args.s_max, args.steps):
        row = [s]
        for kind in kinds:
            law = BER_LAWS[kind](s)
            row += [law.exact, law.asymptotic]
        rows.append(row)
    _emit_table(args, header, rows)
    return 0


def cmd_eve_nokey(args) -> int:
    if not (math.isfinite(args.s) and args.s >= 0):
        raise UsageError("--s must be finite and >= 0")
    from .cipher import Constellation
    from .receivers import eve_nokey_helstrom

    try:
        consts = [Constellation(int(m), args.mapping) for m in args.m_list.split(",")]
    except ValueError as exc:
        raise UsageError(f"--m-list: {exc}") from None
    rows = [[c.m_bases, eve_nokey_helstrom(args.s, c)] for c in consts]
    _emit_table(args, ["M", "p_e"], rows)
    return 0


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise UsageError("workers must be >= 1")
    from dataclasses import asdict  # not at the top: the parser alone does not need it

    from .montecarlo import SimConfig, run_simulation

    try:
        cfg = SimConfig(
            s=args.s, m_bases=args.m, mapping=args.mapping, seed_key=args.seed_key,
            bob_receiver=args.bob, eve_strategy=args.eve, trials=args.trials,
            master_seed=args.master_seed, dsr_d=args.dsr_d)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(_to_json(asdict(run_simulation(cfg))), args.output)
    return 0


def cmd_keyrate(args) -> int:
    explicit = args.p_bob is not None or args.p_eve is not None
    if args.s is not None and explicit:
        raise UsageError("give either --s or both --p-bob and --p-eve, not both")
    if args.s is None and not (args.p_bob is not None and args.p_eve is not None):
        raise UsageError("give either --s or both --p-bob and --p-eve")
    if args.s is not None and not (math.isfinite(args.s) and args.s >= 0):
        raise UsageError("--s must be finite and >= 0")
    for name, p in (("--p-bob", args.p_bob), ("--p-eve", args.p_eve)):
        if p is not None and not 0.0 <= p <= 1.0:
            raise UsageError(f"{name} must lie in [0, 1]")
    if not 0 < args.line_rate < math.inf:
        raise UsageError("--line-rate must be positive and finite")
    from dataclasses import asdict

    from .keyrate import key_rate, key_rate_at_s

    if args.s is not None:
        report = key_rate_at_s(args.s, args.eve, args.line_rate)
    else:
        report = key_rate(args.p_bob, args.p_eve, args.line_rate)
    doc = asdict(report)
    doc["eve_strategy"] = args.eve
    doc["s"] = args.s
    doc["reference_rate_order"] = REFERENCE_RATE_ORDERS[args.eve]
    doc["note"] = RATE_FORMULA_NOTE
    _write_output(_to_json(doc), args.output)
    return 0


def _parse_header(blob: bytes) -> tuple[int, str]:
    """M and mapping of a ciphertext header."""
    if len(blob) < HEADER.size or blob[:8] != MAGIC:
        raise ValueError("not a ciphertext stream (bad magic)")
    _, version, m_bases, code, reserved = HEADER.unpack(blob)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported ciphertext version {version}")
    if code not in MAPPING_NAMES:
        raise ValueError(f"unknown mapping code {code}")
    if reserved != bytes(3):
        raise ValueError(f"nonzero reserved header bytes {reserved.hex()}")
    return m_bases, MAPPING_NAMES[code]


def _check_distinct_paths(args) -> None:
    """Streaming truncates --output before the open --input is read to its end."""
    if os.path.exists(args.output) and os.path.samefile(args.input, args.output):
        raise UsageError("--output must not be the --input file")


def _stream(src, out_path: str, head: bytes, chunk_bytes: int, convert) -> None:
    """Write head, then convert(chunk) of each chunk_bytes-byte read of src, to out_path.

    A failure removes out_path, so no partial output is left behind (a device
    such as /dev/null is left in place).
    """
    dst = open(out_path, "wb")
    try:
        with dst:
            dst.write(head)
            while chunk := src.read(chunk_bytes):
                dst.write(convert(chunk))
    except BaseException:
        if os.path.isfile(out_path):
            os.remove(out_path)
        raise


def cmd_encrypt(args) -> int:
    if args.m > MAX_M:
        raise UsageError(f"--m must be <= {MAX_M}: the ciphertext stores point indices as u16")
    from .cipher import Constellation, KeystreamGen, encrypt_chunk

    try:
        const = Constellation(args.m, args.mapping)
        gen = KeystreamGen.from_hex(args.seed_key)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    head = HEADER.pack(MAGIC, FORMAT_VERSION, args.m, MAPPING_CODES[args.mapping], bytes(3))
    with open(args.input, "rb") as src:
        _check_distinct_paths(args)
        _stream(src, args.output, head, CHUNK_BYTES, partial(encrypt_chunk, gen, const))
    return 0


def cmd_decrypt(args) -> int:
    from .cipher import Constellation, KeystreamGen, decrypt_chunk

    with open(args.input, "rb") as src:
        # raises on an M that is no power of 2
        const = Constellation(*_parse_header(src.read(HEADER.size)))
        if args.m is not None and args.m != const.m_bases:
            raise UsageError(f"--m {args.m} conflicts with ciphertext header M={const.m_bases}")
        if args.mapping is not None and args.mapping != const.mapping:
            raise UsageError(f"--mapping {args.mapping} conflicts with header {const.mapping}")
        try:
            gen = KeystreamGen.from_hex(args.seed_key)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _check_distinct_paths(args)
        # 16 body bytes (8 u16 points) per plaintext byte
        _stream(src, args.output, b"", 16 * CHUNK_BYTES, partial(decrypt_chunk, gen, const))
    return 0


def _add_output_flags(p, formats=("csv", "json"), default="csv"):
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    if formats:
        p.add_argument("--format", choices=formats, default=default)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="alphaeta",
        description="Numerical toolkit for the alpha-eta (Y-00) quantum-noise stream cipher")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", default=None,
                       help="flat key=value file providing flag defaults")
        p.set_defaults(func=func)
        subparsers[name] = p
        return p

    p = add("ber-table", cmd_ber_table, help="receiver BER hierarchy over an S sweep")
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--receivers", default="optimal,phase,homodyne,heterodyne")
    _add_output_flags(p)

    p = add("eve-nokey", cmd_eve_nokey, help="no-key Helstrom bound over basis counts")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--m-list", default="1,2,4,8,16,32,64")
    p.add_argument("--mapping", choices=MAPPINGS, default="alternating")
    _add_output_flags(p)

    p = add("simulate", cmd_simulate, help="Monte Carlo link simulation (JSON report)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--m", type=int, default=32)
    p.add_argument("--mapping", choices=MAPPINGS, default="alternating")
    p.add_argument("--seed-key", default="deadbeef", help="hex seed of the keystream LFSR")
    p.add_argument("--bob", choices=RECEIVER_KINDS, default="heterodyne")
    p.add_argument("--eve", choices=(*EVE_STRATEGIES, "none"), default="none")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--dsr-d", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and checked to be >= 1; has no effect")
    _add_output_flags(p, formats=None)

    p = add("keyrate", cmd_keyrate, help="key generation rate (JSON report)")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--p-bob", type=float, default=None)
    p.add_argument("--p-eve", type=float, default=None)
    p.add_argument("--eve", choices=KEYRATE_EVE_STRATEGIES, default="phase-deferred")
    p.add_argument("--line-rate", type=float, default=1e9)
    _add_output_flags(p, formats=None)

    p = add("encrypt", cmd_encrypt, help="plaintext bytes -> point-index stream")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed-key", required=True)
    p.add_argument("--m", type=int, default=32)
    p.add_argument("--mapping", choices=MAPPINGS, default="alternating")

    p = add("decrypt", cmd_decrypt, help="point-index stream -> plaintext bytes")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed-key", required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--mapping", choices=MAPPINGS, default=None)

    return parser, subparsers


def _config_path(argv: list[str]) -> str | None:
    """The file of the last --config FILE or --config=FILE, read by argparse itself,
    so a prefix such as --conf counts too (no other flag starts with --c).

    None without --config, or when its value is missing: the full parse reports that.
    """
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        return pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return None


def _apply_config_file(argv: list[str], subparsers) -> None:
    path = _config_path(argv)
    if not argv or argv[0] not in subparsers or path is None:
        return
    sp = subparsers[argv[0]]
    known = {a.dest: a for a in sp._actions}
    defaults = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in known or dest in ("func", "config", "help"):
            raise UsageError(f"config line {lineno}: unknown key {key.strip()!r}")
        action = known[dest]
        try:  # the flag's own type and choices; not _get_values, which drops a "--"
            defaults[dest] = sp._get_value(action, value.strip())
            sp._check_value(action, defaults[dest])
        except argparse.ArgumentError as exc:
            raise UsageError(f"config line {lineno}: {exc}") from None
        action.required = False  # a config value satisfies a required flag
    sp.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = build_parser()
    try:
        _apply_config_file(argv, subparsers)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"computation failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
