"""Command-line surface: subcommand dispatch, deterministic report emission,
and an optional file cache for batch runs.

Every emission is a pure function of (parameters, package sources): the
JSON "ms" field is pinned to 0 and `--threads` is accepted but changes
nothing, so repeated runs are byte-identical and cacheable.

Exit codes: 0 success / all checks pass, 1 a verification failed, 2 invalid
input, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    DEFAULT_MAX_CLOSURE,
    DEFAULT_MAX_POINTS,
    InvalidInputError,
    ResourceCapError,
)

CACHE_ENV_VAR = "ARTLAB_CACHE_DIR"


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def emit_report(report, as_json: bool) -> str:
    """Serialize a report via its to_text() or to_json(); JSON mode writes one
    compact object per line, one line per element when to_json() is a list.
    A report with to_json_line() (`ARTReport`) writes that line itself."""
    if not (hasattr(report, "to_json") and hasattr(report, "to_text")):
        raise TypeError(f"emit_report: unsupported report type {type(report)!r}")
    if not as_json:
        return report.to_text()
    if hasattr(report, "to_json_line"):
        return report.to_json_line()
    obj = report.to_json()
    return "".join(_dumps(o) + "\n" for o in (obj if isinstance(obj, list) else [obj]))


def cache_roundtrip(cache_dir: str, key_params: dict,
                    compute: Callable[[], tuple[str, int]]) -> tuple[str, int]:
    """Return the cached (output, exit code) for key_params, or compute,
    persist, and return.

    Writes are atomic (temp file + rename); unreadable or corrupted cache
    entries produce a warning on stderr and a fresh computation; an
    unwritable directory degrades to uncached operation.
    """
    key = hashlib.sha256(_dumps(key_params).encode("utf-8")).hexdigest()
    path = os.path.join(cache_dir, key + ".json")
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                envelope = json.load(fh)
            if not (isinstance(envelope, dict) and isinstance(envelope.get("output"), str)
                    and type(envelope.get("exit_code")) is int):
                raise ValueError("not an object with a str output and an int exit_code")
            if envelope.get("key") == key_params:
                return envelope["output"], envelope["exit_code"]
            print(f"artlab: cache entry {path} does not match its key; recomputing",
                  file=sys.stderr)
        except (OSError, ValueError) as exc:
            print(f"artlab: ignoring corrupted cache entry {path}: {exc}", file=sys.stderr)
    output, exit_code = compute()
    envelope = {"key": key_params, "created_at": time.time(),
                "output": output, "exit_code": exit_code}
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(envelope, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # the write or the rename failed
                os.unlink(tmp)
    except OSError as exc:
        print(f"artlab: cache directory unusable ({exc}); continuing uncached",
              file=sys.stderr)
    return output, exit_code


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON lines")
    common.add_argument("--threads", type=int, default=1, metavar="T",
                        help="accepted and ignored: every command runs in one thread")
    common.add_argument("--cache-dir", default=None, metavar="PATH",
                        help=f"cache directory (default: ${CACHE_ENV_VAR})")
    common.add_argument("--max-closure", type=int, default=DEFAULT_MAX_CLOSURE)
    common.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS)

    parser = argparse.ArgumentParser(
        prog="artlab",
        description="Almost-rational torsion points on finite Galois modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="almost-rational set of a module description file")
    p.add_argument("module_file")

    p = sub.add_parser("mu", parents=[common],
                       help="almost-rational set of the cyclotomic module mu_n")
    p.add_argument("n", type=int)

    p = sub.add_parser("homothety", parents=[common],
                       help="almost-rational set of (Z/m)^dim under e-th power homotheties")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--dim", type=int, default=1)

    lemma2_parser = sub.add_parser("lemma2", help="unit-pair searches and scans")
    actions = lemma2_parser.add_subparsers(dest="action", required=True)
    p = actions.add_parser("scan", parents=[common], help="failure scan over m <= max")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p = actions.add_parser("pair", parents=[common], help="smallest unit pair mod m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p = actions.add_parser("count", parents=[common],
                           help="count solutions of x^e + y^e = 2 over F_p")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p = actions.add_parser("witness", parents=[common],
                           help="explicit prime-power candidate pair mod p^n")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)

    p = sub.add_parser("level", parents=[common], help="invariants of a prime level")
    p.add_argument("N", type=int)

    p = sub.add_parser("theorem3", parents=[common],
                       help="structure check of the Eisenstein model at level N")
    p.add_argument("N", type=int)

    p = sub.add_parser("survey", parents=[common],
                       help="level invariants + structure check over a prime range")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)

    return parser


def _run_command(args):
    """Compute the report for parsed arguments (argparse admits only known commands).

    Each branch imports the compute module it runs, so a cache hit loads none
    of them, and `level` and `lemma2` never load numpy.
    """
    cmd = args.command
    if cmd == "lemma2":
        from .lemma2 import (FermatCount, PairReport, count_fermat_points, exists_pair,
                             failure_scan, prime_power_witness)

        if args.action == "scan":
            return failure_scan(args.e, args.max)
        if args.action == "pair":
            return PairReport(args.m, args.e, exists_pair(args.m, args.e))
        if args.action == "count":
            return FermatCount(args.e, args.p, count_fermat_points(args.e, args.p))
        return prime_power_witness(args.p, args.n, args.e)
    if cmd in ("level", "theorem3", "survey"):
        from .modcurve import SurveyReport, level_invariants, survey, theorem3_check

        if cmd == "level":
            return level_invariants(args.N)
        if cmd == "theorem3":
            return theorem3_check(args.N, max_closure=args.max_closure,
                                  max_points=args.max_points)
        return SurveyReport(tuple(survey(args.start, args.stop, max_closure=args.max_closure,
                                         max_points=args.max_points)))
    from .galmod import almost_rational_set, cyclotomic_module, homothety_module, validate_module

    if cmd == "mu":
        module = cyclotomic_module(args.n, max_closure=args.max_closure)
    elif cmd == "homothety":
        module = homothety_module(args.m, args.e, args.dim, max_closure=args.max_closure)
    else:  # analyze
        try:
            with open(args.module_file, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise InvalidInputError(f"cannot read module file: {exc}") from exc
        except ValueError as exc:
            raise InvalidInputError(f"module file is not valid JSON: {exc}") from exc
        module = validate_module(raw, max_closure=args.max_closure)
    return almost_rational_set(module, max_points=args.max_points)


def _output(args) -> tuple[str, int]:
    """(output text, exit code): 1 when a theorem3 or survey verdict fails."""
    report = _run_command(args)
    return emit_report(report, args.json), int(getattr(report, "verdict", "") == "fail")


def _source_digest() -> str:
    """sha256 of the package sources: no cache entry outlives the code that wrote it."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cache_key(args) -> dict:
    skip = {"threads", "cache_dir"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    if getattr(args, "module_file", None):
        # key on content, not path: the same path may hold different modules
        try:
            with open(args.module_file, "rb") as fh:
                params["module_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            pass  # the command itself will report the unreadable file
    return {"sources": _source_digest(), "params": params}


def dispatch(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    try:
        for flag, value in (("--threads", args.threads), ("--max-closure", args.max_closure),
                            ("--max-points", args.max_points)):
            if value < 1:
                raise InvalidInputError(f"{flag} must be >= 1, got {value}")
        if cache_dir:
            output, exit_code = cache_roundtrip(
                cache_dir, _cache_key(args), lambda: _output(args))
        else:
            output, exit_code = _output(args)
    except InvalidInputError as exc:
        print(f"artlab: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"artlab: {exc}", file=sys.stderr)
        return 3
    if output:
        sys.stdout.write(output)
    return exit_code


def main() -> None:
    sys.exit(dispatch())
