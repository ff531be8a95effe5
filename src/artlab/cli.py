"""Command-line surface: subcommand dispatch, deterministic report emission,
and an optional file cache for batch runs.

Every emission is a pure function of (parameters, package sources): the
JSON "ms" field is pinned to 0 and worker counts never reorder output, so
repeated runs are byte-identical and cacheable.

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

from .errors import InvalidInputError, ResourceCapError
from .galmod import (
    ARTReport,
    DEFAULT_MAX_CLOSURE,
    DEFAULT_MAX_POINTS,
    almost_rational_set,
    cyclotomic_module,
    homothety_module,
    validate_module,
)
from .lemma2 import (
    Lemma2Report,
    PairWitness,
    PrimePowerWitness,
    count_fermat_points,
    exists_pair,
    failure_scan,
    prime_power_witness,
)
from .modcurve import LevelInvariants, SurveyRecord, level_invariants, survey, theorem3_check

CACHE_ENV_VAR = "ARTLAB_CACHE_DIR"


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _point_list(points) -> list[list[int]]:
    return [list(p) for p in points]


def _fmt_point(p) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"


def _bool(b: bool) -> str:
    return "true" if b else "false"


def emit_report(report, as_json: bool) -> str:
    """Serialize a report; JSON mode emits one object per line (one line per
    level for a survey), otherwise an aligned human-readable block."""
    if isinstance(report, ARTReport):
        if as_json:
            return _dumps({
                "name": report.name,
                "points": report.points,
                "ar_points": _point_list(report.ar_points),
                "expected": None if report.expected is None else _point_list(report.expected),
                "verdict": report.verdict,
                "ms": 0,
            }) + "\n"
        lines = [
            f"name    : {report.name}",
            f"points  : {report.points}",
            f"a.r.    : {len(report.ar_points)} point(s)",
            "          " + " ".join(_fmt_point(p) for p in report.ar_points),
        ]
        if report.expected is not None:
            lines.append(f"expected: {len(report.expected)} point(s)")
        lines.append(f"verdict : {report.verdict}")
        lines.append("ms      : 0")
        return "\n".join(lines) + "\n"

    if isinstance(report, Lemma2Report):
        if as_json:
            return _dumps({
                "e": report.e,
                "max": report.scanned_max,
                "failures": list(report.failures),
            }) + "\n"
        failures = " ".join(str(m) for m in report.failures) or "-"
        return (f"e       : {report.e}\n"
                f"max     : {report.scanned_max}\n"
                f"failures: {failures}\n")

    if isinstance(report, LevelInvariants):
        if as_json:
            return _dumps(_level_obj(report)) + "\n"
        return (f"N               : {report.N}\n"
                f"n               : {report.n}\n"
                f"genus           : {report.genus}\n"
                f"hyperelliptic   : {_bool(report.hyperelliptic)}\n"
                f"plus_genus_zero : {_bool(report.plus_quotient_genus_zero)}\n"
                f"N_mod_9         : {report.N_mod_9}\n"
                f"three_div_n     : {_bool(report.three_divides_n)}\n")

    if isinstance(report, list) and all(isinstance(r, SurveyRecord) for r in report):
        if not report:
            return ""
        if as_json:
            lines = []
            for rec in report:
                obj = _level_obj(rec.level)
                obj["verdict"] = rec.report.verdict
                lines.append(_dumps(obj))
            return "\n".join(lines) + "\n"
        header = f"{'N':>5} {'n':>5} {'genus':>5} {'hyper':>5} {'plus0':>5} {'N%9':>3} {'3|n':>5} verdict"
        rows = [header]
        for rec in report:
            lv = rec.level
            rows.append(
                f"{lv.N:>5} {lv.n:>5} {lv.genus:>5} "
                f"{_bool(lv.hyperelliptic):>5} {_bool(lv.plus_quotient_genus_zero):>5} "
                f"{lv.N_mod_9:>3} {_bool(lv.three_divides_n):>5} {rec.report.verdict}")
        return "\n".join(rows) + "\n"

    if isinstance(report, PrimePowerWitness):
        if as_json:
            obj = {
                "p": report.p, "n": report.n, "e": report.e, "k": report.k,
                "candidate_x": report.candidate_x, "candidate_y": report.candidate_y,
                "identity_x": report.identity_x, "identity_y": report.identity_y,
                "fallback": report.used_fallback,
                "found": report.witness is not None,
            }
            if report.witness is not None:
                obj.update(x=report.witness.x, y=report.witness.y,
                           u=report.witness.u, v=report.witness.v)
            return _dumps(obj) + "\n"
        w = report.witness
        found = (f"x={w.x} y={w.y} u={w.u} v={w.v}" if w is not None
                 else "no pair exists")
        return (f"p^n     : {report.p}^{report.n}  e={report.e}  k={report.k}\n"
                f"candidate x={report.candidate_x} y={report.candidate_y} "
                f"(identity_x={_bool(report.identity_x)}, identity_y={_bool(report.identity_y)})\n"
                f"fallback: {_bool(report.used_fallback)}\n"
                f"result  : {found}\n")

    if isinstance(report, (PairWitness, _NoPair)):
        if isinstance(report, _NoPair):
            if as_json:
                return _dumps({"m": report.m, "e": report.e, "found": False}) + "\n"
            return f"m={report.m} e={report.e}: no pair\n"
        if as_json:
            return _dumps({"m": report.m, "e": report.e, "found": True,
                           "x": report.x, "y": report.y,
                           "u": report.u, "v": report.v}) + "\n"
        return (f"m={report.m} e={report.e}: x={report.x} y={report.y} "
                f"(u={report.u}, v={report.v})\n")

    if isinstance(report, _FermatCount):
        if as_json:
            return _dumps({"e": report.e, "p": report.p, "count": report.count}) + "\n"
        return f"e={report.e} p={report.p}: {report.count} solution(s)\n"

    raise TypeError(f"emit_report: unsupported report type {type(report)!r}")


def _level_obj(lv: LevelInvariants) -> dict:
    return {
        "N": lv.N,
        "n": lv.n,
        "genus": lv.genus,
        "hyperelliptic": lv.hyperelliptic,
        "plus_genus_zero": lv.plus_quotient_genus_zero,
        "N_mod_9": lv.N_mod_9,
        "three_div_n": lv.three_divides_n,
    }


class _NoPair:
    def __init__(self, m: int, e: int):
        self.m, self.e = m, e


class _FermatCount:
    def __init__(self, e: int, p: int, count: int):
        self.e, self.p, self.count = e, p, count


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
            if envelope.get("key") == key_params:
                return envelope["output"], int(envelope["exit_code"])
            print(f"artlab: cache entry {path} does not match its key; recomputing",
                  file=sys.stderr)
        except (OSError, ValueError, KeyError, TypeError) as exc:
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
                        help="worker count for surveys (never changes output)")
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


def _run_command(args) -> tuple[str, int]:
    """Compute (output text, exit code) for parsed arguments."""
    cmd = args.command
    if cmd == "analyze":
        try:
            with open(args.module_file, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise InvalidInputError(f"cannot read module file: {exc}") from exc
        except ValueError as exc:
            raise InvalidInputError(f"module file is not valid JSON: {exc}") from exc
        module = validate_module(raw, max_closure=args.max_closure)
        report = almost_rational_set(module, max_points=args.max_points)
        return emit_report(report, args.json), 0
    if cmd == "mu":
        module = cyclotomic_module(args.n, max_closure=args.max_closure)
        report = almost_rational_set(module, max_points=args.max_points)
        return emit_report(report, args.json), 0
    if cmd == "homothety":
        module = homothety_module(args.m, args.e, args.dim, max_closure=args.max_closure)
        report = almost_rational_set(module, max_points=args.max_points)
        return emit_report(report, args.json), 0
    if cmd == "lemma2":
        if args.action == "scan":
            report = failure_scan(args.e, args.max)
            return emit_report(report, args.json), 0
        if args.action == "pair":
            witness = exists_pair(args.m, args.e)
            report = witness if witness is not None else _NoPair(args.m, args.e)
            return emit_report(report, args.json), 0
        if args.action == "count":
            count = count_fermat_points(args.e, args.p)
            return emit_report(_FermatCount(args.e, args.p, count), args.json), 0
        if args.action == "witness":
            report = prime_power_witness(args.p, args.n, args.e)
            return emit_report(report, args.json), 0
        raise InvalidInputError(f"unknown lemma2 action {args.action!r}")
    if cmd == "level":
        return emit_report(level_invariants(args.N), args.json), 0
    if cmd == "theorem3":
        report = theorem3_check(args.N, max_closure=args.max_closure,
                                max_points=args.max_points)
        return emit_report(report, args.json), 0 if report.verdict == "pass" else 1
    if cmd == "survey":
        records = survey(args.start, args.stop, threads=args.threads,
                         max_closure=args.max_closure, max_points=args.max_points)
        ok = all(r.report.verdict == "pass" and r.side_condition_ok for r in records)
        return emit_report(records, args.json), 0 if ok else 1
    raise InvalidInputError(f"unknown subcommand {cmd!r}")


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
        if args.threads < 1:
            raise InvalidInputError(f"--threads must be >= 1, got {args.threads}")
        # surveys start one OS thread per requested worker
        args.threads = min(args.threads, os.cpu_count() or 1)
        if cache_dir:
            output, exit_code = cache_roundtrip(
                cache_dir, _cache_key(args), lambda: _run_command(args))
        else:
            output, exit_code = _run_command(args)
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
