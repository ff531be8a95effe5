#!/usr/bin/env python3
"""artlab benchmark: one workload per invocation, closed loop, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/artlab``.  With ``--trace 0``
the workload's passes repeat until S seconds have passed and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced passes alternate
and the per-layer metrics are reported.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Earlier lines hold
the environment record and a readable summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import ROOT, SRC, WORKLOADS, nproc
from tracer import Tracer

SETUP_SAMPLES = 5

# (metric, unit) read from a traced pass's span stats: metric = <span>.<stat key>
LAYER_STATS = (
    ("galmod.almost_rational_set.calls", "count"),
    ("galmod.almost_rational_set.self_s", "s"),
    ("galmod.almost_rational_set.points", "count"),
    ("galmod.almost_rational_set.pairs", "count"),
    ("galmod.almost_rational_set.ar_points", "count"),
    ("galmod.almost_rational_set.large_s", "s"),
    ("galmod.almost_rational_set.small_s", "s"),
    ("galmod.closure.s", "s"),
    ("galmod.closure.elements", "count"),
    ("galmod.constructors.s", "s"),
    ("galmod.subgroup_span.calls", "count"),
    ("galmod.subgroup_span.s", "s"),
    ("galmod.quotient_presentation.calls", "count"),
    ("galmod.quotient_presentation.s", "s"),
    ("snf.smith_normal_form.calls", "count"),
    ("snf.smith_normal_form.s", "s"),
    ("modcurve.eisenstein_model.calls", "count"),
    ("modcurve.eisenstein_model.self_s", "s"),
    ("modcurve.theorem3_check.self_s", "s"),
    ("lemma2.failure_scan.calls", "count"),
    ("lemma2.failure_scan.self_s", "s"),
    ("lemma2.failure_scan.moduli", "count"),
    ("lemma2.failure_scan.failures", "count"),
    ("lemma2.exists_pair.calls", "count"),
    ("lemma2.exists_pair.s", "s"),
    ("modarith.power_subgroup.calls", "count"),
    ("modarith.power_subgroup.s", "s"),
    ("modarith.unit_group_generators.calls", "count"),
    ("modarith.unit_group_generators.s", "s"),
    ("cli.dispatch.s", "s"),
    ("cli.emit_report.calls", "count"),
    ("cli.emit_report.s", "s"),
    ("cli.emit_report.bytes", "B"),
    ("cli.cache_roundtrip.hits", "count"),
    ("cli.cache_roundtrip.misses", "count"),
    ("cli.cache_roundtrip.hit_s", "s"),
    ("cli.cache_roundtrip.miss_s", "s"),
    ("cli.cache_roundtrip.bytes_written", "B"),
)
# measured untraced by the workload that exercises them; 0 on the others
LAYER_EXTRAS = (("modcurve.survey.pool_ratio", "ratio"),
                ("lemma2.failure_scan.pool_ratio", "ratio"),
                ("cli.startup_s", "s"))


def load_artlab():
    """Import artlab from this checkout's src/, never from anywhere else."""
    init = SRC / "artlab" / "__init__.py"
    if not init.is_file():
        raise RuntimeError(f"no artlab sources at {init.parent}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import artlab
    if SRC.resolve() not in Path(artlab.__file__).resolve().parents:
        raise RuntimeError(f"artlab was imported from {artlab.__file__}, not {SRC}")
    import artlab.cli  # noqa: F401  (every layer loaded before the clock starts)
    return artlab


def environment(seed: int) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"seed": seed, "nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
            "platform": platform.platform()}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def setup_seconds(args) -> tuple[float, float]:
    """Median (scaled, raw) wall time of fresh-process set-ups: imports, inputs, warm-up."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    bracket = speed.Bracket("startup")
    bracket.start()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # captured output: the wait then follows the child's exit instead of
        # polling for it in sleeps of up to 50 ms
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170, capture_output=True)
        bracket.add(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.buffer.write(proc.stderr)
            raise RuntimeError(f"set-up run failed with exit code {proc.returncode}")
    return statistics.median(bracket.scaled()), statistics.median(bracket.raw)


def measure(workload, args) -> dict:
    """Untraced passes for --seconds; returns the end-to-end metrics."""
    walls, raw_walls, records = [], [], []
    t_start = time.perf_counter()
    while len(walls) < workload.min_passes or time.perf_counter() - t_start < args.seconds:
        bracket, recs = workload.run_pass()
        walls.append(sum(r[1] for r in recs))
        raw_walls.append(sum(bracket.raw))
        records += recs
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    rss_kb = resource.getrusage(who).ru_maxrss  # before the set-up samples add children
    lat = [r[1] for r in records]
    tail_s, tail_pct = tail(lat)
    # without a result cache every call computes, so every call is a miss;
    # "hit" records are repeats of an item, which a result cache would serve
    miss = [r[1] for r in records if r[2] == "miss"] if workload.has_cache else lat
    items = workload.items_per_pass
    wall_s = statistics.median(walls)
    failed = sum(not r[3] for r in records)
    setup_s, raw_setup_s = setup_seconds(args)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (items / wall_s, "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "items": (items, "count"),
        "ok_ratio": (1 - failed / len(records), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "miss_p50_ms": (statistics.median(miss) * 1e3, "ms"),
        "hit_p50_ms": (statistics.median(r[1] for r in records if r[2] == "hit") * 1e3, "ms"),
    }
    notes = [f"item_tail_ms is p{tail_pct:.1f} of {len(lat)} item latencies "
             f"({len(walls)} passes of {items} items)",
             f"times are scaled to the probe's reference speed (speed.py); raw: "
             f"wall_s {statistics.median(raw_walls):.6g} s, setup_s {raw_setup_s:.6g} s",
             f"fail_ratio = {failed}/{len(records)} = {failed / len(records):.4f}"]
    return {"attempted": len(records), "failed": failed, "metrics": metrics, "notes": notes}


def measure_traced(workload, args) -> dict:
    """Alternate untraced and traced passes; returns the per-layer metrics."""
    extras = workload.layer_extras()
    tracer = Tracer()
    untraced, traced, records = [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < args.seconds:
        for use in (None, tracer):
            _, recs = workload.run_pass(use)
            (traced if use else untraced).append(sum(r[1] for r in recs))
            records += recs
    passes = len(traced)
    stats = tracer.stats
    metrics = {}
    for name, unit in LAYER_STATS:
        span, key = name.rsplit(".", 1)
        metrics[name] = (stats[span][key] / passes, unit)
    pairs = stats["lemma2.exists_pair"]
    metrics["lemma2.exists_pair.found_ratio"] = (
        pairs["found"] / pairs["calls"] if pairs["calls"] else 0.0, "ratio")
    cache = stats["cli.cache_roundtrip"]
    lookups = cache["hits"] + cache["misses"]
    metrics["cli.cache_roundtrip.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0,
                                                "ratio")
    for name, unit in LAYER_EXTRAS:
        metrics[name] = (extras.get(name, 0.0), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    failed = sum(not r[3] for r in records) + (extras.get("ok") is False)
    missing = [s for s in workload.spans if stats[s]["calls"] == 0]
    notes = [f"{passes} traced and {len(untraced)} untraced passes; per-layer values are per pass"]
    if missing:
        notes.append(f"expected spans recorded no calls: {', '.join(missing)}")
    return {"attempted": len(records), "failed": failed, "metrics": metrics, "notes": notes,
            "missing_spans": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal inputs, for self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        load_artlab()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    try:
        speed.warm_up()
        workload.warm_up()
        if args.setup_only:
            return 0
        print(json.dumps({"env": environment(args.seed)}))
        workload.prepare()
        result = measure_traced(workload, args) if args.trace else measure(workload, args)
    finally:
        workload.close()
    for name, (value, unit) in result["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")
    for line in result["notes"] + workload.failure_notes:
        print(f"# {line}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result.get("missing_spans"),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 1 if result.get("missing_spans") else 0


if __name__ == "__main__":
    sys.exit(main())
