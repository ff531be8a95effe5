#!/usr/bin/env python3
"""Self-tests of the benchmark: run with ``python3 perfbench/selftest.py``.

1. Every workload runs at a tiny size, untraced and traced, passes its own
   checks and emits exactly the metric names and units of BENCHMARK.json.
2. An injected wrong answer raises fail_ratio above 0 on every workload.
3. The tracer rebinds a function in every artlab module that imported it.
4. Without src/artlab the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys

import run
from tracer import Tracer
from workloads import ROOT, SCRATCH, WORKLOADS

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def bench_cmd(workload: str, trace: int) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]


def test_metric_names() -> None:
    for name in WORKLOADS:
        for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            proc = subprocess.run(bench_cmd(name, trace), cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            expect(proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n"
                                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: {proc.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")


def _wrong_invariants(original):
    def wrong(N, *a, **kw):
        inv = original(N, *a, **kw)
        return dataclasses.replace(inv, n=inv.n + 1)
    return wrong


def test_injected_fault() -> None:
    import artlab.lemma2 as l2
    import artlab.modcurve as mc
    faults = {
        "eisenstein_survey": (mc, "level_invariants", _wrong_invariants),
        "homothety_bridge": (l2, "exists_pair", lambda original: lambda m, e: None),
        "unit_pair_scan": (l2, "failure_scan", lambda original: lambda e, M, threads=1:
                           dataclasses.replace(original(e, M), failures=original(e, M).failures[1:])),
    }
    for name, cls in WORKLOADS.items():
        workload = cls(7, tiny=True)
        args = argparse.Namespace(workload=name, seed=7, seconds=0.0, tiny=True)
        try:
            workload.warm_up()
            if name == "cli_batch":
                workload.prepare()
                item = workload.items[0]
                workload.reference[item] = (0, b"injected wrong answer\n")
                result = run.measure(workload, args)
            else:
                module, attr, make = faults[name]
                original = getattr(module, attr)
                setattr(module, attr, make(original))
                try:
                    result = run.measure(workload, args)
                finally:
                    setattr(module, attr, original)
        finally:
            workload.close()
        ok_ratio = result["metrics"]["ok_ratio"][0]
        expect(result["failed"] > 0 and ok_ratio < 1.0,
               f"{name}: injected fault not detected ({result['failed']} failed)")


def test_tracer_rebinds_everywhere() -> None:
    import artlab.galmod as gm
    import artlab.lemma2 as l2
    import artlab.modarith as ma
    import artlab.modcurve as mc
    import artlab.snf as snf
    originals = {"power_subgroup": ma.power_subgroup, "smith_normal_form": snf.smith_normal_form,
                 "almost_rational_set": gm.almost_rational_set}
    tracer = Tracer()
    with tracer.installed():
        expect(l2.power_subgroup is not originals["power_subgroup"], "lemma2.power_subgroup")
        expect(gm.smith_normal_form is not originals["smith_normal_form"],
               "galmod.smith_normal_form")
        expect(mc.almost_rational_set is not originals["almost_rational_set"],
               "modcurve.almost_rational_set")
        mc.theorem3_check(41)
    expect(l2.power_subgroup is originals["power_subgroup"], "lemma2.power_subgroup restored")
    expect(mc.almost_rational_set is originals["almost_rational_set"], "restore")
    for span in ("snf.smith_normal_form", "galmod.almost_rational_set", "galmod.closure"):
        expect(tracer.stats[span]["calls"] > 0, f"{span} recorded no calls")


def test_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_batch", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    run.load_artlab()
    failed = 0
    for test in (test_tracer_rebinds_everywhere, test_refuses_without_sources,
                 test_injected_fault, test_metric_names):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
