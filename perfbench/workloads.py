"""The four benchmark workloads.

Each workload is closed loop with one client and one item in flight: the next
item starts only when the previous one has returned.  The seed picks the
inputs; the program sees only the generated inputs.  Inputs are drawn by
stratified sampling over a cost proxy, so total work per pass is comparable
across seeds while the individual items differ.

A workload exposes ``warm_up()``, ``run_pass(tracer=None)`` and
``layer_extras()``.  ``run_pass`` times every item (scaled to the host-speed
probe's reference speed, see speed.py), then checks the outputs after the
pass; a wrong answer or an exception is a failed item, never an abort.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

ANCHOR_COUNTS = {23: 11, 37: 9, 41: 10, 73: 18}  # criterion 02
E2_FAILURES_TO_17 = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15)  # criterion 03
E1_FAILURES = (1, 2, 3, 6)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def phi(n: int) -> int:
    return sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)


def power_count(m: int, e: int) -> int:
    """|{u^e : u a unit mod m}|, the closure size of the homothety module."""
    return len({pow(u, e, m) for u in range(1, m) if math.gcd(u, m) == 1})


def eisenstein_pairs(N: int) -> int:
    """points x |closure| of the level-N model, from the paper's formulas:
    n = numerator((N-1)/12), points n^2 (halved when n is even), closure phi(n)."""
    n = (N - 1) // math.gcd(N - 1, 12)
    points = n * n // (2 if n % 2 == 0 else 1)
    return points * phi(n)


def stratified(rng: random.Random, pool: list, size: int, picks: int = 1) -> list:
    """`picks` draws from each run of `size` consecutive entries of a cost-sorted pool."""
    out = []
    for i in range(0, len(pool), size):
        stratum = pool[i:i + size]
        out += rng.sample(stratum, min(picks, len(stratum)))
    return out


def _median_ratio(fast, slow, repeats: int = 3) -> float:
    """Median of fast()/slow() wall-time ratios, alternating which runs first."""
    ratios = []
    for r in range(repeats):
        times = {}
        for fn in ((fast, slow) if r % 2 == 0 else (slow, fast)):
            t0 = time.perf_counter()
            fn()
            times[fn] = time.perf_counter() - t0
        ratios.append(times[fast] / times[slow])
    return statistics.median(ratios)


class Workload:
    name = ""
    spans: tuple[str, ...] = ()  # spans a traced pass must record calls for
    min_passes = 3
    has_cache = False  # whether items go through artlab's result cache
    in_process = True  # False: items run as child processes

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items = self.make_items(tiny)
        self._verdicts: dict = {}  # item -> (first output, check passed)
        self.failure_notes: list[str] = []

    # -- overridden per workload ------------------------------------------
    def make_items(self, tiny: bool) -> list:
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def check(self, item, output) -> bool:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def prepare(self) -> None:
        """Work a run does once, after set-up and before its clock starts."""

    def close(self) -> None:
        pass

    @property
    def items_per_pass(self) -> int:
        return len(self.items)

    def layer_extras(self) -> dict:
        return {}

    # -- shared machinery ---------------------------------------------------
    def run_pass(self, tracer=None):
        """Run every item once; returns (Bracket, [(item, latency_s, kind, ok)]).

        Latencies are scaled to the probe's reference speed (see speed.py);
        the Bracket holds the raw ones.
        """
        done = []
        bracket = speed.Bracket()
        with (tracer.installed() if tracer else contextlib.nullcontext()):
            bracket.start()
            for item in self.items:
                t0 = time.perf_counter()
                try:
                    out = self.run_item(item)
                except Exception:  # counted as a failed item, reported below
                    out = _Failure(traceback.format_exc(limit=3))
                bracket.add(time.perf_counter() - t0)
                done.append((item, out))
        records = []
        for (item, out), latency in zip(done, bracket.scaled()):
            kind = "hit" if item in self._verdicts else "miss"
            records.append((item, latency, kind, self._verify(item, out)))
        return bracket, records

    def _verify(self, item, out) -> bool:
        if isinstance(out, _Failure):
            self.note(f"{item!r} raised: {out.text.strip().splitlines()[-1]}")
            return False
        if item in self._verdicts:
            first, ok = self._verdicts[item]
            if out != first:
                self.note(f"{item!r}: output differs from its first run")
                return False
            return ok
        try:
            ok = bool(self.check(item, out))
        except Exception:
            ok = False
            self.note(f"{item!r}: check raised {traceback.format_exc(limit=2)}")
        if not ok:
            self.note(f"{item!r}: wrong output {out!r}"[:300])
        self._verdicts[item] = (out, ok)
        return ok

    def note(self, text: str) -> None:
        if len(self.failure_notes) < 20:
            self.failure_notes.append(text)


class _Failure:
    def __init__(self, text: str):
        self.text = text


class EisensteinSurvey(Workload):
    """theorem3_check(N) + level_invariants(N) over prime levels N >= 23."""

    name = "eisenstein_survey"
    spans = ("galmod.almost_rational_set", "galmod.closure", "galmod.constructors",
             "galmod.subgroup_span", "galmod.quotient_presentation",
             "snf.smith_normal_form", "modcurve.eisenstein_model",
             "modcurve.theorem3_check", "modarith.unit_group_generators")
    # Size classes by points x |closure|: 3 of every 4 small levels (up to
    # 1.1e5) and level 191, the large class (about 30x the median level's
    # cost).  Its neighbours in size (167, 179) differ from it in cost by
    # 20-50%, so drawing among them would let the seed move the tail.  Level
    # 191 runs twice a pass: with at least 11 passes the tail percentile (10
    # samples beyond it) then sits near the middle of its samples, not among
    # the fastest few, which spread more from run to run.
    SMALL_MAX = 110_000
    LARGE = 191
    min_passes = 11

    def make_items(self, tiny):
        small_max = 20_000 if tiny else self.SMALL_MAX
        pool = sorted((N for N in primes_upto(1000)
                       if N >= 23 and N not in ANCHOR_COUNTS and eisenstein_pairs(N) <= small_max),
                      key=lambda N: (eisenstein_pairs(N), N))
        items = list(ANCHOR_COUNTS) + stratified(self.rng, pool, 4, picks=3)
        if not tiny:
            items += [self.LARGE, self.LARGE]
        self.rng.shuffle(items)
        return items

    def run_item(self, N):
        import artlab.modcurve as mc
        report = mc.theorem3_check(N)
        inv = mc.level_invariants(N)
        return report.verdict, len(report.ar_points), inv.n, inv.genus

    def check(self, N, out):
        verdict, count, n, genus = out
        return (verdict == "pass"
                and count == ANCHOR_COUNTS.get(N, count)
                and n == (N - 1) // math.gcd(N - 1, 12)
                and genus >= 2)

    def warm_up(self):
        import artlab.modcurve as mc
        mc.theorem3_check(59)  # bulk predicate path
        mc.theorem3_check(41)  # quotient presentation path

    def layer_extras(self):
        import artlab.modcurve as mc
        stop = 47 if self.tiny else 113
        threads = nproc()
        ratio = _median_ratio(lambda: mc.survey(23, stop, threads=threads),
                              lambda: mc.survey(23, stop, threads=1))
        return {"modcurve.survey.pool_ratio": ratio}


class HomothetyBridge(Workload):
    """Criterion-07 equivalence: a.r. point of order m <=> no unit pair mod m."""

    name = "homothety_bridge"
    spans = ("galmod.almost_rational_set", "galmod.closure", "galmod.constructors",
             "lemma2.exists_pair", "modarith.unit_group_generators",
             "modarith.power_subgroup")

    def make_items(self, tiny):
        # size classes by points x |closure| = m x |e-th powers of (Z/m)*|
        top = 31 if tiny else 299
        cases = [(m, e) for m in range(2, top) for e in (1, 2, 3)]
        cases.sort(key=lambda c: (c[0] * power_count(*c), c))
        items = stratified(self.rng, cases, 9)
        self.rng.shuffle(items)
        return items

    def run_item(self, item):
        import artlab.galmod as gm
        import artlab.lemma2 as l2
        m, e = item
        module = gm.homothety_module(m, e, 1)
        ar = gm.almost_rational_set(module).ar_points
        full_order = any(p != (0,) and module.order_of(p) == m for p in ar)
        return full_order, l2.exists_pair(m, e) is None

    def check(self, item, out):
        full_order, pair_free = out
        return full_order == pair_free

    def warm_up(self):
        self.run_item((250, 1))  # bulk predicate path
        self.run_item((12, 2))


class UnitPairScan(Workload):
    """failure_scan(e, M) with threads=1 over seeded (e, M), e in 1..6."""

    name = "unit_pair_scan"
    spans = ("lemma2.failure_scan", "lemma2.exists_pair", "modarith.power_subgroup")
    ORACLE_SAMPLES = 4

    def make_items(self, tiny):
        # narrow strata: a scan costs ~M^2 for e >= 2, so wide ones would let
        # the seed move the total work and the tail
        if tiny:
            e1 = [(10_000, 12_000)]
            strata = [(40, 60), (80, 100)]
        else:
            e1 = [(10_000 * k, 10_000 * k + 2_000) for k in range(1, 5)]
            strata = [(lo, lo + 10) for lo in range(150, 700, 100)]
        items = [(1, self.rng.randrange(lo, hi)) for lo, hi in e1]
        for e in range(2, 7):
            items += [(e, self.rng.randrange(lo, hi)) for lo, hi in strata]
        self.rng.shuffle(items)
        # oracle subsample: a few seeded m per item, checked against exists_pair
        self.oracle = {item: sorted(self.rng.sample(range(1, item[1] + 1), self.ORACLE_SAMPLES))
                       for item in items}
        return items

    def run_item(self, item):
        import artlab.lemma2 as l2
        e, M = item
        return l2.failure_scan(e, M, threads=1).failures

    def check(self, item, failures):
        import artlab.lemma2 as l2
        e, M = item
        if e == 1 and failures != E1_FAILURES:
            return False
        if e == 2 and tuple(m for m in failures if m <= 17) != E2_FAILURES_TO_17:
            return False
        fails = set(failures)
        return all((m in fails) == (l2.exists_pair(m, e) is None) for m in self.oracle[item])

    def warm_up(self):
        self.run_item((2, 200))
        self.run_item((1, 5000))

    def layer_extras(self):
        import artlab.lemma2 as l2
        max_m = 20_000 if self.tiny else 100_000  # above the scan's parallel threshold
        threads = nproc()
        outs = set()

        def scan(t):
            return lambda: outs.add(l2.failure_scan(1, max_m, threads=t).failures)

        ratio = _median_ratio(scan(threads), scan(1))
        if outs != {E1_FAILURES}:
            self.note(f"threaded failure_scan(1, {max_m}) disagrees: {outs}")
        return {"lemma2.failure_scan.pool_ratio": ratio, "ok": outs == {E1_FAILURES}}


# -- CLI batch -----------------------------------------------------------------

def _cli_env() -> dict:
    env = dict(os.environ)
    env.pop("ARTLAB_CACHE_DIR", None)  # the reference run must be uncached
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliBatch(Workload):
    """Sequential `python -m artlab` runs over the CLI_DETERMINISM_COMMANDS families.

    A pass makes a cold run (fresh --cache-dir: every call misses, computes
    and writes) and then a warm run (every call hits and reads).  Both must
    match, byte for byte, an uncached reference run made once per process.
    """

    name = "cli_batch"
    spans = ("cli.dispatch", "cli.emit_report", "cli.cache_roundtrip")
    min_passes = 2
    has_cache = True
    in_process = False
    TIMEOUT_S = 120

    def make_items(self, tiny):
        rng = self.rng
        self.workdir = SCRATCH / f"{self.name}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        a, b = rng.randrange(4, 41), rng.randrange(2, 21)
        module = {"name": f"bench_{a}x{b}", "factors": [a, b],
                  "galois": [[[_unit(rng, a), 0], [0, _unit(rng, b)]]]}
        module_file = self.workdir / "module.json"
        module_file.write_text(json.dumps(module))
        small_levels = [N for N in primes_upto(200)
                        if N >= 23 and eisenstein_pairs(N) < 10 ** 5]
        p_levels = [p for p in primes_upto(5000) if p >= 23]
        survey_to = (lambda: rng.randrange(40, 60)) if tiny else (lambda: rng.randrange(60, 100))
        s = str
        items = [
            ("mu", s(rng.randrange(5, 150)), "--json"),
            ("mu", s(rng.randrange(5, 150))),
            ("analyze", str(module_file), "--json"),
            ("lemma2", "scan", "--e", "1", "--max", s(rng.randrange(10_000, 30_000)), "--json"),
            ("lemma2", "pair", "--m", s(rng.randrange(5, 500)), "--e", s(rng.randrange(1, 5)),
             "--json"),
            ("lemma2", "count", "--e", s(rng.randrange(1, 7)),
             "--p", s(rng.choice(primes_upto(2000)[15:])), "--json"),
            ("lemma2", "witness", "--p", s(rng.choice((2, 3, 5, 7, 11))),
             "--n", s(rng.randrange(2, 5)), "--e", s(rng.randrange(1, 7)), "--json"),
            ("level", s(rng.choice(p_levels)), "--json"),
            ("level", s(rng.choice(p_levels))),
            ("theorem3", s(rng.choice(small_levels)), "--json"),
            ("homothety", "--m", s(rng.randrange(5, 120)), "--e", s(rng.randrange(1, 4)),
             "--dim", "1", "--json"),
            ("survey", "--from", "23", "--to", s(survey_to()), "--json"),
            ("survey", "--from", "23", "--to", s(survey_to())),
        ]
        if tiny:
            items = items[::3]
        self.reference: dict = {}
        self._pass_no = 0
        return items

    def _invoke(self, argv, cache_dir=None, trace_file=None):
        extra = ["--cache-dir", str(cache_dir)] if cache_dir else []
        if trace_file is None:
            cmd = [sys.executable, "-m", "artlab", *argv, *extra]
        else:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(trace_file), *argv, *extra]
        proc = subprocess.run(cmd, cwd=ROOT, env=_cli_env(), capture_output=True,
                              timeout=self.TIMEOUT_S)
        return proc.returncode, proc.stdout

    @property
    def items_per_pass(self) -> int:
        return 2 * len(self.items)  # a cold and a warm run of each command

    def warm_up(self):
        self._invoke(["level", "23", "--json"])

    def prepare(self):
        """The uncached reference run every cached output must equal."""
        for item in self.items:
            try:
                self.reference[item] = self._invoke(list(item))
            except subprocess.TimeoutExpired:
                self.reference[item] = (None, b"")

    def run_pass(self, tracer=None):
        self._pass_no += 1
        cache_dir = self.workdir / f"cache-{self._pass_no}"
        trace_file = self.workdir / "trace.json" if tracer else None
        runs = []
        bracket = speed.Bracket("startup")
        bracket.start()
        for kind in ("miss", "hit"):
            for item in self.items:
                if trace_file:
                    trace_file.unlink(missing_ok=True)
                t0 = time.perf_counter()
                try:
                    code, out = self._invoke(list(item), cache_dir, trace_file)
                except subprocess.TimeoutExpired:
                    code, out = None, b""
                bracket.add(time.perf_counter() - t0)
                ok = code == 0 and (code, out) == self.reference[item]
                if not ok:
                    self.note(f"{kind} {' '.join(item)}: exit {code}, "
                              f"stdout {'matches' if out == self.reference[item][1] else 'differs'}")
                if tracer and ok:
                    ok = self._merge_trace(tracer, trace_file, kind, item)
                runs.append((item, kind, ok))
        records = [(item, latency, kind, ok)
                   for (item, kind, ok), latency in zip(runs, bracket.scaled())]
        shutil.rmtree(cache_dir, ignore_errors=True)
        return bracket, records

    def _merge_trace(self, tracer, trace_file, kind, item) -> bool:
        try:
            stats = json.loads(trace_file.read_text())
            trace_file.unlink()
        except (OSError, ValueError):
            self.note(f"{' '.join(item)}: no trace written")
            return False
        tracer.merge(stats)
        outcome = stats.get("cli.cache_roundtrip", {})
        if outcome.get("hits" if kind == "hit" else "misses", 0) != 1:
            self.note(f"{kind} {' '.join(item)}: cache outcome was {outcome}")
            return False
        return True

    def layer_extras(self):
        env = _cli_env()
        bare, cli = [], []
        for _ in range(3 if self.tiny else 7):
            for cmd, samples in ((["-c", "pass"], bare), (["-c", "import artlab.cli"], cli)):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, *cmd], cwd=ROOT, env=env,
                               capture_output=True, timeout=self.TIMEOUT_S, check=True)
                samples.append(time.perf_counter() - t0)
        return {"cli.startup_s": statistics.median(cli) - statistics.median(bare)}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds foreign files


def _unit(rng: random.Random, n: int) -> int:
    return rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1] or [1])


WORKLOADS = {w.name: w for w in (EisensteinSurvey, HomothetyBridge, UnitPairScan, CliBatch)}
