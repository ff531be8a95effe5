import gc
import tracemalloc

import pytest

from artlab import (
    GaloisModule,
    InvalidInputError,
    eisenstein_model,
    eisenstein_number,
    exists_pair,
    genus_x0,
    level_invariants,
    subgroup_span,
    survey,
    theorem3_check,
)
from artlab import galmod, modcurve
from artlab.galmod import almost_rational_set
from artlab.modcurve import OGG_HYPERELLIPTIC, SurveyRecord
from artlab.modarith import is_prime, primes_in, unit_group_generators


class TestEisensteinNumber:
    @pytest.mark.parametrize("N,n", [(23, 11), (37, 3), (73, 6), (29, 7), (41, 10),
                                     (2, 1), (3, 1), (13, 1)])
    def test_values(self, N, n):
        assert eisenstein_number(N) == n

    def test_rejects_composite(self):
        with pytest.raises(InvalidInputError):
            eisenstein_number(24)


class TestGenus:
    @pytest.mark.parametrize("N,g", [(2, 0), (3, 0), (5, 0), (13, 0), (17, 1),
                                     (19, 1), (23, 2), (37, 2), (41, 3), (53, 4), (71, 6)])
    def test_values(self, N, g):
        assert genus_x0(N) == g

    def test_rejects_composite(self):
        with pytest.raises(InvalidInputError):
            genus_x0(25)

    def test_gate_at_23(self):
        for N in primes_in(2, 500):
            assert (genus_x0(N) >= 2) == (N >= 23), N

    def test_ogg_list_genera(self):
        assert [genus_x0(N) for N in OGG_HYPERELLIPTIC] == [2, 2, 2, 2, 3, 4, 5, 6]


class TestLevelInvariants:
    def test_level_37_the_exception(self):
        inv = level_invariants(37)
        assert inv.n == 3 and inv.genus == 2
        assert inv.hyperelliptic and not inv.plus_quotient_genus_zero
        assert inv.N_mod_9 == 1 and inv.three_divides_n

    def test_level_23(self):
        inv = level_invariants(23)
        assert inv.n == 11 and inv.genus == 2
        assert inv.hyperelliptic and inv.plus_quotient_genus_zero
        assert inv.N_mod_9 == 5 and not inv.three_divides_n

    def test_level_53_not_hyperelliptic(self):
        inv = level_invariants(53)
        assert inv.n == 13 and inv.genus == 4 and not inv.hyperelliptic

    def test_congruence_bridge(self):
        for N in primes_in(2, 2000):
            inv = level_invariants(N)
            assert inv.three_divides_n == (N % 9 == 1), N

    def test_plus_zero_implies_hyperelliptic(self):
        for N in primes_in(2, 200):
            inv = level_invariants(N)
            assert not inv.plus_quotient_genus_zero or inv.hyperelliptic


class TestEisensteinModel:
    def test_odd_n_is_direct_sum(self):
        model = eisenstein_model(23)
        assert not model.n_even
        assert model.module.point_count == 121
        assert len(model.module.closure) == 10

    def test_even_n_is_fused(self):
        model = eisenstein_model(73)
        assert model.n_even and model.module.point_count == 18
        model = eisenstein_model(41)
        assert model.module.point_count == 50

    def test_model_sizes(self):
        for N in primes_in(23, 120):
            model = eisenstein_model(N)
            n = model.n
            expected = n * n if n % 2 else n * n // 2
            assert model.module.point_count == expected, N

    def test_fused_images_meet_in_order_two(self):
        for N in (41, 73, 89, 113):
            model = eisenstein_model(N)
            assert model.n_even
            m = model.module
            c_span = set(subgroup_span(m, [model.c_generator]))
            s_span = set(subgroup_span(m, [model.sigma_generator]))
            assert len(c_span) == model.n and len(s_span) == model.n
            assert len(c_span & s_span) == 2, N

    def test_odd_images_meet_trivially(self):
        model = eisenstein_model(23)
        m = model.module
        c_span = set(subgroup_span(m, [model.c_generator]))
        s_span = set(subgroup_span(m, [model.sigma_generator]))
        assert c_span & s_span == {m.zero()}

    def test_requires_prime_at_least_23(self):
        with pytest.raises(InvalidInputError):
            eisenstein_model(19)
        with pytest.raises(InvalidInputError):
            eisenstein_model(25)

    def test_expected_subgroup_is_galois_stable(self):
        from artlab import apply_automorphism
        for N in (23, 37, 41, 73, 89):
            model = eisenstein_model(N)
            expected = set(model.expected_ar)
            for a in model.module.closure:
                assert all(apply_automorphism(model.module, a, p) in expected
                           for p in expected), N


class TestTheorem3:
    @pytest.mark.parametrize("N,count", [(23, 11), (37, 9), (41, 10), (73, 18),
                                         (1997, 499), (2003, 1001), (10007, 5003),
                                         (100003, 16667), (92699, 46349),
                                         (1000003, 166667)])
    def test_spot_values(self, N, count):
        rep = theorem3_check(N)
        assert rep.verdict == "pass"
        assert len(rep.ar_points) == count

    def test_expected_subgroup_is_c_when_three_does_not_divide(self):
        model = eisenstein_model(23)
        assert set(model.expected_ar) == set(subgroup_span(model.module, [model.c_generator]))

    def test_expected_subgroup_includes_sigma_three_torsion(self):
        model = eisenstein_model(37)
        assert len(model.expected_ar) == 9  # C + Sigma[3] is everything at n = 3

    @pytest.mark.parametrize("N", [2003, 100003])
    def test_expected_set_is_checked_once(self, N, monkeypatch):
        # the expected set comes from subgroup_span, which checked its generators
        calls, check = [], GaloisModule.check_point
        monkeypatch.setattr(GaloisModule, "check_point",
                            lambda self, p: calls.append(p) or check(self, p))
        assert theorem3_check(N).verdict == "pass"
        assert len(calls) <= 10

    def test_never_reads_the_closure(self, monkeypatch):
        def refuse(module):
            raise AssertionError(f"{module.name}: closure read")

        monkeypatch.setattr(GaloisModule, "closure", property(refuse))
        for N in (23, 37, 191, 2003, 92699):
            assert theorem3_check(N).verdict == "pass", N
        assert all(r.verdict == "pass" for r in survey(23, 400))

    def test_passes_through_primes_to_150(self):
        for N in primes_in(23, 150):
            assert theorem3_check(N).verdict == "pass", N

    def test_level_is_checked_for_primality_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(modcurve, "is_prime", lambda N: calls.append(N) or is_prime(N))
        theorem3_check(1153)
        level_invariants(1153)
        assert calls == [1153, 1153]
        calls.clear()
        survey(23, 200)  # the start, then each level's model
        assert calls == [23] + primes_in(23, 200)


def _set_verdict(ar, span):
    """The full set comparison: "pass" iff the a.r. points are the span's points."""
    return "pass" if len(ar) == len(span) and set(ar) == set(span) else "fail"


class TestCodeVerdicts:
    """theorem3_check compares grid codes, on M/F where F is taken off; the full
    comparison of the point sets is the oracle."""

    def test_verdicts_match_set_comparison_to_3000(self):
        for N in primes_in(23, 3000):
            rep, model = theorem3_check(N), eisenstein_model(N)
            assert rep.verdict == _set_verdict(rep.ar_points, model.expected_ar) == "pass", N
            assert rep.expected == model.expected_ar, N

    def test_perturbed_expected_sets_match_set_comparison(self):
        verdicts = []
        for N in primes_in(23, 1500):
            model = eisenstein_model(N)
            m, gens = model.module, list(model.expected_generators)
            ar = theorem3_check(N).ar_points
            unit = max(unit_group_generators(model.n) + [1])
            for perturbed in (gens[:1],  # without the Sigma[3] generator
                              gens + [model.sigma_generator],
                              [m.scale(unit, g) for g in gens]):
                rep = almost_rational_set(m, expected=perturbed)
                # sets of different sizes differ: only equal sizes need the points
                size = len(subgroup_span(m, perturbed, codes=True))
                verdicts.append(_set_verdict(ar, subgroup_span(m, perturbed))
                                if size == len(ar) else "fail")
                assert rep.verdict == verdicts[-1], (N, perturbed)
        assert {"pass", "fail"} <= set(verdicts)

    def test_survey_builds_no_point_tuples(self, monkeypatch):
        calls, rows = [], galmod._rows
        monkeypatch.setattr(galmod, "_rows", lambda *a: calls.append(a) or rows(*a))
        assert all(r.verdict == "pass" for r in survey(23, 3000))
        assert calls == []

    def test_quotient_routes_span_nothing_in_the_model(self, monkeypatch):
        # past WHOLE_MODULE_POINTS, F is taken off and only pi(E) is spanned, in M/F
        spanned, span = [], galmod._span_codes
        monkeypatch.setattr(galmod, "_span_codes",
                            lambda module, *a: spanned.append(module.name) or span(module, *a))
        levels = [N for N in primes_in(23, 3000)
                  if eisenstein_model(N).module.point_count > galmod.WHOLE_MODULE_POINTS]
        for N in levels:
            spanned.clear()
            assert theorem3_check(N).verdict == "pass", N
            assert spanned and f"eis_{N}" not in spanned, N
        assert len(levels) > 300

    def test_kernel_runs_only_where_four_divides_n(self, monkeypatch):
        # past WHOLE_MODULE_POINTS F is taken off, and it has a Galois-stable
        # complement unless 4 | n: only those levels run the orbit kernel
        kernel, calls = galmod._not_ar_mask, []
        monkeypatch.setattr(galmod, "_not_ar_mask",
                            lambda m, c: calls.append(m.name) or kernel(m, c))
        for N in primes_in(23, 6000):
            assert theorem3_check(N).verdict == "pass", N
        big = {f"eis_{N}" for N in primes_in(23, 6000)
               if eisenstein_model(N).module.point_count > galmod.WHOLE_MODULE_POINTS
               and eisenstein_number(N) % 4 == 0}
        assert sorted(calls) == sorted(big) and len(big) == 81


class TestSurvey:
    def test_range_23_to_100(self):
        records = survey(23, 100)
        assert [r.level.N for r in records] == primes_in(23, 100) and len(records) == 17
        assert records == [SurveyRecord(level_invariants(N), theorem3_check(N).verdict)
                           for N in primes_in(23, 100)]
        assert all(r.verdict == "pass" and r.side_condition_ok for r in records)

    def test_single_level(self):
        records = survey(23, 23)
        assert len(records) == 1 and records[0].level.N == 23

    def test_empty_range(self):
        assert survey(23, 22) == []

    def test_ordering_and_thread_stability(self):
        # threads is accepted and ignored
        assert survey(23, 80, threads=1) == survey(23, 80, threads=8)

    def test_keeps_verdicts_not_points(self):
        survey(23, 29)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            records = survey(23, 500)
            gc.collect()  # a full collection also empties the tuple free lists
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == len(primes_in(23, 500))
        assert kept < 100_000, f"{kept} bytes still allocated after the survey"

    def test_rejects_bad_start(self):
        with pytest.raises(InvalidInputError):
            survey(19, 100)
        with pytest.raises(InvalidInputError):
            survey(24, 100)

    def test_genus_zero_quotient_levels_have_three_coprime_n(self):
        for r in survey(23, 71):
            if r.level.plus_quotient_genus_zero:
                assert not r.level.three_divides_n


class TestBridgeToUnitPairs:
    def test_mu_n_of_model_killed_iff_pair_exists(self):
        # the sigma-block point of exact order n survives iff no unit pair mod n
        for N in primes_in(23, 80):
            model = eisenstein_model(N)
            rep = theorem3_check(N)
            sigma_pt = model.sigma_generator
            sigma_alive = sigma_pt in set(rep.ar_points)
            assert sigma_alive == (exists_pair(model.n, 1) is None), N
