import json
import math
import random
import sys
import time
import tracemalloc

import numpy
import pytest
import sympy
from conftest import random_well_defined_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from artlab import (
    GaloisModule,
    InvalidInputError,
    ResourceCapError,
    almost_rational_set,
    apply_automorphism,
    constant_module,
    cyclotomic_module,
    direct_sum,
    fixed_points,
    halving_exclusion,
    homothety_module,
    is_almost_rational,
    is_almost_rational_naive,
    lemma4_audit,
    quotient_by,
    quotient_presentation,
    subgroup_span,
    two_step_unipotents,
    validate_module,
)
from artlab import galmod
from artlab.galmod import _fixed_generators, _not_ar_mask, _orbit_labels
from artlab.modarith import primes_in, unit_group_generators
from artlab.modcurve import eisenstein_model, eisenstein_number
from artlab.snf import mat_mul, smith_normal_form


def _power_loop_reaches_identity(mat, factors):
    """Independent oracle: A is invertible iff some power A^j, j >= 1, is the identity."""
    k = len(factors)

    def reduce(m):
        return tuple(tuple(x % d for x in row) for row, d in zip(m, factors))

    ident = reduce([[int(i == j) for j in range(k)] for i in range(k)])
    cur, seen = reduce(mat), set()
    while cur not in seen:
        if cur == ident:
            return True
        seen.add(cur)
        cur = reduce([[sum(cur[i][l] * mat[l][j] for l in range(k)) for j in range(k)]
                      for i in range(k)])
    return False


def _bfs_closure(module):
    """Reference closure: breadth-first search from the identity, one product
    per element per generator, with its own naive matrix product."""
    k = module.rank

    def compose(a, b):
        return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(k)) % module.factors[i]
                           for j in range(k)) for i in range(k))

    seen = {module.identity()}
    queue = [module.identity()]
    for x in queue:  # the queue grows while it is read
        for g in module.generators:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(sorted(seen))


def _tuple_span(module, gens):
    """Reference span: the tuple-by-tuple loop with the module's own addition
    and no cap.  Each generator g adds the cosets H + g, H + 2g, ... up to the
    first multiple already listed, H the subgroup so far."""
    elements = [module.zero()]
    seen = set(elements)
    for g in gens:
        old, x = list(elements), g
        while x not in seen:
            coset = [module.add(h, x) for h in old]
            elements.extend(coset)
            seen.update(coset)
            x = module.add(x, g)
    return tuple(sorted(elements))


def _gl2_3(max_closure=10 ** 3):
    """GL_2(Z/3), order 48: a non-abelian image with three generators."""
    return GaloisModule((3, 3), [[[1, 1], [0, 1]], [[0, 1], [2, 0]], [[2, 0], [0, 1]]],
                        name="gl2_3", max_closure=max_closure)


class TestValidation:
    def test_rank_one_unit_scalar_is_valid(self):
        m = GaloisModule((5,), [[[2]]])
        assert m.generators[0] == ((2,),)

    def test_divisibility_condition_4_2(self):
        # (d2/gcd(d2,d1)) = 2/2 = 1 divides the (2,1) entry, so this is fine
        m = GaloisModule((4, 2), [[[1, 0], [1, 1]]])
        assert len(m.closure) == 2

    def test_divisibility_condition_2_4(self):
        # upper entry needs only 2/gcd(2,4) = 1
        GaloisModule((2, 4), [[[1, 1], [0, 1]]])
        # lower entry needs 4/gcd(4,2) = 2, so 1 is rejected, naming the entry
        with pytest.raises(InvalidInputError, match=r"\(2,1\)"):
            GaloisModule((2, 4), [[[1, 0], [1, 1]]])

    def test_non_invertible_generator_rejected(self):
        with pytest.raises(InvalidInputError, match="not invertible"):
            GaloisModule((4,), [[[2]]])
        # 2 mod 202 = (0 mod 2, 2 mod 101) cycles with period 100, never reaching 1;
        # it is rejected as invalid however small the closure cap
        with pytest.raises(InvalidInputError, match="not invertible"):
            GaloisModule((202,), [[[2]]], max_closure=10)

    def test_entries_reduced_rowwise(self):
        m = GaloisModule((4, 2), [[[7, 0], [5, 3]]])
        assert m.generators[0] == ((3, 0), (1, 1))

    def test_closure_cap_raises_resource_error(self):
        # a generator of order 100 passes validation; the cap applies to the closure
        for m in (cyclotomic_module(101, max_closure=10),
                  GaloisModule((101,), [[[2]]], max_closure=10)):
            with pytest.raises(ResourceCapError, match=f"^{m.name}: closure exceeds cap 10$"):
                m.closure
        # the cap counts elements: a closure of exactly max_closure is allowed
        assert len(GaloisModule((101,), [[[2]]], max_closure=100).closure) == 100
        with pytest.raises(ResourceCapError, match="^module: closure exceeds cap 99$"):
            GaloisModule((101,), [[[2]]], max_closure=99).closure
        # the same on a non-abelian group with three generators
        assert len(_gl2_3(max_closure=48).closure) == 48
        m = _gl2_3(max_closure=47)
        with pytest.raises(ResourceCapError, match=f"^{m.name}: closure exceeds cap 47$"):
            m.closure

    def test_invertibility_matches_power_loop_oracle(self):
        rng = random.Random(17)
        accepted_count = 0
        for _ in range(2000):
            factors = tuple(rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20))
                            for _ in range(rng.choice((1, 2, 2, 3))))
            mat = random_well_defined_matrix(rng, factors)
            try:
                GaloisModule(factors, [mat], max_closure=1)
                accepted = True
            except InvalidInputError:
                accepted = False
            assert accepted == _power_loop_reaches_identity(mat, factors), (factors, mat)
            accepted_count += accepted
        assert 0 < accepted_count < 2000

    @pytest.mark.parametrize("call", ["check_point", "is_almost_rational", "subgroup_span"])
    @pytest.mark.parametrize("point", [(2.9,), (4.5,), (True,)], ids=str)
    def test_points_must_be_integers(self, call, point):
        # int() would truncate the float and accept the bool
        m = cyclotomic_module(12)
        run = {"check_point": lambda: m.check_point(point),
               "is_almost_rational": lambda: is_almost_rational(m, point),
               "subgroup_span": lambda: subgroup_span(m, [point])}[call]
        with pytest.raises(InvalidInputError, match="integers"):
            run()

    def test_validate_module_from_description(self):
        raw = {"name": "fused", "factors": [4, 2], "galois": [[[1, 0], [1, 1]]]}
        m = validate_module(raw)
        assert m.name == "fused" and m.factors == (4, 2)

    def test_validate_module_flat_row_major(self):
        raw = {"name": "flat", "factors": [4, 2], "galois": [[1, 0, 1, 1]]}
        m = validate_module(raw)
        assert m.generators[0] == ((1, 0), (1, 1))

    def test_validate_module_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            validate_module({"factors": [2, 2], "galois": [[1, 0, 1]]})
        with pytest.raises(InvalidInputError):
            validate_module({"factors": []})
        with pytest.raises(InvalidInputError):
            validate_module([1, 2])

    def test_bad_factors(self):
        with pytest.raises(InvalidInputError):
            GaloisModule((0,), [])
        with pytest.raises(InvalidInputError):
            GaloisModule((), [])

    @pytest.mark.parametrize("factors,gens", [
        ((True, 5), []),
        ((5.0,), []),
        (("5",), []),
        (5, []),
        ((1, 5), [[[1, 0], [0, 2.7]]]),
        ((5,), [[[None]]]),
        ((5,), [[[numpy.True_]]]),
        ((5,), [[[True]]]),
        ((2, 2), [[[1, 0], 3]]),  # a row that is not a sequence
    ])
    def test_constructor_rejects_bool_and_non_integral_values(self, factors, gens):
        # bool is an int subclass and int() truncates floats; neither may slip through
        with pytest.raises(InvalidInputError, match="integers"):
            GaloisModule(factors, gens)

    def test_constructor_accepts_numpy_integers(self):
        m = GaloisModule(numpy.array([4, 2]), [numpy.array([[1, 0], [1, 1]], dtype=numpy.int32)])
        assert m.factors == (4, 2) and m.generators[0] == ((1, 0), (1, 1))
        assert all(type(x) is int for x in m.factors + m.generators[0][1])

    def test_direct_sum_rejects_non_integral_pairs(self):
        with pytest.raises(InvalidInputError, match="integers"):
            direct_sum(constant_module(5), constant_module(5), pairs=[([[2.0]], None)])


class TestClosure:
    def test_mu7_has_six_automorphisms(self):
        assert len(cyclotomic_module(7).closure) == 6

    def test_identity_only(self):
        m = GaloisModule((6,), [[[1]]])
        assert len(m.closure) == 1

    def test_scalar_two_on_rank_two_mod_5(self):
        m = GaloisModule((5, 5), [[[2, 0], [0, 2]]])
        assert len(m.closure) == 4

    def test_closure_is_deterministic_and_contains_identity(self):
        m = cyclotomic_module(16)
        again = cyclotomic_module(16)
        assert m.closure == again.closure
        assert m.identity() in m.closure
        assert list(m.closure) == sorted(m.closure)

    def test_closure_matches_bfs_oracle_on_corpus(self, module_corpus):
        for m in module_corpus:
            assert m.closure == _bfs_closure(m), m.name

    def test_closure_matches_bfs_oracle_on_gl2_3(self):
        m = _gl2_3()
        assert len(m.closure) == 48
        assert m.closure == _bfs_closure(m)

    def test_closure_of_gl2_2_from_two_involutions(self):
        # GL_2(Z/2) from two involutions h, g: the products of at most one of
        # each give 4 of the 6 elements; the search must go on to length 3
        h, g = ((0, 1), (1, 0)), ((1, 0), (1, 1))
        m = GaloisModule((2, 2), [h, g])
        one = m.identity()
        assert len({m.compose(x, y) for x in (one, h) for y in (one, g)}) == 4
        assert len(m.closure) == 6
        assert m.closure == _bfs_closure(m)

    def test_repeated_and_identity_generators_change_nothing(self):
        base = _gl2_3()
        one, a, b, c = base.identity(), *base.generators
        for gens in ([a, a, b, c], [one, a, b, c], [a, b, one, b, c, a], [one, one]):
            m = GaloisModule((3, 3), gens)
            assert m.closure == _bfs_closure(m)
        assert GaloisModule((3, 3), [a, a, b, c]).closure == base.closure
        assert GaloisModule((3, 3), [one, one]).closure == (one,)

    def test_closure_closed_under_composition(self, module_corpus):
        rng = random.Random(7)
        for m in rng.sample(module_corpus, 40):
            closure = set(m.closure)
            sample = rng.sample(list(closure), min(6, len(closure)))
            for a in sample:
                for b in sample:
                    assert m.compose(a, b) in closure


class TestApply:
    def test_identity_fixes_everything(self):
        m = cyclotomic_module(9)
        for p in m.points():
            assert apply_automorphism(m, m.identity(), p) == p

    def test_multiplication_by_three_mod_7(self):
        m = cyclotomic_module(7)
        three = next(a for a in m.closure if a == ((3,),))
        assert apply_automorphism(m, three, (2,)) == (6,)

    def test_mixed_factor_matrix_vector_product(self):
        m = GaloisModule((4, 2), [[[3, 0], [1, 1]]])
        assert apply_automorphism(m, m.generators[0], (1, 1)) == (3, 0)

    def test_additivity(self, module_corpus):
        rng = random.Random(11)
        for m in rng.sample(module_corpus, 30):
            pts = list(m.points())
            for _ in range(5):
                p, q = rng.choice(pts), rng.choice(pts)
                a = rng.choice(m.closure)
                assert apply_automorphism(m, a, m.add(p, q)) == \
                    m.add(apply_automorphism(m, a, p), apply_automorphism(m, a, q))


class TestPredicate:
    def test_mu3_order_three_point_is_ar(self):
        m = cyclotomic_module(3)
        assert is_almost_rational(m, (1,)) and is_almost_rational(m, (2,))

    def test_mu5_order_five_point_is_not_ar(self):
        m = cyclotomic_module(5)
        assert not is_almost_rational(m, (1,))
        # the killing pair from the cyclotomic argument: 3 + 4 = 2 mod 5
        assert (3 + 4) % 5 == 2

    def test_constant_module_points_are_ar(self):
        m = constant_module(9)
        assert all(is_almost_rational(m, p) for p in m.points())

    def test_mu6_is_entirely_ar(self):
        m = cyclotomic_module(6)
        assert all(is_almost_rational(m, p) for p in m.points())

    def test_zero_point_always_ar(self, module_corpus):
        for m in module_corpus[:80]:
            assert is_almost_rational(m, m.zero())

    def test_naive_oracle_matches_on_examples(self):
        for m in (cyclotomic_module(5), cyclotomic_module(6), cyclotomic_module(12),
                  constant_module(8), homothety_module(16, 2, 1)):
            for p in m.points():
                assert is_almost_rational(m, p) == is_almost_rational_naive(m, p)


class TestEnumeration:
    def test_mu11_only_zero(self):
        rep = almost_rational_set(cyclotomic_module(11))
        assert rep.ar_points == ((0,),)

    def test_mu12_points_of_order_dividing_six(self):
        rep = almost_rational_set(cyclotomic_module(12))
        assert rep.ar_points == ((0,), (2,), (4,), (6,), (8,), (10,))

    def test_constant_7_all_points(self):
        rep = almost_rational_set(constant_module(7))
        assert len(rep.ar_points) == 7 and rep.verdict == "not-checked"

    def test_constant_6_all_points(self):
        assert len(almost_rational_set(constant_module(6)).ar_points) == 6

    def test_reports_compare_by_content(self):
        # elapsed_ms differs from run to run, so equality leaves it out
        a, b = (almost_rational_set(cyclotomic_module(12), expected=[(2,)]) for _ in range(2))
        b.elapsed_ms += 1
        assert a == b and hash(a) == hash(b)
        assert a != almost_rational_set(cyclotomic_module(12), expected=[(4,)])  # E = <4>
        assert a != almost_rational_set(cyclotomic_module(12))  # no E

    def test_expected_comparison_verdicts(self):
        rep = almost_rational_set(cyclotomic_module(11), expected=[(0,)])
        assert rep.verdict == "pass"
        rep = almost_rational_set(cyclotomic_module(11), expected=[(1,)])
        assert rep.verdict == "fail"

    def test_point_cap(self):
        with pytest.raises(ResourceCapError):
            almost_rational_set(constant_module(100), max_points=99)

    def test_verdict_is_derived_from_point_sets(self):
        # no stored verdict, so no report can disagree with its own point sets
        m = cyclotomic_module(3)  # every point of mu_3 is a.r.
        for gens, verdict in (([(0,)], "fail"), ([(1,)], "pass"), ([(2,), (1,)], "pass")):
            rep = almost_rational_set(m, expected=gens)
            assert "verdict" not in vars(rep)
            assert rep.verdict == _set_verdict(rep.ar_points, rep.expected) == verdict
        assert almost_rational_set(m).verdict == "not-checked"

    def test_block_kernel_matches_naive_oracle(self, monkeypatch):
        mods = [cyclotomic_module(n) for n in (8, 12, 30, 101)]
        mods.append(direct_sum(constant_module(10), cyclotomic_module(10)))
        mods.append(quotient_by(direct_sum(constant_module(6), cyclotomic_module(6)), [(3, 3)]))
        mods.append(GaloisModule((3, 3), [[[0, 2], [1, 0]], [[1, 1], [0, 1]]]))
        mods.append(_gl2_3())  # non-abelian, two generators taking turns
        mods.append(GaloisModule((4, 4), [[[1, 1], [0, 1]], [[3, 0], [0, 3]]]))
        for block in (galmod.ORBIT_BLOCK, 4):  # 4 rows: blocks halve to single points
            monkeypatch.setattr(galmod, "ORBIT_BLOCK", block)
            for m in mods:
                bad = _not_ar_mask(m, numpy.arange(m.point_count))
                for idx, p in enumerate(m.points()):
                    assert (not bad[idx]) == is_almost_rational_naive(m, p), (m.name, p, block)

    def test_kernel_refuses_int64_overflow(self):
        # (n - 1) * p exceeds 2**63 here, so int64 codes would wrap silently
        n = 3 ** 25 - 1
        m = GaloisModule((n,), [[[3]], [[n - 1]]])
        assert not is_almost_rational_naive(m, (n - 5,))
        with pytest.raises(ResourceCapError, match="overflow"):
            is_almost_rational(m, (n - 5,))
        huge = GaloisModule((2 ** 64,), [[[2 ** 64 - 1]]])
        with pytest.raises(ResourceCapError, match="overflow"):
            is_almost_rational(huge, (2 ** 63 + 1,))

    def test_kernel_is_exact_past_two_to_the_31_points(self):
        # (d - 1)^2 < 2**63: every product fits, though |M| > 2**31
        d = 3 * 10 ** 9
        m = GaloisModule((d,), [[[d - 1]]])
        pts = [(1,), (10 ** 9,), (d // 4,), (d // 2,), (d - 1,)]
        fast = [is_almost_rational(m, p) for p in pts]
        assert "closure" not in vars(m)
        assert fast == [is_almost_rational_naive(m, p) for p in pts]
        assert fast == [True, True, False, True, True]  # d/4: 4p = 0, 2p != 0

    def test_orbits_grow_by_doubling(self, monkeypatch):
        # the orbit of 1 in mu_65537 is all 2**16 units: each step maps X by
        # t = g^(2^j) and squares t, so 16 steps fill it and g^(2^16) = 1 ends
        # the growth; each step's image and the 2p - x lookup form grid codes once
        calls, codes = [], galmod._codes
        monkeypatch.setattr(galmod, "_codes", lambda *a: calls.append(1) or codes(*a))
        assert _not_ar_mask(cyclotomic_module(65537), numpy.array([1])).tolist() == [True]
        assert len(calls) == 16 + 1

    def test_refuses_before_any_smith_normal_form(self, monkeypatch):
        # |M| = 5**1000: the int64 and span bounds refuse before the cubic-time SNFs
        m = GaloisModule((5,) * 1000, [])
        calls = []
        monkeypatch.setattr(galmod, "smith_normal_form", lambda *a: calls.append(a))
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="overflow"):
            almost_rational_set(m)
        with pytest.raises(ResourceCapError, match="overflow"):
            fixed_points(m)
        assert time.perf_counter() - start < 1 and not calls

    def test_oversized_homothety_is_refused_before_its_matrices(self):
        # m^dim >= 2**63 is refused before any dim x dim matrix exists
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError,
                               match=r"^hom_5_e1_d3000: 5\^3000 points overflow int64 codes$"):
                homothety_module(5, 1, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 5
        with pytest.raises(ResourceCapError, match="overflow"):
            homothety_module(2, 1, 63)
        assert homothety_module(2, 1, 62).point_count == 2 ** 62
        assert homothety_module(1, 1, 100).point_count == 1

    def test_int64_refusal_is_one_short_line(self):
        with pytest.raises(ResourceCapError) as exc:
            almost_rational_set(GaloisModule((5,) * 3000, [], name="big"))
        assert str(exc.value) == "big: rank 3000 with largest factor 5 overflows int64 products"

    def test_rank_64_is_refused_and_rank_63_computes(self):
        # only factors of 1 reach rank 64 below 2**63 points; a block's keys
        # decode over 1 + rank numpy axes, and numpy allows 64
        neg = [[4 * (i == j) if i >= 61 else int(i == j) for j in range(63)] for i in range(63)]
        m = GaloisModule((1,) * 61 + (5, 5), [neg])
        p = (0,) * 61 + (1, 2)
        assert is_almost_rational(m, p) and is_almost_rational_naive(m, p)
        assert len(almost_rational_set(m).ar_points) == 25
        assert len(subgroup_span(m, [p])) == 5
        wide = GaloisModule((1,) * 63 + (5,), [], name="wide")
        for call in (lambda: almost_rational_set(wide), lambda: subgroup_span(wide, []),
                     lambda: is_almost_rational(wide, (0,) * 64), lambda: fixed_points(wide)):
            with pytest.raises(ResourceCapError) as exc:
                call()
            assert str(exc.value) == "wide: rank 64 exceeds 63, the most numpy's array axes allow"

    def test_block_keys_never_wrap(self):
        # |M| = 4e18: keys r*|M| + code fit in int64 only for blocks of two points
        d = 2 * 10 ** 9
        m = GaloisModule((d, d), [[[d - 1, 0], [0, d - 1]]])
        pts = [(0, 0), (1, 2), (d // 4, 0), (d // 2, d // 4), (3, d - 1), (d // 4, d // 4)]
        bad = _not_ar_mask(m, numpy.array([x * d + y for x, y in pts], dtype=numpy.int64))
        assert [not b for b in bad] == [is_almost_rational_naive(m, p) for p in pts]
        assert bad.tolist() == [False, False, True, True, False, True]

    def test_blocks_halve_until_orbits_fit(self, monkeypatch):
        # blocks of several points halve until their orbits fit in ORBIT_BLOCK
        # keys; with 20,000 keys, the 4620 points of mu_4620 (orbits of up to
        # 960 points) run over many blocks.  Each block starts from
        # np.arange(its width), which no other step of the kernel calls.
        monkeypatch.setattr(galmod, "ORBIT_BLOCK", 20_000)
        widths, arange = [], numpy.arange

        def spy(n, *args, **kwargs):
            widths.append(n)
            return arange(n, *args, **kwargs)

        m = cyclotomic_module(4620)
        codes = numpy.arange(m.point_count)
        monkeypatch.setattr(numpy, "arange", spy)
        bad = _not_ar_mask(m, codes)
        monkeypatch.undo()
        assert widths[0] == m.point_count and len(widths) > 10
        points = list(m.points())
        ar = [p for idx, p in enumerate(points) if not bad[idx]]
        assert ar == [p for p in points if m.order_of(p) in (1, 2, 3, 6)]
        assert "closure" not in vars(m)

    def test_orbit_keys_stay_within_orbit_block(self, monkeypatch):
        # 13,200 automorphisms and orbits of up to 120 points: every sorted key
        # array of a block stays within ORBIT_BLOCK = 1000 rows
        gl = GaloisModule((11, 11), [[[2, 0], [0, 1]], [[10, 1], [10, 0]]])
        m = direct_sum(gl, constant_module(3))
        monkeypatch.setattr(galmod, "ORBIT_BLOCK", 1000)
        haystacks, sort = [], numpy.sort

        def spy(a, *args, **kwargs):
            haystacks.append(len(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(numpy, "sort", spy)
        bad = _not_ar_mask(m, numpy.arange(m.point_count))
        monkeypatch.undo()
        assert "closure" not in vars(m)
        assert len(haystacks) > 1 and max(haystacks) <= 1000
        assert len(m.closure) == 13_200
        points = list(m.points())
        assert tuple(p for idx, p in enumerate(points) if not bad[idx]) == _full_grid_ar(m)

    def test_orbit_cap_counts_orbit_points(self, monkeypatch):
        # mu_101: the orbit of 1 has exactly 100 points
        for cap in (100, 10 ** 6):
            m = cyclotomic_module(101, max_closure=cap)
            assert almost_rational_set(m).ar_points == ((0,),)
            assert not is_almost_rational(m, (1,))
        m = cyclotomic_module(101, max_closure=99)
        for call in (lambda: almost_rational_set(m), lambda: is_almost_rational(m, (1,))):
            with pytest.raises(ResourceCapError, match="^mu_101: orbit exceeds cap 99$"):
                call()
        # mu_4620 does not split over F, so the kernel meets its orbits of 960 points
        kernel, calls = galmod._not_ar_mask, []
        monkeypatch.setattr(galmod, "_not_ar_mask", lambda m, c: calls.append(1) or kernel(m, c))
        assert len(almost_rational_set(cyclotomic_module(4620, max_closure=960)).ar_points) == 6
        with pytest.raises(ResourceCapError, match="^mu_4620: orbit exceeds cap 959$"):
            almost_rational_set(cyclotomic_module(4620, max_closure=959))
        assert calls == [1, 1]
        # GL_2(Z/3) has 48 elements but orbits of at most 8 points on (Z/3)^2
        full = almost_rational_set(_gl2_3()).ar_points
        assert almost_rational_set(_gl2_3(max_closure=8)).ar_points == full
        with pytest.raises(ResourceCapError, match="^gl2_3: orbit exceeds cap 7$"):
            almost_rational_set(_gl2_3(max_closure=7))


def _set_verdict(ar, span):
    """The full set comparison: "pass" iff the a.r. points are the span's points."""
    return "pass" if len(ar) == len(span) and set(ar) == set(span) else "fail"


def _text_from_tuples(rep):
    """The text block written point by point from the report's tuples."""
    lines = [f"name    : {rep.name}", f"points  : {rep.points}",
             f"a.r.    : {len(rep.ar_points)} point(s)",
             "          " + " ".join("(" + ",".join(map(str, p)) + ")" for p in rep.ar_points)]
    if rep.expected is not None:
        lines.append(f"expected: {len(rep.expected)} point(s)")
    return "\n".join(lines + [f"verdict : {rep.verdict}", "ms      : 0"]) + "\n"


class TestGridReports:
    """almost_rational_set reports hold grid codes; the verdict compares codes,
    on M/F when F is taken off, and the full set comparison is the oracle."""

    @pytest.mark.parametrize("bound", [galmod.WHOLE_MODULE_POINTS, 0], ids=["whole", "quotient"])
    def test_code_verdict_matches_set_comparison_on_corpus(self, module_corpus, bound,
                                                           monkeypatch):
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", bound)
        rng = random.Random(27)
        verdicts = []
        for m in module_corpus:
            ar = almost_rational_set(m).ar_points
            fixed = _fixed_generators(m)[0]
            candidates = [fixed, fixed + rng.sample(ar, min(3, len(ar))), rng.sample(ar, 1),
                          [tuple(rng.randrange(d) for d in m.factors)]]
            for gens in candidates:
                rep = almost_rational_set(m, expected=gens)
                verdicts.append(_set_verdict(ar, subgroup_span(m, gens)))
                assert rep.verdict == verdicts[-1], (m.name, gens)
                assert rep.ar_points == ar and rep.expected == subgroup_span(m, gens)
        assert {"pass", "fail"} <= set(verdicts)

    def test_orders_decide_when_the_projections_agree(self, monkeypatch):
        # every point of Z/4 is rational and a.r., so M/F is one point and pi(E) = A_Q
        # for every E; only |E| = |F| |pi(E)| tells <2> (2 points) from <1> and <3>
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", 0)
        m = constant_module(4)
        verdicts = [almost_rational_set(m, expected=[(x,)]).verdict for x in range(4)]
        assert verdicts == ["fail", "pass", "fail", "pass"]

    def test_expected_generators_are_checked(self):
        with pytest.raises(InvalidInputError):
            almost_rational_set(cyclotomic_module(12), expected=[(12,)])

    def test_point_tuples_are_decoded_on_first_read(self):
        rep = almost_rational_set(cyclotomic_module(12), expected=[(2,)])
        assert not {"ar_points", "expected", "ar_codes", "expected_codes"} & set(vars(rep))
        assert rep.verdict == "pass" and "ar_points" not in vars(rep)
        assert rep.ar_points == rep.expected == ((0,), (2,), (4,), (6,), (8,), (10,))
        assert rep.ar_points is rep.ar_points  # decoded once, then kept

    @pytest.mark.parametrize("bound", [galmod.WHOLE_MODULE_POINTS, 0], ids=["whole", "quotient"])
    def test_reads_span_each_set_once(self, bound, monkeypatch):
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", bound)
        spans, orders = [], []
        span, order = galmod._span_codes, galmod._subgroup_order
        monkeypatch.setattr(galmod, "_span_codes",
                            lambda module, *a: spans.append(module.name) or span(module, *a))
        monkeypatch.setattr(galmod, "_subgroup_order",
                            lambda *a: orders.append(a) or order(*a))
        m = direct_sum(constant_module(9), cyclotomic_module(9))  # A = Z/9 + 3 mu_9
        rep = almost_rational_set(m, expected=[(1, 0), (0, 3)])
        for _ in range(2):
            assert rep.verdict == "pass"
            rep.to_text(), rep.to_json_line()
        # A and E are spanned in M; on the quotient route pi(E) is spanned in M/F
        assert sorted(spans) == [m.name, m.name] + [f"{m.name}/F"] * (bound == 0)
        assert len(orders) == (bound == 0)

    def test_expected_set_is_spanned_under_the_report_cap(self):
        m = direct_sum(constant_module(7), cyclotomic_module(7))  # A = const_7, 7 points
        gens = [(1, 0), (0, 1)]  # E = M, 49 points
        rep = almost_rational_set(m, max_points=10, expected=gens)
        assert rep.verdict == "fail" and len(rep.ar_points) == 7
        for read in (lambda: rep.expected, rep.to_json_line, rep.to_text):
            with pytest.raises(ResourceCapError):
                read()
        rep = almost_rational_set(m, max_points=49, expected=gens)
        line = json.loads(rep.to_json_line())
        assert line["verdict"] == "fail" and len(line["expected"]) == 49
        assert "expected: 49 point(s)" in rep.to_text()

    @pytest.mark.parametrize("chunk", [galmod.ROW_CHUNK, 3])
    def test_emission_matches_the_tuple_path(self, module_corpus, chunk, monkeypatch):
        monkeypatch.setattr(galmod, "ROW_CHUNK", chunk)
        reports = []
        for m in module_corpus[::5]:
            reports.append(almost_rational_set(m))
            reports.append(almost_rational_set(m, expected=_fixed_generators(m)[0]))
        for rep in reports:
            assert rep.to_json_line() == json.dumps(rep.to_json(), separators=(",", ":")) + "\n"
            assert rep.to_text() == _text_from_tuples(rep), rep.name


def _full_grid_ar(m):
    """Reference a.r. set: every grid point against D_p from every closure
    element, sharing no code with the orbit kernel.  Per chunk of about 2**20
    pairs, the code i*|M| + code(d) stands for d in D_{p_i}; p_i is not a.r.
    when one of its own nonzero -d is among the sorted codes."""
    pts = numpy.array(list(m.points()), dtype=numpy.int64).reshape(-1, m.rank)
    mats = numpy.array(m.closure, dtype=numpy.int64)
    d = numpy.array(m.factors, dtype=numpy.int64)
    bad = []
    step = max(1, 2 ** 20 // len(mats))
    for start in range(0, len(pts), step):
        p = pts[start:start + step]
        diff = (numpy.einsum("sij,nj->nsi", mats, p) - p[:, None, :]) % d
        offset = numpy.arange(len(p))[:, None] * m.point_count
        codes = numpy.ravel_multi_index(tuple(numpy.moveaxis(diff, -1, 0)), m.factors)
        negs = numpy.ravel_multi_index(tuple(numpy.moveaxis(-diff % d, -1, 0)), m.factors)
        hay = numpy.sort(codes + offset, axis=None)
        pos = numpy.minimum(numpy.searchsorted(hay, negs + offset), hay.size - 1)
        bad += ((hay[pos] == negs + offset) & (negs != 0)).any(axis=1).tolist()
    return tuple(p for p, b in zip(m.points(), bad) if not b)


def _grid_index(m, pts):
    """Grid index of each row of an (n, k) array of points reduced mod the factors."""
    return numpy.ravel_multi_index(tuple((pts % m.factors).T), m.factors)


def _rational_quotient(m):
    return quotient_presentation(m, _fixed_generators(m)[0])


def _least_orbit_codes(m):
    """Reference labels: breadth-first orbits over the closure, in Python; each
    grid code maps to the least grid code of its orbit."""
    points = list(m.points())
    index = {p: i for i, p in enumerate(points)}
    expected = [None] * len(points)
    for p in points:
        if expected[index[p]] is None:
            orbit = {apply_automorphism(m, a, p) for a in m.closure}
            least = min(index[x] for x in orbit)
            for x in orbit:
                expected[index[x]] = least
    return expected


def _ar_or_refusal(m, **kwargs):
    """almost_rational_set's a.r. tuple, or the message of its ResourceCapError."""
    try:
        return almost_rational_set(m, **kwargs).ar_points
    except ResourceCapError as exc:
        return str(exc)


def _cyclic_modules():
    """mu_n for n < 400 and the homotheties u^e on Z/m for m < 300, e <= 3."""
    mods = [cyclotomic_module(n) for n in range(1, 400)]
    return mods + [homothety_module(m, e, 1) for m in range(1, 300) for e in (1, 2, 3)]


class TestOrbitRepresentatives:
    """almost_rational_set labels M itself up to WHOLE_MODULE_POINTS points,
    and past them runs on M/F, F the rational points, the kernel on a lift of
    one point per Galois orbit; the full grid is the reference.  Tests of the
    quotient route's own steps set WHOLE_MODULE_POINTS to 0."""

    @pytest.mark.parametrize("bound", [galmod.WHOLE_MODULE_POINTS, 0], ids=["whole", "quotient"])
    def test_matches_full_grid_on_corpus(self, module_corpus, bound, monkeypatch):
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", bound)
        for m in module_corpus:
            expected = _full_grid_ar(m)
            assert almost_rational_set(m).ar_points == expected, m.name
            bad = _not_ar_mask(m, numpy.arange(m.point_count))  # every grid code in one call
            assert tuple(p for p, b in zip(m.points(), bad) if not b) == expected, m.name

    @pytest.mark.parametrize("bound", [galmod.WHOLE_MODULE_POINTS, 0], ids=["whole", "quotient"])
    def test_matches_full_grid_on_eisenstein_models(self, bound, monkeypatch):
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", bound)
        for N in primes_in(23, 300):
            m = eisenstein_model(N).module
            assert almost_rational_set(m).ar_points == _full_grid_ar(m), N

    def test_labels_constant_under_quotient_generators(self, module_corpus):
        for m in module_corpus:
            q = _rational_quotient(m).module
            pts = numpy.array(list(q.points()), dtype=numpy.int64)
            lab = _orbit_labels(q)
            for g in q.generators:
                img = _grid_index(q, pts @ numpy.array(g, dtype=numpy.int64).T)
                assert (lab[img] == lab).all(), m.name

    def test_labels_are_least_points_of_quotient_orbits(self, module_corpus):
        # breadth-first orbits over the quotient's closure, in Python
        for m in random.Random(41).sample(module_corpus, 40):
            q = _rational_quotient(m).module
            assert _orbit_labels(q).tolist() == _least_orbit_codes(q), m.name

    def test_lift_is_a_section_of_the_projection(self, module_corpus):
        for m in list(module_corpus) + _cyclic_modules():
            pres = _rational_quotient(m)
            points, parents = list(pres.module.points()), list(m.points())
            lifts = pres.lift(numpy.arange(len(points)))  # grid codes in, grid codes out
            assert lifts.shape == (len(points),) and lifts.dtype == numpy.int64, m.name
            for code, (q, c) in enumerate(zip(points, lifts.tolist())):
                assert pres.project(parents[c]) == q, (m.name, q)
                assert pres.lift(numpy.array([code])).tolist() == [c], (m.name, q)

    def test_rational_quotient_has_order_of_module_over_fixed(self, module_corpus):
        for m in module_corpus:
            fixed = [p for p in m.points() if all(apply_automorphism(m, g, p) == p
                                                  for g in m.generators)]
            assert _rational_quotient(m).module.point_count * len(fixed) == m.point_count, m.name

    @pytest.mark.parametrize("module,reps", [
        (eisenstein_model(191).module, 0),  # n = 95 odd: const_n + mu_n
        (constant_module(12), 0),  # M = F
        (GaloisModule((2,) * 6, []), 0),
        (cyclotomic_module(101), 0),  # F = 0
        (eisenstein_model(97).module, 3),  # n = 8 even: glued along the 2-torsion
        (eisenstein_model(41).module, 0),  # n = 10: F_2 = M_2 and F_5 = 0
        (cyclotomic_module(4620), 32),  # F = {0, 2310} is no summand of Z/4
        (homothety_module(12, 1, 1), 4),  # F = {0, 6} is no summand of Z/4
    ], ids=["eis_191", "const_12", "trivial_2^6", "mu_101", "eis_97", "eis_41", "mu_4620",
            "hom_12_e1_d1"])
    def test_kernel_sees_one_point_per_orbit(self, module, reps, monkeypatch):
        # one kernel call on one point per orbit of M/F, unless the lift of
        # M/F splits M (reps = 0): then the orbit labels give the a.r. set.
        # The lift is built primary part by primary part, so M splits
        # whenever each F_p is 0 or M_p
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", 0)  # the quotient route
        blocks = []
        kernel = galmod._not_ar_mask

        def spy(m, pts):
            blocks.append(len(pts))
            return kernel(m, pts)

        monkeypatch.setattr(galmod, "_not_ar_mask", spy)
        rep = almost_rational_set(module)
        assert blocks == ([reps] if reps else [])
        assert "closure" not in vars(module)  # the reference below builds it
        assert rep.ar_points == _full_grid_ar(module)

    def test_split_decision_matches_brute_force(self, module_corpus, monkeypatch):
        # s splits M iff s(q + u_j) = s(q) + s(u_j) for every q and unit
        # vector u_j of M/F (then s is additive, by induction) and s(g' q) =
        # g s(q) for every generator g, g' its map on M/F; checked point by
        # point here, and the kernel runs exactly when s does not split M
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", 0)  # the quotient route
        mods = list(module_corpus) + [eisenstein_model(N).module for N in (41, 97, 191, 241)]
        mods += [cyclotomic_module(n) for n in (8, 12, 60, 4620)] + _cyclic_modules()
        kernel, calls = galmod._not_ar_mask, []
        monkeypatch.setattr(galmod, "_not_ar_mask", lambda m, c: calls.append(1) or kernel(m, c))
        outcomes = []
        for m in mods:
            gens = _fixed_generators(m)[0]
            if not gens:  # F = 0: the identity lift
                continue
            pres = quotient_presentation(m, gens)
            q, parents = pres.module, list(m.points())
            qpts = list(q.points())
            index = {p: i for i, p in enumerate(qpts)}
            lift = [parents[c] for c in pres.lift(numpy.arange(len(qpts))).tolist()]
            units = [tuple(int(i == j) % e for i, e in enumerate(q.factors)) for j in range(q.rank)]
            additive = all(lift[index[q.add(p, u)]] == m.add(lift[i], lift[index[u]])
                           for i, p in enumerate(qpts) for u in units)
            equivariant = all(lift[index[apply_automorphism(q, h, p)]]
                              == apply_automorphism(m, g, lift[i])
                              for g, h in zip(m.generators, q.generators)
                              for i, p in enumerate(qpts))
            split = pres.splits
            assert split == (additive and equivariant), m.name
            calls.clear()
            almost_rational_set(m)
            assert calls == ([] if split else [1]), m.name
            outcomes.append(split)
        assert outcomes.count(True) > 10 and outcomes.count(False) > 10

    def test_cyclic_modules_split_exactly_when_each_primary_part_does(self, monkeypatch):
        # a cyclic p-group is indecomposable, so Z/m splits over F exactly
        # when each p^a || m has F_p = 0 or F_p = Z/p^a, i.e. v_p(|F|) in {0, a};
        # the primary-part section then makes the lift split, and no kernel runs
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", 0)  # the quotient route
        kernel, calls = galmod._not_ar_mask, []
        monkeypatch.setattr(galmod, "_not_ar_mask", lambda m, c: calls.append(1) or kernel(m, c))
        routes = []
        for m in _cyclic_modules():
            n_fixed = _fixed_generators(m)[1]
            pure = all(sympy.multiplicity(p, n_fixed) in (0, a)
                       for p, a in sympy.factorint(m.factors[0]).items())
            calls.clear()
            assert almost_rational_set(m).ar_points == _full_grid_ar(m), m.name
            assert (calls == []) == pure, m.name
            routes.append(pure)
        assert routes.count(True) > 100 and routes.count(False) > 100

    def test_no_fixed_points_skip_the_quotient(self, monkeypatch):
        # F = 0: M/F is M itself, lifted by the identity
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", 0)  # the quotient route
        mods = [cyclotomic_module(101), _gl2_3(), GaloisModule((1001,), [[[1000]]])]
        monkeypatch.setattr(galmod, "quotient_presentation", None)
        monkeypatch.setattr(galmod, "_not_ar_mask", None)
        for m in mods:
            assert _fixed_generators(m)[1] == 1
            assert almost_rational_set(m).ar_points == _full_grid_ar(m), m.name

    def test_small_modules_skip_the_quotient(self, monkeypatch):
        # |M| <= min(WHOLE_MODULE_POINTS, max_points): M is labelled whole
        # (H = 0), with no Smith normal form, quotient or kernel, also where M
        # does not split over F (all four run the kernel on the quotient route)
        bound = galmod.WHOLE_MODULE_POINTS
        mods = [cyclotomic_module(4), homothety_module(120, 1, 1), eisenstein_model(97).module,
                cyclotomic_module(bound)]
        expected = [_full_grid_ar(m) for m in mods]
        for name in ("smith_normal_form", "quotient_presentation", "_not_ar_mask"):
            monkeypatch.setattr(galmod, name, None)
        for m, ar in zip(mods, expected):
            assert m.point_count <= bound
            assert almost_rational_set(m).ar_points == ar, m.name
            assert almost_rational_set(m, max_points=m.point_count).ar_points == ar, m.name

    def test_one_point_past_the_bound_takes_the_quotient_route(self, monkeypatch):
        # only past the bound are the rational points F computed
        bound = galmod.WHOLE_MODULE_POINTS
        fixed, calls = galmod._fixed_generators, []
        monkeypatch.setattr(galmod, "_fixed_generators",
                            lambda m: calls.append(m.name) or fixed(m))
        for n in (bound - 1, bound, bound + 1):
            almost_rational_set(cyclotomic_module(n))
        assert calls == [f"mu_{bound + 1}"]
        # mu_2048 does not split over F = {0, 1024}: past the bound the kernel runs
        m = cyclotomic_module(2048)
        whole = almost_rational_set(m).ar_points
        kernel, blocks = galmod._not_ar_mask, []
        monkeypatch.setattr(galmod, "_not_ar_mask", lambda m, c: blocks.append(1) or kernel(m, c))
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", m.point_count - 1)
        assert almost_rational_set(m).ar_points == whole
        assert blocks == [1]

    def test_point_cap_below_the_module_takes_the_quotient_route(self, monkeypatch):
        # max_points < |M| <= WHOLE_MODULE_POINTS: the quotient route runs, and
        # |F|, |M/F| and the output are checked as they are past the bound
        mods = [cyclotomic_module(4), homothety_module(120, 1, 1), eisenstein_model(97).module,
                homothety_module(12, 1, 1), constant_module(100), eisenstein_model(41).module]

        def outcomes():
            return {(m.name, cap): _ar_or_refusal(m, max_points=cap)
                    for m in mods for cap in range(1, m.point_count)}

        capped = outcomes()
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", 0)
        assert capped == outcomes()
        assert capped["mu_4", 1] == "mu_4: 2 rational points exceeds the cap 1"
        assert capped["mu_4", 2] == ((0,), (2,))
        assert capped["hom_120_e1_d1", 50] == "hom_120_e1_d1/F: 60 points exceeds the cap 50"
        assert capped["eis_97", 7] == "eis_97: 8 rational points exceeds the cap 7"
        assert capped["const_100", 99] == "const_100: 100 rational points exceeds the cap 99"

    def test_orbit_cap_refusals_match_the_quotient_route(self, monkeypatch):
        # F is fixed pointwise, so G(f + x) = f + G x: the orbits of M have the
        # sizes of the orbits of the lifts, and max_closure refuses the same
        # modules with the same message on every route
        mods = [cyclotomic_module(4), homothety_module(120, 1, 1), eisenstein_model(97).module,
                homothety_module(12, 1, 1), eisenstein_model(41).module, cyclotomic_module(101),
                _gl2_3()]

        def outcomes():
            return {(m.name, cap): _ar_or_refusal(GaloisModule(m.factors, m.generators,
                                                               name=m.name, max_closure=cap))
                    for m in mods for cap in range(1, len(m.closure) + 1)}

        whole = outcomes()
        monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", 0)
        assert whole == outcomes()
        # the largest refused cap is one below the largest orbit
        refused = {m.name: max(cap for name, cap in whole if name == m.name
                               and isinstance(whole[name, cap], str)) for m in mods}
        assert refused == {"mu_4": 1, "hom_120_e1_d1": 31, "eis_97": 3, "hom_12_e1_d1": 3,
                           "eis_41": 3, "mu_101": 99, "gl2_3": 7}
        assert whole["eis_97", 3] == "eis_97: orbit exceeds cap 3"

    def test_ar_paths_never_build_the_closure(self, module_corpus):
        def fresh(m):  # the corpus has built its closures already
            return GaloisModule(m.factors, m.generators, name=m.name, max_closure=m.max_closure)

        modules = [fresh(m) for m in module_corpus]
        modules += [eisenstein_model(N).module for N in (23, 37, 191, 2003, 10007, 100003)]
        modules += [homothety_module(m, e, 1) for m in (97, 250, 289) for e in (1, 2, 3)]
        for m in modules:
            ar = almost_rational_set(m).ar_points
            assert is_almost_rational(m, ar[-1]), m.name
            assert "closure" not in vars(m), m.name

    def test_rational_expansion_holds_one_python_copy(self):
        # no Galois generators, so every point is rational: M/F is one point
        # and the whole output comes from expanding F's 16 generators
        m = GaloisModule((2,) * 16, [])
        almost_rational_set(GaloisModule((2,) * 3, []))  # imports outside the trace
        tracemalloc.start()
        try:
            rep = almost_rational_set(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.ar_points) == 2 ** 16
        output = sys.getsizeof(rep.ar_points) + sum(map(sys.getsizeof, rep.ar_points))
        assert peak < 1.5 * output


class TestCommutingGenerators:
    """Galois acts on roots of unity through the cyclotomic character, so every
    constructor's generators commute and orbits close in one round; generators
    that do not commute keep the loops that run until nothing moves."""

    NON_ABELIAN = [
        # one pass of swap then transvection leaves orbits apart: it would find 9 a.r. points
        GaloisModule((3, 3), [[[0, 1], [1, 0]], [[1, 0], [1, 1]]], name="swap_transvection_3"),
        GaloisModule((4, 4), [[[0, 1], [1, 0]], [[1, 0], [0, 3]]], name="swap_diag_4"),
    ]

    def test_every_constructor_yields_commuting_generators(self):
        mods = [cyclotomic_module(n) for n in range(1, 400)]
        mods += [homothety_module(m, e, dim)
                 for m in range(1, 80) for e in (1, 2, 3) for dim in (1, 2)]
        mods += [direct_sum(f(x), cyclotomic_module(y)) for x in range(1, 30) for y in (8, 15, 24)
                 for f in (constant_module, cyclotomic_module)]
        for N in primes_in(23, 3000):
            m = eisenstein_model(N).module
            mods += [m, _rational_quotient(m).module]
        assert [m.name for m in mods if not m.commutes] == []

    def test_non_abelian_modules_do_not_commute(self):
        assert not any(m.commutes for m in self.NON_ABELIAN + [_gl2_3()])
        assert GaloisModule((3, 3), [[[0, 1], [1, 0]]] * 2).commutes  # a generator with itself

    def test_labels_take_one_image_per_generator(self, monkeypatch):
        calls, image = [], galmod._image
        monkeypatch.setattr(galmod, "_image", lambda *a: calls.append(1) or image(*a))
        for n in (8, 15, 24, 4620, 65537):
            m = cyclotomic_module(n)
            calls.clear()
            lab = _orbit_labels(m)
            assert len(calls) == len(m.generators), n
            # the orbit of x under the units is the points of order n / gcd(x, n)
            assert lab.tolist() == [math.gcd(x, n) % n for x in range(n)], n

    @pytest.mark.parametrize("module", NON_ABELIAN, ids=lambda m: m.name)
    def test_non_commuting_generators_run_until_nothing_moves(self, module, monkeypatch):
        assert _orbit_labels(module).tolist() == _least_orbit_codes(module)
        naive = tuple(p for p in module.points() if is_almost_rational_naive(module, p))
        assert naive == {"swap_transvection_3": ((0, 0),),
                         "swap_diag_4": ((0, 0), (2, 2))}[module.name]
        for bound in (galmod.WHOLE_MODULE_POINTS, 0):  # whole module, then quotient route
            monkeypatch.setattr(galmod, "WHOLE_MODULE_POINTS", bound)
            assert almost_rational_set(module).ar_points == naive
        # the kernel, a point at a time and all at once
        assert tuple(p for p in module.points() if is_almost_rational(module, p)) == naive
        bad = _not_ar_mask(module, numpy.arange(module.point_count))
        assert tuple(p for p, b in zip(module.points(), bad) if not b) == naive


class TestConstructors:
    def test_cyclotomic_trivial(self):
        m = cyclotomic_module(1)
        assert m.factors == (1,) and len(m.closure) == 1

    def test_cyclotomic_7_uses_chosen_primitive_root(self):
        m = cyclotomic_module(7)
        assert m.generators == (((unit_group_generators(7)[0],),),)

    def test_cyclotomic_8_two_generators(self):
        m = cyclotomic_module(8)
        assert [g[0][0] for g in m.generators] == [7, 5]

    def test_constant_has_no_generators(self):
        assert constant_module(11).generators == ()
        assert constant_module(1).point_count == 1

    def test_homothety_examples(self):
        assert len(homothety_module(5, 1, 2).closure) == 4
        squares = sorted(a[0][0] for a in homothety_module(16, 2, 1).closure)
        assert squares == [1, 9]
        assert len(homothety_module(2, 1, 3).closure) == 1

    def test_unchecked_generators_pass_the_checks(self, module_corpus):
        # cyclotomic, homothety and quotient modules skip the per-generator
        # checks of GaloisModule(); their generators must pass them anyway
        mods = list(module_corpus) + [_rational_quotient(m).module for m in module_corpus]
        mods += [homothety_module(m, e, dim) for m in range(1, 40) for e in (1, 2, 3)
                 for dim in (1, 2)]
        mods += [cyclotomic_module(n) for n in range(1, 200)]
        for m in mods:
            assert GaloisModule(m.factors, m.generators).generators == m.generators, m.name

    def test_homothety_generators_are_scalar(self):
        m = homothety_module(9, 2, 3)
        for g in m.generators:
            c = g[0][0]
            assert g == tuple(
                tuple(c if i == j else 0 for j in range(3)) for i in range(3))


class TestDirectSum:
    def test_constant_plus_cyclotomic_11(self):
        m = direct_sum(constant_module(11), cyclotomic_module(11))
        assert m.factors == (11, 11)
        assert len(m.closure) == 10  # image is (Z/11)^* acting as diag(1, g)

    def test_trivial_summand_keeps_structure(self):
        base = cyclotomic_module(7)
        m = direct_sum(constant_module(1), base)
        assert m.point_count == base.point_count
        assert len(m.closure) == len(base.closure)

    def test_constant_plus_cyclotomic_3(self):
        m = direct_sum(constant_module(3), cyclotomic_module(3))
        assert m.point_count == 9 and len(m.closure) == 2

    def test_mismatched_pairing_length(self):
        with pytest.raises(InvalidInputError, match="pairing"):
            direct_sum(cyclotomic_module(5), cyclotomic_module(5),
                       pairs=[(((2,),),)])

    def test_default_sum_equals_validated_block_sum(self, module_corpus):
        # the default sum skips validation; building the same blocks through
        # GaloisModule() validates them, and must give the same module
        rng = random.Random(14)
        mods = rng.sample(module_corpus, 40)
        pairs = list(zip(mods[::2], mods[1::2]))
        pairs += [(constant_module(n), cyclotomic_module(n)) for n in (11, 12, 30, 62)]
        pairs += [(_gl2_3(), cyclotomic_module(8)), (cyclotomic_module(9), _gl2_3())]
        for a, b in pairs:
            ka, kb = a.rank, b.rank
            blocks = [[list(r) + [0] * kb for r in g] + [[0] * ka + list(r) for r in b.identity()]
                      for g in a.generators]
            blocks += [[list(r) + [0] * kb for r in a.identity()] + [[0] * ka + list(r) for r in g]
                       for g in b.generators]
            full = GaloisModule(a.factors + b.factors, blocks, max_closure=10 ** 6)
            s = direct_sum(a, b)
            assert s.generators == full.generators, (a.name, b.name)
            assert s.closure == full.closure, (a.name, b.name)

    def test_explicit_diagonal_pairing(self):
        # pair multiplication-by-2 with multiplication-by-2: diagonal image
        m = direct_sum(cyclotomic_module(5), cyclotomic_module(5),
                       pairs=[([[2]], [[2]])])
        assert len(m.closure) == 4
        default = direct_sum(cyclotomic_module(5), cyclotomic_module(5))
        assert len(default.closure) == 16


@st.composite
def _module_and_points(draw):
    factors = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    point = st.tuples(*(st.integers(0, d - 1) for d in factors))
    return factors, draw(st.lists(point, max_size=3))


class TestSubgroupAndQuotient:
    def test_span_of_generators(self):
        m = constant_module(12)
        assert subgroup_span(m, [(4,)]) == ((0,), (4,), (8,))

    @given(_module_and_points())
    @settings(max_examples=200, deadline=None)
    def test_span_matches_combination_oracle(self, case):
        # every sum a_1 g_1 + ... + a_r g_r with 0 <= a_i < order(g_i), one g_i at a time
        factors, gens = case
        m = GaloisModule(factors, [])
        combos = {m.zero()}
        for g in gens:
            combos = {m.add(s, m.scale(a, g)) for s in combos for a in range(m.order_of(g))}
        assert subgroup_span(m, gens) == tuple(sorted(combos))

    def test_span_matches_tuple_reference_on_corpus(self, module_corpus):
        rng = random.Random(15)
        for m in module_corpus:
            gens = [tuple(rng.randrange(d) for d in m.factors) for _ in range(rng.randrange(4))]
            assert subgroup_span(m, gens) == _tuple_span(m, gens), (m.name, gens)

    def test_span_matches_tuple_reference_on_eisenstein_generators(self):
        for N in primes_in(23, 300):
            model = eisenstein_model(N)
            m, gens = model.module, [model.c_generator]
            if model.n % 3 == 0:
                gens.append(m.scale(model.n // 3, model.sigma_generator))
            span = subgroup_span(m, gens)
            assert span == _tuple_span(m, gens) == model.expected_ar, N

    def test_span_exact_where_plain_int64_multiples_wrap(self):
        # s * x for s < 70,000 and x near 10**15 passes 2**63; the gcd form does not
        m, h = GaloisModule((10 ** 15, 7), []), (999900000000000, 3)
        assert 69_999 * h[0] > 2 ** 63
        span = subgroup_span(m, [h])
        assert len(span) == 70_000 and span == _tuple_span(m, [h])

    def test_span_cap_raises_before_allocating(self):
        # order 2**40 > 10**7: refused before any array of multiples exists
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="span exceeds cap"):
                subgroup_span(GaloisModule((2 ** 40,), []), [(1,)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    def test_span_refuses_modules_past_int64_codes(self):
        with pytest.raises(ResourceCapError, match="overflow"):
            subgroup_span(GaloisModule((2 ** 40, 2 ** 30), []), [(2 ** 39, 0)])

    def test_span_cap(self, monkeypatch):
        monkeypatch.setattr(galmod, "DEFAULT_MAX_POINTS", 99)
        with pytest.raises(ResourceCapError, match="span exceeds cap 99"):
            subgroup_span(constant_module(100), [(1,)])
        monkeypatch.setattr(galmod, "DEFAULT_MAX_POINTS", 100)
        assert len(subgroup_span(constant_module(100), [(1,)])) == 100

    def test_fused_six_has_18_points(self):
        base = direct_sum(constant_module(6), cyclotomic_module(6))
        q = quotient_by(base, [(3, 3)])
        assert q.point_count == 18

    def test_quotient_by_zero_subgroup_is_isomorphic(self):
        base = direct_sum(constant_module(6), cyclotomic_module(6))
        q = quotient_by(base, [(0, 0)])
        assert q.point_count == base.point_count
        assert len(q.closure) == len(base.closure)
        assert len(almost_rational_set(q).ar_points) == len(almost_rational_set(base).ar_points)

    def test_non_stable_subgroup_names_the_automorphism(self):
        # the diagonal <(1, 1)> of Z/5 + mu_5 is not stable: (1, 1) -> (1, 2)
        base = direct_sum(constant_module(5), cyclotomic_module(5))
        with pytest.raises(InvalidInputError, match="not Galois-stable"):
            quotient_by(base, [(1, 1)])

    def test_non_stable_subgroup_names_the_generator(self):
        base = direct_sum(constant_module(5), cyclotomic_module(5))
        with pytest.raises(InvalidInputError,
                           match=r"generator \[\[1, 0\], \[0, 2\]\] sends \(1, 1\) to \(1, 2\)"):
            quotient_by(base, [(1, 1)])

    def test_stability_is_checked_against_the_span(self):
        # 3 * 2 = 6 is not a listed generator but lies in <2> = {0, 2, 4, 6}
        pres = quotient_presentation(GaloisModule((8,), [[[3]]]), [(2,)])
        assert pres.module.factors == (2,)
        assert [pres.project((x,)) for x in range(8)] == [(0,), (1,)] * 4
        # a generator of the whole group: every subgroup containing 1 is stable
        assert quotient_by(cyclotomic_module(5), [(1,)]).point_count == 1

    def test_quotient_never_builds_the_parent_closure(self):
        base = direct_sum(constant_module(10), cyclotomic_module(10))
        q = quotient_by(base, [(5, 5)])
        assert "closure" not in vars(base)
        assert q.point_count == 50 and len(q.closure) == 4

    def test_projection_is_a_surjective_homomorphism(self):
        base = direct_sum(constant_module(10), cyclotomic_module(10))
        pres = quotient_presentation(base, [(5, 5)])
        q, proj = pres.module, pres.project
        images = {proj(p) for p in base.points()}
        assert len(images) == q.point_count
        rng = random.Random(3)
        pts = list(base.points())
        for _ in range(40):
            p, r = rng.choice(pts), rng.choice(pts)
            assert proj(base.add(p, r)) == q.add(proj(p), proj(r))

    def test_projection_intertwines_the_action(self):
        base = direct_sum(constant_module(6), cyclotomic_module(6))
        pres = quotient_presentation(base, [(3, 3)])
        q, proj = pres.module, pres.project
        for g_base, g_q in zip(base.generators, q.generators):
            for p in base.points():
                assert proj(apply_automorphism(base, g_base, p)) == \
                    apply_automorphism(q, g_q, proj(p))

    def test_quotient_by_full_group_is_trivial(self):
        m = constant_module(4)
        q = quotient_by(m, [(1,)])
        assert q.point_count == 1

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_quotient_ar_set_matches_independent_coset_oracle(self, n):
        """Re-derive the fused model's a.r. set directly on the coset space,
        with no matrices, SNF, or coordinates: cosets of H are the elements,
        addition is inherited, the action permutes cosets via representatives.
        """
        base = direct_sum(constant_module(n), cyclotomic_module(n))
        half = (n // 2, n // 2)
        pres = quotient_presentation(base, [half])
        q, proj = pres.module, pres.project

        h_span = subgroup_span(base, [half])
        rep_of = {}
        for p in base.points():
            coset = frozenset(base.add(p, h) for h in h_span)
            rep_of[p] = min(coset)
        reps = sorted(set(rep_of.values()))
        assert len(reps) == q.point_count

        def coset_add(a, b):
            return rep_of[base.add(a, b)]

        def coset_neg(a):
            return rep_of[base.neg(a)]

        def coset_apply(auto, a):
            return rep_of[apply_automorphism(base, auto, a)]

        zero = rep_of[base.zero()]
        for r in reps:
            diffs = {coset_add(coset_apply(a, r), coset_neg(r)) for a in base.closure}
            coset_ar = not any(d != zero and coset_neg(d) in diffs for d in diffs)
            assert coset_ar == is_almost_rational(q, proj(r)), (n, r)


class TestSmithNormalForm:
    @pytest.mark.parametrize("mat", [
        [[2, 0], [0, 3]],
        [[6, 0, 3], [0, 6, 3]],
        [[4]],
        [[12, 6, 4], [3, 9, 6], [2, 16, 14]],
        [[0, 0], [0, 0]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    ])
    def test_transform_properties(self, mat):
        d, u, uinv = smith_normal_form(mat)
        rows = len(mat)
        # U * Uinv = I ensures unimodularity
        prod = [[sum(u[i][l] * uinv[l][j] for l in range(rows)) for j in range(rows)]
                for i in range(rows)]
        assert prod == [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
        # diagonal, nonnegative, divisibility chain
        for i in range(rows):
            for j in range(len(mat[0])):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(rows, len(mat[0])))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)

    @given(st.integers(1, 4).flatmap(lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(st.integers(-60, 60), min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))))
    @example([[2, 0], [0, 3]])
    @example([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    @settings(max_examples=300, deadline=None)
    def test_diagonal_matches_sympy(self, mat):
        d, u, uinv = smith_normal_form(mat)
        ref = sympy_smith_normal_form(sympy.Matrix(mat), domain=sympy.ZZ)
        n = min(len(mat), len(mat[0]))
        assert [d[i][i] for i in range(n)] == [abs(ref[i, i]) for i in range(n)]
        assert mat_mul(u, uinv) == [[int(i == j) for j in range(len(mat))] for i in range(len(mat))]

    def test_eisenstein_relation_basis_is_pinned(self):
        # the theorem3 and survey goldens print points in this basis
        checked = 0
        for N in primes_in(2, 2003):
            n = eisenstein_number(N)
            if n % 2 == 0:
                d, u, uinv = smith_normal_form([[n, 0, n // 2], [0, n, n // 2]])
                assert d == [[n // 2, 0, 0], [0, n, 0]], N
                assert (u, uinv) == ([[1, 0], [-1, 1]], [[1, 0], [1, 1]]), N
                checked += 1
        assert checked == 68  # even n among the primes up to 2003

    def test_column_lattice_preserved(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            d, u, uinv = smith_normal_form(mat)
            # each column of U*mat must lie in the lattice spanned by D's columns
            um = [[sum(u[i][l] * mat[l][j] for l in range(rows)) for j in range(cols)]
                  for i in range(rows)]
            diag = [d[i][i] if i < cols else 0 for i in range(rows)]
            for j in range(cols):
                for i in range(rows):
                    if diag[i] == 0:
                        assert um[i][j] == 0
                    else:
                        assert um[i][j] % diag[i] == 0

    def test_quotient_orders_match_brute_force(self):
        rng = random.Random(9)
        for _ in range(20):
            k = rng.randint(1, 3)
            factors = tuple(rng.choice((2, 3, 4, 6, 8, 9)) for _ in range(k))
            m = constant_module(factors[0]) if k == 1 else GaloisModule(factors, [])
            pts = list(m.points())
            gens = [rng.choice(pts) for _ in range(rng.randint(1, 2))]
            span = subgroup_span(m, gens)
            q = quotient_by(m, span)
            assert q.point_count * len(span) == m.point_count

    def test_stress_random_matrices(self):
        rng = random.Random(123)
        for _ in range(500):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-1000, 1000) for _ in range(cols)] for _ in range(rows)]
            d, u, uinv = smith_normal_form(mat)
            prod = [[sum(u[i][l] * uinv[l][j] for l in range(rows)) for j in range(rows)]
                    for i in range(rows)]
            assert prod == [[int(i == j) for j in range(rows)] for i in range(rows)]
            diag = [d[i][i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


class TestLemma4Audit:
    def test_unipotent_pair_on_rank_two_mod_9(self):
        m = GaloisModule((9, 9), [[[1, 3], [0, 1]]])
        audit = lemma4_audit(m)
        assert audit.passed
        # sigma and its square are two-step unipotent, plus the identity
        assert audit.unipotent_count == 3
        # a.r. points here are exactly the sigma-fixed points
        sigma = m.generators[0]
        fixed = {p for p in m.points() if apply_automorphism(m, sigma, p) == p}
        assert set(almost_rational_set(m).ar_points) == fixed

    def test_constant_module_vacuous(self):
        audit = lemma4_audit(constant_module(9))
        assert audit.passed and audit.unipotent_count == 1

    def test_mu8_unipotents_and_fixing(self):
        m = cyclotomic_module(8)
        unis = sorted(a[0][0] for a in two_step_unipotents(m))
        assert unis == [1, 5]  # (5-1)^2 = 16 = 0 mod 8
        audit = lemma4_audit(m)
        assert audit.passed and audit.ar_count == 2
        assert (5 * 4) % 8 == 4  # 5 fixes the a.r. point 4


class TestHalvingExclusion:
    def test_mu8_order_eight_point(self):
        m = cyclotomic_module(8)
        five = next(a for a in m.closure if a == ((5,),))
        assert halving_exclusion(m, (1,), [five]) is True
        assert not is_almost_rational(m, (1,))

    def test_fixed_point_never_excluded(self):
        m = cyclotomic_module(8)
        assert halving_exclusion(m, (0,), list(m.closure)) is False

    def test_mu3_multiplication_by_two(self):
        m = cyclotomic_module(3)
        two = next(a for a in m.closure if a == ((2,),))
        assert halving_exclusion(m, (1,), [two]) is False

    def test_accepts_list_of_lists(self):
        m = cyclotomic_module(8)
        assert halving_exclusion(m, (1,), [[[5]]]) is True
        assert halving_exclusion(m, (1,), [[[1]], [[3]]]) is False
        with pytest.raises(InvalidInputError, match=r"\[\[2\]\] is not in the closure"):
            halving_exclusion(m, (1,), [[[2]]])

    def test_rejects_foreign_automorphism(self):
        m = cyclotomic_module(8)
        other = cyclotomic_module(5)
        foreign = next(a for a in other.closure if a == ((2,),))
        with pytest.raises(InvalidInputError):
            halving_exclusion(m, (1,), [foreign])


class TestElementaryFacts:
    def test_fixed_points_match_pointwise_definition(self, module_corpus):
        for m in module_corpus:
            expected = [p for p in m.points()
                        if all(apply_automorphism(m, a, p) == p for a in m.closure)]
            assert list(fixed_points(m)) == expected, m.name

    def test_fixed_points_point_cap(self, monkeypatch):
        def no_grid(module, codes):  # nothing is decoded before the cap is checked
            raise AssertionError("decoded points past the cap")

        monkeypatch.setattr(galmod, "_coords", no_grid)
        with pytest.raises(ResourceCapError, match="exceeds the cap"):
            fixed_points(GaloisModule((2 ** 40,), []))

    def test_fixed_points_of_level_10007_build_no_grid(self, monkeypatch):
        coords = galmod._coords

        def no_grid(module, codes):  # the grid of M would decode all |M| codes
            if len(codes) >= module.point_count:
                raise AssertionError("built a point grid")
            return coords(module, codes)

        monkeypatch.setattr(galmod, "_coords", no_grid)
        fixed = fixed_points(eisenstein_model(10007).module)
        assert len(fixed) == 5003
        assert fixed[:2] == ((0, 0), (1, 0))

    def test_fixed_count_matches_fixed_points(self, module_corpus):
        # |F| = |M| * prod(s_i) / prod(d_r), read off the SNF that gives F's generators
        modules = list(module_corpus) + [eisenstein_model(N).module for N in primes_in(23, 200)]
        modules += [homothety_module(m, e, 2) for m in (12, 45, 97) for e in (1, 2, 3)]
        for m in modules:
            assert _fixed_generators(m)[1] == len(fixed_points(m)), m.name

    def test_fixed_points_are_ar(self, module_corpus):
        rng = random.Random(23)
        for m in rng.sample(module_corpus, 40):
            for p in fixed_points(m):
                assert is_almost_rational(m, p)

    def test_conjugates_of_ar_are_ar(self, module_corpus):
        rng = random.Random(29)
        for m in rng.sample(module_corpus, 25):
            ar = almost_rational_set(m).ar_points
            for p in ar[:20]:
                for a in m.closure:
                    assert apply_automorphism(m, a, p) in set(ar)

    def test_translates_by_fixed_points_are_ar(self, module_corpus):
        rng = random.Random(31)
        for m in rng.sample(module_corpus, 25):
            ar = set(almost_rational_set(m).ar_points)
            fixed = fixed_points(m)
            for p in list(ar)[:12]:
                for q in fixed[:12]:
                    assert m.add(p, q) in ar


class TestCyclotomicClosedForm:
    def test_ar_points_have_order_in_1_2_3_6(self):
        for n in range(1, 61):
            m = cyclotomic_module(n)
            expected = tuple(p for p in m.points() if m.order_of(p) in (1, 2, 3, 6))
            assert almost_rational_set(m).ar_points == expected, n
