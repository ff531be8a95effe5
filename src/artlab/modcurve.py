"""Arithmetic invariants of prime-level modular curves and the group-theoretic
models of their Eisenstein torsion.

For a prime level N the model is built from the Eisenstein number
n = numerator((N-1)/12): a rational cyclic block of order n (the cuspidal
part) against a mu_n block (the Shimura part), glued along their 2-torsion
when n is even.  The structure check computes the almost-rational points of
the model and compares them with the subgroup generated by the cuspidal image
and the 3-torsion of the mu_n image.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DEFAULT_MAX_CLOSURE, DEFAULT_MAX_POINTS, InvalidInputError
from .modarith import is_prime, jacobi_symbol, primes_in

if TYPE_CHECKING:  # galmod, and numpy with it, loads only when a model is built
    from .galmod import ARTReport, GaloisModule, Point

# Prime levels with hyperelliptic X0(N), per Ogg's classification.  37 is the
# one member whose hyperelliptic involution differs from the Atkin-Lehner
# involution, so its quotient curve is not of genus zero.
OGG_HYPERELLIPTIC = (23, 29, 31, 37, 41, 47, 59, 71)


@dataclass(frozen=True)
class LevelInvariants:
    """Per-level arithmetic facts used by the survey and the case split."""

    N: int
    n: int
    genus: int
    hyperelliptic: bool
    plus_quotient_genus_zero: bool
    N_mod_9: int
    three_divides_n: bool

    def to_json(self) -> dict:
        return {"N": self.N, "n": self.n, "genus": self.genus,
                "hyperelliptic": self.hyperelliptic,
                "plus_genus_zero": self.plus_quotient_genus_zero,
                "N_mod_9": self.N_mod_9, "three_div_n": self.three_divides_n}

    def to_text(self) -> str:
        """One "key : value" line per JSON field, booleans spelled as in JSON."""
        return "".join(f"{k:<16}: {json.dumps(v)}\n" for k, v in self.to_json().items())


@dataclass(frozen=True)
class EisensteinModel:
    """Group-theoretic model of the Eisenstein torsion at level N.

    For n odd the module is const_n ⊕ mu_n with Galois acting as diag(1, chi);
    for n even the direct sum is folded along the common 2-torsion, i.e. the
    subgroup generated by (n/2, n/2).  c_image / sigma_image generate the
    embedded cuspidal and mu-type subgroups; expected_generators generate the
    subgroup E of the cuspidal image and the 3-torsion of the mu image, and
    expected_ar, E's points, is spanned on first read.
    """

    N: int
    n: int
    n_even: bool
    module: GaloisModule
    c_generator: Point
    sigma_generator: Point
    expected_generators: tuple[Point, ...]

    @cached_property
    def expected_ar(self) -> tuple[Point, ...]:
        from .galmod import subgroup_span
        return subgroup_span(self.module, self.expected_generators)


@dataclass(frozen=True)
class SurveyRecord:
    level: LevelInvariants
    verdict: str

    @property
    def side_condition_ok(self) -> bool:
        """The survey's side condition: a genus-zero plus quotient needs 3 not dividing n."""
        return not (self.level.plus_quotient_genus_zero and self.level.three_divides_n)


@dataclass(frozen=True)
class SurveyReport:
    """The records of one survey, serialized one level per line."""

    records: tuple[SurveyRecord, ...]

    @property
    def verdict(self) -> str:
        ok = all(r.verdict == "pass" and r.side_condition_ok for r in self.records)
        return "pass" if ok else "fail"

    def to_json(self) -> list[dict]:
        return [{**r.level.to_json(), "verdict": r.verdict} for r in self.records]

    def to_text(self) -> str:
        """A header plus one row per level; "" when the survey is empty."""
        if not self.records:
            return ""
        rows = [("N", "n", "genus", "hyper", "plus0", "N%9", "3|n", "verdict")]
        rows += [(*map(json.dumps, r.level.to_json().values()), r.verdict)
                 for r in self.records]
        widths = (5, 5, 5, 5, 5, 3, 5, 0)
        return "".join(" ".join(f"{c:>{w}}" for c, w in zip(row, widths)) + "\n" for row in rows)


# Each public function checks that its level is prime once; the private
# helpers behind it take a prime N and check nothing.


def eisenstein_number(N: int) -> int:
    """numerator((N-1)/12) for prime N."""
    if not is_prime(N):
        raise InvalidInputError(f"eisenstein_number: {N} is not prime")
    return _eisenstein_number(N)


def _eisenstein_number(N: int) -> int:
    return (N - 1) // math.gcd(N - 1, 12)


def genus_x0(N: int) -> int:
    """Genus of X0(N) for prime N via the standard index/elliptic-point count."""
    if not is_prime(N):
        raise InvalidInputError(f"genus_x0: {N} is not prime")
    return _genus_x0(N)


def _genus_x0(N: int) -> int:
    if N == 2:
        nu2, nu3 = 1, 0
    else:
        nu2 = 1 + jacobi_symbol(-1, N)
        nu3 = 1 + jacobi_symbol(-3, N)
    twelve_g = N + 1 - 3 * nu2 - 4 * nu3
    if twelve_g % 12 != 0:
        raise RuntimeError(f"genus formula must be integral at N={N}")
    return twelve_g // 12


def level_invariants(N: int) -> LevelInvariants:
    if not is_prime(N):
        raise InvalidInputError(f"level_invariants: {N} is not prime")
    return _level_invariants(N)


def _level_invariants(N: int) -> LevelInvariants:
    n = _eisenstein_number(N)
    hyper = N in OGG_HYPERELLIPTIC
    return LevelInvariants(
        N=N,
        n=n,
        genus=_genus_x0(N),
        hyperelliptic=hyper,
        plus_quotient_genus_zero=hyper and N != 37,
        N_mod_9=N % 9,
        three_divides_n=n % 3 == 0,
    )


def eisenstein_model(N: int, max_closure: int = DEFAULT_MAX_CLOSURE) -> EisensteinModel:
    """Build the Eisenstein-torsion model for prime N >= 23."""
    from .galmod import constant_module, cyclotomic_module, direct_sum, quotient_presentation

    if not is_prime(N) or N < 23:
        raise InvalidInputError(f"eisenstein_model: need a prime N >= 23, got {N}")
    n = _eisenstein_number(N)
    base = direct_sum(constant_module(n, max_closure), cyclotomic_module(n, max_closure),
                      name=f"eis_{N}")
    c_gen: Point = (1 % n, 0)
    s_gen: Point = (0, 1 % n)
    if n % 2 == 0:
        pres = quotient_presentation(base, [(n // 2, n // 2)], name=f"eis_{N}")
        module = pres.module
        c_img = pres.project(c_gen)
        s_img = pres.project(s_gen)
    else:
        module = base
        c_img, s_img = c_gen, s_gen
    expected_gens = [c_img]
    if n % 3 == 0:
        expected_gens.append(module.scale(n // 3, s_img))
    return EisensteinModel(N, n, n % 2 == 0, module, c_img, s_img, tuple(expected_gens))


def theorem3_check(N: int, max_closure: int = DEFAULT_MAX_CLOSURE,
                   max_points: int = DEFAULT_MAX_POINTS) -> ARTReport:
    """Compare the computed almost-rational set of the level-N model with the
    subgroup generated by the cuspidal image and the 3-torsion of the mu image.
    The verdict compares grid codes (`almost_rational_set` with `expected`),
    on M/F where F is taken off, and neither set is listed in points until read."""
    from .galmod import almost_rational_set

    model = eisenstein_model(N, max_closure)
    return almost_rational_set(model.module, max_points=max_points,
                               expected=model.expected_generators)


def survey(start: int, stop: int, threads: int = 1,
           max_closure: int = DEFAULT_MAX_CLOSURE,
           max_points: int = DEFAULT_MAX_POINTS) -> list[SurveyRecord]:
    """Level invariants plus the structure-check verdict for every prime in
    [start, stop], ordered by N.

    Levels run one after another in this thread; `threads` is accepted and
    ignored.  Records keep verdicts, not points, so memory is bounded by the
    largest level's check, not by the range.
    """
    if not is_prime(start) or start < 23:
        raise InvalidInputError(f"survey: start must be a prime >= 23, got {start}")
    return [SurveyRecord(_level_invariants(N), theorem3_check(N, max_closure, max_points).verdict)
            for N in primes_in(start, stop)]


def __getattr__(name):
    """modcurve.almost_rational_set, once a load-time import, is galmod's current one."""
    if name != "almost_rational_set":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .galmod import almost_rational_set
    return almost_rational_set
