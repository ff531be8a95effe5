"""The unit-pair engine: x + y = 2 with x, y nontrivial e-th power units mod m.

Existence of such a pair for a modulus m is exactly what kills points of
order m under a homothety-rich Galois action (the paper's Lemma 2), so this
module carries the exhaustive search `exists_pair`, the prime-power candidate
construction, failure-set scans over ranges of m, and diagonal Fermat point
counts over prime fields.  A pair exists mod m iff one exists mod some prime
power exactly dividing m, so scans search prime powers only, and of those
only the finitely many that can fail, and build the failing composites as
coprime products.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError, ResourceCapError
from .modarith import check_residue_bound, is_prime, power_subgroup, primes_in

FERMAT_PRIME_BOUND = 10 ** 6
# p^n <= 2^WITNESS_MODULUS_BITS keeps every witness value under Python's 4,300-digit str limit
WITNESS_MODULUS_BITS = 10_000


@dataclass(frozen=True)
class PairWitness:
    """A verified solution x + y = 2 among nontrivial e-th power units mod m.

    Construction re-checks every invariant, so an instance can never exist in
    an invalid state.  u and v, when present, are e-th roots of x and y.
    """

    m: int
    e: int
    x: int
    y: int
    u: Optional[int] = None
    v: Optional[int] = None

    def __post_init__(self):
        m, e, x, y = self.m, self.e, self.x, self.y
        if m < 1 or e < 1:
            raise InvalidInputError(f"PairWitness: bad modulus/exponent {(m, e)}")
        if not (0 <= x < m and 0 <= y < m):
            raise InvalidInputError(f"PairWitness: residues {(x, y)} out of range mod {m}")
        if math.gcd(x, m) != 1 or math.gcd(y, m) != 1:
            raise InvalidInputError(f"PairWitness: {(x, y)} not units mod {m}")
        if x == 1 % m or y == 1 % m:
            raise InvalidInputError(f"PairWitness: trivial component in {(x, y)} mod {m}")
        if (x + y - 2) % m != 0:
            raise InvalidInputError(f"PairWitness: {x} + {y} != 2 mod {m}")
        if self.u is not None and pow(self.u, e, m) != x % m:
            raise InvalidInputError(f"PairWitness: {self.u}^{e} != {x} mod {m}")
        if self.v is not None and pow(self.v, e, m) != y % m:
            raise InvalidInputError(f"PairWitness: {self.v}^{e} != {y} mod {m}")


@dataclass(frozen=True)
class Lemma2Report:
    """Failure set of the pair search over 1..scanned_max for one exponent.

    The empirical C(e) is max(failures); `exists_pair` gives the witness for
    any m not in the set.
    """

    e: int
    scanned_max: int
    failures: tuple[int, ...]

    def __post_init__(self):
        if any(not 1 <= m <= self.scanned_max for m in self.failures):
            raise InvalidInputError("Lemma2Report: failure outside the scanned range")
        if list(self.failures) != sorted(self.failures):
            raise InvalidInputError("Lemma2Report: failures must be sorted")

    def to_json(self) -> dict:
        return {"e": self.e, "max": self.scanned_max, "failures": self.failures}

    def to_text(self) -> str:
        failures = " ".join(map(str, self.failures)) or "-"
        return f"e       : {self.e}\nmax     : {self.scanned_max}\nfailures: {failures}\n"


def _found_fields(w: Optional[PairWitness]) -> dict:
    """"found", then the witness's x, y, u, v when there is one."""
    if w is None:
        return {"found": False}
    return {"found": True, "x": w.x, "y": w.y, "u": w.u, "v": w.v}


@dataclass(frozen=True)
class PairReport:
    """Outcome of `exists_pair(m, e)`: the smallest witness, or None."""

    m: int
    e: int
    witness: Optional[PairWitness]

    def to_json(self) -> dict:
        return {"m": self.m, "e": self.e, **_found_fields(self.witness)}

    def to_text(self) -> str:
        w = self.witness
        found = "no pair" if w is None else f"x={w.x} y={w.y} (u={w.u}, v={w.v})"
        return f"m={self.m} e={self.e}: {found}\n"


@dataclass(frozen=True)
class FermatCount:
    """Number of (x, y) in F_p^2 with x^e + y^e = 2."""

    e: int
    p: int
    count: int

    def to_json(self) -> dict:
        return {"e": self.e, "p": self.p, "count": self.count}

    def to_text(self) -> str:
        return f"e={self.e} p={self.p}: {self.count} solution(s)\n"


@dataclass(frozen=True)
class PrimePowerWitness:
    """Outcome of the explicit prime-power candidate x = 1 + e*p^(n-k-1),
    y = 2 - x mod p^n, where p^k is the p-part of e.

    identity_x/identity_y record whether x and y equal the claimed e-th
    powers (1 + p^(n-k-1))^e and (1 - p^(n-k-1))^e.  When the candidate is
    not itself a valid witness, an exhaustive fallback search runs instead
    and used_fallback is set; witness is None when even the fallback finds
    nothing.
    """

    p: int
    n: int
    e: int
    k: int
    candidate_x: int
    candidate_y: int
    identity_x: bool
    identity_y: bool
    used_fallback: bool
    witness: Optional[PairWitness]

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "e": self.e, "k": self.k,
                "candidate_x": self.candidate_x, "candidate_y": self.candidate_y,
                "identity_x": self.identity_x, "identity_y": self.identity_y,
                "fallback": self.used_fallback, **_found_fields(self.witness)}

    def to_text(self) -> str:
        w = self.witness
        found = "no pair exists" if w is None else f"x={w.x} y={w.y} u={w.u} v={w.v}"
        ix, iy, fb = (str(b).lower() for b in
                      (self.identity_x, self.identity_y, self.used_fallback))
        return (f"p^n     : {self.p}^{self.n}  e={self.e}  k={self.k}\n"
                f"candidate x={self.candidate_x} y={self.candidate_y} "
                f"(identity_x={ix}, identity_y={iy})\n"
                f"fallback: {fb}\n"
                f"result  : {found}\n")


def _root_of(m: int, e: int, value: int) -> Optional[int]:
    """Smallest u coprime to m with u^e = value mod m, or None; m <= RESIDUE_BOUND."""
    if m == 1:
        return 0
    check_residue_bound(m, "root search: modulus")
    for u in range(1, m):
        if math.gcd(u, m) == 1 and pow(u, e, m) == value:
            return u
    return None


def exists_pair(m: int, e: int) -> Optional[PairWitness]:
    """Exhaustive search over the e-th power subgroup; returns the
    lexicographically smallest (x, y) witness with roots attached."""
    if m < 1 or e < 1:
        raise InvalidInputError(f"exists_pair: need m >= 1 and e >= 1, got {(m, e)}")
    one = 1 % m
    if e == 1:
        for x in range(m):
            if x == one or math.gcd(x, m) != 1:
                continue
            y = (2 - x) % m
            if y != one and math.gcd(y, m) == 1:
                return PairWitness(m, 1, x, y, u=x, v=y)
        return None
    powers = power_subgroup(m, e)
    roots = powers.roots  # least roots, from the loop that found the powers
    for x in powers.elements:
        if x == one:
            continue
        y = (2 - x) % m
        if y in roots and y != one:
            return PairWitness(m, e, x, y, u=roots[x], v=roots[y])
    return None


def _weil_bound(e: int) -> int:
    """B(e): every prime p > B(e) has a pair (`failure_scan`'s lemma (b)).

    For e >= 3, B(e) = s^2 with s the least integer above the larger root of
    t^2 - 2g*t + 1 - e - (e^2 + 2e), g = (e-1)(e-2)/2, so p + 1 - 2g*sqrt(p) - e
    exceeds e^2 + 2e once sqrt(p) >= s.  For e <= 2 it is 11.
    """
    if e <= 2:
        return 11
    genus = (e - 1) * (e - 2) // 2
    s = genus + math.isqrt(genus * genus + e * e + 3 * e - 1) + 1
    return s * s


def _prime_has_pair(p: int, e: int) -> bool:
    """Whether a pair exists mod the prime p, found without roots or the subgroup.

    F_p^* is cyclic, so its e-th powers are its g-th powers, g = gcd(e, p-1),
    and y is one iff y^((p-1)/g) = 1.  The loop runs x = u^g over u = 2, 3, ...,
    only up to (p-1)/2 when g is even since (-u)^g = u^g, and stops at the
    first x whose partner 2 - x is a nontrivial g-th power unit; it is
    exhaustive when none is.
    """
    g = math.gcd(e, p - 1)
    k = (p - 1) // g
    for u in range(2, (p + 1) // 2 if g % 2 == 0 else p):
        y = (2 - pow(u, g, p)) % p
        if y > 1 and pow(y, k, p) == 1:  # y != 0, and y != 1 iff x != 1
            return True
    return False


def failure_scan(e: int, max_m: int, threads: int = 1) -> Lemma2Report:
    """All m <= max_m with no unit pair for exponent e, ascending.

    Lemma (CRT): (Z/m)^* is the product of the (Z/q)^* over the prime powers
    q = p^k exactly dividing m, e-th powers are taken componentwise, and
    x + y = 2 gives x = 1 mod q iff y = 1 mod q.  So m has a pair iff some
    such q has one, and the failures are exactly the products of pairwise
    coprime failing prime powers (1 being the empty product).

    Only finitely many prime powers can fail:
    (a) for odd p not dividing e and k >= 2, x = 1 + p, y = 1 - p is a pair
        mod p^k: both are nontrivial units = 1 mod p, and x -> x^e is a
        bijection of 1 + pZ_p when p does not divide e (Hensel);
    (b) every prime p > B(e) = `_weil_bound(e)` has a pair.  For e >= 3 such
        a p does not divide 2e, so the curve u^e + v^e = 2w^e is smooth of
        genus g = (e-1)(e-2)/2, and Weil's bound, less the at most e points
        with w = 0, leaves at least p + 1 - 2g*sqrt(p) - e affine points on
        u^e + v^e = 2.  That is more than the at most e^2 + 2e points with
        u = 0, v = 0 or u^e = v^e = 1, and any other point gives the pair
        (u^e, v^e).  For e <= 2 the curve is a line or a conic, with at least
        p - 1 > e^2 + 2e affine points once p > 11;
    (c) for p dividing 2e and v = v_p(e), p^k has a pair once k >= v + 2 (p
        odd) or k >= v + 3 (p = 2): x = 1 + p^(v+1) (x = 1 + 2^(v+2) for
        p = 2) and y = 2 - x lie in (1 + pZ_p)^e = 1 + p^(v+1)Z_p (for p = 2,
        (1 + 4Z_2)^e = 1 + 2^(v+2)Z_2) and are nontrivial mod p^k;
    (b') a prime p > B(g), g = gcd(e, p-1), has a pair: F_p^* is cyclic, so
        its e-th powers are its g-th powers, and (b) at exponent g applies
        (g divides e, so p does not divide 2g).
    So the scan sieves only to min(max_m, B(e)), searches only the primes p
    not dividing 2e with p <= B(gcd(e, p-1)), with the root-free
    `_prime_has_pair`, and sends only the powers of the primes dividing 2e
    below the bound in (c) to the exhaustive `exists_pair`; every other prime
    power passes.  `threads` is accepted for compatibility and ignored.
    """
    if e < 1 or max_m < 1:
        raise InvalidInputError(f"failure_scan: bad parameters {(e, max_m)}")
    check_residue_bound(max_m, "failure_scan: max")  # the scan sieves up to max_m at most
    failures = [1]  # kept sorted
    # every p dividing 2e is at most max(2, e) < B(e), so the sieve meets it
    for p in primes_in(2, min(max_m, _weil_bound(e))):
        if (2 * e) % p:
            passes = p > _weil_bound(math.gcd(e, p - 1)) or _prime_has_pair(p, e)  # (b')
            failing = [] if passes else [p]  # (a): its powers pass
        else:
            v = 0
            while e % p ** (v + 1) == 0:
                v += 1
            top = min(max_m, p ** (v + 2 if p == 2 else v + 1))  # (c): higher powers pass
            failing, q = [], p
            while q <= top:
                if exists_pair(q, e) is None:
                    failing.append(q)
                q *= p
        if failing:
            # every m so far is a product of primes below p, so coprime to q
            failures += [m * q for q in failing
                         for m in failures[:bisect_right(failures, max_m // q)]]
            failures.sort()
    return Lemma2Report(e, max_m, tuple(failures))


def prime_power_witness(p: int, n: int, e: int) -> PrimePowerWitness:
    """Evaluate the explicit candidate pair mod p^n and verify it directly.

    The candidate is x = 1 + e*p^(n-k-1), y = 1 - e*p^(n-k-1) with k the
    p-valuation of e.  Nothing about it is trusted: unit-ness, nontriviality,
    the sum, and membership in the e-th power subgroup are all checked, and
    the claimed identities x = (1 + p^(n-k-1))^e, y = (1 - p^(n-k-1))^e are
    tested and reported.  On any failure the exhaustive search takes over.
    """
    if not is_prime(p):
        raise InvalidInputError(f"prime_power_witness: p={p} is not prime")
    if n < 2 or e < 1:
        raise InvalidInputError(f"prime_power_witness: need n >= 2 and e >= 1, got {(n, e)}")
    bits = n * (p - 1).bit_length()  # p^n <= 2^bits, since log2(p) <= bit_length(p - 1)
    if bits > WITNESS_MODULUS_BITS:
        raise ResourceCapError(f"prime_power_witness: modulus {p}^{n} is up to 2^{bits}, "
                               f"above bound 2^{WITNESS_MODULUS_BITS}")
    k = 0
    reduced = e
    while reduced % p == 0:
        reduced //= p
        k += 1
    modulus = p ** n
    if n - k - 1 < 0:
        # Exponent so p-heavy the construction has no room; fall straight back.
        x = y = 1 % modulus
        identity_x = identity_y = False
    else:
        step = p ** (n - k - 1)
        x = (1 + e * step) % modulus
        y = (1 - e * step) % modulus
        identity_x = pow(1 + step, e, modulus) == x
        identity_y = pow((1 - step) % modulus, e, modulus) == y
    candidate_valid = (
        x != 1 and y != 1
        and math.gcd(x, modulus) == 1 and math.gcd(y, modulus) == 1
        and (x + y - 2) % modulus == 0
    )
    if candidate_valid:
        ux = (1 + step) % modulus if identity_x else _root_of(modulus, e, x)
        vy = (1 - step) % modulus if identity_y else _root_of(modulus, e, y)
        if ux is not None and vy is not None:
            witness = PairWitness(modulus, e, x, y, u=ux, v=vy)
            return PrimePowerWitness(p, n, e, k, x, y, identity_x, identity_y,
                                     False, witness)
    return PrimePowerWitness(p, n, e, k, x, y, identity_x, identity_y,
                             True, exists_pair(modulus, e))


def count_fermat_points(e: int, p: int) -> int:
    """Exact count of (x, y) in F_p^2 with x^e + y^e = 2, in O(p) time.

    Buckets the value multiset of z -> z^e once, then convolves against the
    target sum.
    """
    if e < 1:
        raise InvalidInputError(f"count_fermat_points: e must be >= 1, got {e}")
    if not is_prime(p):
        raise InvalidInputError(f"count_fermat_points: p={p} is not prime")
    if p > FERMAT_PRIME_BOUND:
        raise ResourceCapError(f"count_fermat_points: p={p} exceeds bound {FERMAT_PRIME_BOUND}")
    counts = [0] * p
    for z in range(p):
        counts[pow(z, e, p)] += 1
    target = 2 % p
    return sum(counts[a] * counts[(target - a) % p] for a in range(p) if counts[a])


@dataclass(frozen=True)
class WeilThreshold:
    """Primes whose diagonal Fermat count stays within e^2 + 2e, up to a bound."""

    e: int
    bound: int
    largest: int
    primes: tuple[int, ...]
    weil_cutoff: Optional[int]


def weil_threshold_prime(e: int, bound: int) -> WeilThreshold:
    """Largest prime l <= bound with count_fermat_points(e, l) <= e^2 + 2e.

    For e >= 3 also reports the first prime beyond which a Weil-style lower
    bound p + 1 - 2g*sqrt(p) - e already exceeds e^2 + 2e (informational;
    the enumeration itself is exact regardless).
    """
    if e < 1 or bound < 2:
        raise InvalidInputError(f"weil_threshold_prime: bad parameters {(e, bound)}")
    limit = e * e + 2 * e
    primes = primes_in(2, bound)
    if primes[-1] > FERMAT_PRIME_BOUND:  # refused before any prime is counted
        raise ResourceCapError(f"weil_threshold_prime: bound {bound} passes {FERMAT_PRIME_BOUND}")
    hits = [l for l in primes if count_fermat_points(e, l) <= limit]
    if not hits:
        raise InvalidInputError(
            f"weil_threshold_prime: no qualifying prime up to {bound}")
    cutoff = None
    if e >= 3:
        cutoff = _weil_bound(e)
        while not is_prime(cutoff):
            cutoff += 1
    return WeilThreshold(e, bound, hits[-1], tuple(hits), cutoff)
