"""Exact residue arithmetic: factorization, unit groups, e-th power subgroups,
CRT, and quadratic symbols.

Everything here is small-modulus integer arithmetic; Python ints are exact, so
the bounds enforced are the trial-division cap on factorize and
RESIDUE_BOUND on the residue loop of power_roots and the sieve of
primes_in.  All set outputs are sorted ascending so downstream goldens are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from .errors import InvalidInputError, ResourceCapError

FACTORIZE_BOUND = 1 << 48
RESIDUE_BOUND = 10 ** 7  # largest m a loop over residues mod m, or a sieve up to m, accepts

# 2,3,5,7-coprime wheel: increments cycling through residues coprime to 210.
_WHEEL = (2, 4, 2, 4, 6, 2, 6, 4, 2, 4, 6, 6, 2, 6, 4, 2, 6, 4, 6, 8,
          4, 2, 4, 2, 4, 8, 6, 4, 6, 2, 4, 6, 2, 6, 6, 4, 2, 4, 6, 2,
          6, 4, 2, 4, 2, 10, 2, 10)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of m, factors as (prime, exponent) with primes
    strictly increasing.  m = 1 has an empty factor list."""

    m: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, k in self.factors:
            if k < 1 or p <= prev:
                raise InvalidInputError(f"malformed factorization of {self.m}")
            prev = p
            prod *= p ** k
        if prod != self.m:
            raise InvalidInputError(f"factor product {prod} != {self.m}")


@dataclass(frozen=True)
class UnitSet:
    """A multiplicatively closed set of residues coprime to the modulus.

    For modulus 1 the sole residue 0 stands for the unit element.
    Closure under multiplication is a promise of the constructors (and is
    property-tested); sortedness, coprimality and 1-membership are enforced
    here, except on the sets `power_subgroup` builds, which hold them by
    construction (and are tested for them).  `roots`, when a constructor
    knows them, maps each element to its least root (`power_subgroup`).
    """

    modulus: int
    elements: tuple[int, ...]
    roots: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        m, elems = self.modulus, self.elements
        if m == 1:
            if elems != (0,):
                raise InvalidInputError("UnitSet mod 1 must be exactly (0,)")
            return
        if list(elems) != sorted(set(elems)):
            raise InvalidInputError("UnitSet elements must be sorted and distinct")
        if 1 not in elems:
            raise InvalidInputError("UnitSet must contain the unit 1")
        if any(not 0 <= x < m or math.gcd(x, m) != 1 for x in elems):
            raise InvalidInputError(f"UnitSet elements must be units mod {m}")

    @classmethod
    def _of_roots(cls, m: int, roots: dict[int, int]) -> UnitSet:
        """The sorted keys of `power_roots(m, e)`, unchecked: its loop keeps only
        units, and 1 = 1^e is among them."""
        units = object.__new__(cls)
        units.__dict__.update(modulus=m, elements=tuple(sorted(roots)), roots=roots)
        return units

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._members


def factorize(m: int) -> Factorization:
    """Deterministic trial division with a 2/3/5/7 wheel.

    Accepts 1 <= m <= 2**48 so every intermediate stays comfortably inside
    native integer ranges on any platform.
    """
    if not isinstance(m, int) or m < 1:
        raise InvalidInputError(f"factorize: m must be a positive integer, got {m!r}")
    if m > FACTORIZE_BOUND:
        raise InvalidInputError(f"factorize: m={m} exceeds the 2^48 bound")
    factors = []
    n = m
    for p in (2, 3, 5, 7):
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            factors.append((p, k))
    p = 11
    i = 0
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            factors.append((p, k))
        p += _WHEEL[i]
        i = (i + 1) % len(_WHEEL)
    if n > 1:
        factors.append((n, 1))
    return Factorization(m, tuple(factors))


def euler_phi(m: int) -> int:
    """Euler totient from the factorization (phi(1) = 1)."""
    phi = 1
    for p, k in factorize(m).factors:
        phi *= (p - 1) * p ** (k - 1)
    return phi


def _primitive_root_mod_odd_prime_power(p: int, k: int) -> int:
    """Smallest primitive root mod p, promoted to p**k when necessary."""
    pk = p ** k
    phi_p = p - 1
    # Order test against the maximal divisors of p-1.
    prime_divs = [q for q, _ in factorize(phi_p).factors]
    g = None
    for cand in range(2, p):
        if all(pow(cand, phi_p // q, p) != 1 for q in prime_divs):
            g = cand
            break
    if g is None:
        raise RuntimeError(f"no primitive root mod {p}")
    if k == 1:
        return g
    # g lifts to a generator mod p^k unless g^(p-1) = 1 mod p^2; then g+p works.
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g % pk


def unit_group_generators(m: int) -> list[int]:
    """Generators of (Z/mZ)^* under multiplication.

    Odd prime powers get a single primitive root; 2^k with k >= 3 gets the
    canonical pair {2^k - 1, 5}; m = 1, 2 the empty list.  Composite m lifts
    each prime-power generator through the CRT (1 in the other coordinates),
    with the 2-part first and odd primes ascending, so output order is fixed.
    """
    if not isinstance(m, int) or m < 1:
        raise InvalidInputError(f"unit_group_generators: bad modulus {m!r}")
    if m <= 2:
        return []
    gens: list[int] = []
    fact = factorize(m).factors
    for p, k in fact:
        pk = p ** k
        if p == 2:
            if k == 1:
                local = []
            elif k == 2:
                local = [3]
            else:
                local = [pk - 1, 5]
        else:
            local = [_primitive_root_mod_odd_prime_power(p, k)]
        if len(fact) == 1:
            gens.extend(local)
        else:
            rest = m // pk
            for g in local:
                gens.append(crt_combine([(g, pk), (1, rest)]))
    return gens


def check_residue_bound(m: int, label: str) -> None:
    """Refuse, before any loop or allocation, an m above RESIDUE_BOUND."""
    if m > RESIDUE_BOUND:
        raise ResourceCapError(f"{label} {m} exceeds bound {RESIDUE_BOUND}")


def power_roots(m: int, e: int) -> dict[int, int]:
    """Each e-th power u^e mod m of a unit u, mapped to its least root u, in one
    loop over the residues; m <= RESIDUE_BOUND.  Mod 1, 0 is its own root."""
    if m < 1 or e < 1:
        raise InvalidInputError(f"power_subgroup: need m >= 1 and e >= 1, got {(m, e)}")
    if m == 1:
        return {0: 0}
    check_residue_bound(m, "power_subgroup: modulus")
    # u = m - 1, ..., 1, so the least root of each power is the one written last
    return {pow(u, e, m): u for u in range(m - 1, 0, -1) if math.gcd(u, m) == 1}


def power_subgroup(m: int, e: int) -> UnitSet:
    """The subgroup {u^e mod m : gcd(u, m) = 1} of (Z/mZ)^*, sorted, with the
    least root of each element; m <= RESIDUE_BOUND."""
    return UnitSet._of_roots(m, power_roots(m, e))


def crt_combine(parts: list[tuple[int, int]]) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli; result in [0, prod m_i)."""
    if not parts:
        raise InvalidInputError("crt_combine: empty congruence list")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if math.gcd(parts[i][1], parts[j][1]) != 1:
                raise InvalidInputError(
                    f"crt_combine: moduli {parts[i][1]} and {parts[j][1]} are not coprime")
    x, mod = 0, 1
    for r, mi in parts:
        if mi < 1:
            raise InvalidInputError(f"crt_combine: bad modulus {mi}")
        # x' = x + mod*t with t chosen so x' = r (mod mi)
        t = ((r - x) * pow(mod, -1, mi)) % mi if mi > 1 else 0
        x += mod * t
        mod *= mi
    return x % mod


def jacobi_symbol(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m >= 1, by quadratic reciprocity."""
    if m < 1 or m % 2 == 0:
        raise InvalidInputError(f"jacobi_symbol: modulus must be odd and positive, got {m}")
    a %= m
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def is_prime(n: int) -> bool:
    """Primality by trial-division factorization (exact within the 2^48 bound)."""
    if n < 2:
        return False
    f = factorize(n).factors
    return len(f) == 1 and f[0][1] == 1


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending.  Empty when hi < lo; hi <= RESIDUE_BOUND."""
    if hi < lo or hi < 2:
        return []
    check_residue_bound(hi, "primes_in: upper end")
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p:hi + 1:p] = bytearray(len(range(p * p, hi + 1, p)))
    lo = max(lo, 2)
    return list(compress(range(lo, hi + 1), sieve[lo:]))
