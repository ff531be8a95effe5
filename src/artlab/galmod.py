"""Finite Galois modules presented explicitly, and the almost-rationality
machinery that runs over them.

A module is a finite abelian group ⊕_i Z/d_i together with a finite group of
automorphisms given by integer matrices acting on column coordinate vectors.
Every automorphism is a plain `Matrix` (a tuple of row tuples) with row i
reduced mod d_i, so equal automorphisms are equal tuples.
A point p is almost rational when sigma(p) - p = p - tau(p) forces
sigma(p) = tau(p) = p over the whole automorphism group; equivalently the
difference set {sigma(p) - p} meets its own negation only in 0.  The
production predicate is the difference-set test in one block kernel,
`_not_ar_mask`; the literal two-quantifier loop is an independent oracle.
`almost_rational_set` runs the kernel on a lift of one point per Galois
orbit of M/F, F the rational (fixed) points, and adds F back.  Two lemmas
make that exact: D_{tau p} = tau(D_p) for tau in the closure, and
D_{p+q} = D_p for q in F.
"""

from __future__ import annotations

import math
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .errors import DEFAULT_MAX_CLOSURE, DEFAULT_MAX_POINTS, InvalidInputError, ResourceCapError
from .modarith import unit_group_generators
from .snf import mat_mul, smith_normal_form

KERNEL_POINT_BOUND = 2 ** 31  # keeps every kernel matrix product and offset code below 2**63

Matrix = tuple[tuple[int, ...], ...]
Point = tuple[int, ...]


@dataclass(frozen=True)
class ARTReport:
    """Almost-rational points of one module; the verdict derives from the point sets."""

    name: str
    points: int
    ar_points: tuple[Point, ...]
    expected: Optional[tuple[Point, ...]]
    elapsed_ms: float

    @property
    def verdict(self) -> str:  # "pass" | "fail" | "not-checked"
        if self.expected is None:
            return "not-checked"
        return "pass" if set(self.ar_points) == set(self.expected) else "fail"

    def to_json(self) -> dict:
        """The JSON object; "ms" is pinned to 0 so output is deterministic."""
        return {"name": self.name, "points": self.points, "ar_points": self.ar_points,
                "expected": self.expected, "verdict": self.verdict, "ms": 0}

    def to_text(self) -> str:
        lines = [
            f"name    : {self.name}",
            f"points  : {self.points}",
            f"a.r.    : {len(self.ar_points)} point(s)",
            "          " + " ".join(
                "(" + ",".join(map(str, p)) + ")" for p in self.ar_points),
        ]
        if self.expected is not None:
            lines.append(f"expected: {len(self.expected)} point(s)")
        lines += [f"verdict : {self.verdict}", "ms      : 0"]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Lemma4Audit:
    """Every two-step-unipotent automorphism must fix every almost-rational point."""

    name: str
    unipotent_count: int
    ar_count: int
    violations: tuple[tuple[Matrix, Point], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _reduce_rowwise(matrix: Sequence[Sequence[int]], factors: Sequence[int]) -> Matrix:
    """Row i reduced mod d_i; the entries must already be Python ints."""
    return tuple([tuple([x % d for x in row]) for row, d in zip(matrix, factors)])


def _int_tuple(values, label: str) -> tuple[int, ...]:
    """values as a tuple of Python ints.  Bools and whatever operator.index
    refuses (floats, strings, None) raise InvalidInputError; numpy integers pass."""
    try:
        values = tuple(values)
        if not any(isinstance(v, bool) for v in values):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    raise InvalidInputError(f"{label} must be integers, got {values!r}")


def _check_well_defined(matrix: Matrix, factors: Sequence[int], label: str) -> None:
    k = len(factors)
    for i in range(k):
        for j in range(k):
            req = factors[i] // math.gcd(factors[i], factors[j])
            if matrix[i][j] % req != 0:
                raise InvalidInputError(
                    f"{label}: entry ({i + 1},{j + 1})={matrix[i][j]} must be divisible "
                    f"by {req} = d_{i + 1}/gcd(d_{i + 1}, d_{j + 1}) to define a "
                    f"homomorphism on Z/{factors[j]} -> Z/{factors[i]}")


def _generate(start, gens, op, cap: int, overflow_message: str) -> tuple:
    """The group that gens generate under op, sorted; start is op's identity.

    Dimino's coset extension (G. Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559, 1991, ch. 6).  Let H be the group listed so
    far, generated by the generators before g; a generator already in H is
    skipped.  Otherwise the right coset H*g is listed, and then, for each new
    representative r and each generator s up to g, the coset H*(r*s) whenever
    r*s is not yet listed.  Lemma: the union U of the listed cosets is closed
    under right multiplication by every generator s up to g.  For a new
    representative r, H*r*s = H*(r*s) is listed by construction; for the old
    part H*1, H*s = H when s comes before g, and H*g is the first coset.  A
    finite set that holds 1 and is closed under right multiplication by the
    generators is the group they generate, since each inverse is a positive
    power.  Neither commutativity nor normality of H is used.  Right cosets
    are disjoint and 1*r = r is free, so the ops are one per element outside
    the representatives plus one per (representative, generator).  While H
    = 1 the cosets are single powers of g, so they are listed as g, g^2, ...
    at one op each.  ResourceCapError(overflow_message) is raised before a
    coset that would take the count past cap is stored.
    """
    elements, used = [start], []
    seen = {start}

    def add_coset(r):  # H*r is r followed by h*r for the h != 1 in H
        if len(elements) + 1 + len(moved) > cap:
            raise ResourceCapError(overflow_message)
        coset = [r] + [op(h, r) for h in moved]
        elements.extend(coset)
        seen.update(coset)
        reps.append(r)

    for g in gens:
        if g in seen:
            continue
        used.append(g)
        moved, reps = elements[1:], []
        if not moved:  # H = 1, so used = [g] and the cosets are the powers of g
            x = g
            while x != start:
                if len(elements) >= cap:
                    raise ResourceCapError(overflow_message)
                elements.append(x)
                seen.add(x)
                x = op(x, g)
            continue
        add_coset(g)
        for r in reps:  # reps grows while it is read
            for s in used:
                rs = op(r, s)
                if rs not in seen:
                    add_coset(rs)
    return tuple(sorted(elements))


class GaloisModule:
    """⊕_i Z/d_i with a finite automorphism group given by generator matrices.

    Validation happens at construction: factors and matrix entries must be
    integers (no bool, no float), and every generator must satisfy the
    divisibility condition (d_i / gcd(d_i, d_j)) | A_ij and be invertible.
    Invertibility is read off the Smith normal form of [A | diag(d)]: all of
    its invariant factors must be 1.  The closure is computed lazily, cached,
    and capped; a generator whose order exceeds the cap raises on the first
    closure access, not here.
    """

    def __init__(self, factors: Sequence[int], generators: Iterable[Sequence[Sequence[int]]],
                 name: str = "module", max_closure: int = DEFAULT_MAX_CLOSURE):
        self.factors: tuple[int, ...] = _int_tuple(factors, f"{name}: factors")
        if not self.factors or min(self.factors) < 1:
            raise InvalidInputError(f"{name}: factors must be integers >= 1, got {factors!r}")
        self.name = name
        self.max_closure = max_closure
        k = len(self.factors)
        gens = []
        for idx, raw in enumerate(generators):
            mat = tuple(_int_tuple(row, f"{name}: generator {idx} entries") for row in raw)
            if len(mat) != k or any(len(row) != k for row in mat):
                raise InvalidInputError(f"{name}: generator {idx} is not {k}x{k}")
            mat = _reduce_rowwise(mat, self.factors)
            _check_well_defined(mat, self.factors, f"{name}: generator {idx}")
            self._check_invertible(mat, idx)
            gens.append(mat)
        self.generators: tuple[Matrix, ...] = tuple(gens)

    @classmethod
    def _of_automorphisms(cls, factors, generators, name, max_closure) -> GaloisModule:
        """Generators that are automorphisms by construction (unit scalars, maps
        induced on a quotient) skip the per-generator Smith normal form."""
        module = cls(factors, [], name, max_closure)  # checks the factors
        module.generators = tuple(_reduce_rowwise(g, module.factors) for g in generators)
        return module

    # -- group structure on points ------------------------------------

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def point_count(self) -> int:
        return math.prod(self.factors)

    def points(self) -> Iterable[Point]:
        return product(*(range(d) for d in self.factors))

    def zero(self) -> Point:
        return (0,) * len(self.factors)

    def add(self, p: Point, q: Point) -> Point:
        return tuple((a + b) % d for a, b, d in zip(p, q, self.factors))

    def neg(self, p: Point) -> Point:
        return tuple((-a) % d for a, d in zip(p, self.factors))

    def sub(self, p: Point, q: Point) -> Point:
        return tuple((a - b) % d for a, b, d in zip(p, q, self.factors))

    def scale(self, c: int, p: Point) -> Point:
        return tuple((c * a) % d for a, d in zip(p, self.factors))

    def order_of(self, p: Point) -> int:
        return math.lcm(*(d // math.gcd(d, a) for a, d in zip(p, self.factors)))

    def check_point(self, p: Point) -> Point:
        p = _int_tuple(p, f"{self.name}: point coordinates")
        if len(p) != len(self.factors) or any(not 0 <= a < d for a, d in zip(p, self.factors)):
            raise InvalidInputError(f"{self.name}: point {p} out of range for factors {self.factors}")
        return p

    # -- automorphisms --------------------------------------------------

    def identity(self) -> Matrix:
        k = len(self.factors)
        return _reduce_rowwise(
            [[1 if i == j else 0 for j in range(k)] for i in range(k)], self.factors)

    def compose(self, a: Matrix, b: Matrix) -> Matrix:
        return _reduce_rowwise(mat_mul(a, b), self.factors)

    def _check_invertible(self, mat: Matrix, idx: int) -> None:
        # An endomorphism of a finite group is bijective iff it is surjective.
        # A is onto ⊕ Z/d_i iff the columns of A together with those of diag(d)
        # span Z^k, i.e. iff every invariant factor of [A | diag(d)] is 1.
        k = len(self.factors)
        relations = [list(row) + [d if j == i else 0 for j in range(k)]
                     for i, (row, d) in enumerate(zip(mat, self.factors))]
        diag = smith_normal_form(relations)[0]
        if any(diag[i][i] != 1 for i in range(k)):
            raise InvalidInputError(
                f"{self.name}: generator {idx} is not invertible (its image is a proper subgroup)")

    @cached_property
    def closure(self) -> tuple[Matrix, ...]:
        """The group the generators generate, sorted: `_generate` from the identity
        under compose (one product per element), capped at max_closure elements."""
        return _generate(self.identity(), self.generators, self.compose, self.max_closure,
                         f"{self.name}: closure exceeds cap {self.max_closure}")

    def __repr__(self):
        return f"GaloisModule({self.name}: factors={self.factors}, gens={len(self.generators)})"


def validate_module(raw: dict, max_closure: int = DEFAULT_MAX_CLOSURE) -> GaloisModule:
    """Build a GaloisModule from a parsed module-description object.

    Expected fields: "name" (string), "factors" (array of ints), "galois"
    (array of k x k matrices; each either k rows of k ints or a flat
    row-major list of k*k ints).  Every factor and matrix entry must be a
    JSON integer: floats, strings, null and booleans are rejected.
    """
    if not isinstance(raw, dict):
        raise InvalidInputError("module description must be a JSON object")
    try:
        name = raw.get("name", "module")
        factors = raw["factors"]
        galois = raw.get("galois", [])
    except KeyError as exc:
        raise InvalidInputError(f"module description missing field {exc}") from exc
    if not isinstance(factors, (list, tuple)):
        raise InvalidInputError(f"'factors' must be an array of integers, got {factors!r}")
    if not isinstance(galois, (list, tuple)):
        raise InvalidInputError("'galois' must be an array of matrices")
    k = len(factors)
    mats = []
    for idx, m in enumerate(galois):
        if not isinstance(m, (list, tuple)):
            raise InvalidInputError(f"'galois[{idx}]' must be a matrix")
        if m and isinstance(m[0], (list, tuple)):
            rows = m
        else:
            if len(m) != k * k:
                raise InvalidInputError(
                    f"'galois[{idx}]' flat matrix needs {k * k} entries, got {len(m)}")
            rows = [m[i * k:(i + 1) * k] for i in range(k)]
        mats.append(rows)
    return GaloisModule(factors, mats, name=str(name), max_closure=max_closure)


def apply_automorphism(module: GaloisModule, a: Matrix, p: Point) -> Point:
    """Coordinate i of the image is sum_j A_ij * c_j mod d_i."""
    return tuple(
        sum(row[j] * p[j] for j in range(len(p))) % d
        for row, d in zip(a, module.factors)
    )


def is_almost_rational(module: GaloisModule, p: Point) -> bool:
    """Difference-set predicate: D = {sigma(p) - p} must meet -D only in 0."""
    p = module.check_point(p)
    return not _not_ar_mask(module, [p])[0]


def is_almost_rational_naive(module: GaloisModule, p: Point) -> bool:
    """Literal two-quantifier oracle: loop over all (sigma, tau) pairs.

    Kept deliberately independent of the difference-set shortcut; the test
    suite checks the two always agree.
    """
    p = module.check_point(p)
    images = [apply_automorphism(module, a, p) for a in module.closure]
    for sp in images:
        for tp in images:
            if module.sub(sp, p) == module.sub(p, tp):
                if not (sp == p and tp == p):
                    return False
    return True


def _point_grid(module: GaloisModule, max_points: int = DEFAULT_MAX_POINTS) -> np.ndarray:
    """Every point as one row of an (n, k) int64 array, in module.points() order.

    The point cap and the kernel bound are checked before anything is allocated.
    """
    import numpy as np

    _check_cap(module, module.point_count, "points", max_points)
    _check_kernel_bound(module)
    # broadcast views, so the stacked copy is the only (n, k) array allocated
    grids = np.meshgrid(*(np.arange(d, dtype=np.int64) for d in module.factors),
                        indexing="ij", copy=False)
    return np.stack(grids, axis=-1).reshape(module.point_count, module.rank)


def _orbit_labels(module: GaloisModule, pts: np.ndarray, order_bound: int) -> np.ndarray:
    """For every grid row, the least grid index in its orbit under the
    generators; order_bound is a multiple of every generator's order.

    A generator g pulls labels through g, g^2, g^4, ... up to 2^L >=
    order_bound (lab = min(lab, lab[image])), so each cycle of g ends up
    carrying its least label.  Pointer jumping (lab = lab[lab]) and further
    passes run until the labels are constant under every generator, hence
    on every orbit.  Image grid indices are built by Horner's rule.
    """
    import numpy as np

    identity = module.identity()

    def image(mat):
        code = np.zeros(len(pts), dtype=np.int64)
        for row, d in zip(mat, module.factors):
            code *= d
            code += pts @ np.array(row, dtype=np.int64) % d
        return code

    def pull(mat):
        for _ in range((order_bound - 1).bit_length()):
            if mat == identity:  # g^(2^j) = 1: its cycles are already covered
                return
            np.minimum(lab, lab[image(mat)], out=lab)
            mat = module.compose(mat, mat)

    lab = np.arange(len(pts))
    for g in module.generators:
        pull(g)
    while True:
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
        if all(np.array_equal(lab[image(g)], lab) for g in module.generators):
            return lab
        for g in module.generators:
            pull(g)


def _check_cap(module: GaloisModule, count: int, what: str, max_points: int) -> None:
    if count > max_points:
        raise ResourceCapError(f"{module.name}: {count} {what} exceeds the cap {max_points}")


def _check_kernel_bound(module: GaloisModule) -> None:
    if module.point_count > KERNEL_POINT_BOUND:
        raise ResourceCapError(
            f"{module.name}: {module.point_count} points overflow int64 difference codes")


def _not_ar_mask(module: GaloisModule, pts: np.ndarray) -> np.ndarray:
    """The difference-set test on an (n, k) block of points: True where not a.r.

    Per chunk, the mixed-radix codes c < total of D_i = {sigma(p_i) - p_i}
    and of -D_i are built by Horner's rule one coordinate at a time, in
    place, so no |closure| x chunk x k array exists.  The offset code
    i*total + c is unique per pair (i, c), so after one sort of the offset
    difference codes, searchsorted finds i*total + code(-d) exactly when -d
    lies in D_i; a hit with d != 0 marks p_i as not almost rational.
    Repeated codes are harmless.  Exact integer arithmetic throughout.
    """
    import numpy as np

    total = module.point_count
    _check_kernel_bound(module)
    pts = np.asarray(pts, dtype=np.int64)
    mats = np.array(module.closure, dtype=np.int64)
    s = len(mats)
    bad = np.zeros(len(pts), dtype=bool)
    chunk = max(1, 4_000_000 // s)  # at most max(4e6, s) codes per haystack
    for start in range(0, len(pts), chunk):
        block = pts[start:start + chunk]
        c = len(block)
        d_codes = np.zeros((s, c), dtype=np.int64)
        n_codes = np.zeros((s, c), dtype=np.int64)
        coord = np.empty((s, c), dtype=np.int64)
        for i, d in enumerate(module.factors):
            np.matmul(mats[:, i, :], block.T, out=coord)
            coord -= block[:, i]
            coord %= d
            d_codes *= d
            d_codes += coord
            np.negative(coord, out=coord)
            coord %= d
            n_codes *= d
            n_codes += coord
        del coord  # one (s, c) array fewer while the sort and search allocate
        nonzero = n_codes != 0
        offsets = np.arange(c, dtype=np.int64) * total
        d_codes += offsets
        n_codes += offsets
        hay = d_codes.ravel()
        hay.sort()
        pos = np.searchsorted(hay, n_codes.ravel())
        np.take(hay, pos, mode="clip", out=pos)  # a needle past the end reads hay[-1]
        hit = (pos == n_codes.ravel()).reshape(s, c) & nonzero
        bad[start:start + c] = hit.any(axis=0)
    return bad


def _rows(module: GaloisModule, index: np.ndarray) -> Iterable[Point]:
    """The points at the given grid indices, as tuples of ints.  They are built
    a chunk at a time, so no Python list holds every coordinate at once."""
    import numpy as np

    for start in range(0, len(index), 1 << 12):
        cols = np.unravel_index(index[start:start + (1 << 12)], module.factors)
        yield from zip(*(c.tolist() for c in cols))


def _fixed_generators(module: GaloisModule) -> list[Point]:
    """Generators of the rational points F = {p : g p = p for every generator g}.

    p is fixed exactly when (p, y) is in the integer kernel of A = [B | D] for
    some y, B the rows of every g - I stacked, D the diagonal of their moduli.
    D has full rank R, so with U A^T V = S the kernel is spanned by the rows
    R, R+1, ... of U; their first k entries, reduced mod d, generate F.
    """
    rows = [([x - (i == j) for j, x in enumerate(g[i])], d)
            for g in module.generators for i, d in enumerate(module.factors)]
    at = [[row[j] for row, _ in rows] for j in range(module.rank)]
    at += [[d * (c == r) for c in range(len(rows))] for r, (_, d) in enumerate(rows)]
    u = smith_normal_form(at)[1]
    gens = {tuple(x % d for x, d in zip(row, module.factors)) for row in u[len(rows):]}
    return sorted(gens - {module.zero()})


def _span_codes(module: GaloisModule, start: np.ndarray, gens: Sequence[Point]) -> np.ndarray:
    """The sorted grid indices of start + ⟨gens⟩; start holds the sorted grid
    indices of 0 and of points in other, distinct cosets of ⟨gens⟩.  Each h
    adds X + s*h for 0 < s < t, X the set so far and t the least s >= 1 with
    s*h in X, so in ⟨gens before h⟩: every element is built once."""
    import numpy as np

    span = start
    for h in gens:
        s = np.arange(module.order_of(h), dtype=np.int64)
        multiples = np.ravel_multi_index(
            tuple(s * x % d for x, d in zip(h, module.factors)), module.factors)
        pos = np.minimum(np.searchsorted(span, multiples), len(span) - 1)
        inside = np.flatnonzero(span[pos] == multiples)  # s = 0 always
        s = s[:inside[1] if len(inside) > 1 else len(s)]
        codes = np.zeros((len(span), len(s)), dtype=np.int64)
        for col, x, d in zip(np.unravel_index(span, module.factors), h, module.factors):
            codes *= d
            codes += (col[:, None] + s * x) % d
        span = np.sort(codes, axis=None)
    return span


def almost_rational_set(module: GaloisModule,
                        expected: Optional[Iterable[Point]] = None,
                        max_points: int = DEFAULT_MAX_POINTS) -> ARTReport:
    """Enumerate the almost-rational points, sorted, with optional comparison
    against an expected subgroup.

    The a.r. set is a union of preimages of Galois orbits on M/F, F the
    fixed subgroup:
    - for tau in the closure, D_{tau p} = tau(D_p), since sigma(tau p) -
      tau p = tau(tau^-1 sigma tau (p) - p) and conjugation by tau permutes
      the closure; tau is an automorphism, so D_{tau p} meets its negation
      only in 0 exactly when D_p does;
    - for q in F, D_{p+q} = D_p, since sigma(p + q) - (p + q) = sigma(p) - p;
      and tau(p + q) = tau(p) + q.
    So the kernel runs on a lift of one point per orbit of the grid of M/F
    (`_orbit_labels`), and the a.r. set is {lift(q) + f : q a.r., f in F}.
    max_points bounds |F|, |M/F| and the output, each checked before it is
    allocated; no grid of M is built.
    """
    import numpy as np

    t0 = time.perf_counter()
    gens = _fixed_generators(module)
    pres = quotient_presentation(module, gens, name=f"{module.name}/F")
    n_fixed = module.point_count // pres.module.point_count
    _check_cap(module, n_fixed, "rational points", max_points)
    qpts = _point_grid(pres.module, max_points)
    lab = _orbit_labels(pres.module, qpts, len(module.closure))
    reps = np.flatnonzero(lab == np.arange(len(lab)))
    bad = np.zeros(len(lab), dtype=bool)
    bad[reps] = _not_ar_mask(module, pres.lift(qpts[reps]))
    lifts = pres.lift(qpts[~bad[lab]])  # lift(0) = 0 is among them
    del qpts, lab, bad
    _check_cap(module, len(lifts) * n_fixed, "almost-rational points", max_points)
    start = np.sort(np.ravel_multi_index(tuple(lifts.T), module.factors))
    ar = tuple(_rows(module, _span_codes(module, start, gens)))
    elapsed = (time.perf_counter() - t0) * 1000.0
    exp = None if expected is None else tuple(sorted(module.check_point(p) for p in expected))
    return ARTReport(module.name, module.point_count, ar, exp, elapsed)


# -- constructors -------------------------------------------------------


def cyclotomic_module(n: int, max_closure: int = DEFAULT_MAX_CLOSURE) -> GaloisModule:
    """mu_n: the group Z/n with (Z/nZ)^* acting by multiplication."""
    if n < 1:
        raise InvalidInputError(f"cyclotomic_module: n must be >= 1, got {n}")
    gens = [((g,),) for g in unit_group_generators(n)]
    return GaloisModule._of_automorphisms((n,), gens, f"mu_{n}", max_closure)


def constant_module(n: int, max_closure: int = DEFAULT_MAX_CLOSURE) -> GaloisModule:
    """Z/n with trivial action: every point is rational."""
    if n < 1:
        raise InvalidInputError(f"constant_module: n must be >= 1, got {n}")
    return GaloisModule((n,), [], name=f"const_{n}", max_closure=max_closure)


def homothety_module(m: int, e: int, dim: int,
                     max_closure: int = DEFAULT_MAX_CLOSURE) -> GaloisModule:
    """(Z/m)^dim acted on by the e-th power homotheties u^e * Id."""
    if m < 1 or e < 1 or dim < 1:
        raise InvalidInputError(f"homothety_module: bad parameters {(m, e, dim)}")
    gens = []
    for u in unit_group_generators(m):
        scalar = pow(u, e, m)
        gens.append([[scalar if i == j else 0 for j in range(dim)] for i in range(dim)])
    return GaloisModule._of_automorphisms((m,) * dim, gens, f"hom_{m}_e{e}_d{dim}",
                                          max_closure)


def direct_sum(a: GaloisModule, b: GaloisModule,
               pairs: Optional[Sequence[tuple]] = None,
               name: Optional[str] = None) -> GaloisModule:
    """Concatenate two modules with block-diagonal generators.

    `pairs` lists the generators of the sum: each entry is a 2-tuple
    (matrix_on_a, matrix_on_b) with None meaning the identity on that block.
    The default pairs every generator of each summand with the identity on
    the other, i.e. the full product of the two Galois images.  Pass explicit
    pairs to realize a diagonal image when both actions factor through a
    common quotient.  Explicit pairs are validated in full.  The default
    pairs need no check: a block-diagonal matrix of automorphisms of the
    summands is an automorphism of the sum.
    """
    explicit = pairs is not None
    if pairs is None:
        pairs = [(g, None) for g in a.generators]
        pairs += [(None, g) for g in b.generators]
    ka, kb = a.rank, b.rank
    gens = []
    for idx, pair in enumerate(pairs):
        if len(pair) != 2:
            raise InvalidInputError(
                f"direct_sum: pairing entry {idx} has {len(pair)} components, expected 2")
        left, right = pair
        left = a.identity() if left is None else _as_matrix(left, ka, f"pair {idx} left")
        right = b.identity() if right is None else _as_matrix(right, kb, f"pair {idx} right")
        gens.append([list(row) + [0] * kb for row in left]
                    + [[0] * ka + list(row) for row in right])
    factors, name = a.factors + b.factors, name or f"{a.name}+{b.name}"
    max_closure = max(a.max_closure, b.max_closure)
    if explicit:
        return GaloisModule(factors, gens, name=name, max_closure=max_closure)
    return GaloisModule._of_automorphisms(factors, gens, name, max_closure)


def _as_matrix(m, k: int, label: str) -> Matrix:
    mat = tuple(map(tuple, m))  # entries are checked by GaloisModule
    if len(mat) != k or any(len(row) != k for row in mat):
        raise InvalidInputError(f"direct_sum: {label} is not {k}x{k}")
    return mat


def subgroup_span(module: GaloisModule, gens: Iterable[Point]) -> tuple[Point, ...]:
    """The subgroup the points generate, sorted: `_generate` from zero under add,
    capped at DEFAULT_MAX_POINTS points."""
    return _generate(module.zero(), [module.check_point(p) for p in gens], module.add,
                     DEFAULT_MAX_POINTS,
                     f"{module.name}: span exceeds cap {DEFAULT_MAX_POINTS} points")


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient module, the projection from parent coordinates, and a lift
    back with project(lift(q)) == q."""

    module: GaloisModule
    project: Callable[[Point], Point] = field(compare=False)
    lift: Callable[[np.ndarray], np.ndarray] = field(compare=False)


def quotient_presentation(module: GaloisModule, sub: Sequence[Point],
                          name: Optional[str] = None) -> QuotientPresentation:
    """Present module/⟨sub⟩ in invariant-factor coordinates.

    `sub` generates the subgroup (its elements do too; zero may be omitted),
    and each generator of the module must map every point of `sub` into their
    span; otherwise the offending generator is named.  The new basis comes
    from the Smith normal form U [diag(d) | sub] V = D; the induced action is
    U A U^{-1} restricted to the nontrivial coordinates, and
    lift(q) = U^{-1} (q padded with zeros) mod d.
    """
    sub_pts = [module.check_point(p) for p in sub]
    k = module.rank
    relations = [[d * (i == j) for j in range(k)] + [h[i] for h in sub_pts]
                 for i, d in enumerate(module.factors)]
    diag, u, uinv = smith_normal_form(relations)
    new_d = [diag[i][i] for i in range(k)]
    if any(d < 1 for d in new_d):
        raise RuntimeError("quotient of a finite group must be finite")
    keep = [i for i in range(k) if new_d[i] > 1]
    if not keep:
        keep = [k - 1]  # trivial quotient, presented as Z/1
    new_factors = tuple(new_d[i] for i in keep)
    section = [[uinv[j][i] % d for i in keep] for j, d in enumerate(module.factors)]

    def project(p: Point) -> Point:
        p = module.check_point(p)
        return tuple(
            sum(u[i][j] * p[j] for j in range(k)) % new_d[i] for i in keep)

    # x lies in the span iff project(x) = 0.  A subgroup that each generator
    # maps into itself is mapped into itself by every product of generators,
    # and so by the whole closure: checking the generators suffices, and the
    # parent's closure is never built.
    for g in module.generators:
        for h in sub_pts:
            img = apply_automorphism(module, g, h)
            if any(project(img)):
                raise InvalidInputError(
                    f"{module.name}: subgroup not Galois-stable; generator "
                    f"{list(map(list, g))} sends {h} to {img}, "
                    f"which is not in the subgroup")

    def lift(q):  # one quotient point, or an (n, k') array of them
        import numpy as np

        _check_kernel_bound(module)  # keeps the int64 product below 2**63
        return np.asarray(q, dtype=np.int64) @ np.array(section, dtype=np.int64).T % module.factors

    new_gens = []
    for g in module.generators:
        conj = mat_mul(mat_mul(u, g), uinv)
        new_gens.append([[conj[i][j] for j in keep] for i in keep])
    qname = name or f"{module.name}/sub{module.point_count // math.prod(new_factors)}"
    qmod = GaloisModule._of_automorphisms(new_factors, new_gens, qname, module.max_closure)
    return QuotientPresentation(qmod, project, lift)


def quotient_by(module: GaloisModule, sub: Sequence[Point],
                name: Optional[str] = None) -> GaloisModule:
    """The quotient of the module by the Galois-stable subgroup spanned by sub."""
    return quotient_presentation(module, sub, name=name).module


# -- lemma audits --------------------------------------------------------


def two_step_unipotents(module: GaloisModule) -> tuple[Matrix, ...]:
    """All closure elements with (sigma - 1)^2 = 0 as an endomorphism."""
    k = module.rank
    out = []
    for a in module.closure:
        m = [[a[i][j] - (1 if i == j else 0) for j in range(k)] for i in range(k)]
        sq = mat_mul(m, m)
        if all(sq[i][j] % module.factors[i] == 0 for i in range(k) for j in range(k)):
            out.append(a)
    return tuple(out)


def lemma4_audit(module: GaloisModule, max_points: int = DEFAULT_MAX_POINTS) -> Lemma4Audit:
    """Check that every two-step-unipotent automorphism fixes every a.r. point."""
    unipotents = two_step_unipotents(module)
    ar = almost_rational_set(module, max_points=max_points).ar_points
    violations = []
    for a in unipotents:
        for p in ar:
            if apply_automorphism(module, a, p) != p:
                violations.append((a, p))
    return Lemma4Audit(module.name, len(unipotents), len(ar), tuple(violations))


def halving_exclusion(module: GaloisModule, p: Point,
                      subgroup: Sequence[Sequence[Sequence[int]]]) -> bool:
    """True when some sigma in the subgroup fixes 2p but moves p; such a point
    cannot be almost rational.  Each element may be any k x k nested sequence."""
    p = module.check_point(p)
    subgroup = [tuple(map(tuple, a)) for a in subgroup]
    closure = module.closure  # sorted, so membership is a binary search
    for a in subgroup:
        if closure[min(bisect_left(closure, a), len(closure) - 1)] != a:
            raise InvalidInputError(
                f"{module.name}: automorphism {list(map(list, a))} is not in the closure")
    two_p = module.add(p, p)
    for a in subgroup:
        if (apply_automorphism(module, a, two_p) == two_p
                and apply_automorphism(module, a, p) != p):
            return True
    return False


def fixed_points(module: GaloisModule) -> tuple[Point, ...]:
    """Points fixed by the entire closure (the rational points of the model),
    spanned from `_fixed_generators` once |M| / |M/F| is within DEFAULT_MAX_POINTS."""
    gens = _fixed_generators(module)
    _check_cap(module, module.point_count // quotient_by(module, gens).point_count,
               "rational points", DEFAULT_MAX_POINTS)
    return subgroup_span(module, gens)
