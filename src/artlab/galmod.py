"""Finite Galois modules presented explicitly, and the almost-rationality
machinery that runs over them.

A module is a finite abelian group ⊕_i Z/d_i together with a finite group of
automorphisms given by integer matrices acting on column coordinate vectors.
Every automorphism is a plain `Matrix` (a tuple of row tuples) with row i
reduced mod d_i, so equal automorphisms are equal tuples.
A point p is almost rational when sigma(p) - p = p - tau(p) forces
sigma(p) = tau(p) = p over the whole automorphism group; equivalently the
difference set {sigma(p) - p} meets its own negation only in 0.  The
production predicate is one orbit kernel, `_not_ar_mask`, which never lists
the group; the literal two-quantifier loop is an independent oracle.  Galois
acts on roots of unity through the cyclotomic character, so every
constructor's generators commute (`GaloisModule.commutes`); then one turn per
generator closes the orbits, in the labels and in the kernel, and only
generators that do not commute take turns until nothing moves.
`almost_rational_set` labels the Galois orbits of M/H, H a Galois-stable
subgroup of the rational (fixed) points F, and adds H back to the lifts of
the a.r. orbits.  Two lemmas make that exact: D_{tau p} = tau(D_p) for tau
in the group, and D_{p+q} = D_p for q in F.  A module of at most
WHOLE_MODULE_POINTS points takes H = 0 and is labelled whole; a larger one
takes H = F.  When H has a Galois-stable complement C (always when H = 0;
decided by a lemma in `almost_rational_set`, with no section built), the
projection maps C isomorphically onto M/H and D_{h+c} = D_c, so the exact
orbit labels answer the difference-set test in one pass (`_split_not_ar`);
otherwise the kernel runs on a lift of one point per orbit.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, combinations, product
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DEFAULT_MAX_CLOSURE, DEFAULT_MAX_POINTS, InvalidInputError, ResourceCapError
from .modarith import unit_group_generators
from .snf import mat_mul, smith_normal_form

ORBIT_BLOCK = 1 << 20  # orbit points a block of several representatives may hold
WHOLE_MODULE_POINTS = 1 << 11  # up to this |M|, labelling M beats presenting M/F
SPAN_POINT_BOUND = 2 ** 62  # keeps every span code, and col + multiple < 2d, below 2**63
ROW_CHUNK = 1 << 12  # points decoded into tuples at a time

Matrix = tuple[tuple[int, ...], ...]
Point = tuple[int, ...]

_compact = partial(json.dumps, separators=(",", ":"))


class ARTReport:
    """Almost-rational points of one module, as `almost_rational_set` found them.

    The a.r. set is A = H + s(A_Q): A_Q the a.r. set of Q = M/H (`quotient_ar`,
    grid codes of Q) and s(A_Q) its lifts (`lifts`, sorted grid codes of M),
    with H generated by `fixed`, |H| = `n_fixed`, and `pres` presenting Q; when
    H = 0, `pres` is None and A is the lifts.  `expected_generators` generate
    E, the subgroup the verdict compares A with, or are None.  A and E are
    spanned in M (`ar_codes`, `expected_codes`, at most `cap` points) only when
    read or written, and decoded into point tuples (`ar_points`, `expected`)
    only when those are read; each is found once.  Reports compare by content:
    name, points, ar_points and expected, not elapsed_ms.
    """

    def __init__(self, module: GaloisModule, pres: Optional[QuotientPresentation],
                 fixed: Sequence[Point], n_fixed: int, quotient_ar: np.ndarray,
                 lifts: np.ndarray, expected: Optional[Sequence[Point]], cap: int,
                 elapsed_ms: float):
        self.module, self.name, self.points = module, module.name, module.point_count
        self.pres, self.fixed, self.n_fixed = pres, fixed, n_fixed
        self.quotient_ar, self.lifts, self.expected_generators = quotient_ar, lifts, expected
        self.cap, self.elapsed_ms = cap, elapsed_ms

    @cached_property
    def ar_codes(self) -> np.ndarray:
        return _span_codes(self.module, self.lifts, self.fixed, self.cap)

    @cached_property
    def expected_codes(self) -> Optional[np.ndarray]:
        if self.expected_generators is None:
            return None
        return subgroup_span(self.module, self.expected_generators, codes=True,
                             max_points=self.cap)

    @cached_property
    def ar_points(self) -> tuple[Point, ...]:
        return tuple(chain.from_iterable(_rows(self.module, self.ar_codes)))

    @cached_property
    def expected(self) -> Optional[tuple[Point, ...]]:
        codes = self.expected_codes
        return None if codes is None else tuple(chain.from_iterable(_rows(self.module, codes)))

    @cached_property
    def verdict(self) -> str:  # "pass" | "fail" | "not-checked"
        """Whether A = E, decided without listing either in M when H != 0.

        With H = 0 the sorted code arrays are compared.  Otherwise, with pi the
        projection M -> Q: A = E iff pi(E) = A_Q and |E| = |H| |pi(E)|.  A is a
        union of cosets of H, so A = pi^-1(A_Q), and A = E gives pi(E) = A_Q
        and H in E.  Conversely |pi(E)| = |E| / |E n H|, so the orders say H is
        in E, and then E = pi^-1(pi(E)) = pi^-1(A_Q) = A.  Only the span of
        pi(E) is built, in Q, and |E| needs at most one Smith normal form.
        """
        gens = self.expected_generators
        if gens is None:
            return "not-checked"
        if self.pres is None:
            same = np.array_equal(self.lifts, self.expected_codes)
        else:
            image = subgroup_span(self.pres.module, map(self.pres.project, gens), codes=True)
            same = (np.array_equal(image, self.quotient_ar)
                    and _subgroup_order(self.module, gens) == self.n_fixed * len(image))
        return "pass" if same else "fail"

    def _content(self) -> tuple:
        return self.name, self.points, self.ar_points, self.expected

    def __eq__(self, other):
        if not isinstance(other, ARTReport):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self):
        return hash(self._content())

    def to_json(self) -> dict:
        """The JSON object; "ms" is pinned to 0 so output is deterministic."""
        return {"name": self.name, "points": self.points, "ar_points": self.ar_points,
                "expected": self.expected, "verdict": self.verdict, "ms": 0}

    def to_json_line(self) -> str:
        """`to_json()` as one compact JSON line, the point arrays written a chunk
        at a time."""
        def array(codes):
            return "[" + ",".join(_compact(rows)[1:-1] for rows in _rows(self.module, codes)) + "]"

        codes = self.expected_codes
        expected = "null" if codes is None else array(codes)
        return (f'{{"name":{_compact(self.name)},"points":{_compact(self.points)},'
                f'"ar_points":{array(self.ar_codes)},"expected":{expected},'
                f'"verdict":{_compact(self.verdict)},"ms":0}}\n')

    def to_text(self) -> str:
        # each chunk as compact JSON: "[[0,1],[2,3]]" becomes "(0,1) (2,3)"
        points = " ".join("(" + _compact(rows)[2:-2].replace("],[", ") (") + ")"
                          for rows in _rows(self.module, self.ar_codes))
        lines = [
            f"name    : {self.name}",
            f"points  : {self.points}",
            f"a.r.    : {len(self.ar_codes)} point(s)",
            "          " + points,
        ]
        if self.expected_codes is not None:
            lines.append(f"expected: {len(self.expected_codes)} point(s)")
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
        # span Z^k, i.e. iff every invariant factor of [diag(d) | A] is 1.
        diag = smith_normal_form(_relations(self, list(zip(*mat))))[0]
        if any(diag[i][i] != 1 for i in range(self.rank)):
            raise InvalidInputError(
                f"{self.name}: generator {idx} is not invertible (its image is a proper subgroup)")

    @cached_property
    def commutes(self) -> bool:
        """Whether the generators pairwise commute, so that the group is abelian
        (as for every module a constructor builds: Galois acts on roots of unity
        through the cyclotomic character).  Decided in exact integers."""
        return all(self.compose(a, b) == self.compose(b, a)
                   for a, b in combinations(self.generators, 2))

    @cached_property
    def closure(self) -> tuple[Matrix, ...]:
        """The group the generators generate under compose, sorted: a
        breadth-first search from the identity that multiplies each listed
        element by each generator.  In a finite group each inverse is a
        positive power, so the products of generators are the whole group.
        ResourceCapError is raised before element max_closure + 1 is stored.
        The naive oracle and the lemma audits read it; no a.r. path does.
        """
        elements = [self.identity()]
        seen = set(elements)
        for a in elements:  # elements grows while it is read
            for g in self.generators:
                ag = self.compose(a, g)
                if ag not in seen:
                    if len(elements) >= self.max_closure:
                        raise ResourceCapError(
                            f"{self.name}: closure exceeds cap {self.max_closure}")
                    seen.add(ag)
                    elements.append(ag)
        return tuple(sorted(elements))

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
    _check_int64(module, module.factors)  # before p's grid code is formed
    return not _not_ar_mask(module, _codes(module, np.transpose([p])))[0]


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


def _coords(module: GaloisModule, codes: np.ndarray) -> np.ndarray:
    """The (k, n) int64 coordinates of the points with the given grid codes."""
    return np.array(np.unravel_index(codes, module.factors), dtype=np.int64)


def _codes(module: GaloisModule, coords: np.ndarray) -> np.ndarray:
    """The grid codes of the (k, n) integer coordinates coords, each reduced mod d."""
    return np.ravel_multi_index(coords, module.factors, mode="wrap")


def _image(module: GaloisModule, mat, pts: np.ndarray) -> np.ndarray:
    """The grid codes of mat @ pts mod d, for j rows of int64 coordinates pts and a
    k x j integer matrix mat; `_check_int64` keeps the products exact."""
    return _codes(module, np.asarray(mat, dtype=np.int64) @ pts)


def _orbit_labels(module: GaloisModule, max_points: int = DEFAULT_MAX_POINTS) -> np.ndarray:
    """For every grid code, the least grid code in its orbit under the generators.

    A generator g pulls labels through g, g^2, g^4, ... (lab = min(lab,
    lab[image]), each image the square of the last as a grid permutation), so
    lab(x) becomes the least label on x, g x, ..., g^(2^j - 1) x, until a pull
    changes nothing (as once g^(2^j) = 1).  Lemma: then lab(x) <= lab(h x) <=
    ... <= lab(x) for h = g^(2^j), and the windows at x, h x, ... tile the
    g-cycle of x.  So a pull sets lab(x) to the least earlier label on the
    g-cycle of x, and one pass over g_1, ..., g_k to the least code on
    <g_k>...<g_1> x.  One loop runs the passes: when the generators commute
    (`GaloisModule.commutes`), that set is G x and it stops after one pass
    (one image per generator); otherwise each pass that moved a label is
    followed by pointer jumping (lab = lab[lab]), and passes repeat until one
    moves no label, so the labels are constant on every orbit.
    """
    _check_cap(module, module.point_count, "points", max_points)
    _check_int64(module, module.factors)
    lab = np.arange(module.point_count)
    pts = _coords(module, lab)

    def pull(g):  # whether a label moved
        image = _image(module, g, pts)
        moved = False
        while np.count_nonzero((pulled := lab[image]) < lab):
            np.minimum(lab, pulled, out=lab)
            image, moved = image[image], True
        return moved

    while any([pull(g) for g in module.generators]) and not module.commutes:  # every pull
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
    return lab


def _check_cap(module: GaloisModule, count: int, what: str, max_points: int) -> None:
    if count > max_points:
        raise ResourceCapError(f"{module.name}: {count} {what} exceeds the cap {max_points}")


def _check_int64(module: GaloisModule, cols: Sequence[int]) -> None:
    """Refuse unless |M| and each sum_j a_j x_j, a_j < max(d), x_j < cols[j], stay
    below 2**63, so that int64 codes, matrix products and lifts are exact, and
    the rank is below 64: a block's keys decode over 1 + rank numpy axes."""
    if module.point_count >= 2 ** 63 or (max(module.factors) - 1) * sum(cols) >= 2 ** 63:
        raise ResourceCapError(f"{module.name}: rank {module.rank} with largest factor "
                               f"{max(module.factors)} overflows int64 products")
    _check_rank(module.name, module.rank)  # only factors of 1 get here


def _check_rank(name: str, rank: int) -> None:
    if rank >= 64:
        raise ResourceCapError(
            f"{name}: rank {rank} exceeds 63, the most numpy's array axes allow")


def _not_ar_mask(module: GaloisModule, codes: np.ndarray) -> np.ndarray:
    """The difference-set test on the points with these grid codes: True where not a.r.

    D_p = {x - p : x in G p}, and x - p is in -D_p iff 2p - x is in G p, so p
    is not a.r. iff some x != p in its orbit has 2p - x in it: G is never
    listed.  Orbits grow by doubling, X <- X u g^(2^j) X for j = 0, 1, ...,
    until g^(2^j) X lies in X or g^(2^j) = 1.  Lemma: the stop is exact, since
    if X = u_{i<2^j} g^i X0, then g X lies in X u g^(2^j) X0.  So a turn of g
    leaves X = <g> X0, still h-stable for each h that commutes with g and kept
    X0 stable: when the generators commute, one turn each gives X = G X0.
    Otherwise they take turns until each finds X closed since the last growth.
    A block's state is one sorted array of keys r*|M| + code(x), x in the orbit
    of the block's r-th point: the grid codes of (r, x) in (block) x M.  The
    2p - x test runs once, on the final keys.  `_check_int64` keeps |M| and
    each sum_j A_ij x_j below 2**63, and a block has at most (2**63 - 1) // |M|
    points, so no key wraps.  An orbit past max_closure points raises
    ResourceCapError, and a block of several points is halved before a step
    would sort more than ORBIT_BLOCK keys: each sorted array holds at most
    max(ORBIT_BLOCK, 2 * max_closure) keys.
    """
    _check_int64(module, module.factors)
    size, cap, gens = module.point_count, module.max_closure, module.generators
    one, abelian = module.identity(), module.commutes

    def mark(lo, hi):  # marks bad[lo:hi]; False when the block must be halved
        keys = np.arange(hi - lo) * size + codes[lo:hi]
        quiet = i = 0
        while quiet < len(gens):
            t, quiet, i = gens[i], quiet + 1, (i + 1) % len(gens)
            while t != one:  # t is g^(2^j)
                if 2 * len(keys) > ORBIT_BLOCK and hi - lo > 1:
                    return False
                r, *x = np.unravel_index(keys, (hi - lo,) + module.factors)
                union = np.sort(np.concatenate((keys, r * size + _image(module, t, x))))
                union = union[np.concatenate(([True], union[1:] != union[:-1]))]
                if len(union) == len(keys):
                    break
                # each of the other hi - lo - 1 points keeps a key of its own
                if len(union) - (hi - lo) >= cap and np.bincount(union // size).max() > cap:
                    raise ResourceCapError(f"{module.name}: orbit exceeds cap {cap}")
                keys, t = union, module.compose(t, t)
                quiet = quiet if abelian else 1  # abelian: a quiet round adds nothing
        r, x = np.divmod(keys, size)
        moved = x != codes[lo:hi][r]  # x = p, where 2p - x = p, is left out
        r, x = r[moved], _coords(module, x[moved])
        z = r * size + _codes(module, 2 * _coords(module, codes[lo:hi][r]) - x)  # 2p - x
        bad[lo + r[keys.take(keys.searchsorted(z), mode="clip") == z]] = True
        return True

    bad = np.zeros(len(codes), dtype=bool)
    width = max(1, min(ORBIT_BLOCK, (2 ** 63 - 1) // size))
    todo = [(lo, min(lo + width, len(codes))) for lo in range(0, len(codes), width)]
    while todo:
        lo, hi = todo.pop()
        if not mark(lo, hi):
            todo += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
    return bad


def _split_not_ar(module: GaloisModule, quotient: GaloisModule, lab: np.ndarray) -> np.ndarray:
    """The difference-set test read off exact orbit labels, for M = H ⊕ C with
    C Galois-stable, Q = quotient = M/H, H in F: True at the orbit
    representatives of Q that are not a.r.

    p is not a.r. iff some x != p in G p has 2p - x in G p, and `_orbit_labels`
    gives every orbit exactly, so one pass over x in Q does it: p = lab[x] is
    bad if x != p and lab[2p - x] = p.  This is Q's a.r. set; M's is its
    preimage, since the projection maps C onto Q as a Galois isomorphism and
    D_{h + c} = D_c.  An orbit past max_closure points raises
    ResourceCapError, as in `_not_ar_mask`.
    """
    cap = module.max_closure
    if len(lab) > cap and np.bincount(lab).max() > cap:
        raise ResourceCapError(f"{module.name}: orbit exceeds cap {cap}")
    x = np.arange(len(lab))
    pts = _coords(quotient, x)
    z = _codes(quotient, 2 * pts[:, lab] - pts)
    bad = np.zeros(len(lab), dtype=bool)
    bad[lab[(x != lab) & (lab[z] == lab)]] = True
    return bad


def _rows(module: GaloisModule, codes: np.ndarray) -> Iterable[list[Point]]:
    """The points with the given grid codes, as tuples of ints, in lists of at
    most ROW_CHUNK points: no Python list holds every coordinate at once."""
    for start in range(0, len(codes), ROW_CHUNK):
        yield list(zip(*_coords(module, codes[start:start + ROW_CHUNK]).tolist()))


def _fixed_generators(module: GaloisModule) -> tuple[list[Point], int]:
    """Generators of the rational points F = {p : g p = p for every generator g}, and |F|.

    p is fixed exactly when (p, y) is in the integer kernel of A = [B | D] for
    some y, B the rows of every g - I stacked, D the diagonal of their moduli.
    D has full rank R, so with U A^T V = S the kernel is spanned by the rows R,
    R+1, ... of U; their first k entries, reduced mod d, generate F.  The map
    p -> B p mod the d_r has kernel F and image of order prod(d_r) / prod(s_i),
    s_i the invariant factors of A, so |F| = |M| * prod(s_i) / prod(d_r).
    """
    rows = [([x - (i == j) for j, x in enumerate(g[i])], d)
            for g in module.generators for i, d in enumerate(module.factors)]
    at = [[row[j] for row, _ in rows] for j in range(module.rank)]
    at += [[d * (c == r) for c in range(len(rows))] for r, (_, d) in enumerate(rows)]
    s, u, _ = smith_normal_form(at)
    n_fixed = (module.point_count * math.prod(s[i][i] for i in range(len(rows)))
               // math.prod(d for _, d in rows))
    gens = {tuple(x % d for x, d in zip(row, module.factors)) for row in u[len(rows):]}
    return sorted(gens - {module.zero()}), n_fixed


def _span_codes(module: GaloisModule, start: np.ndarray, gens: Sequence[Point],
                cap: int) -> np.ndarray:
    """The sorted grid codes of start + ⟨gens⟩; start holds the sorted grid
    codes of 0 and of points in other, distinct cosets of ⟨gens⟩.  Each h
    adds X + s*h for 0 < s < t, X the set so far and t the least s >= 1 with
    s*h in X, so in ⟨gens before h⟩: every element is built once.  h = 0 adds
    nothing, and from X = {0} the step is the multiples of h themselves.
    ResourceCapError ("span exceeds cap") is raised before s = 0 .. order(h) - 1
    exists if order(h) > cap or order(h)^2 >= 2**63, and before a step of
    len(X) * t > cap codes.  Coordinate x mod d of s*h is g * (s * (x/g) mod
    d/g), g = gcd(x, d), and s * (x/g) < order(h)^2, where s * x wraps in
    int64 once d > 3e9.  With |M| <= 2**62, codes and col + multiple < 2d
    fit in int64."""
    span = start
    for h in gens:
        order = module.order_of(h)
        if order > cap or order ** 2 >= 2 ** 63:
            raise ResourceCapError(f"{module.name}: span exceeds cap {cap} points")
        if order == 1:
            continue
        s = np.arange(order, dtype=np.int64)
        steps = [s * (x // g) % (d // g) * g
                 for x, d in zip(h, module.factors) for g in [math.gcd(x, d)]]
        multiples = _codes(module, np.array(steps))
        if len(span) == 1:  # X = {0}, since 0 is in start
            span = np.sort(multiples)
            continue
        pos = np.minimum(np.searchsorted(span, multiples), len(span) - 1)
        inside = np.flatnonzero(span[pos] == multiples)  # s = 0 always
        t = int(inside[1]) if len(inside) > 1 else order
        if len(span) * t > cap:
            raise ResourceCapError(f"{module.name}: span exceeds cap {cap} points")
        codes = np.zeros((len(span), t), dtype=np.int64)
        for col, step, d in zip(_coords(module, span), steps, module.factors):
            codes *= d
            codes += (col[:, None] + step[:t]) % d
        span = np.sort(codes, axis=None)
    return span


def almost_rational_set(module: GaloisModule, max_points: int = DEFAULT_MAX_POINTS,
                        expected: Optional[Iterable[Point]] = None) -> ARTReport:
    """Enumerate the almost-rational points, sorted, as grid codes (`ARTReport`).
    With `expected`, generators of a subgroup E, the verdict says whether the
    a.r. set is E; without it the report's expected is None.

    The a.r. set is a union of preimages of Galois orbits on M/H, for any
    Galois-stable H in the fixed subgroup F:
    - for tau in G, D_{tau p} = tau(D_p), since sigma(tau p) - tau p = tau(tau^-1
      sigma tau (p) - p) and conjugation by tau permutes G; tau is an
      automorphism, so D_{tau p} meets its negation only in 0 iff D_p does;
    - for q in F, D_{p+q} = D_p, since sigma(p + q) - (p + q) = sigma(p) - p;
      and tau(p + q) = tau(p) + q.
    So the a.r. set is {lift(q) + h : q a.r. in M/H, h in H}, for any lift,
    and a.r.-ness is constant on each orbit of the grid of M/H
    (`_orbit_labels`).  Three routes decide it:
    - whole module: when |M| <= min(WHOLE_MODULE_POINTS, max_points), H = 0,
      M/H is M and the lift is the identity: no Smith normal form or span,
      which cost more than labelling all of a small M.  The labels are exact
      on M, so the one-pass test (`_split_not_ar`) is the difference-set
      lemma itself, whether or not M splits over F;
    - split: otherwise H = F.  When M = F ⊕ C for a Galois-stable C, the
      projection pi maps C onto Q = M/F as a Galois isomorphism and D_{f+c} =
      D_c, so q is a.r. in Q iff pi^-1(q) is a.r. in M, and one pass over the
      orbit labels tests every orbit.  Lemma: for G abelian, C exists iff Q^G
      = 0.
      - =>, for any G: Q is isomorphic to C, and C^G = C n F = 0.
      - <=: for a prime p write G = P x P', P the p-Sylow subgroup.  e =
        |P'|^-1 sum_{h in P'} h is an idempotent on M_p that commutes with G,
        so M_p = X ⊕ Y with X = M_p^{P'}, which holds F_p, and Y = (1 - e) M_p,
        both G-stable.  If X != F_p, the p-group P fixes a nonzero point of
        X/F_p = X/X^P, which lies in Q^G.  So Q^G = 0 gives X = F_p, and C is
        the sum of the Y_p.
      - If gcd(|F|, |Q|) = 1, each F_p is 0 or M_p, and C is the sum of the
        M_p with F_p = 0, for any G.
      So the route runs when gcd(|H|, |M/H|) = 1 (always when H = 0), or when
      the generators commute (`GaloisModule.commutes`) and {0} is the only
      one-point orbit of Q, read off the labels.  Without commuting
      generators Q^G = 0 is not enough: S_3 permuting the coordinates of
      (Z/3)^3 has no fixed point on Q and F has no complement;
    - kernel: otherwise the orbit kernel runs on a lift of one point per
      orbit (any lift: D_{f+x} = D_x).
    The steps pass grid codes.  max_points bounds |M|, or else |F|, |M/F| and
    the output (A, and E when it is spanned), each checked before it is
    allocated; max_closure bounds each orbit on every route (G(f + x) = f +
    G x, so the orbits of M have the sizes of the orbits of the lifts).  The
    int64 bounds are checked before any Smith normal form.  H is added to the
    lifts only when the a.r. points are read or written.
    """
    t0 = time.perf_counter()
    _check_int64(module, module.factors)
    if expected is not None:
        expected = [module.check_point(p) for p in expected]
    if module.point_count <= min(WHOLE_MODULE_POINTS, max_points):
        gens, n_fixed = [], 1  # H = 0: label M itself
    else:
        gens, n_fixed = _fixed_generators(module)
        _check_cap(module, n_fixed, "rational points", max_points)
    if gens:
        pres = quotient_presentation(module, gens, name=f"{module.name}/F")
        quotient, lift = pres.module, pres.lift
    else:  # H = 0: M/H is M, lifted by the identity
        pres, quotient, lift = None, module, lambda codes: codes
    lab = _orbit_labels(quotient, max_points)
    if (math.gcd(n_fixed, len(lab)) == 1
            or (module.commutes and np.count_nonzero(np.bincount(lab) == 1) == 1)):
        bad = _split_not_ar(module, quotient, lab)
    else:
        reps = np.flatnonzero(lab == np.arange(len(lab)))
        bad = np.zeros(len(lab), dtype=bool)
        bad[reps] = _not_ar_mask(module, lift(reps))
    quotient_ar = np.flatnonzero(~bad[lab])
    lifts = np.sort(lift(quotient_ar))  # lift(0) = 0 is among them
    del lab, bad
    _check_cap(module, len(lifts) * n_fixed, "almost-rational points", max_points)
    return ARTReport(module, pres, gens, n_fixed, quotient_ar, lifts, expected, max_points,
                     (time.perf_counter() - t0) * 1e3)


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
    """(Z/m)^dim acted on by the e-th power homotheties u^e * Id.  m^dim >= 2**63,
    past every int64 bound of the a.r. path, and a rank past numpy's 63 axes
    (dim >= 64 with m = 1) are refused before any factor or matrix exists."""
    if m < 1 or e < 1 or dim < 1:
        raise InvalidInputError(f"homothety_module: bad parameters {(m, e, dim)}")
    name = f"hom_{m}_e{e}_d{dim}"
    if m > 1 and (dim >= 63 or m ** dim >= 2 ** 63):
        raise ResourceCapError(f"{name}: {m}^{dim} points overflow int64 codes")
    _check_rank(name, dim)
    gens = []
    for u in unit_group_generators(m):
        scalar = pow(u, e, m)
        gens.append([[scalar if i == j else 0 for j in range(dim)] for i in range(dim)])
    return GaloisModule._of_automorphisms((m,) * dim, gens, name, max_closure)


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


def _check_span_codes(module: GaloisModule) -> None:
    if module.point_count > SPAN_POINT_BOUND:
        raise ResourceCapError(
            f"{module.name}: {module.point_count} points overflow int64 span codes")
    _check_int64(module, ())  # the rank


def subgroup_span(module: GaloisModule, gens: Iterable[Point], codes: bool = False,
                  max_points: Optional[int] = None):
    """The subgroup the points generate, sorted: `_span_codes` from 0, capped at
    max_points (by default DEFAULT_MAX_POINTS) points, on modules of at most
    SPAN_POINT_BOUND points.  A tuple of points, or with codes=True their
    sorted int64 grid codes."""
    gens = [module.check_point(p) for p in gens]
    _check_span_codes(module)
    cap = DEFAULT_MAX_POINTS if max_points is None else max_points  # read per call
    span = _span_codes(module, np.zeros(1, dtype=np.int64), gens, cap)
    return span if codes else tuple(chain.from_iterable(_rows(module, span)))


def _relations(module: GaloisModule, pts: Sequence[Point]) -> list[list[int]]:
    """[diag(d) | pts]: its columns span the lattice of Z^k whose quotient is M/<pts>."""
    return [[d * (i == j) for j in range(module.rank)] + [p[i] for p in pts]
            for i, d in enumerate(module.factors)]


def _subgroup_order(module: GaloisModule, pts: Sequence[Point]) -> int:
    """|<pts>|: the order of a single point, else |M| / |M/<pts>|, the latter the
    product of the diagonal of the Smith normal form of `_relations`."""
    if len(pts) == 1:
        return module.order_of(pts[0])
    diag = smith_normal_form(_relations(module, pts))[0]
    return module.point_count // math.prod(diag[i][i] for i in range(module.rank))


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient `module` of `parent` as two integer matrices: the projection
    P from parent coordinates, rows reduced mod the quotient's factors, and
    the section S, a k x (quotient rank) matrix reduced mod the parent's.
    lift(q) = S q mod d on grid codes, and project(lift(q)) == q."""

    parent: GaloisModule
    module: GaloisModule
    projection: Matrix
    section: Matrix

    def project(self, p: Point) -> Point:
        return apply_automorphism(self.module, self.projection, self.parent.check_point(p))

    def lift(self, codes: np.ndarray) -> np.ndarray:
        """Quotient grid codes to parent grid codes, both 1-D int64."""
        _check_int64(self.parent, self.module.factors)  # entries of S times quotient coordinates
        return _image(self.parent, self.section, _coords(self.module, codes))


def quotient_presentation(module: GaloisModule, sub: Sequence[Point],
                          name: Optional[str] = None) -> QuotientPresentation:
    """Present module/⟨sub⟩ in invariant-factor coordinates.

    `sub` generates the subgroup (its elements do too; zero may be omitted),
    and each generator of the module must map every point of `sub` into their
    span; otherwise the offending generator is named.  The new basis comes
    from the Smith normal form U [diag(d) | sub] V = D: P is U restricted to
    the nontrivial coordinates, S is U^{-1} on them, and the induced action
    of A is P A S.  P S = I, so S lifts each point of the quotient; it need
    not be a homomorphism or Galois-equivariant, and no caller needs it to be.
    """
    sub_pts = [module.check_point(p) for p in sub]
    k = module.rank
    diag, u, uinv = smith_normal_form(_relations(module, sub_pts))
    new_d = [diag[i][i] for i in range(k)]
    if any(d < 1 for d in new_d):
        raise RuntimeError("quotient of a finite group must be finite")
    keep = [i for i in range(k) if new_d[i] > 1] or [k - 1]  # a trivial quotient is Z/1
    new_factors = tuple(new_d[i] for i in keep)
    projection = _reduce_rowwise([u[i] for i in keep], new_factors)
    section = _reduce_rowwise([[row[i] for i in keep] for row in uinv], module.factors)
    new_gens = [mat_mul(mat_mul(projection, g), section) for g in module.generators]
    qname = name or f"{module.name}/sub{module.point_count // math.prod(new_factors)}"
    pres = QuotientPresentation(
        module, GaloisModule._of_automorphisms(new_factors, new_gens, qname, module.max_closure),
        projection, section)

    # x lies in the span iff project(x) = 0.  A subgroup that each generator
    # maps into itself is mapped into itself by every product of generators,
    # and so by the whole closure: checking the generators suffices, and the
    # parent's closure is never built.
    for g in module.generators:
        for h in sub_pts:
            img = apply_automorphism(module, g, h)
            if any(pres.project(img)):
                raise InvalidInputError(
                    f"{module.name}: subgroup not Galois-stable; generator "
                    f"{list(map(list, g))} sends {h} to {img}, "
                    f"which is not in the subgroup")
    return pres


# -- lemma audits --------------------------------------------------------


def two_step_unipotents(module: GaloisModule) -> tuple[Matrix, ...]:
    """All closure elements with (sigma - 1)^2 = 0 as an endomorphism."""
    def unipotent(a):
        m = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        return not any(map(any, module.compose(m, m)))

    return tuple(filter(unipotent, module.closure))


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
    closure = set(module.closure)
    for a in subgroup:
        if a not in closure:
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
    spanned from `_fixed_generators` once |F| is within DEFAULT_MAX_POINTS.
    Modules past SPAN_POINT_BOUND are refused before the Smith normal form."""
    _check_span_codes(module)
    gens, n_fixed = _fixed_generators(module)
    _check_cap(module, n_fixed, "rational points", DEFAULT_MAX_POINTS)
    return subgroup_span(module, gens)
