"""Shared fixtures: a deterministic corpus of valid Galois modules.

The corpus mixes fully random modules (rejection-sampled against the
validation rules, capped at 10^4 points and closure 10^3) with every named
constructor, so the oracle-equivalence and elementary-fact suites quantify
over both arbitrary and structured actions.
"""

import math
import random

import pytest

from artlab import (
    GaloisModule,
    InvalidInputError,
    ResourceCapError,
    constant_module,
    cyclotomic_module,
    direct_sum,
    eisenstein_model,
    homothety_module,
    quotient_presentation,
)

CORPUS_SEED = 20260809
RANDOM_MODULE_COUNT = 210
MAX_CORPUS_POINTS = 10 ** 4
MAX_CORPUS_CLOSURE = 10 ** 3


def random_well_defined_matrix(rng, factors):
    """A random well-defined endomorphism matrix for the given factors; it may
    or may not be invertible."""
    k = len(factors)
    style = rng.randrange(4)
    mat = [[0] * k for _ in range(k)]
    if style == 3:
        # scalar by a unit of lcm(factors); always well-defined
        m = math.lcm(*factors)
        units = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
        c = rng.choice(units)
        for i in range(k):
            mat[i][i] = c % factors[i]
        return mat
    for i in range(k):
        for j in range(k):
            req = factors[i] // math.gcd(factors[i], factors[j])
            multiples = factors[i] // req
            if style == 1 and j > i:
                mat[i][j] = 0
            elif style == 2 and j < i:
                mat[i][j] = 0
            else:
                mat[i][j] = req * rng.randrange(multiples)
    if style in (1, 2):
        # unit diagonal keeps triangular candidates invertible
        for i in range(k):
            units = [u for u in range(factors[i]) if math.gcd(u, factors[i]) == 1]
            mat[i][i] = rng.choice(units) if units else 0
    return mat


def _random_generator_matrix(rng, factors):
    """A valid (well-defined, invertible) matrix for the given factors, or None."""
    for _ in range(30):
        mat = random_well_defined_matrix(rng, factors)
        try:
            GaloisModule(factors, [mat], max_closure=MAX_CORPUS_CLOSURE)
        except (InvalidInputError, ResourceCapError):
            continue
        return mat
    return None


def random_module_corpus(count=RANDOM_MODULE_COUNT, seed=CORPUS_SEED):
    rng = random.Random(seed)
    corpus = []
    attempts = 0
    while len(corpus) < count and attempts < count * 50:
        attempts += 1
        k = rng.choice((1, 1, 2, 2, 2, 3))
        factors = tuple(rng.choice((1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20))
                        for _ in range(k))
        if math.prod(factors) > MAX_CORPUS_POINTS:
            continue
        n_gens = rng.choice((0, 1, 1, 1, 2, 2))
        gens = []
        ok = True
        for _ in range(n_gens):
            mat = _random_generator_matrix(rng, factors)
            if mat is None:
                ok = False
                break
            gens.append(mat)
        if not ok:
            continue
        try:
            module = GaloisModule(factors, gens, name=f"rand_{len(corpus)}",
                                  max_closure=MAX_CORPUS_CLOSURE)
            size = len(module.closure)
        except (InvalidInputError, ResourceCapError):
            continue
        if module.point_count * size * size > 2_500_000:
            continue  # keep the naive-oracle pass affordable
        corpus.append(module)
    assert len(corpus) >= count, "corpus generation starved"
    return corpus


def named_constructor_modules():
    mods = []
    mods.extend(cyclotomic_module(n) for n in range(1, 25))
    mods.extend(cyclotomic_module(n) for n in (36, 48, 60))
    mods.extend(constant_module(n) for n in (1, 2, 5, 12))
    mods.extend(homothety_module(*args) for args in
                ((5, 1, 2), (16, 2, 1), (2, 1, 3), (9, 3, 1), (12, 1, 2), (8, 2, 2)))
    mods.append(direct_sum(constant_module(11), cyclotomic_module(11)))
    mods.append(direct_sum(constant_module(3), cyclotomic_module(3)))
    fused = direct_sum(constant_module(6), cyclotomic_module(6))
    mods.append(quotient_presentation(fused, [(3, 3)]).module)
    fused10 = direct_sum(constant_module(10), cyclotomic_module(10))
    mods.append(quotient_presentation(fused10, [(5, 5)]).module)
    mods.extend(eisenstein_model(N).module for N in (23, 29, 37, 41, 73))
    # non-abelian and larger images, still within the corpus caps
    mods.append(direct_sum(cyclotomic_module(16), cyclotomic_module(16)))
    mods.append(cyclotomic_module(101))
    mods.append(GaloisModule((3, 3), [[[0, 2], [1, 0]], [[1, 1], [0, 1]]], name="sl2_3"))
    mods.append(GaloisModule((5, 5), [[[0, 4], [1, 0]], [[2, 0], [0, 3]]], name="mono_5"))
    mods.append(GaloisModule((2, 2), [[[0, 1], [1, 0]], [[1, 1], [0, 1]]], name="gl2_2"))
    mods.append(GaloisModule((4, 4), [[[1, 1], [0, 1]], [[3, 0], [0, 3]]], name="borel_4"))
    for m in mods:
        assert m.point_count <= MAX_CORPUS_POINTS
        assert len(m.closure) <= MAX_CORPUS_CLOSURE
    return mods


@pytest.fixture(scope="session")
def module_corpus():
    return random_module_corpus() + named_constructor_modules()

