"""artlab: almost-rational torsion points on explicitly presented finite
Galois modules, with the verification suite and CLI built around them.

Every public name resolves on first access (PEP 562), so `import artlab`
loads no submodule, and no numpy, until a name from one is used.
"""

import importlib

__version__ = "0.1.0"

# Each submodule, itself a public name, with the public names it defines.
_EXPORTS = {
    "errors": ("InvalidInputError", "ResourceCapError"),
    "snf": (),
    "modarith": (
        "Factorization", "UnitSet", "crt_combine", "euler_phi", "factorize",
        "jacobi_symbol", "power_subgroup", "unit_group_generators",
    ),
    "galmod": (
        "ARTReport", "GaloisModule", "Lemma4Audit", "almost_rational_set",
        "apply_automorphism", "constant_module", "cyclotomic_module", "direct_sum",
        "fixed_points", "halving_exclusion", "homothety_module", "is_almost_rational",
        "is_almost_rational_naive", "lemma4_audit", "quotient_by",
        "quotient_presentation", "subgroup_span", "two_step_unipotents", "validate_module",
    ),
    "lemma2": (
        "FermatCount", "Lemma2Report", "PairReport", "PairWitness", "PrimePowerWitness",
        "WeilThreshold", "count_fermat_points", "exists_pair", "failure_scan",
        "prime_power_witness", "weil_threshold_prime",
    ),
    "modcurve": (
        "EisensteinModel", "LevelInvariants", "SurveyRecord", "SurveyReport",
        "eisenstein_model", "eisenstein_number", "genus_x0", "level_invariants", "survey",
        "theorem3_check",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
