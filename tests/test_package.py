"""Source-level rules for the package itself."""

import ast
import importlib
from pathlib import Path

import pytest

import artlab

SOURCES = sorted(Path(artlab.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must raise: `python -O` strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


# The public API: 50 exports plus the six submodules, spelled out so that
# resolving names lazily can neither drop nor add one.
PUBLIC_NAMES = {
    "errors", "modarith", "snf", "galmod", "lemma2", "modcurve",
    "InvalidInputError", "ResourceCapError",
    "Factorization", "UnitSet", "crt_combine", "euler_phi", "factorize", "jacobi_symbol",
    "power_subgroup", "unit_group_generators",
    "ARTReport", "GaloisModule", "Lemma4Audit", "almost_rational_set",
    "apply_automorphism", "constant_module", "cyclotomic_module", "direct_sum", "fixed_points",
    "halving_exclusion", "homothety_module", "is_almost_rational", "is_almost_rational_naive",
    "lemma4_audit", "quotient_presentation", "subgroup_span",
    "two_step_unipotents", "validate_module",
    "FermatCount", "Lemma2Report", "PairReport", "PairWitness", "PrimePowerWitness",
    "WeilThreshold", "count_fermat_points", "exists_pair", "failure_scan",
    "prime_power_witness", "weil_threshold_prime",
    "EisensteinModel", "LevelInvariants", "SurveyRecord", "SurveyReport", "eisenstein_model",
    "eisenstein_number", "genus_x0", "level_invariants", "survey", "theorem3_check",
}
SUBMODULES = ("errors", "modarith", "snf", "galmod", "lemma2", "modcurve")


def test_all_lists_the_public_api():
    assert len(artlab.__all__) == len(PUBLIC_NAMES) == 55
    assert set(artlab.__all__) == PUBLIC_NAMES


def test_every_export_resolves_to_its_submodule_object():
    for name in SUBMODULES:
        assert getattr(artlab, name) is importlib.import_module(f"artlab.{name}")
    for name in PUBLIC_NAMES - set(SUBMODULES):
        value = getattr(artlab, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert artlab.GaloisModule is artlab.galmod.GaloisModule


def test_star_import_binds_every_name():
    namespace = {}
    exec("from artlab import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert namespace["survey"] is artlab.modcurve.survey


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        artlab.no_such_name
