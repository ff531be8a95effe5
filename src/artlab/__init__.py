"""artlab: almost-rational torsion points on explicitly presented finite
Galois modules, with the verification suite and CLI built around them."""

__version__ = "0.1.0"

from .errors import InvalidInputError, ResourceCapError
from .modarith import (
    Factorization,
    UnitSet,
    crt_combine,
    euler_phi,
    factorize,
    jacobi_symbol,
    power_subgroup,
    unit_group_generators,
)
from .galmod import (
    ARTReport,
    Automorphism,
    GaloisModule,
    Lemma4Audit,
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
from .lemma2 import (
    FermatCount,
    Lemma2Report,
    PairReport,
    PairWitness,
    PrimePowerWitness,
    WeilThreshold,
    count_fermat_points,
    exists_pair,
    failure_scan,
    prime_power_witness,
    weil_threshold_prime,
)
from .modcurve import (
    EisensteinModel,
    LevelInvariants,
    SurveyRecord,
    SurveyReport,
    eisenstein_model,
    eisenstein_number,
    genus_x0,
    level_invariants,
    survey,
    theorem3_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
