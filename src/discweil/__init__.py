"""discweil: exact discriminant-form arithmetic, Weil invariants, eta products.

Everything is exact: cyclotomic numbers instead of floats, Fractions instead
of doubles, certified ranks instead of numerical thresholds.
"""

from .arith import divisors, sigma0
from .borcherds import (
    InputForm,
    LiftResult,
    WeylVector,
    character_trivial_check,
    decompose,
    eta_identify,
    lift,
    relation_to_eta_identity,
    verify_eta_prime,
    weyl_vector,
)
from .cyclo import CycNumber, exp_frac, root_of_unity
from .fqmod import FqModule, hyperbolic, hyperbolic_pair
from .lnn_catalog import (
    HxyzParams,
    SelfDualSpec,
    assemble,
    dimension_formula,
    family_exNy0,
    family_exy_y,
    reconstruct_spec,
    relations_Np,
    selfdual_list_Np,
)
from .qseries import EtaFactor, EtaQuotient, FracQSeries, eta_series
from .subgroups import (
    EnumerationBoundError,
    Subgroup,
    classify,
    complement,
    enumerate_isotropic_subgroups,
    enumerate_self_dual_isotropic,
    enumerate_subgroups,
)
from .weilrep import (
    invariant_dimension,
    invariant_space,
    verify_selfdual_span,
    weil_relations_report,
)

__version__ = "0.1.0"
