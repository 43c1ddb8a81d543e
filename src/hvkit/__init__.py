"""hvkit: exact computations with the Heisenberg-Virasoro algebra.

Construct the algebra, its map algebras over polynomial coefficients, and
the classical module families (intermediate series, rank-one free modules,
evaluation wrappers, truncated Verma modules, tensor products), then verify
the defining identities, reducibility criteria and isomorphism invariants
at desk scale -- all in exact Gaussian-rational arithmetic.
"""

from .algebra import (
    AlgebraElement,
    C,
    C_D,
    C_I,
    Generator,
    HV,
    PolynomialCoefficients,
    QuotientCoefficients,
    bracket,
    d,
    element,
    gen_elt,
    hv_structure,
    I,
    jacobi_antisymmetry_sweep,
    jacobi_check,
    parse_element,
    project_element,
    render_element,
    zero_element,
)
from .analysis import (
    AnnihilatorReport,
    AxiomSweepReport,
    HcSuiteReport,
    PbwSpotcheckReport,
    WeightTuple,
    WindowReport,
    annihilator_probe,
    axiom_sweep,
    hc_criterion_suite,
    in_maximal_submodule,
    omega_invariants,
    pbw_order_spotcheck,
    probe_irreducible,
    singular_vectors,
    unit_element,
    weight_table,
)
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    HvkitError,
    LevelOverflowError,
    ParseError,
    UnsupportedModuleError,
)
from .modules import (
    EvaluationModule,
    HighestWeightFunctional,
    IntermediateSeries,
    Module,
    OmegaModule,
    PBW_D_FIRST,
    PBW_I_FIRST,
    PBWVector,
    PbwOrder,
    TensorModule,
    TensorVector,
    TruncatedVerma,
    WeightVector,
    module_from_descriptor,
)
from .polys import (
    JetQuotient,
    MonomialExp,
    PointB,
    PolyB,
    PolyT,
    jet_expand,
    poly_eval,
)
from .scalars import IMAG, ONE, ZERO, Scalar, parse_scalar, render_scalar, scalar

__version__ = "0.1.0"
