"""Exact and high-precision arithmetic for regulator lattices, secondary
classes of torsion modules, Reidemeister torsion of metrized complexes, and
polylogarithmic torsion forms on cyclotomic circle bundles."""

from .circlebundle import (
    CyclotomicSetup,
    borel_dims,
    cheeger_muller_check,
    convert,
    hatcher_constant,
    make_cyclotomic_setup,
    normalization_factors,
    regulator_identity_check,
    torsion_form_coeffs,
    trivial_holonomy_coeff,
    u_coeff,
    x_space_dim,
)
from .errors import (
    NoConvergence,
    NotAUnit,
    NotPositiveDefinite,
    NotSquarefree,
    NumericalError,
    RankAmbiguous,
    SingularPresentation,
    ThetaOutOfRange,
    TrivialHolonomyAtJZero,
    ValidationError,
)
from .flatmodel import (
    FormElement,
    PointClass,
    RegulatorLattice,
    TorusElement,
    a_map,
    build_lattice,
    hermitian_cholesky,
    lndet_hermitian,
    class_add,
    class_neg,
    cycl_free,
    make_form,
    one_class,
    point_class,
    reduce_mod_lattice,
    scale_class,
    unit_log,
    zero_class,
    zero_form,
    zero_torus,
)
from .modtors import TorsionPresentation, exact_det, presentation, zhat, zhat_wellposed
from .numfield import (
    FieldElement,
    NumberField,
    build_field,
    dirichlet_rank,
    embed,
    embed_all,
    norm,
    parse_descriptor,
    parse_rational,
    verify_unit,
)
from .polylog import (
    bernoulli,
    bernoulli_polynomial,
    beta_integral_check,
    polylog_circle,
    zeta_int,
)
from .rtorsion import (
    CohomologySpec,
    MetrizedComplexAtPlace,
    MetrizedComplexOverR,
    at_place,
    build_complex_over_r,
    exact_torsion,
    metrized_complex_at_place,
    reidemeister,
    rtorsion_form,
    torsion_by_contraction,
    verify_euler_identity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
