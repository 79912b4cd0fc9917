"""The package's public names, and the functions the benchmark traces.

Moving code between modules must not change regtor.__all__, and must not
drop a function that perfbench/tracing.py wraps for its per-layer times.
"""

import importlib
import importlib.util
from pathlib import Path

import regtor

PUBLIC = [
    "CohomologySpec", "CyclotomicSetup", "FieldElement", "FormElement",
    "MetrizedComplexAtPlace", "MetrizedComplexOverR", "NoConvergence", "NotAUnit",
    "NotPositiveDefinite", "NotSquarefree", "NumberField", "NumericalError",
    "PointClass", "RankAmbiguous", "RegulatorLattice", "SingularPresentation",
    "ThetaOutOfRange", "TorsionPresentation", "TorusElement", "TrivialHolonomyAtJZero",
    "ValidationError", "a_map", "at_place", "bernoulli", "bernoulli_polynomial",
    "beta_integral_check", "borel_dims", "build_complex_over_r", "build_field",
    "build_lattice", "cheeger_muller_check", "circlebundle", "class_add", "class_neg",
    "cohomology", "convert", "cycl_free", "dirichlet_rank", "embed", "embed_all",
    "errors", "exact_det", "flatmodel", "hatcher_constant", "hermitian_cholesky",
    "lndet_hermitian", "make_cyclotomic_setup", "make_form", "metrized_complex_at_place",
    "modtors", "norm", "normalization_factors", "numfield", "one_class",
    "parse_descriptor", "parse_rational", "point_class", "polylog", "polylog_circle",
    "presentation", "reduce_mod_lattice", "regulator_identity_check", "reidemeister",
    "rtorsion", "rtorsion_form", "scale_class", "torsion_by_contraction",
    "torsion_form_coeffs", "trivial_holonomy_coeff", "u_coeff", "unit_log",
    "verify_euler_identity", "verify_unit", "x_space_dim", "zero_class", "zero_form",
    "zero_torus", "zeta_int", "zhat", "zhat_wellposed",
]


def test_all_is_pinned():
    assert regtor.__all__ == PUBLIC


def _traced():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_functions_exist():
    traced = _traced()
    assert len(traced) == 28
    for qual in traced:
        mod_name, func = qual.split(".")
        mod = importlib.import_module(f"regtor.{mod_name}")
        assert callable(getattr(mod, func, None)), qual
