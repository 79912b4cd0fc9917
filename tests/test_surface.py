"""The package's public names, the functions the benchmark traces, what
importing the CLI loads, and the behaviour of the records and of their one
constructor.

Moving code between modules must not change regtor.__all__, and must not
drop a function that perfbench/tracing.py wraps for its per-layer times.
Each CLI call is a fresh process, so importing regtor.cli must not load the
code-generation machinery of dataclasses (inspect, ast, dis, tokenize).
"""

import copy
import importlib
import importlib.util
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import regtor
from regtor import (
    CohomologySpec,
    CyclotomicSetup,
    FieldElement,
    FormElement,
    MetrizedComplexAtPlace,
    MetrizedComplexOverR,
    NumberField,
    PointClass,
    RegulatorLattice,
    TorsionPresentation,
    TorusElement,
    at_place,
    build_complex_over_r,
    build_field,
    build_lattice,
    make_cyclotomic_setup,
    make_form,
    metrized_complex_at_place,
    point_class,
    presentation,
    reduce_mod_lattice,
    reidemeister,
    torsion_form_coeffs,
)
from regtor.numfield import Record

SRC = Path(__file__).resolve().parents[1] / "src"

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


def test_cli_import_loads_no_code_generation():
    # compare module sets, since site may already have loaded typing and more
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules); "
        "import regtor.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    added = set(proc.stdout.split())
    assert "regtor.cli" in added
    assert not added & {"dataclasses", "inspect"}


def _complex_over_r(field):
    return build_complex_over_r(
        field, (1, 1), ([[field.element([2])]],), [[[[1]], [[1]]]] * 2, [CohomologySpec(0)] * 2
    )


def _complex_at_place():
    return metrized_complex_at_place(30, (1, 1), ([[2]],), ([[1]], [[1]]), ((), ()), ((), ()))


def _record_table():
    """Each record with a builder of fresh instances from fixed data, one of
    its fields, and whether it compares by value (else by identity)."""
    field = build_field((-2, 0, 1), 30)
    lat = build_lattice(field, [field.element([1, 1])])
    form = make_form(field, 0, ["1/3", "2/7"])
    return [
        (FieldElement, lambda: field.element([1, 2]), "coeffs", True),
        (NumberField, lambda: build_field((-2, 0, 1), 30), "digits", True),
        (FormElement, lambda: make_form(field, 0, ["1/3", "2/7"]), "values", True),
        (RegulatorLattice, lambda: build_lattice(field, [field.element([1, 1])]), "basis", True),
        (TorusElement, lambda: reduce_mod_lattice(lat, form)[0], "values", False),
        (PointClass, lambda: point_class(lat, 1, (), form), "rank", False),
        (TorsionPresentation, lambda: presentation(field, [[field.element([2])]]), "size", True),
        (CyclotomicSetup, lambda: make_cyclotomic_setup(5, 30), "thetas", True),
        (MetrizedComplexAtPlace, _complex_at_place, "lengths", True),
        (CohomologySpec, lambda: CohomologySpec(free_rank=0), "free_rank", True),
        (MetrizedComplexOverR, lambda: _complex_over_r(field), "ranks", True),
    ]


def test_records_keep_their_semantics():
    table = _record_table()
    assert len(table) == 11
    for record, build, name, by_value in table:
        a, b = build(), build()
        assert type(a) is record
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        assert getattr(a, name) is before
        if by_value:
            assert a == b and copy.copy(a) == a
        else:
            assert a == a and a != b

    one, two = Fraction(1), Fraction(2)
    assert FieldElement(coeffs=(one, two)) == FieldElement((one, two))
    assert hash(FieldElement((one, two))) == hash(FieldElement((one, two)))
    assert FieldElement((one, two)) != FieldElement((two, one))

    spec = CohomologySpec(free_rank=0)
    assert (spec.free_reps, spec.free_grams, spec.torsion) == ((), (), None)
    fields = (
        "digits", "lengths", "ortho_diffs", "ortho_reps", "from_ortho",
        "det_cochain", "cohomology_dims", "det_cohomology",
    )
    at = _complex_at_place()
    assert MetrizedComplexAtPlace(**{f: getattr(at, f) for f in fields}).ranks is None

    # each complex and each cyclotomic setup caches in its own _memo, outside
    # equality, repr and copies
    field = build_field((-2, 0, 1), 30)
    x, y = _complex_over_r(field), _complex_over_r(field)
    at_place(x, 0)
    assert x._memo and not y._memo and x == y
    p, q = _complex_at_place(), _complex_at_place()
    reidemeister(p)
    assert p._memo and not q._memo and p == q
    s, t = make_cyclotomic_setup(5, 30), make_cyclotomic_setup(5, 30)
    torsion_form_coeffs(s, 2)
    assert s._memo and not t._memo and s == t and hash(s) == hash(t)
    assert "_memo" not in repr(x) + repr(p) + repr(s)
    assert not any(copy.copy(v)._memo for v in (x, p, s))


def _subclasses(cls):
    return {c for sub in cls.__subclasses__() for c in {sub} | _subclasses(sub)}


def test_records_share_one_constructor():
    table = _record_table()
    assert {record for record, *_ in table} == _subclasses(Record)
    own = [record for record, *_ in table if "__init__" in vars(record)]
    assert own == [FieldElement]  # its slot setter serves the exact-arithmetic loops

    for record, build, _, by_value in table:
        a = build()
        names = record._fields
        values = tuple(getattr(a, f) for f in names)
        pos, kw = record(*values), record(**dict(zip(names, values)))
        copies = [pos, kw, copy.copy(a)]
        # mpmath makes its matrix class per context, so an mp.matrix field does not pickle
        if record is not MetrizedComplexAtPlace:
            copies.append(pickle.loads(pickle.dumps(a)))
        for b in copies:
            assert type(b) is record and repr(b) == repr(a)
            assert not getattr(b, "_memo", None)
            assert b == a if by_value else b != a
        for b in (pos, kw):
            assert all(getattr(b, f) is v for f, v in zip(names, values))

        # the messages of a written-out signature
        with pytest.raises(TypeError, match="but .* were given"):
            record(*values, None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            record(*values, bogus=None)
        with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
            record(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError, match=f"missing .*'{names[0]}'"):
            record(**dict(zip(names[1:], values[1:])))

    field = build_field((-2, 0, 1), 30)
    values = tuple(getattr(field, f) for f in NumberField._fields[:-1])
    assert NumberField(*values).class_orders == () and NumberField(*values) == field
