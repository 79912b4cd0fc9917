"""The package's public names, the functions the benchmark traces, what
importing the CLI loads, and the behaviour of the records and of their one
constructor.

Moving code between modules must not change regtor.__all__, and must not
drop a function that perfbench/tracing.py wraps for its per-layer times.
Each CLI call is a fresh process, so importing regtor.cli must not load the
code-generation machinery of dataclasses (inspect, ast, dis, tokenize).
Every logarithm goes through numfield.ln, the one logarithm of the
precision policy, and every root of unity through numfield._root_of_unity.
The polylogarithm series takes no mpmath dot product, and circlebundle
evaluates polylogarithms only where its setup keeps them.  Every exact
decision over K is numfield's.  The CLI decodes JSON in
_json_arg alone, converts no number itself, and formats numbers in _text
and _short alone.  No module keeps an import it does not use, or a private
module-level name that nothing in the package refers to.
"""

import ast
import copy
import importlib
import importlib.util
import inspect
import pickle
import re
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
    torsion_form_coeffs,
)
from regtor import numfield
from regtor.flatmodel import gram_ldl
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
    "convert", "cycl_free", "dirichlet_rank", "embed", "embed_all",
    "errors", "exact_det", "exact_torsion", "flatmodel", "hatcher_constant", "hermitian_cholesky",
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


def test_only_numfield_calls_mp_log():
    call = re.compile(r"\b(?:mp|mpmath)\.(?:log|ln)\s*\(")
    modules = sorted((SRC / "regtor").glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        found = call.findall(path.read_text())
        assert len(found) == (path.name == "numfield.py"), path.name


def _functions_naming(attrs):
    """(module file, enclosing function) of every mp.<attr> or mpmath.<attr>
    in src/regtor, for attr in attrs."""
    found = set()
    for path in sorted((SRC / "regtor").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        found |= {
            (path.name, owner.get(id(node), "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in attrs
            and isinstance(node.value, ast.Name)
            and node.value.id in ("mp", "mpmath")
        }
    return found


def test_only_zeta_int_calls_mp_zeta():
    # zeta(2) .. zeta(ORDER_MAX) come from polylog's tables; mpmath's zeta
    # serves zeta_int above them and nothing else
    found = _functions_naming({"zeta"})
    assert found == {("polylog.py", "zeta_int")}, found


def test_polylog_takes_no_mpmath_dot_product():
    # head and tail of the polylogarithm series are summed in fixed-point
    # integers, and each order's parts are rounded once
    found = _functions_naming({"fdot"})
    assert not {module for module, _ in found} & {"polylog.py"}, found


def test_circlebundle_reads_every_polylogarithm_through_the_setup():
    # circlebundle evaluates Li_n in _li, one order, and in the pass of
    # torsion_form_coeffs, which stores every order it computes in the setup;
    # every other reader takes its values from the setup's memo
    tree = ast.parse((SRC / "regtor" / "circlebundle.py").read_text())
    found = {
        (fn.name, node.func.id)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("polylog_orders", "polylog_circle")
    }
    assert found == {("_li", "polylog_circle"), ("torsion_form_coeffs", "polylog_orders")}, found


def test_only_the_root_helper_calls_mp_expjpi():
    # mpmath's expjpi, sinpi and cospi double their precision past pi/4;
    # the one caller keeps every argument in [0, 1/4]
    found = _functions_naming({"expjpi", "sinpi", "cospi"})
    assert found == {("numfield.py", "_root_of_unity")}, found


def test_only_numfield_reads_numbers_through_mpmathify():
    # every scalar input is read by numfield's one reader, under to_exact,
    # to_mp and NumberField.element; mp.mpmathify read "nan" and a boolean
    found = _functions_naming({"mpmathify"})
    assert {module for module, _ in found} <= {"numfield.py"}, found


def _loads(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_src_keeps_no_unused_import_or_private_name():
    # no lint tool is installed, so the ast of each module stands in for one
    trees = {p.name: ast.parse(p.read_text()) for p in sorted((SRC / "regtor").glob("*.py"))}
    refs = set()
    for name, tree in trees.items():
        refs |= _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs |= {a.name for a in node.names}
    for name, tree in trees.items():
        # the package re-exports what it imports, through __all__
        used = _loads(tree) | (set(regtor.__all__) if name == "__init__.py" else set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            assert set(bound) <= used, (name, sorted(set(bound) - used))
        private = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                private.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                private |= {t.id for t in targets if isinstance(t, ast.Name)}
        private = {p for p in private if p.startswith("_") and not p.startswith("__")}
        assert private <= refs, (name, sorted(private - refs))


def test_cli_converts_each_number_in_one_place():
    # every JSON text is decoded by _json_arg, which reads each number
    # exactly, and every number is formatted by the one walker _text or, for
    # the 8-digit diagnostics, by _short
    where = {}
    for top in ast.parse((SRC / "regtor" / "cli.py").read_text()).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("nstr", "load", "loads"):
                where.setdefault(name, set()).add(owner)
    assert where == {"nstr": {"_text", "_short"}, "loads": {"_json_arg"}}


def test_cli_reads_no_number_itself():
    # every number the CLI takes goes to the library's readers, so no
    # function of cli.py converts one with int() or Fraction(), and only
    # _json_arg, which decodes a JSON decimal, names parse_rational;
    # argparse's type=int names int and calls nothing
    calls, names = set(), set()
    for top in ast.parse((SRC / "regtor" / "cli.py").read_text()).body:
        if not isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _call_name(node) in ("int", "Fraction"):
                calls.add((top.name, _call_name(node), node.lineno))
            if getattr(node, "id", getattr(node, "attr", None)) == "parse_rational":
                names.add(top.name)
    assert not calls, calls
    assert names == {"_json_arg"}, names


EXACT_KIT = {
    "_kronecker_lift", "_kronecker_matrix", "_kronecker_pack", "_kronecker_digits",
    "_int_bareiss_det", "_resultant", "_subresultant_prs", "_horner", "poly_divmod",
    "known_irreducible",
}


def test_only_numfield_decides_over_k():
    # every exact decision over K goes through numfield's exact_det,
    # exact_pivots, nonzero_places and product_is_zero, so no other module
    # names the Kronecker packing, the integer elimination, the resultant,
    # the polynomial division or the irreducibility shortcut
    found = []
    for path in sorted((SRC / "regtor").glob("*.py")):
        if path.name == "numfield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            else:
                continue
            found += [(path.name, n, node.lineno) for n in names if n in EXACT_KIT]
    assert not found, found


def _call_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_src_sets_every_private_option():
    # an optional parameter of a private function that no call in the
    # package passes, by position, by keyword or through * or **, is a knob
    # that nobody sets
    trees = [ast.parse(p.read_text()) for p in sorted((SRC / "regtor").glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    methods = {
        f for tree in trees for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
    }
    unset = []
    for tree in trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or not re.match(r"_(?!_)", fn.name):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            # a method's call passes no self
            offset = int(fn in methods and not fn.decorator_list)
            optional = [(a.arg, i - offset) for i, a in enumerate(positional)]
            optional = optional[len(positional) - len(args.defaults):]
            optional += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            for name, index in optional:
                if not any(
                    any(k.arg in (name, None) for k in call.keywords)
                    or any(isinstance(x, ast.Starred) for x in call.args)
                    or (index is not None and len(call.args) > index)
                    for call in calls.get(fn.name, [])
                ):
                    unset.append((fn.name, name))
    assert not unset, unset


def test_grams_take_no_numeric_factor():
    # every Gram goes through flatmodel.gram_ldl, exactly, and reidemeister
    # takes its correction from CGS2 and the pivots of an LDL^H: no source
    # names mp.cholesky or mp.qr, and no triangular factor is inverted
    for path in sorted((SRC / "regtor").glob("*.py")):
        text = path.read_text()
        named = [
            node.attr
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "mp"
            and node.attr in ("cholesky", "qr")
        ]
        assert not named, (path.name, named)
        assert not re.search(r"_inverse_upper|\bmp\.[UL]_solve\b", text), path.name


def test_gram_ldl_factors_each_gram_alone():
    # gram_ldl eliminates den G, or the real 2n by 2n image of a complex G,
    # with no identity block beside it, so that each row of its factor of an
    # n by n Gram holds n step integers; the shared elimination takes no width
    assert "width" not in inspect.signature(numfield._bareiss).parameters
    grams = (
        ([[2, 1], [1, 3]], 1),
        ([[4, 1, 0], [1, 3, "1/2"], [0, "1/2", 5]], 1),
        ([[2, [1, 1]], [[1, -1], 3]], 2),
        ([[3, [1, 1], 0], [[1, -1], 4, [0, 2]], [0, [0, -2], 6]], 2),
    )
    for gram, step in grams:
        _, got, rows = gram_ldl(gram, 50)[1]
        size = step * len(gram)
        assert got == step and len(rows) == size
        assert all(len(row) == size for row in rows), gram


def test_nothing_in_the_package_builds_a_place_over_r():
    # build_complex_over_r keeps everything exact that a complex over R has,
    # so the exact readers read tau from the complex; at_place serves the
    # numeric verifier alone, which callers outside the package run.  The
    # one other place constructor, metrized_complex_at_place, builds its
    # complex over Q or Q(i) and returns that complex's one place.  Only
    # at_place makes the record itself
    callers = []
    for path in sorted((SRC / "regtor").glob("*.py")):
        tree = ast.parse(path.read_text())

        def inside(*names):
            return {
                id(node)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name in names
                for node in ast.walk(fn)
            }

        own = {
            "at_place": inside("at_place", "metrized_complex_at_place"),
            "MetrizedComplexAtPlace": inside("at_place"),
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in own and id(node) not in own[name]:
                    callers.append((path.name, name, node.lineno))
    assert not callers, callers


def test_no_numeric_rank_minor_or_eigenvector():
    # every complex has a K, so no rank, pivot or minor is numeric: no
    # source names mp.svd_c or mp.det, and the Laplacian verifier decides
    # each rank and det' from one pivoted LDL^H, so none names mp.eighe
    named = [
        (path.name, node.attr, node.lineno)
        for path in sorted((SRC / "regtor").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "mp"
        and node.attr in ("svd_c", "det", "eighe")
    ]
    assert not named, named


def test_torsion_route_divides_no_int_literal():
    # an int over an mpf takes mpmath's mpf_rdiv_int, which has no fast path
    # for an exact quotient: on the pure-Python backend 1/mpf(1) sheds the
    # trailing zero bits of its quotient a byte at a time (75 us at 1010
    # digits), and the exact 1s of a complex are common.  So rtorsion and
    # flatmodel divide an mpf by an mpf
    found = [
        (name, node.lineno)
        for name in ("rtorsion.py", "flatmodel.py")
        for node in ast.walk(ast.parse((SRC / "regtor" / name).read_text()))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.left, ast.Constant)
        and type(node.left.value) is int
    ]
    assert not found, f"int literal divided by an expression (mpmath's slow mpf_rdiv_int): {found}"


def test_torsion_route_takes_numfields_square_root():
    # mp.sqrt (and mp.norm, which takes it) sheds the trailing zero bits of an
    # exact root a byte at a time; numfield.sqrt rounds once through
    # math.isqrt
    found = {f for f in _functions_naming({"sqrt", "norm"}) if f[0] in ("rtorsion.py", "flatmodel.py")}
    assert not found, found


def test_adjoint_products_go_through_the_gram_helper():
    # every A^H A and A A^H is rtorsion._gram, which forms the entries on
    # and above the diagonal once; no other source multiplies by .H
    product = re.compile(r"\.H\s*\*|\*[^\n#]*\.H\b")
    sources = {p.name: p.read_text() for p in sorted((SRC / "regtor").glob("*.py"))}
    text = sources["rtorsion.py"]
    assert text.count("\ndef _gram(") == 1
    start = text.index("\ndef _gram(")
    sources["rtorsion.py"] = text[:start] + text[text.index("\ndef ", start + 1) :]
    for name, text in sources.items():
        assert not product.search(text), name


def test_torsion_routes_keep_no_mp_matrix():
    # the Laplacian route reads its orthonormal coordinates as rows, from
    # the place's complex: no mp.matrix is built, converted or kept there
    assert "mp.matrix" not in (SRC / "regtor" / "rtorsion.py").read_text()


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
        (MetrizedComplexAtPlace, _complex_at_place, "complex", True),
        (CohomologySpec, lambda: CohomologySpec(free_rank=0), "free_rank", True),
        (MetrizedComplexOverR, lambda: _complex_over_r(field), "deltas", True),
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
        # every record hashes: by value, or by identity as it compares
        if by_value:
            assert a == b and copy.copy(a) == a and hash(a) == hash(b)
        else:
            assert a == a and a != b and hash(a) != hash(b)

    one, two = Fraction(1), Fraction(2)
    assert FieldElement(coeffs=(one, two)) == FieldElement((one, two))
    assert hash(FieldElement((one, two))) == hash(FieldElement((one, two)))
    assert FieldElement((one, two)) != FieldElement((two, one))

    spec = CohomologySpec(free_rank=0)
    assert (spec.free_reps, spec.free_grams, spec.torsion) == ((), (), None)
    at = _complex_at_place()
    # every place is a view of its complex: complex has no default
    with pytest.raises(TypeError, match="missing .*'complex'"):
        MetrizedComplexAtPlace(**{f: getattr(at, f) for f in at._fields if f != "complex"})
    # a place is its complex and its index, so it hashes as they do
    assert hash(at) == hash(MetrizedComplexAtPlace(_complex_at_place().complex, 0))

    # each cyclotomic setup caches in its own _memo, outside equality, repr
    # and copies; a complex over R caches no place
    s, t = make_cyclotomic_setup(5, 30), make_cyclotomic_setup(5, 30)
    torsion_form_coeffs(s, 2)
    assert s._memo and not t._memo and s == t and hash(s) == hash(t)
    assert "_memo" not in repr(s)
    assert not copy.copy(s)._memo
    x = _complex_over_r(build_field((-2, 0, 1), 30))
    assert at_place(x, 0) is not at_place(x, 0) and not hasattr(x, "_memo")


def _subclasses(cls):
    return {c for sub in cls.__subclasses__() for c in {sub} | _subclasses(sub)}


def test_complex_records_keep_no_ranks():
    # a place keeps its complex and its index, and a complex over R its
    # deltas and Gram factors: the free ranks say what the ranks would
    assert MetrizedComplexAtPlace._fields == ("complex", "place")
    assert MetrizedComplexOverR._fields == (
        "field", "lengths", "diffs", "grams", "cohomology", "deltas", "factors"
    )


def test_records_share_one_constructor():
    table = _record_table()
    assert {record for record, *_ in table} == _subclasses(Record)
    assert [record for record, *_ in table if "__init__" in vars(record)] == []

    for record, build, _, by_value in table:
        a = build()
        names = record._fields
        values = tuple(getattr(a, f) for f in names)
        pos, kw = record(*values), record(**dict(zip(names, values)))
        copies = [pos, kw, copy.copy(a), pickle.loads(pickle.dumps(a))]
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
