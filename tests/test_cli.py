"""End-to-end command-line coverage.

Each subcommand runs in process through cli.main with captured output;
values are checked against closed forms or frozen decimals, and the exit
code contract (0 ok, 2 invalid input, 3 numerical failure) is exercised on
representative failure paths.  One subprocess run covers the entry point.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp

from regtor import NoConvergence, cli
from regtor.cli import main

DATA = Path(__file__).parent / "data"
Z2 = str(DATA / "zsqrt2.json")
Z5 = str(DATA / "zeta5.json")
ZZ = str(DATA / "z.json")

ACYCLIC = json.dumps(
    {
        "lengths": [1, 1],
        "diffs": [[["2"]]],
        "grams": [[[[1]], [[1]]], [[[1]], [[1]]]],
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def close(text, want, tol="1e-40"):
    with mp.workdps(60):
        return abs(mp.mpf(text) - mp.mpf(want)) < mp.mpf(tol)


def test_field_info(capsys):
    d = run_json(capsys, "field-info", "--field", Z2)
    assert d["poly"] == [-2, 0, 1]
    assert d["degree"] == 2 and d["digits"] == 50
    assert d["r_real"] == 2 and d["r_complex"] == 0
    assert d["dirichlet_rank"] == 1
    assert [p["type"] for p in d["places"]] == ["real", "real"]
    with mp.workdps(60):
        assert close(d["places"][0]["re"], -mp.sqrt(2))
        assert close(d["places"][1]["re"], mp.sqrt(2))


def test_unit_log(capsys):
    d = run_json(capsys, "unit-log", "--field", Z2, "--unit", '["1","1"]')
    assert d["norm"] == "-1"
    assert close(
        d["b1_reduced"]["b1(sigma_1)"],
        "0.88137358701954302523260932497979230902816032826164",
    )
    with mp.workdps(60):
        assert close(d["b1_reduced"]["b1(sigma_1)"], mp.log(1 + mp.sqrt(2)))


def test_lattice(capsys):
    d = run_json(capsys, "lattice", "--field", Z2)
    assert d["rank"] == 1
    with mp.workdps(60):
        assert close(d["basis_b1_reduced"][0]["b1(sigma_1)"], mp.log(1 + mp.sqrt(2)))


def test_reduce(capsys):
    d = run_json(capsys, "reduce", "--field", Z2, "--form", '["0","0"]')
    assert d["is_zero"] is True
    d = run_json(capsys, "reduce", "--field", Z2, "--form", '["-0.15","0.15"]')
    assert d["is_zero"] is False
    assert close(d["b1_reduced"]["b1(sigma_1)"], "0.3")


def test_cycl_and_scale(capsys):
    eye2 = '[[["1","0"],["0","1"]],[["1","0"],["0","1"]]]'
    d = run_json(capsys, "cycl", "--field", Z2, "--grams", eye2)
    assert d["rank"] == 2 and d["cls"] == []
    assert close(d["torus_b1_reduced"]["b1(sigma_1)"], 0)
    point = json.dumps(
        {"rank": d["rank"], "cls": d["cls"], "torus": {"sigma_0": "0", "sigma_1": "0"}}
    )
    d2 = run_json(capsys, "scale", "--field", Z2, "--point", point, "--lambdas", '["2","8"]')
    assert d2["rank"] == 2
    with mp.workdps(60):
        # 1/2 ln(8/2) = ln 2, reduced by the basis vector ln(1 + sqrt 2)
        want = mp.log(2) - mp.log(1 + mp.sqrt(2))
        assert close(d2["torus_b1_reduced"]["b1(sigma_1)"], want)


def test_zhat_worked_example(capsys):
    d = run_json(capsys, "zhat", "--field", Z2, "--pres", '[["5/1","1/1"]]')
    assert d["det"] == ["5", "1"]
    assert d["in_lattice"] is False
    assert close(
        d["torus_b1_reduced"]["b1(sigma_1)"],
        "-0.29076928903725161692794483814792687147511564868355",
    )
    with mp.workdps(60):
        r = mp.sqrt(2)
        assert close(d["torus_b1_reduced"]["b1(sigma_1)"], -mp.log((5 + r) / (5 - r)) / 2)


def test_rtorsion(capsys):
    d = run_json(capsys, "rtorsion", "--field", Z2, "--complex", ACYCLIC)
    assert close(d["tau"]["sigma_0"], "0.5")
    assert close(d["tau"]["sigma_1"], "0.5")
    assert close(d["form_b1_reduced"]["b1(sigma_1)"], 0)


def test_rtorsion_refuses_extra_cohomology(capsys):
    # lengths [1, 1] with a third description that has a free rank
    cplx = json.loads(ACYCLIC)
    cplx["cohomology"] = [{}, {}, {"free_rank": 1, "free_reps": [["1"]],
                                   "free_grams": [[[1]], [[1]]]}]
    code, out, err = run(capsys, "rtorsion", "--field", Z2, "--complex", json.dumps(cplx))
    assert code == 2 and out == ""
    assert "expected one cohomology description per degree" in err
    assert "Traceback" not in err


def test_euler_check(capsys):
    cplx = json.loads(ACYCLIC)
    cplx["cohomology"] = [{}, {"torsion": [["2"]]}]
    d = run_json(capsys, "euler-check", "--field", Z2, "--complex", json.dumps(cplx))
    assert d["is_zero"] is True


def test_polylog_against_mpmath(capsys):
    d = run_json(capsys, "polylog", "--n", "2", "--theta-over-2pi", "1/5")
    with mp.workdps(60):
        want = mp.polylog(2, mp.expj(2 * mp.pi / 5))
        assert close(d["re"], mp.re(want), "1e-45")
        assert close(d["im"], mp.im(want), "1e-45")
    d2 = run_json(capsys, "polylog", "--n", "3", "--theta", "2.5")
    with mp.workdps(60):
        want = mp.polylog(3, mp.expj(mp.mpf("2.5")))
        assert close(d2["re"], mp.re(want), "1e-45")
        assert close(d2["im"], mp.im(want), "1e-45")


def test_zeta_bernoulli_beta(capsys):
    d = run_json(capsys, "zeta", "--s", "3", "--digits", "60")
    with mp.workdps(70):
        assert close(d["value"], mp.zeta(3), "1e-55")
    d = run_json(capsys, "bernoulli", "--m", "12")
    assert d["value"] == "-691/2730"
    d = run_json(capsys, "beta-check", "--j", "3")
    assert d["exact"] == "1/30"
    with mp.workdps(60):
        assert close(d["quadrature"], mp.mpf(1) / 30)


def test_circle_torsion_and_u(capsys):
    d = run_json(capsys, "circle-torsion", "--r", "5", "--jmax", "2")
    assert len(d["rows"]) == 6
    first = d["rows"][0]
    assert first["sigma"] == 0 and first["j"] == 0
    with mp.workdps(60):
        assert close(first["T"], -mp.log(2 * mp.sin(2 * mp.pi / 5)))
    d = run_json(capsys, "u-coeff", "--r", "5", "--j", "1")
    assert [r["sigma"] for r in d["rows"]] == [0, 1]


def test_regulator_and_cheeger_muller(capsys):
    d = run_json(capsys, "regulator-check", "--r", "5", "--j", "2")
    for row in d["rows"]:
        assert close(row["ratio"], -1, "1e-6")
    d = run_json(capsys, "cheeger-muller", "--r", "5")
    with mp.workdps(60):
        for row in d["rows"]:
            assert close(row["residual"], 0, "1e-40")
            assert close(row["T0_abs"], abs(mp.mpf(row["ln_tau"])), "1e-40")


def test_borel_dims(capsys):
    d = run_json(capsys, "borel-dims", "--field", Z2, "--imax", "13")
    assert [d["dims"][str(i)] for i in range(14)] == [
        1, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2,
    ]
    assert d["x_space_dims"] == {"3": "0", "5": "2", "7": "0", "9": "2", "11": "0", "13": "2"} or d[
        "x_space_dims"
    ] == {"3": 0, "5": 2, "7": 0, "9": 2, "11": 0, "13": 2}


def test_normalize(capsys):
    d = run_json(capsys, "normalize", "--j", "1", "--value", "1", "--from", "bl", "--to", "igusa")
    with mp.workdps(60):
        assert close(d["value"], 4 * mp.pi / 3)
        assert close(d["N_igusa"], 3 / (4 * mp.pi))
    d2 = run_json(capsys, "normalize", "--j", "1", "--value", "1", "--from", "borel", "--to", "bl")
    with mp.workdps(60):
        assert close(d2["value"]["re"], 0)
        assert close(d2["value"]["im"], 3 / mp.pi)


def test_normalize_value_at_full_precision(capsys):
    d = run_json(
        capsys, "normalize", "--j", "1", "--value", "0.1", "--from", "bl", "--to", "bl", "--digits", "50"
    )
    assert close(d["value"], "0.1", "1e-50")
    d = run_json(capsys, "normalize", "--j", "1", "--value", "1/3", "--from", "bl", "--to", "bl")
    with mp.workdps(60):
        assert close(d["value"], mp.mpf(1) / 3, "1e-50")
    code, _, err = run(capsys, "normalize", "--j", "1", "--value", "x", "--from", "bl", "--to", "bl")
    assert code == 2 and "--value" in err
    code, _, err = run(capsys, "polylog", "--n", "2", "--theta", "1/0")
    assert code == 2 and "--theta" in err


def test_bernoulli_and_hatcher_bounds(capsys):
    d = run_json(capsys, "bernoulli", "--m", "1")
    assert d["value"] == "-1/2"
    code, _, err = run(capsys, "bernoulli", "--m", "10001")
    assert code == 2 and "10000" in err
    code, _, err = run(capsys, "bernoulli", "--m", "-2")
    assert code == 2
    code, _, err = run(capsys, "hatcher", "--k", "5001")
    assert code == 2 and "5000" in err
    code, _, err = run(capsys, "hatcher", "--k", "0")
    assert code == 2


def test_exact_rationals_print_beyond_the_int_string_limit(capsys):
    # B_10000 has a numerator of more than 4300 digits, Python's default
    # limit for int-to-string conversion.
    limit = sys.get_int_max_str_digits()
    d = run_json(capsys, "bernoulli", "--m", "10000")
    assert sys.get_int_max_str_digits() == limit  # lifted for output only
    num, den = mp.bernfrac(10000)
    sys.set_int_max_str_digits(0)
    try:
        want = f"{num}/{den}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert d["value"] == want and len(want) > limit


def test_presentation_size_bound(capsys):
    size = 12  # modtors.PRESENTATION_SIZE_MAX
    for m, want in ((size, 0), (size + 1, 2)):
        pres = json.dumps([["2" if i == j else "0" for j in range(m)] for i in range(m)])
        code, _, err = run(capsys, "zhat", "--field", Z2, "--pres", pres)
        assert code == want, err
    assert "12" in err
    with pytest.raises(SystemExit):
        main(["zhat", "--help"])
    assert "at most 12 rows" in capsys.readouterr().out


def _alternating_complex(degrees):
    # R --1--> R --0--> R --1--> R ... over Z: acyclic for an even degree count
    return json.dumps(
        {
            "lengths": [1] * degrees,
            "diffs": [[["1" if i % 2 == 0 else "0"]] for i in range(degrees - 1)],
            "grams": [[[[1]]]] * degrees,
        }
    )


def _identity_complex(n):
    eye = [["1" if r == c else "0" for c in range(n)] for r in range(n)]
    return json.dumps({"lengths": [n, n], "diffs": [eye], "grams": [[eye], [eye]]})


def test_complex_size_bound(capsys):
    size = 12  # rtorsion.COMPLEX_SIZE_MAX, for the degree count and every length
    for cmd in ("rtorsion", "euler-check"):
        for make in (_alternating_complex, _identity_complex):
            code, out, err = run(capsys, cmd, "--field", ZZ, "--complex", make(size))
            assert code == 0, err
            if cmd == "rtorsion":
                assert close(json.loads(out)["tau"]["sigma_0"], 1)
            code, _, err = run(capsys, cmd, "--field", ZZ, "--complex", make(size + 1))
            assert code == 2 and "at most 12 degrees" in err
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        assert "at most 12 degrees of length 0..12" in " ".join(capsys.readouterr().out.split())


def test_cyclotomic_order_bound(capsys):
    # r - 1 is the field degree, bounded by numfield.DEGREE_MAX = 60.
    code, _, err = run(capsys, "circle-torsion", "--r", "67")
    assert code == 2 and "60" in err
    # a huge prime is refused before 1 + x + ... + x^{r-1} is built
    start = time.perf_counter()
    code, _, err = run(capsys, "circle-torsion", "--r", str(2**61 - 1))
    assert code == 2 and "60" in err
    assert time.perf_counter() - start < 1
    with pytest.raises(SystemExit):
        main(["circle-torsion", "--help"])
    assert "3..61" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag, bound",
    [
        (["polylog", "--theta-over-2pi", "1/3"], "--n", 100),
        (["circle-torsion", "--r", "3"], "--jmax", 99),
        (["u-coeff", "--r", "3"], "--j", 99),
        (["regulator-check", "--r", "3"], "--j", 99),
        (["borel-dims", "--field", Z2], "--imax", 10000),
        (["normalize", "--value", "1", "--from", "bl", "--to", "chern"], "--j", 99),
        (["beta-check"], "--j", 99),
    ],
)
def test_order_and_index_bounds(capsys, argv, flag, bound):
    # polylog.ORDER_MAX = 100 bounds every Li order and the degree index j of
    # normalize and beta-check; circlebundle.BOREL_INDEX_MAX = 10000.
    run_json(capsys, *argv, flag, str(bound))
    code, out, err = run(capsys, *argv, flag, str(bound + 1))
    assert code == 2 and out == "" and str(bound) in err
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"..{bound}" in capsys.readouterr().out


def test_hatcher(capsys):
    d = run_json(capsys, "hatcher", "--k", "1")
    assert d["a"] == 24 and d["kappa"] == "1/1"
    with mp.workdps(60):
        assert close(d["value"], 24 * mp.zeta(3), "1e-45")


def test_digits_resolution_order(capsys):
    # flag wins over the descriptor, descriptor wins over the default
    d = run_json(capsys, "field-info", "--field", Z2, "--digits", "35")
    assert d["digits"] == 35
    d = run_json(capsys, "field-info", "--field", Z2)
    assert d["digits"] == 50
    d = run_json(capsys, "zeta", "--s", "2")
    assert len(d["value"].replace("0.", "")) >= 45


def _complex(**changes):
    data = json.loads(ACYCLIC)
    data.update(changes)
    return json.dumps(data)


# Malformed values inside otherwise well-formed arguments.
MALFORMED = [
    ["rtorsion", "--field", Z2, "--complex", "5"],
    ["rtorsion", "--field", Z2, "--complex", _complex(cohomology=[5, {}])],
    ["euler-check", "--field", Z2, "--complex", _complex(cohomology=[{}, "x"])],
    ["rtorsion", "--field", Z2, "--complex", _complex(diffs=[[["x"]]])],
    ["rtorsion", "--field", Z2, "--complex", _complex(diffs=[[["1/0"]]])],
    ["rtorsion", "--field", Z2, "--complex", _complex(diffs=5)],
    ["zhat", "--field", Z2, "--pres", '[["x"]]'],
    ["zhat", "--field", Z2, "--pres", '[["1/0"]]'],
    ["zhat", "--field", Z2, "--pres", '[[["2", "1/0"]]]'],
    ["unit-log", "--field", Z2, "--unit", '["a"]'],
    ["unit-log", "--field", Z2, "--unit", "5"],
    ["reduce", "--field", Z2, "--form", '["x","1"]'],
    ["reduce", "--field", Z2, "--form", "5"],
    # a form holds one real coefficient per place
    ["reduce", "--field", Z2, "--form", "[[1,1],2]"],
    ["scale", "--field", Z2, "--point", '{"rank":1,"torus":{"sigma_0":[1,2]}}', "--lambdas", "[1,2]"],
    ["scale", "--field", Z2, "--point", '{"rank":1,"torus":5}', "--lambdas", '["1","1"]'],
    ["cycl", "--field", Z2, "--grams", '[[["x"]],[["1"]]]'],
    ["cycl", "--field", Z2, "--grams", "[5, 5]"],
    ["rtorsion", "--field", Z2, "--complex", _complex(grams=[5, 5])],
    ["rtorsion", "--field", Z2, "--complex", _complex(lengths=["x", 1])],
    ["rtorsion", "--field", Z2, "--complex", _complex(cohomology=[{"free_rank": "x"}, {}])],
    ["zhat", "--field", Z2, "--pres", '{"entries": [["2"]], "size": "x"}'],
    ["scale", "--field", Z2, "--point", '{"rank":"x","torus":{}}', "--lambdas", '["1","1"]'],
    ["scale", "--field", Z2, "--point", '{"rank":1,"cls":["x"],"torus":{}}', "--lambdas", '["1","1"]'],
    # no digits mend a rank that is no integer, though its torus alone exits 3
    ["scale", "--field", Z2, "--point", '{"rank":"x","torus":{"sigma_0":"1e60","sigma_1":"-1e60"}}',
     "--lambdas", "[1,1]"],
    # json raises a plain ValueError past the int-string limit, and
    # RecursionError on deep nesting
    ["reduce", "--field", Z2, "--form", "[" + "1" * 5000 + ", 0]"],
    ["reduce", "--field", Z2, "--form", "[" * 3000 + "]" * 3000],
    # shapes and counts that only the library refuses
    ["rtorsion", "--field", Z2, "--complex", _complex(diffs=[[["1"], ["1"]]])],
    ["rtorsion", "--field", Z2, "--complex", _complex(
        diffs=[[["0"]]],
        cohomology=[{"free_rank": 1, "free_reps": [["1"]], "free_grams": [[[1]]]}, {}],
    )],
    ["rtorsion", "--field", Z2, "--complex", _complex(cohomology=[{"free_rank": -1}, {}])],
    ["reduce", "--field", Z2, "--form", '["1"]'],
    ["cycl", "--field", Z2, "--grams", "[[[1]]]"],
    ["cycl", "--field", Z2, "--grams", "[[[1]],[[1,0],[0,1]]]"],
    ["scale", "--field", Z2, "--point", '{"rank":1,"cls":[],"torus":{}}', "--lambdas", "[1]"],
    ["scale", "--field", Z2, "--point", '{"rank":1,"cls":[1],"torus":{}}', "--lambdas", "[1,1]"],
    ["scale", "--field", Z2, "--point", '{"rank":1,"cls":5,"torus":{}}', "--lambdas", "[1,1]"],
    ["zhat", "--field", Z2, "--pres", "[[5]]"],
    ["zhat", "--field", Z2, "--pres", "[5]"],
    ["zhat", "--field", Z2, "--pres", '{"entries": [["2"]], "size": 2}'],
]


def test_validation_exit_codes(capsys):
    code, _, err = run(capsys, "zeta", "--s", "3", "--digits", "20")
    assert code == 2 and "digits" in err
    code, _, err = run(capsys, "zeta", "--s", "3", "--digits", "2000")
    assert code == 2
    code, _, err = run(capsys, "zeta", "--s", "1")
    assert code == 2
    code, _, err = run(capsys, "field-info", "--field", str(DATA / "missing.json"))
    assert code == 2 and "descriptor" in err
    code, _, err = run(capsys, "zhat", "--field", Z2, "--pres", "not json")
    assert code == 2
    code, _, err = run(capsys, "unit-log", "--unit", '["1","1"]')
    assert code == 2 and "--field" in err
    code, _, err = run(capsys, "polylog", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "polylog", "--n", "2", "--theta", "0")
    assert code == 2
    # both angles given: neither is dropped in silence
    code, out, err = run(capsys, "polylog", "--n", "2", "--theta", "1", "--theta-over-2pi", "1/3")
    assert (code, out, err) == (2, "", "error: give the angle as one of --theta and --theta-over-2pi\n")
    code, _, err = run(capsys, "cheeger-muller", "--r", "4")
    assert code == 2
    for argv in MALFORMED:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv


def test_malformed_descriptor_files(capsys, tmp_path):
    big, deep = tmp_path / "big.json", tmp_path / "deep.json"
    big.write_text('{"poly": [' + "1" * 5000 + ", 0, 1]}")
    deep.write_text("[" * 100000 + "]" * 100000)
    for path in (big, deep):
        code, out, err = run(capsys, "field-info", "--field", str(path))
        assert code == 2 and out == "" and err.startswith("error: field descriptor"), path
    # a class-group order below 1 is refused when the field is built
    zero = tmp_path / "zero.json"
    zero.write_text('{"poly": [-2, 0, 1], "units": [[1, 1]], "class_group": {"orders": [0]}}')
    code, out, err = run(capsys, "cycl", "--field", str(zero), "--grams", '[[["1"]], [["1"]]]')
    assert code == 2 and out == "" and err.startswith("error: class-group orders"), err
    half = tmp_path / "half.json"
    half.write_text('{"poly": [-2, 0.5, 1]}')
    code, out, err = run(capsys, "field-info", "--field", str(half))
    assert code == 2 and out == "" and "integer coefficients" in err, err
    # digits are resolved against the descriptor before it is parsed, and a
    # list has no "digits" entry to read
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    code, out, err = run(capsys, "field-info", "--field", str(listed))
    assert code == 2 and out == "" and err == 'error: field descriptor needs a "poly" coefficient list\n'


@pytest.mark.parametrize(
    "argv, descriptor",
    [
        # integer fields refuse a fraction and a boolean
        (["rtorsion", "--complex", _complex(lengths=[1.9, True])], None),
        (["rtorsion", "--complex", _complex(cohomology=[{"free_rank": False}, {}])], None),
        (["zhat", "--pres", '{"entries": [["2"]], "size": 1.5}'], None),
        (["scale", "--point", '{"rank": true, "torus": {}}', "--lambdas", "[1, 1]"], None),
        (["field-info"], {"poly": [-2, 0, 1], "digits": 40.7}),
        (["field-info"], {"poly": [-2, 0, 1], "class_group": {"orders": [2.5, True]}}),
        (["field-info"], {"poly": [-2, 0, True]}),
        # a value that is not finite is not a number
        (["reduce", "--form", "[NaN, 0]"], None),
        (["reduce", "--form", '["inf", 0]'], None),
        (["scale", "--point", '{"rank": 1, "torus": {}}', "--lambdas", "[Infinity, 2]"], None),
    ],
    ids=[
        "lengths", "free_rank", "size", "rank", "descriptor-digits",
        "class-orders", "poly", "nan-form", "inf-string-form", "infinite-lambda",
    ],
)
def test_numbers_that_are_not_what_they_stand_for_exit_2(capsys, tmp_path, argv, descriptor):
    field = Z2
    if descriptor is not None:
        field = tmp_path / "field.json"
        field.write_text(json.dumps(descriptor))
    code, out, err = run(capsys, *argv[:1], "--field", str(field), *argv[1:])
    assert code == 2 and out == "" and err.startswith("error: "), err


def _free_complex(h):
    # 0 -> R --0--> R -> 0, with a free cohomology class in each degree
    spec = {"free_rank": h, "free_reps": [["1"]], "free_grams": [[[1]], [[1]]]}
    return _complex(diffs=[[["0"]]], cohomology=[spec, spec])


def _point(**fields):
    point = json.dumps({"rank": 1, "torus": {}, **fields})
    return ["scale", "--point", point, "--lambdas", "[1, 2]"]


CLASS4 = {"poly": [-2, 0, 1], "units": [["1", "1"]], "class_group": {"orders": [4]}}

# Each integer field: the arguments and descriptor (None for Z[sqrt 2]) that
# carry n in it, and an n it is valid at.
INTEGER_FIELDS = {
    "lengths": (lambda n: (["rtorsion", "--complex", _complex(lengths=[n, 1])], None), 1),
    "free_rank": (lambda n: (["rtorsion", "--complex", _free_complex(n)], None), 1),
    "size": (lambda n: (["zhat", "--pres", json.dumps({"entries": [["2"]], "size": n})], None), 1),
    "rank": (lambda n: (_point(rank=n), None), 2),
    "cls": (lambda n: (_point(cls=[n]), CLASS4), 3),
    "descriptor-digits": (lambda n: (["field-info"], {"poly": [-2, 0, 1], "digits": n}), 40),
}


@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_integer_fields_read_as_the_library_reads_them(capsys, tmp_path, name):
    # one integer rule, numfield._integers: n.0 is n, byte for byte on
    # stdout, and the string "n" and n + 1/2 exit with 2
    make, n = INTEGER_FIELDS[name]

    def run_with(value):
        argv, descriptor = make(value)
        field = Z2
        if descriptor is not None:
            field = tmp_path / "field.json"
            field.write_text(json.dumps(descriptor))
        return run(capsys, *argv[:1], "--field", str(field), *argv[1:])

    code, want, err = run_with(n)
    assert code == 0 and want, err
    assert run_with(float(n)) == (0, want, "")
    for value in (str(n), n + 0.5):
        code, out, err = run_with(value)
        assert code == 2 and out == "" and err.startswith("error: "), (value, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["cycl", "--grams", "[[[true]], [[1]]]"],
        ["reduce", "--form", "[true, 0]"],
        ["unit-log", "--unit", "[true, true]"],
    ],
    ids=["gram", "form", "unit"],
)
def test_a_boolean_is_no_rational_or_real_value(capsys, argv):
    # parse_rational, to_mp and to_exact refuse a boolean, as the integer
    # fields do, where they read it as 1 before
    code, out, err = run(capsys, *argv[:1], "--field", Z2, *argv[1:])
    assert code == 2 and out == "" and err.startswith("error: "), err


def test_json_numbers_read_as_their_decimal_text(capsys):
    # the binary double nearest 0.1 is 0.1000000000000000055...
    cplx = _complex(grams=[[[[0.1]], [[1]]], [[[1]], [[1]]]])
    d = run_json(capsys, "rtorsion", "--field", Z2, "--complex", cplx)
    with mp.workdps(60):
        assert close(d["tau"]["sigma_0"], mp.sqrt(mp.mpf(1) / 10) / 2, "1e-49")
    d = run_json(capsys, "reduce", "--field", Z2, "--form", "[0.1, -0.1]")
    assert d["torus"] == {"sigma_0": "0.1", "sigma_1": "-0.1"}
    # a decimal past the double range is the number it is written as
    d = run_json(capsys, "cycl", "--field", Z2, "--grams", "[[[1e400]], [[1]]]")
    e = run_json(capsys, "cycl", "--field", Z2, "--grams", '[[["1e400"]], [["1"]]]')
    assert d == e


def test_reduce_exits_3_on_forms_it_cannot_reduce(capsys):
    # a coefficient above 10^GUARD cancels more digits than the lattice
    # carries beyond the working precision; a large Gram's coefficients stay
    # small, since cycl takes a quarter of its log-determinant
    for form in ('["1e400", "0"]', '["1e60", "-1e60"]', '["2e10", "-2e10"]'):
        code, out, err = run(capsys, "reduce", "--field", Z2, "--form", form)
        assert code == 3 and out == "" and "cancels more digits" in err, (form, err)
    point = '{"rank": 1, "torus": {"sigma_0": "1e60", "sigma_1": "-1e60"}}'
    code, out, err = run(capsys, "scale", "--field", Z2, "--point", point, "--lambdas", "[1,1]")
    assert code == 3 and out == "" and "cancels more digits" in err, err
    d = run_json(capsys, "reduce", "--field", Z2, "--form", '["1e10", "-1e10"]')
    assert close(d["torus"]["sigma_0"], "0.057386093735614404049400402935952544328228553219684", "1e-48")
    d = run_json(capsys, "cycl", "--field", Z2, "--grams", "[[[1e400]], [[1]]]")
    assert close(d["torus"]["sigma_0"], "0.11000154365191940804405582435531405188015159329523")


def test_bounded_flags_are_checked_first(capsys):
    # main checks --j, --jmax and --imax before it resolves digits or builds
    # a field or cyclotomic setup
    for argv, flag in (
        (["beta-check", "--j", "100"], "--j must lie in [1, 99]"),
        (["u-coeff", "--r", "4", "--j", "0"], "--j must lie in [1, 99]"),
        (["regulator-check", "--r", "5", "--j", "100", "--digits", "5"], "--j must lie in [1, 99]"),
        (["circle-torsion", "--r", "67", "--jmax", "100", "--digits", "5"], "--jmax must lie in [0, 99]"),
        (["borel-dims", "--field", str(DATA / "missing.json"), "--imax", "-1"],
         "--imax must lie in [0, 10000]"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {flag}\n"), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["polylog", "--n", "2", "--theta", "1e-1000000"],
        ["polylog", "--n", "2", "--theta", "1e-3000000"],
        ["polylog", "--n", "2", "--theta", "1e-10000000"],
        ["unit-log", "--field", Z2, "--unit", '["1e4400","1"]'],
        # a Gram entry is read exactly, so its binary exponent has the same bound
        ["cycl", "--field", Z2, "--grams", '[[["1e-1000000000"]], [["1"]]]'],
        ["rtorsion", "--field", Z2, "--complex",
         '{"lengths": [1, 1], "diffs": [[["1"]]], "grams": [[[["1"]], [["1"]]], '
         '[[["1e1000000000"]], [["1"]]]]}'],
        # every scalar has one reader: a λ of 1e5000 printed a torus, and a
        # form coefficient exited 3
        ["scale", "--field", Z2, "--point", '{"rank": 1, "torus": {}}', "--lambdas", '["1e5000", "1"]'],
        ["reduce", "--field", Z2, "--form", '["1e5000", "0"]'],
    ],
)
def test_decimal_exponents_keep_the_int_string_limit(capsys, argv):
    # each would build a power of ten of millions of digits, or print one
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: "), err
    assert "exceeds the limit of" in err, err
    assert time.perf_counter() - start < 1


def _diag_complex(small):
    # 0 -> R^2 --diag(1, small)--> R^2 -> 0 with standard Grams
    eye = [[1, 0], [0, 1]]
    return json.dumps(
        {
            "lengths": [2, 2],
            "diffs": [[["1", "0"], ["0", small]]],
            "grams": [[eye, eye], [eye, eye]],
        }
    )


def test_numerical_exit_code(capsys, monkeypatch):
    # over R every rank is decided exactly, so no rtorsion input reaches a
    # NumericalError; a handler that raises one pins main's exit 3
    def failing(args, ctx):
        raise NoConvergence("iteration did not converge")

    monkeypatch.setattr(cli, "cmd_zeta", failing)
    code, out, err = run(capsys, "zeta", "--s", "2")
    assert code == 3 and out == "" and "numerical failure: iteration did not converge" in err


def test_misjudged_kernel_exit_code(capsys):
    # At 50 digits the Laplacian route misjudges both kernels (see
    # tests/test_rtorsion.py): the eigenvalue 10^-50 of diag(1, 10^-25) sits
    # at its cutoff 10^-50 |L|_F, and that of diag(1, 10^-30), 10^-60, falls
    # below it though the exact rank is 2.  rtorsion prints the exact
    # basis-chase tau, right in every printed digit.
    for e in (25, 30):
        cplx = _diag_complex("1/1" + "0" * e)
        d = run_json(capsys, "rtorsion", "--field", Z2, "--complex", cplx, "--digits", "50")
        assert d["tau"] == {f"sigma_{k}": "1" + "0" * e + ".0" for k in (0, 1)}


def test_near_singular_differential_prints_every_digit(capsys):
    # 0 -> R^2 --[[1, 1], [1, 1 + 10^-20]]--> R^2 -> 0 has tau = 10^20 at
    # both places; the Laplacian tau is off by 1.2e-21 relative here
    eye = [[1, 0], [0, 1]]
    cplx = json.dumps(
        {
            "lengths": [2, 2],
            "diffs": [[["1", "1"], ["1", "1." + "0" * 19 + "1"]]],
            "grams": [[eye, eye], [eye, eye]],
        }
    )
    d = run_json(capsys, "rtorsion", "--field", Z2, "--complex", cplx, "--digits", "50")
    assert d["tau"] == {f"sigma_{k}": "1" + "0" * 20 + ".0" for k in (0, 1)}


@pytest.mark.parametrize("e", (15, 20))
def test_differentials_of_different_scale_exit_zero(capsys, e):
    # 0 -> R --(10^-e, 0)^T--> R^2 --(0, 10^e)--> R -> 0 is acyclic with
    # tau = 10^(2e); its degree-1 Laplacian spans 4e digits
    eye1, eye2 = [[1]], [[1, 0], [0, 1]]
    cplx = json.dumps(
        {
            "lengths": [1, 2, 1],
            "diffs": [[["1/1" + "0" * e], ["0"]], [["0", "1" + "0" * e]]],
            "grams": [[eye1, eye1], [eye2, eye2], [eye1, eye1]],
        }
    )
    d = run_json(capsys, "rtorsion", "--field", Z2, "--complex", cplx, "--digits", "50")
    for k in (0, 1):
        assert close(d["tau"][f"sigma_{k}"], f"1e{2 * e}", f"1e{2 * e - 40}")


def test_table_format(capsys):
    code, out, _ = run(capsys, "cheeger-muller", "--r", "5", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert any("T0_abs" in ln and "ln_tau" in ln for ln in lines)
    assert len(lines) >= 4
    code, out, _ = run(capsys, "zeta", "--s", "2", "--format", "table")
    assert code == 0 and any(ln.startswith("value = ") for ln in out.splitlines())


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "regtor.cli", "zeta", "--s", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    with mp.workdps(60):
        assert close(d["value"], mp.pi**4 / 90, "1e-45")
