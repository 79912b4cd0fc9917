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
    ["scale", "--field", Z2, "--point", '{"rank":1,"torus":5}', "--lambdas", '["1","1"]'],
    ["cycl", "--field", Z2, "--grams", '[[["x"]],[["1"]]]'],
    ["cycl", "--field", Z2, "--grams", "[5, 5]"],
    ["rtorsion", "--field", Z2, "--complex", _complex(grams=[5, 5])],
    ["rtorsion", "--field", Z2, "--complex", _complex(lengths=["x", 1])],
    ["rtorsion", "--field", Z2, "--complex", _complex(cohomology=[{"free_rank": "x"}, {}])],
    ["zhat", "--field", Z2, "--pres", '{"entries": [["2"]], "size": "x"}'],
    ["scale", "--field", Z2, "--point", '{"rank":"x","torus":{}}', "--lambdas", '["1","1"]'],
    ["scale", "--field", Z2, "--point", '{"rank":1,"cls":["x"],"torus":{}}', "--lambdas", '["1","1"]'],
    # json raises a plain ValueError past the int-string limit, and
    # RecursionError on deep nesting
    ["reduce", "--field", Z2, "--form", "[" + "1" * 5000 + ", 0]"],
    ["reduce", "--field", Z2, "--form", "[" * 3000 + "]" * 3000],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["polylog", "--n", "2", "--theta", "1e-1000000"],
        ["polylog", "--n", "2", "--theta", "1e-3000000"],
        ["polylog", "--n", "2", "--theta", "1e-10000000"],
        ["unit-log", "--field", Z2, "--unit", '["1e4400","1"]'],
    ],
)
def test_decimal_exponents_keep_the_int_string_limit(capsys, argv):
    # each would build a power of ten of millions of digits, or print one
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: "), err
    assert time.perf_counter() - start < 1


def test_numerical_exit_code(capsys):
    cplx = json.dumps(
        {
            "lengths": [1, 1],
            "diffs": [[["1/1000000000000"]]],
            "grams": [[[[1]], [[1]]], [[[1]], [[1]]]],
        }
    )
    code, _, err = run(capsys, "rtorsion", "--field", Z2, "--complex", cplx)
    assert code == 3 and "cutoff" in err


def test_misjudged_kernel_exit_code(capsys):
    # 10^-30 has exact rank 1, but at 50 digits its Laplacian eigenvalue
    # 10^-60 falls below the cutoff: more digits help, so the exit is 3
    cplx = json.dumps(
        {
            "lengths": [1, 1],
            "diffs": [[["1/" + "1" + "0" * 30]]],
            "grams": [[[[1]], [[1]]], [[[1]], [[1]]]],
        }
    )
    code, out, err = run(capsys, "rtorsion", "--field", Z2, "--complex", cplx, "--digits", "50")
    assert code == 3 and out == "" and "cutoff" in err
    d = run_json(capsys, "rtorsion", "--field", Z2, "--complex", cplx, "--digits", "130")
    for k in (0, 1):
        assert close(d["tau"][f"sigma_{k}"], "1e30", "1e-10")


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
