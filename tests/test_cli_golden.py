"""CLI standard output, byte for byte, against recorded files.

Each case runs cli.main in process and compares what it prints with
tests/data/golden/<name>.txt.  The cases are the four README examples,
one 50-digit call of every other subcommand, two more rtorsion calls (a
three-term complex and one with free cohomology), polylog at theta = pi,
where Li_3(-1) is real and its imaginary part prints as an exact 0.0, and
field-info and lattice in --format table, whose nested objects and lists
take the indented layout.
Calls whose output prints the rounding noise of an exact zero (the
cheeger-muller residual) are left out, with two exceptions.  The README's
own cheeger-muller table is kept because the README shows it; with Li_1 in
the real closed form -ln(2 sin(theta/2)), its residuals at r = 5 print 0.0.
The euler-check residual on the free-cohomology complex is kept because it
pins how the cycle classes are summed: the Gram determinants cancel
exactly against those of the exact tau, and each degree's
|sigma(det T_i)|^2 meets the equal |sigma(delta_i)|^2, so the residual
prints an exact 0.0.

After an intended change of output, re-record every case, or only the
named ones, with

    PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from regtor.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
Z2 = str(DATA / "zsqrt2.json")
Z5 = str(DATA / "zeta5.json")

README_COMPLEX = json.dumps(
    {
        "lengths": [1, 1],
        "diffs": [[["2"]]],
        "grams": [[[[1]], [[1]]], [[[1]], [[1]]]],
        "cohomology": [{}, {"torsion": [["2"]]}],
    }
)
COMPLEX = json.dumps(
    {
        "lengths": [1, 1],
        "diffs": [[[["3", "1"]]]],
        "grams": [[[["2"]], [["3"]]], [[["1"]], [["5"]]]],
    }
)
# Three terms over Z[sqrt2]: d1 d0 = 3(1+sqrt2) - (3+3sqrt2) = 0, H^2 = R/(3).
THREE_TERM = json.dumps(
    {
        "lengths": [1, 2, 1],
        "diffs": [[[["1", "1"]], ["1"]], [["3", ["-3", "-3"]]]],
        "grams": [
            [[["2"]], [["5"]]],
            [[["2", "1"], ["1", "3"]], [["1", "0"], ["0", "4"]]],
            [[["3"]], [["1/2"]]],
        ],
        "cohomology": [{}, {}, {"torsion": [["3"]]}],
    }
)
# Free cohomology: H^1 = R/(2) + R, its free part represented by (3, 1).
FREE_COHOMOLOGY = json.dumps(
    {
        "lengths": [1, 2],
        "diffs": [[["2"], ["0"]]],
        "grams": [[[["2"]], [["1"]]], [[["2", "1"], ["1", "3"]], [["1", "0"], ["0", "5"]]]],
        "cohomology": [
            {},
            {
                "free_rank": 1,
                "free_reps": [["3"], ["1"]],
                "free_grams": [[["2"]], [["7"]]],
                "torsion": [["2"]],
            },
        ],
    }
)
POINT = '{"rank":1,"cls":[],"torus":{"sigma_0":"1/4","sigma_1":"-1/4"}}'

CASES = {
    "readme_zhat": ["zhat", "--field", Z2, "--pres", '[["5/1", "1/1"]]'],
    "readme_cheeger_muller": ["cheeger-muller", "--r", "5", "--format", "table"],
    "readme_polylog": ["polylog", "--n", "2", "--theta-over-2pi", "1/5", "--digits", "60"],
    "readme_euler_check": ["euler-check", "--field", Z2, "--complex", README_COMPLEX],
    "euler_check_cohomology": ["euler-check", "--field", Z2, "--complex", FREE_COHOMOLOGY],
    "field_info": ["field-info", "--field", Z5],
    "field_info_table": ["field-info", "--field", Z5, "--format", "table"],
    "unit_log": ["unit-log", "--field", Z5, "--unit", '["1","1","0","0"]'],
    "lattice": ["lattice", "--field", Z5],
    "lattice_table": ["lattice", "--field", Z5, "--format", "table"],
    "reduce": ["reduce", "--field", Z5, "--form", '["1/3","-1/7"]'],
    "cycl": ["cycl", "--field", Z2, "--grams", '[[["2","1"],["1","3"]],[["5","0"],["0","1/2"]]]'],
    "scale": ["scale", "--field", Z2, "--point", POINT, "--lambdas", '["2","7/3"]'],
    "zhat": ["zhat", "--field", Z5, "--pres", '[[["2","1","0","0"],"1"],["0",["3","0","1","0"]]]'],
    "rtorsion": ["rtorsion", "--field", Z2, "--complex", COMPLEX],
    "rtorsion_three_term": ["rtorsion", "--field", Z2, "--complex", THREE_TERM],
    "rtorsion_free_cohomology": ["rtorsion", "--field", Z2, "--complex", FREE_COHOMOLOGY],
    "polylog": ["polylog", "--n", "3", "--theta-over-2pi", "2/7"],
    "polylog_minus_one": ["polylog", "--n", "3", "--theta-over-2pi", "1/2"],
    "zeta": ["zeta", "--s", "5"],
    "bernoulli": ["bernoulli", "--m", "30"],
    "beta_check": ["beta-check", "--j", "4"],
    "circle_torsion": ["circle-torsion", "--r", "7", "--jmax", "3"],
    "u_coeff": ["u-coeff", "--r", "7", "--j", "2"],
    "regulator_check": ["regulator-check", "--r", "7", "--j", "3"],
    "borel_dims": ["borel-dims", "--field", Z5, "--imax", "9"],
    "normalize": ["normalize", "--j", "2", "--value", "1/3", "--from", "borel", "--to", "chern"],
    "hatcher": ["hatcher", "--k", "4"],
}


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_every_subcommand_is_covered():
    covered = {argv[0] for argv in CASES.values()}
    assert len(covered) == 20


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, out = _stdout(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"no such case: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        code, out = _stdout(CASES[name])
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.txt").write_text(out)
