"""Batch command-line interface.

Every operation is exposed as a subcommand with JSON input arguments and
JSON (default) or aligned-table output.  All numbers are serialized as
decimal strings at the working precision, so results survive round-trips
beyond double precision.  Exit codes: 0 success, 2 validation error,
3 numerical failure; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from mpmath import mp

from . import circlebundle, flatmodel, modtors, polylog, rtorsion
from .errors import NumericalError, ValidationError
from .numfield import DEGREE_MAX, GUARD, dirichlet_rank, norm, parse_descriptor, parse_rational

DEFAULT_DIGITS = 50


def _resolve_digits(args, descriptor=None) -> int:
    digits = args.digits
    if digits is None and descriptor is not None:
        digits = descriptor.get("digits")
    if digits is None:
        digits = DEFAULT_DIGITS
    digits = _int_arg(digits, "digits")
    if not 30 <= digits <= 1000:
        raise ValidationError("digits must lie in [30, 1000]")
    return digits


def _load_field(args):
    if not getattr(args, "field", None):
        raise ValidationError("this command needs --field with a descriptor file")
    try:
        with open(args.field) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read field descriptor: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"field descriptor is not valid JSON: {exc}") from exc
    digits = _resolve_digits(args, data)
    field, units = parse_descriptor(data, digits_override=digits)
    return field, units, digits


def _load_lattice(args):
    """The field, the regulator lattice of its descriptor units, and digits."""
    field, units, digits = _load_field(args)
    return field, flatmodel.build_lattice(field, units), digits


def _json_arg(text, what, kind=None):
    """Parse a JSON argument; kind (list or dict) checks its top-level type."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    if kind is not None and not isinstance(data, kind):
        raise ValidationError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return data


def _s(x, digits):
    return mp.nstr(mp.mpf(x) if not isinstance(x, (mp.mpf, mp.mpc)) else x, digits)


def _q(x) -> str:
    """An exact rational as text of any length: the int-to-string limit guards input only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _form_reduced(f, digits):
    return {
        f"b1(sigma_{k + 1})": _s(v, digits)
        for k, v in enumerate(f.reduced_b1_coords())
    }


def _point_dict(x, digits):
    d = x.to_dict(digits)
    d["torus_b1_reduced"] = _form_reduced(x.torus.as_form(), digits)
    return d


def _parse_point(lattice, data):
    if "rank" not in data or not isinstance(data.get("torus"), dict):
        raise ValidationError('a point class needs {"rank", "cls", "torus"}, "torus" an object')
    torus = data["torus"]
    vals = [torus.get(f"sigma_{k}", "0") for k in range(lattice.field.n_places)]
    f = flatmodel.make_form(lattice.field, 0, vals)
    cls = data.get("cls", [])
    if not isinstance(cls, list):
        raise ValidationError('"cls" must be a list of integers')
    cls = [_int_arg(c, "a cls entry") for c in cls]
    return flatmodel.point_class(lattice, _int_arg(data["rank"], "rank"), cls, f)


def _ring_cell(field, cell):
    if isinstance(cell, str):
        cell = [cell]
    if not isinstance(cell, list):
        raise ValidationError('matrix entries must be "p/q" strings or coefficient lists')
    return field.element([_rational_arg(c, "a matrix entry") for c in cell])


def _ring_matrix(field, rows, what):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"{what} must be a list of rows")
    return [[_ring_cell(field, cell) for cell in row] for row in rows]


def _grams(data, what):
    if not isinstance(data, list) or not all(
        isinstance(g, list) and all(isinstance(r, list) for r in g) for g in data
    ):
        raise ValidationError(f"{what} must be a list of Gram matrices, each a list of rows")
    return data


def _parse_presentation(field, data):
    entries = data.get("entries") if isinstance(data, dict) else data
    rows = _ring_matrix(field, entries, "presentation entries")
    if any(len(r) != len(rows) for r in rows):
        # Shorthand: a single row of strings is one entry's coefficient vector.
        if len(entries) == 1 and all(isinstance(c, str) for c in entries[0]):
            rows = [[_ring_cell(field, entries[0])]]
    if isinstance(data, dict) and "size" in data and _int_arg(data["size"], "size") != len(rows):
        raise ValidationError("declared presentation size disagrees with the entries")
    return modtors.presentation(field, rows)


def _parse_complex(field, data):
    for key in ("lengths", "diffs", "grams"):
        if not isinstance(data.get(key), list):
            raise ValidationError(f'complex JSON needs a list "{key}"')
    lengths = [_int_arg(n, "a length") for n in data["lengths"]]
    diffs = [_ring_matrix(field, m, "a differential") for m in data["diffs"]]
    cohomology = data.get("cohomology", [{} for _ in lengths])
    if not isinstance(cohomology, list) or not all(isinstance(raw, dict) for raw in cohomology):
        raise ValidationError('"cohomology" must be a list of JSON objects')
    specs = []
    for raw in cohomology:
        torsion = None
        if raw.get("torsion") is not None:
            torsion = _parse_presentation(field, raw["torsion"])
        reps = _ring_matrix(field, raw.get("free_reps", []), "free_reps")
        specs.append(
            rtorsion.CohomologySpec(
                free_rank=_int_arg(raw.get("free_rank", 0), "free_rank"),
                free_reps=tuple(tuple(r) for r in reps),
                free_grams=tuple(_grams(raw.get("free_grams", []), "free_grams")),
                torsion=torsion,
            )
        )
    grams = [_grams(per_degree, "grams") for per_degree in data["grams"]]
    return rtorsion.build_complex_over_r(field, lengths, diffs, grams, specs)


def _int_arg(value, what):
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from exc


def _bounded(value, lo, hi, flag):
    """An integer flag inside its documented range, checked before any work."""
    if not lo <= value <= hi:
        raise ValidationError(f"{flag} must lie in [{lo}, {hi}]")


def _rational_arg(text, what):
    """A decimal or "p/q" argument as an exact rational."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what} must be a decimal or p/q, got {text!r}") from exc


def _real_arg(text, digits, what):
    """A decimal or "p/q" argument at digits + GUARD."""
    q = _rational_arg(text, what)
    with mp.workdps(digits + GUARD):
        return mp.mpf(q.numerator) / q.denominator


def _theta_from_args(args, digits):
    if args.theta_over_2pi is not None:
        q = _rational_arg(args.theta_over_2pi, "--theta-over-2pi")
        with mp.workdps(digits + GUARD):
            return 2 * mp.pi * q.numerator / q.denominator
    if args.theta is not None:
        return _real_arg(args.theta, digits, "--theta")
    raise ValidationError("give the angle as --theta or --theta-over-2pi")


def cmd_field_info(args):
    field, units, digits = _load_field(args)
    places = []
    for k, z in enumerate(field.sigma_star):
        places.append(
            {
                "index": k,
                "type": "real" if field.is_real_place(k) else "complex",
                "re": _s(mp.re(z), digits),
                "im": _s(mp.im(z), digits),
            }
        )
    return {
        "poly": list(field.poly),
        "degree": field.degree,
        "digits": digits,
        "r_real": field.r_real,
        "r_complex": field.r_complex,
        "dirichlet_rank": dirichlet_rank(field),
        "class_orders": list(field.class_orders),
        "units_in_descriptor": len(units),
        "places": places,
    }


def cmd_unit_log(args):
    field, _, digits = _load_field(args)
    vec = _json_arg(args.unit, "--unit", list)
    elem = field.element([_rational_arg(c, "--unit") for c in vec])
    f = flatmodel.unit_log(field, elem)
    return {
        "unit": [_q(c) for c in elem.coeffs],
        "norm": _q(norm(field, elem)),
        "canonical": f.to_dict(digits)["coeffs"],
        "b1_reduced": _form_reduced(f, digits),
    }


def cmd_lattice(args):
    _, lat, digits = _load_lattice(args)
    return {
        "rank": lat.rank,
        "tol": _s(lat.tol, 8),
        "basis_b1_reduced": [
            _form_reduced(lat.basis_form(i), digits) for i in range(lat.rank)
        ],
    }


def cmd_reduce(args):
    field, lat, digits = _load_lattice(args)
    vals = _json_arg(args.form, "--form", list)
    f = flatmodel.make_form(field, 0, vals)
    t, is_zero = flatmodel.reduce_mod_lattice(lat, f)
    return {
        "is_zero": is_zero,
        "torus": t.to_dict(digits),
        "b1_reduced": _form_reduced(t.as_form(), digits),
    }


def cmd_cycl(args):
    field, lat, digits = _load_lattice(args)
    grams = _grams(_json_arg(args.grams, "--grams"), "--grams")
    x = flatmodel.cycl_free(field, lat, grams)
    return _point_dict(x, digits)


def cmd_scale(args):
    _, lat, digits = _load_lattice(args)
    x = _parse_point(lat, _json_arg(args.point, "--point", dict))
    lambdas = _json_arg(args.lambdas, "--lambdas", list)
    y = flatmodel.scale_class(lat, x, lambdas)
    return _point_dict(y, digits)


def cmd_zhat(args):
    field, lat, digits = _load_lattice(args)
    pres = _parse_presentation(field, _json_arg(args.pres, "--pres"))
    x = modtors.zhat(field, lat, pres)
    out = _point_dict(x, digits)
    out["det"] = [_q(c) for c in pres.det_elem.coeffs]
    out["in_lattice"] = x.torus.is_zero()
    return out


def cmd_rtorsion(args):
    field, _, digits = _load_field(args)
    cplx = _parse_complex(field, _json_arg(args.complex, "--complex", dict))
    f = rtorsion.rtorsion_form(field, cplx)
    # rtorsion_form has built every place and its tau; these calls reuse them
    taus = [rtorsion.reidemeister(rtorsion.at_place(cplx, k)) for k in range(field.n_places)]
    return {
        "tau": {f"sigma_{k}": _s(t, digits) for k, t in enumerate(taus)},
        "form_canonical": f.to_dict(digits)["coeffs"],
        "form_b1_reduced": _form_reduced(f, digits),
    }


def cmd_euler_check(args):
    field, lat, digits = _load_lattice(args)
    cplx = _parse_complex(field, _json_arg(args.complex, "--complex", dict))
    res = rtorsion.verify_euler_identity(field, lat, cplx)
    out = {"residual": _point_dict(res, digits), "is_zero": res.is_zero()}
    return out


def cmd_polylog(args):
    digits = _resolve_digits(args)
    theta = _theta_from_args(args, digits)
    val = polylog.polylog_circle(args.n, theta, digits)
    return {
        "n": args.n,
        "theta": _s(theta, digits),
        "re": _s(mp.re(val), digits),
        "im": _s(mp.im(val), digits),
    }


def cmd_zeta(args):
    digits = _resolve_digits(args)
    return {"s": args.s, "value": _s(polylog.zeta_int(args.s, digits), digits)}


def cmd_bernoulli(args):
    _ = _resolve_digits(args)
    return {"m": args.m, "value": _q(polylog.bernoulli(args.m))}


def cmd_beta_check(args):
    digits = _resolve_digits(args)
    quad, exact = polylog.beta_integral_check(args.j, digits)
    with mp.workdps(digits + GUARD):
        err = abs(quad - mp.mpf(exact.numerator) / exact.denominator)
    return {
        "j": args.j,
        "quadrature": _s(quad, digits),
        "exact": _q(exact),
        "abs_err": _s(err, 8),
    }


def cmd_circle_torsion(args):
    digits = _resolve_digits(args)
    _bounded(args.jmax, 0, polylog.ORDER_MAX - 1, "--jmax")
    setup = circlebundle.make_cyclotomic_setup(args.r, digits)
    coeffs = circlebundle.torsion_form_coeffs(setup, args.jmax)
    rows = [
        {
            "sigma": k,
            "theta": _s(setup.thetas[k], digits),
            "j": j,
            "T": _s(coeffs[(k, j)], digits),
        }
        for k in range(setup.field.n_places)
        for j in range(args.jmax + 1)
    ]
    return {"r": args.r, "rows": rows}


def cmd_u_coeff(args):
    digits = _resolve_digits(args)
    _bounded(args.j, 1, polylog.ORDER_MAX - 1, "--j")
    setup = circlebundle.make_cyclotomic_setup(args.r, digits)
    vals = circlebundle.u_coeff(setup, args.j)
    rows = [{"sigma": k, "u": _s(vals[k], digits)} for k in sorted(vals)]
    return {"r": args.r, "j": args.j, "rows": rows}


def cmd_regulator_check(args):
    digits = _resolve_digits(args)
    _bounded(args.j, 1, polylog.ORDER_MAX - 1, "--j")
    setup = circlebundle.make_cyclotomic_setup(args.r, digits)
    chk = circlebundle.regulator_identity_check(setup, args.j)
    rows = [
        {
            "sigma": k,
            "lhs": _s(chk[k][0], digits),
            "rhs": _s(chk[k][1], digits),
            "ratio": _s(chk[k][2], 8),
        }
        for k in sorted(chk)
    ]
    return {"r": args.r, "j": args.j, "rows": rows}


def cmd_cheeger_muller(args):
    digits = _resolve_digits(args)
    setup = circlebundle.make_cyclotomic_setup(args.r, digits)
    chk = circlebundle.cheeger_muller_check(setup)
    rows = [
        {
            "sigma": k,
            "T0_abs": _s(chk[k][0], digits),
            "ln_tau": _s(chk[k][1], digits),
            "residual": _s(chk[k][2], 8),
        }
        for k in sorted(chk)
    ]
    return {"r": args.r, "rows": rows}


def cmd_borel_dims(args):
    _bounded(args.imax, 0, circlebundle.BOREL_INDEX_MAX, "--imax")
    field, _, _ = _load_field(args)
    dims = circlebundle.borel_dims(field, args.imax)
    xdims = {
        str(2 * j - 1): circlebundle.x_space_dim(field, j)
        for j in range(2, args.imax // 2 + 2)
        if 2 * j - 1 <= args.imax
    }
    return {
        "imax": args.imax,
        "dims": {str(i): dims[i] for i in sorted(dims)},
        "x_space_dims": xdims,
    }


def cmd_normalize(args):
    digits = _resolve_digits(args)
    chern, igusa, (bmag, bpow) = circlebundle.normalization_factors(args.j, digits)
    value = _real_arg(args.value, digits, "--value")
    out = circlebundle.convert(value, args.frm, args.to, args.j, digits)
    res = {
        "j": args.j,
        "from": args.frm,
        "to": args.to,
        "N_chern": _s(chern, digits),
        "N_igusa": _s(igusa, digits),
        "N_borel": {"magnitude": _s(bmag, digits), "i_power": bpow},
    }
    if isinstance(out, mp.mpc):
        res["value"] = {"re": _s(mp.re(out), digits), "im": _s(mp.im(out), digits)}
    else:
        res["value"] = _s(out, digits)
    return res


def cmd_hatcher(args):
    digits = _resolve_digits(args)
    a_k, kappa, value = circlebundle.hatcher_constant(args.k, digits)
    return {
        "k": args.k,
        "a": a_k,
        "kappa": f"{kappa.numerator}/{kappa.denominator}",
        "value": _s(value, digits),
    }


def _render_table(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        if "rows" in obj and isinstance(obj["rows"], list) and obj["rows"]:
            for key, val in obj.items():
                if key != "rows":
                    lines.append(f"{pad}{key} = {val}")
            rows = obj["rows"]
            cols = list(rows[0].keys())
            widths = {
                c: max(len(str(c)), max(len(str(r[c])) for r in rows)) for c in cols
            }
            lines.append(pad + "  ".join(str(c).ljust(widths[c]) for c in cols))
            for r in rows:
                lines.append(pad + "  ".join(str(r[c]).ljust(widths[c]) for c in cols))
        else:
            for key, val in obj.items():
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    lines.append(_render_table(val, indent + 1))
                else:
                    lines.append(f"{pad}{key} = {val}")
    elif isinstance(obj, list):
        for k, val in enumerate(obj):
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}[{k}]")
                lines.append(_render_table(val, indent + 1))
            else:
                lines.append(f"{pad}[{k}] {val}")
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="regtor",
        description="Arithmetic regulator, torsion, and polylogarithm calculator.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, field=False, **flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--digits", type=int, default=None, help="working precision (30..1000)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if field:
            p.add_argument("--field", required=False, help="field descriptor JSON path")
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
        return p

    # The field of order r has degree r - 1, which build_field bounds.
    r_arg = {"type": int, "required": True, "help": f"prime cyclotomic order, 3..{DEGREE_MAX + 1}"}
    # The degree index j; Li_{j+1} is evaluated, so ORDER_MAX bounds it.
    j_arg = {"type": int, "required": True, "help": f"1..{polylog.ORDER_MAX - 1}"}
    add("field-info", cmd_field_info, "embeddings, signature, unit rank", field=True)
    add(
        "unit-log", cmd_unit_log, "half-log-absolute-value vector of a unit",
        field=True,
        **{"--unit": {"required": True, "help": 'coefficient vector, e.g. ["1","1"]'}},
    )
    add("lattice", cmd_lattice, "reduced regulator lattice from descriptor units", field=True)
    add(
        "reduce", cmd_reduce, "reduce a degree-1 vector modulo the lattice",
        field=True,
        **{"--form": {"required": True, "help": "per-place values as JSON list"}},
    )
    add(
        "cycl", cmd_cycl, "class of a metrized free module",
        field=True,
        **{"--grams": {"required": True, "help": "JSON list of Gram matrices, one per place"}},
    )
    add(
        "scale", cmd_scale, "rescale the metric of a point class",
        field=True,
        **{
            "--point": {"required": True, "help": "point class JSON"},
            "--lambdas": {"required": True, "help": "JSON list of positive scalars per place"},
        },
    )
    pres_help = f"presentation matrix JSON, at most {modtors.PRESENTATION_SIZE_MAX} rows"
    add(
        "zhat", cmd_zhat, "secondary class of a torsion-module presentation",
        field=True,
        **{"--pres": {"required": True, "help": pres_help}},
    )
    # build_complex_over_r bounds the degree count and every length
    size = f"at most {rtorsion.COMPLEX_SIZE_MAX} degrees of length 0..{rtorsion.COMPLEX_SIZE_MAX}"
    add(
        "rtorsion", cmd_rtorsion, "Reidemeister torsion of a metrized complex",
        field=True,
        **{"--complex": {"required": True, "help": f"complex JSON (lengths/diffs/grams/cohomology), {size}"}},
    )
    add(
        "euler-check", cmd_euler_check, "Euler-characteristic identity residual",
        field=True,
        **{"--complex": {"required": True, "help": f"complex JSON with cohomology data, {size}"}},
    )
    add(
        "polylog", cmd_polylog, "Li_n(e^{i theta})",
        **{
            "--n": {"type": int, "required": True, "help": f"order, 1..{polylog.ORDER_MAX}"},
            "--theta": {"default": None, "help": "angle in (0, 2 pi), decimal"},
            "--theta-over-2pi": {
                "dest": "theta_over_2pi",
                "default": None,
                "help": "rational k/r with theta = 2 pi k/r",
            },
        },
    )
    add("zeta", cmd_zeta, "integer zeta value", **{"--s": {"type": int, "required": True}})
    add(
        "bernoulli", cmd_bernoulli, "exact Bernoulli number",
        **{"--m": {"type": int, "required": True, "help": f"index, 0..{polylog.BERNOULLI_MAX}"}},
    )
    add("beta-check", cmd_beta_check, "quadrature vs exact beta integral", **{"--j": j_arg})
    add(
        "circle-torsion", cmd_circle_torsion, "torsion-form coefficients T_{sigma,j}",
        **{"--r": r_arg, "--jmax": {"type": int, "default": 4, "help": f"0..{polylog.ORDER_MAX - 1}"}},
    )
    add(
        "u-coeff", cmd_u_coeff, "the polylogarithmic constants u_j",
        **{"--r": r_arg, "--j": j_arg},
    )
    add(
        "regulator-check", cmd_regulator_check, "psi-scaling identity, both sides",
        **{"--r": r_arg, "--j": j_arg},
    )
    add(
        "cheeger-muller", cmd_cheeger_muller, "degree-0 torsion cross-check",
        **{"--r": r_arg},
    )
    add(
        "borel-dims", cmd_borel_dims, "four-periodic dimension table",
        field=True,
        **{"--imax": {"type": int, "default": 13, "help": f"0..{circlebundle.BOREL_INDEX_MAX}"}},
    )
    add(
        "normalize", cmd_normalize, "convert between form normalizations",
        **{
            "--j": {"type": int, "required": True, "help": f"0..{polylog.ORDER_MAX - 1}"},
            "--value": {"required": True},
            "--from": {"dest": "frm", "required": True, "choices": ("bl", "chern", "igusa", "borel")},
            "--to": {"dest": "to", "required": True, "choices": ("bl", "chern", "igusa", "borel")},
        },
    )
    add(
        "hatcher", cmd_hatcher, "a_k kappa_k zeta(2k+1)",
        **{"--k": {"type": int, "required": True, "help": f"1..{circlebundle.HATCHER_K_MAX}"}},
    )
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        print(_render_table(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
