"""Batch command-line interface.

Every operation is exposed as a subcommand with JSON input arguments and
JSON (default) or aligned-table output.  Each subcommand declares once, in
build_parser, what it reads (its digits alone, a field and its descriptor
units, that field and its regulator lattice, or the cyclotomic setup of
--r) and the range of each work-setting flag the CLI bounds itself (--j,
--jmax, --imax).  main checks those ranges, then resolves digits (--digits,
then the descriptor's "digits", then 50) and builds what was declared, so
a cmd_* handler only computes.  Each number crosses the boundary once in
each direction.  Every JSON text, the descriptor file's included, is read
by _json_arg, which reads a JSON number as exactly the decimal it is
written as.  The CLI checks the shapes of what it decodes and the digits
bound, but reads no number itself: each goes to the library function that
reads it, by the library's one rule for an integer (numfield._integers) and
its one reader of every other number.  A refused --unit, --value or angle
names its flag (_flag_read).  A handler returns the library's values; main
renders them once, through _text: each mpf as a decimal string at the
working precision, so results survive round-trips beyond double
precision, and each Fraction in full.  Only the four 8-digit diagnostics are formatted in a handler, by
_short.  No record of the library formats itself.  Exit codes: 0 success,
2 validation error, 3 numerical failure; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from mpmath import mp

from . import circlebundle, flatmodel, modtors, polylog, rtorsion
from .errors import NumericalError, ValidationError
from .numfield import (
    DEFAULT_DIGITS, DEGREE_MAX, GUARD, _integers, dirichlet_rank, norm, parse_descriptor,
    parse_rational, to_exact, to_mp
)


def _resolve_digits(args, descriptor=None) -> int:
    digits = args.digits
    if digits is None and isinstance(descriptor, dict):
        digits = descriptor.get("digits")
    if digits is None:
        digits = DEFAULT_DIGITS
    (digits,) = _integers([digits], "digits must be an integer")
    _bounded(digits, 30, 1000, "digits")
    return digits


def _load_field(args):
    if not args.field:
        raise ValidationError("this command needs --field with a descriptor file")
    try:
        with open(args.field, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read field descriptor: {exc}") from exc
    data = _json_arg(text, "field descriptor")
    digits = _resolve_digits(args, data)
    field, units = parse_descriptor(data, digits_override=digits)
    return field, units, digits


def _context(args) -> argparse.Namespace:
    """What the subcommand declared it reads, built once its bounded flags are in range.

    Every context holds digits; "field" adds the field and its descriptor
    units, "lattice" also their regulator lattice, and "setup" the
    cyclotomic setup of --r.
    """
    for flag, dest, lo, hi in args.bounds:
        _bounded(getattr(args, dest), lo, hi, flag)
    if args.reads in ("field", "lattice"):
        field, units, digits = _load_field(args)
        ctx = argparse.Namespace(digits=digits, field=field, units=units)
        if args.reads == "lattice":
            ctx.lattice = flatmodel.build_lattice(field, units)
        return ctx
    ctx = argparse.Namespace(digits=_resolve_digits(args))
    if args.reads == "setup":
        ctx.setup = circlebundle.make_cyclotomic_setup(args.r, ctx.digits)
    return ctx


def _json_arg(text, what, kind=None):
    """Parse a JSON argument; kind (list or dict) checks its top-level type.

    A JSON number with a fraction or exponent is the exact rational its
    decimal text is (parse_rational), as the same number written as a
    string would be; one past the int-string limit is not valid JSON.
    """
    try:
        data = json.loads(text, parse_float=parse_rational)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    if kind is not None and not isinstance(data, kind):
        raise ValidationError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return data


def _text(out, digits):
    """A handler's result as printed: each mpf to digits, each Fraction in
    full, and everything else as it is."""
    if isinstance(out, dict):
        return {key: _text(val, digits) for key, val in out.items()}
    if isinstance(out, list):
        return [_text(val, digits) for val in out]
    if isinstance(out, mp.mpf):
        return mp.nstr(out, digits)
    if isinstance(out, Fraction):
        return str(out)
    return out


def _short(x) -> str:
    """A diagnostic (a tolerance, error, ratio or residual) to 8 digits."""
    return mp.nstr(x, 8)


def _sigmas(values) -> dict:
    """One value per place, keyed sigma_0, sigma_1, ..."""
    return {f"sigma_{k}": v for k, v in enumerate(values)}


def _form_reduced(f):
    return {f"b1(sigma_{k + 1})": v for k, v in enumerate(f.reduced_b1_coords())}


def _point_dict(x):
    return {
        "rank": x.rank,
        "cls": list(x.cls),
        "torus": _sigmas(x.torus.values),
        "torus_b1_reduced": _form_reduced(x.torus.as_form()),
    }


def _parse_point(lattice, data):
    if "rank" not in data or not isinstance(data.get("torus"), dict):
        raise ValidationError('a point class needs {"rank", "cls", "torus"}, "torus" an object')
    torus = data["torus"]
    vals = [torus.get(f"sigma_{k}", "0") for k in range(lattice.field.n_places)]
    f = flatmodel.make_form(lattice.field, 0, vals)
    cls = data.get("cls", [])
    if not isinstance(cls, list):
        raise ValidationError('"cls" must be a list of integers')
    return flatmodel.point_class(lattice, data["rank"], cls, f)


def _ring_cell(field, cell):
    if isinstance(cell, str):
        cell = [cell]
    if not isinstance(cell, list):
        raise ValidationError('matrix entries must be "p/q" strings or coefficient lists')
    return field.element(cell)


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
    if isinstance(data, dict) and "size" in data:
        (size,) = _integers([data["size"]], "a presentation size must be an integer")
        if size != len(rows):
            raise ValidationError("declared presentation size disagrees with the entries")
    return modtors.presentation(field, rows)


def _parse_complex(field, data):
    for key in ("lengths", "diffs", "grams"):
        if not isinstance(data.get(key), list):
            raise ValidationError(f'complex JSON needs a list "{key}"')
    lengths = data["lengths"]
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
                free_rank=raw.get("free_rank", 0),
                free_reps=tuple(tuple(r) for r in reps),
                free_grams=tuple(_grams(raw.get("free_grams", []), "free_grams")),
                torsion=torsion,
            )
        )
    grams = [_grams(per_degree, "grams") for per_degree in data["grams"]]
    return rtorsion.build_complex_over_r(field, lengths, diffs, grams, specs)


def _bounded(value, lo, hi, flag):
    """An integer flag inside its documented range, checked before any work."""
    if not lo <= value <= hi:
        raise ValidationError(f"{flag} must lie in [{lo}, {hi}]")


def _flag_read(flag, read, *args):
    """read(*args) for the value of flag; a ValidationError it raises names flag."""
    try:
        return read(*args)
    except ValidationError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc


def _theta_from_args(args, digits):
    if (args.theta is None) == (args.theta_over_2pi is None):
        raise ValidationError("give the angle as one of --theta and --theta-over-2pi")
    with mp.workdps(digits + GUARD):
        if args.theta is not None:
            return _flag_read("--theta", to_mp, args.theta)
        q, _ = _flag_read("--theta-over-2pi", to_exact, args.theta_over_2pi)
        return 2 * mp.pi * q.numerator / q.denominator


def cmd_field_info(args, ctx):
    field = ctx.field
    places = [
        {"index": k, "type": "real" if field.is_real_place(k) else "complex",
         "re": mp.re(z), "im": mp.im(z)}
        for k, z in enumerate(field.sigma_star)
    ]
    return {
        "poly": list(field.poly),
        "degree": field.degree,
        "digits": ctx.digits,
        "r_real": field.r_real,
        "r_complex": field.r_complex,
        "dirichlet_rank": dirichlet_rank(field),
        "class_orders": list(field.class_orders),
        "units_in_descriptor": len(ctx.units),
        "places": places,
    }


def cmd_unit_log(args, ctx):
    vec = _json_arg(args.unit, "--unit", list)
    elem = _flag_read("--unit", ctx.field.element, vec)
    f = flatmodel.unit_log(ctx.field, elem)
    return {
        "unit": list(elem.coeffs),
        "norm": norm(ctx.field, elem),
        "canonical": _sigmas(f.values),
        "b1_reduced": _form_reduced(f),
    }


def cmd_lattice(args, ctx):
    lat = ctx.lattice
    return {
        "rank": lat.rank,
        "tol": _short(lat.tol),
        "basis_b1_reduced": [_form_reduced(lat.basis_form(i)) for i in range(lat.rank)],
    }


def cmd_reduce(args, ctx):
    vals = _json_arg(args.form, "--form", list)
    f = flatmodel.make_form(ctx.field, 0, vals)
    t, is_zero = flatmodel.reduce_mod_lattice(ctx.lattice, f)
    return {
        "is_zero": is_zero,
        "torus": _sigmas(t.values),
        "b1_reduced": _form_reduced(t.as_form()),
    }


def cmd_cycl(args, ctx):
    grams = _grams(_json_arg(args.grams, "--grams"), "--grams")
    return _point_dict(flatmodel.cycl_free(ctx.field, ctx.lattice, grams))


def cmd_scale(args, ctx):
    x = _parse_point(ctx.lattice, _json_arg(args.point, "--point", dict))
    lambdas = _json_arg(args.lambdas, "--lambdas", list)
    return _point_dict(flatmodel.scale_class(ctx.lattice, x, lambdas))


def cmd_zhat(args, ctx):
    pres = _parse_presentation(ctx.field, _json_arg(args.pres, "--pres"))
    x = modtors.zhat(ctx.field, ctx.lattice, pres)
    return {**_point_dict(x), "det": list(pres.det_elem.coeffs), "in_lattice": x.torus.is_zero()}


def cmd_rtorsion(args, ctx):
    cplx = _parse_complex(ctx.field, _json_arg(args.complex, "--complex", dict))
    taus, ln_taus = rtorsion.exact_torsion(cplx)
    f = flatmodel.make_form(ctx.field, 0, ln_taus)
    return {
        "tau": _sigmas(taus),
        "form_canonical": _sigmas(f.values),
        "form_b1_reduced": _form_reduced(f),
    }


def cmd_euler_check(args, ctx):
    cplx = _parse_complex(ctx.field, _json_arg(args.complex, "--complex", dict))
    res = rtorsion.verify_euler_identity(ctx.field, ctx.lattice, cplx)
    return {"residual": _point_dict(res), "is_zero": res.is_zero()}


def cmd_polylog(args, ctx):
    theta = _theta_from_args(args, ctx.digits)
    val = polylog.polylog_circle(args.n, theta, ctx.digits)
    return {"n": args.n, "theta": theta, "re": mp.re(val), "im": mp.im(val)}


def cmd_zeta(args, ctx):
    return {"s": args.s, "value": polylog.zeta_int(args.s, ctx.digits)}


def cmd_bernoulli(args, ctx):
    return {"m": args.m, "value": polylog.bernoulli(args.m)}


def cmd_beta_check(args, ctx):
    quad, exact = polylog.beta_integral_check(args.j, ctx.digits)
    with mp.workdps(ctx.digits + GUARD):
        err = abs(quad - to_mp(exact))
    return {"j": args.j, "quadrature": quad, "exact": exact, "abs_err": _short(err)}


def cmd_circle_torsion(args, ctx):
    setup = ctx.setup
    coeffs = circlebundle.torsion_form_coeffs(setup, args.jmax)
    rows = [
        {"sigma": k, "theta": setup.thetas[k], "j": j, "T": coeffs[(k, j)]}
        for k in range(setup.field.n_places)
        for j in range(args.jmax + 1)
    ]
    return {"r": args.r, "rows": rows}


def cmd_u_coeff(args, ctx):
    vals = circlebundle.u_coeff(ctx.setup, args.j)
    return {"r": args.r, "j": args.j, "rows": [{"sigma": k, "u": vals[k]} for k in sorted(vals)]}


def cmd_regulator_check(args, ctx):
    chk = circlebundle.regulator_identity_check(ctx.setup, args.j)
    rows = [
        {"sigma": k, "lhs": lhs, "rhs": rhs, "ratio": _short(ratio)}
        for k, (lhs, rhs, ratio) in sorted(chk.items())
    ]
    return {"r": args.r, "j": args.j, "rows": rows}


def cmd_cheeger_muller(args, ctx):
    chk = circlebundle.cheeger_muller_check(ctx.setup)
    rows = [
        {"sigma": k, "T0_abs": t0, "ln_tau": ln_tau, "residual": _short(resid)}
        for k, (t0, ln_tau, resid) in sorted(chk.items())
    ]
    return {"r": args.r, "rows": rows}


def cmd_borel_dims(args, ctx):
    dims = circlebundle.borel_dims(ctx.field, args.imax)
    xdims = {
        str(2 * j - 1): circlebundle.x_space_dim(ctx.field, j)
        for j in range(2, args.imax // 2 + 2)
        if 2 * j - 1 <= args.imax
    }
    return {
        "imax": args.imax,
        "dims": {str(i): dims[i] for i in sorted(dims)},
        "x_space_dims": xdims,
    }


def cmd_normalize(args, ctx):
    digits = ctx.digits
    chern, igusa, (bmag, bpow) = circlebundle.normalization_factors(args.j, digits)
    out = _flag_read("--value", circlebundle.convert, args.value, args.frm, args.to, args.j, digits)
    return {
        "j": args.j,
        "from": args.frm,
        "to": args.to,
        "N_chern": chern,
        "N_igusa": igusa,
        "N_borel": {"magnitude": bmag, "i_power": bpow},
        "value": {"re": mp.re(out), "im": mp.im(out)} if isinstance(out, mp.mpc) else out,
    }


def cmd_hatcher(args, ctx):
    a_k, kappa, value = circlebundle.hatcher_constant(args.k, ctx.digits)
    # kappa_k keeps its "p/q" notation when it is 1
    kappa = f"{kappa.numerator}/{kappa.denominator}"
    return {"k": args.k, "a": a_k, "kappa": kappa, "value": value}


def _render_table(obj, indent=0):
    """A handler's dict, or a non-empty dict or list inside it, as indented text."""
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
                if isinstance(val, (dict, list)) and val:
                    lines.append(f"{pad}{key}:")
                    lines.append(_render_table(val, indent + 1))
                else:
                    lines.append(f"{pad}{key} = {val}")
    else:
        for k, val in enumerate(obj):
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}[{k}]")
                lines.append(_render_table(val, indent + 1))
            else:
                lines.append(f"{pad}[{k}] {val}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="regtor",
        description="Arithmetic regulator, torsion, and polylogarithm calculator.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, reads="digits", **flags):
        """reads is what main builds for handler: "digits", "field" or
        "lattice" (with --field), or "setup" (with --r).  A flag whose spec
        has a "range" (lo, hi) gets the help "lo..hi", and main checks it
        before anything is built."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--digits", type=int, default=None, help="working precision (30..1000)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if reads in ("field", "lattice"):
            p.add_argument("--field", required=False, help="field descriptor JSON path")
        if reads == "setup":
            # The field of order r has degree r - 1, which build_field bounds.
            p.add_argument(
                "--r", type=int, required=True, help=f"prime cyclotomic order, 3..{DEGREE_MAX + 1}"
            )
        bounds = []
        for flag, spec in flags.items():
            spec = dict(spec)
            bound = spec.pop("range", None)
            if bound:
                spec["help"] = "{}..{}".format(*bound)
            action = p.add_argument(flag, **spec)
            if bound:
                bounds.append((flag, action.dest, *bound))
        p.set_defaults(handler=handler, reads=reads, bounds=bounds)

    # The degree index j; Li_{j+1} is evaluated, so ORDER_MAX bounds it.
    j_arg = {"type": int, "required": True, "range": (1, polylog.ORDER_MAX - 1)}
    add("field-info", cmd_field_info, "embeddings, signature, unit rank", "field")
    add(
        "unit-log", cmd_unit_log, "half-log-absolute-value vector of a unit", "field",
        **{"--unit": {"required": True, "help": 'coefficient vector, e.g. ["1","1"]'}},
    )
    add("lattice", cmd_lattice, "reduced regulator lattice from descriptor units", "lattice")
    add(
        "reduce", cmd_reduce, "reduce a degree-1 vector modulo the lattice", "lattice",
        **{"--form": {"required": True, "help": "per-place values as JSON list"}},
    )
    add(
        "cycl", cmd_cycl, "class of a metrized free module", "lattice",
        **{"--grams": {"required": True, "help": "JSON list of Gram matrices, one per place"}},
    )
    add(
        "scale", cmd_scale, "rescale the metric of a point class", "lattice",
        **{
            "--point": {"required": True, "help": "point class JSON"},
            "--lambdas": {"required": True, "help": "JSON list of positive scalars per place"},
        },
    )
    pres_help = f"presentation matrix JSON, at most {modtors.PRESENTATION_SIZE_MAX} rows"
    add(
        "zhat", cmd_zhat, "secondary class of a torsion-module presentation", "lattice",
        **{"--pres": {"required": True, "help": pres_help}},
    )
    # build_complex_over_r bounds the degree count and every length
    size = f"at most {rtorsion.COMPLEX_SIZE_MAX} degrees of length 0..{rtorsion.COMPLEX_SIZE_MAX}"
    add(
        "rtorsion", cmd_rtorsion, "Reidemeister torsion of a metrized complex", "field",
        **{"--complex": {"required": True, "help": f"complex JSON (lengths/diffs/grams/cohomology), {size}"}},
    )
    add(
        "euler-check", cmd_euler_check, "Euler-characteristic identity residual", "lattice",
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
        "circle-torsion", cmd_circle_torsion, "torsion-form coefficients T_{sigma,j}", "setup",
        **{"--jmax": {"type": int, "default": 4, "range": (0, polylog.ORDER_MAX - 1)}},
    )
    add("u-coeff", cmd_u_coeff, "the polylogarithmic constants u_j", "setup", **{"--j": j_arg})
    add(
        "regulator-check", cmd_regulator_check, "psi-scaling identity, both sides", "setup",
        **{"--j": j_arg},
    )
    add("cheeger-muller", cmd_cheeger_muller, "degree-0 torsion cross-check", "setup")
    add(
        "borel-dims", cmd_borel_dims, "four-periodic dimension table", "field",
        **{"--imax": {"type": int, "default": 13, "range": (0, circlebundle.BOREL_INDEX_MAX)}},
    )
    add(
        "normalize", cmd_normalize, "convert between form normalizations",
        **{
            "--j": {"type": int, "required": True, "help": f"0..{polylog.ORDER_MAX - 1}"},
            "--value": {"required": True},
            "--from": {"dest": "frm", "required": True, "choices": circlebundle.NORMALIZATION_NAMES},
            "--to": {"dest": "to", "required": True, "choices": circlebundle.NORMALIZATION_NAMES},
        },
    )
    add(
        "hatcher", cmd_hatcher, "a_k kappa_k zeta(2k+1)",
        **{"--k": {"type": int, "required": True, "help": f"1..{circlebundle.HATCHER_K_MAX}"}},
    )
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = _context(args)
        out = args.handler(args, ctx)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # The int-string limit guards input only: exact rationals print in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        out = _text(out, ctx.digits)
        print(json.dumps(out, indent=2) if args.format == "json" else _render_table(out))
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
