"""Command line front end.

Polynomials enter and leave as comma-separated integer coefficients, highest
degree first.  Structured results go to stdout as JSON (sorted keys) or, for
the atlas sweep, as CSV with a fixed header.  Exit codes: 0 on success, 2
when the input is rejected on mathematical grounds (not Salem, not realized,
out of domain), 1 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from fractions import Fraction
from functools import partial

from .classify import SHORT_CASE, InfiniteFamily, realizable
from .errors import ParseError, SalemToriError
from .intervals import Interval, RoundingBoundaryError, decimal_string
from .poly import IntPoly, format_poly, parse_ints, parse_poly, quote_token
from .salem import _salem_certificate, is_salem, lambda_approx
from .torus import (
    NotForced,
    QuadOrderMatrix,
    _norm_charpoly,
    a_form_matrix,
    dyadic_cm_family,
    entropy,
    from_quartic,
    gl2z_model,
    is_projective,
    ns_charpoly,
    picard_rank,
    quad_order_model,
    reorient,
)
from .wedge import exterior_square, invert_wedge

# enumerate refuses a sweep with more candidates than this, before building any
MAX_CANDIDATES = 10**6

# construct and reorient refuse an entropy width below this: the work grows
# with the digits of 1/eps, and well before 10**-10000 the printed interval
# ends pass the 4300-digit limit of Python's int-to-str conversion
MIN_EPS = Fraction(1, 10**1000)

# --eps text reaches Fraction only within these caps, as Fraction("1e-10**7")
# alone spends seconds on the power of ten: 1/10**1000 written out in full
# fits, and at the cap the power of ten has 10,001 digits
MAX_EPS_CHARS = 1100
MAX_EPS_EXPONENT = 10**4

# Commands refuse, with exit 1, a polynomial with a coefficient past MAX_BITS
# bits: the one they read, an enumerate candidate (up to --max-coeff), or the
# H^1 polynomial of their model (r**2 + 2 for gl2z, 4**n + 3 for dyadic-cm).
# For c such bits the largest integer printed has at most 3c + 3 bits, an
# exterior square's t**3 coefficient (a model's product box has about 2.1c,
# lambda's bracket c + 50), so at 4000 it stays below the 14,284 bits (4300
# digits) that Python converts to str.
MAX_BITS = 4000

CSV_HEADER = (
    "s_poly",
    "degree",
    "lambda",
    "case",
    "finiteness",
    "witness_count",
    "example_model",
    "projective_types",
    "picard_ranks",
)


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out_path):
    """Write text to the file out_path, or to stdout when there is none; a
    file that cannot be written ends the command with exit 1."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"salemtori: cannot write {quote_token(out_path)}: {exc.strerror or exc}\n")
        sys.exit(1)


def _dump_json(obj, out_path) -> int:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)
    return 0


def _rounded(iv: Interval, refine) -> str:
    """The correctly rounded 12-place decimal of the number x enclosed by iv.

    While the enclosure meets a rounding boundary (k + 1/2) * 10**-12, it is
    replaced by refine(width), an enclosure of x whose width goes to 0 with
    width, and width falls by 2**-16 each time.  The loop ends because x is
    never a boundary (2k + 1) / (2 * 10**12), whose denominator in lowest
    terms keeps the factor 2**13:
    - lambda is a Salem number, so it is irrational;
    - log lambda is transcendental by Hermite-Lindemann, lambda being
      algebraic and not 1 (a zero entropy is the exact point 0);
    - a coordinate of a root g of a monic integer polynomial, or of a
      product of two such roots, is (g + conj g)/2 or (g - conj g)/2i, half
      an algebraic integer; if it is rational its denominator is 1 or 2.
    """
    width = Fraction(1, 10**13)
    while True:
        try:
            return decimal_string(iv, 12)
        except RoundingBoundaryError:
            width = min(width, iv.width) / (1 << 16)
            iv = refine(width)


def _interval_json(iv: Interval, refine):
    return {"lo": str(iv.lo), "hi": str(iv.hi), "decimal": _rounded(iv, refine)}


def _box_json(box, refine):
    """A box's endpoints and coordinate decimals; refine(width) gives a
    narrower box around the same point."""
    return {
        "re": _interval_json(box.re, lambda w: refine(w).re),
        "im": _interval_json(box.im, lambda w: refine(w).im),
    }


def _int_option(text: str) -> int:
    """An integer option's value; argparse reports a bad one with the
    token quoted as parse_ints quotes it, at most 40 characters."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quote_token(text)}") from None


def _check_bits(parser, what: str, bits: int):
    if bits > MAX_BITS:
        parser.error(f"{what} has a {bits}-bit coefficient, more than the limit of {MAX_BITS} bits")


def _poly_arg(text: str, parser) -> IntPoly:
    """The polynomial that text gives, within MAX_BITS."""
    p = parse_poly(text)
    _check_bits(parser, "the polynomial", max(map(abs, p.coeffs), default=0).bit_length())
    return p


def _jsonify(value):
    if isinstance(value, IntPoly):
        return format_poly(value)
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    return value


def _lambda_decimal(cert) -> str:
    """The correctly rounded 12-place decimal of lambda."""
    return _rounded(cert.root_interval, partial(lambda_approx, cert))


def _classes_json(classes):
    out = []
    for cl in classes:
        if cl.kind == "conjugate":
            out.append({"kind": cl.kind, "indices": list(cl.indices)})
        else:
            out.append({"kind": cl.kind, "gl_params": list(cl.gl_params)})
    return out


def _finiteness_label(report) -> str:
    if report.finiteness is None:
        return "not_realized"
    if isinstance(report.finiteness, InfiniteFamily):
        return "infinite_family"
    return "finite"


def _witness_total(report) -> int:
    return sum(len(w.classes) for w in report.witnesses)


# ----------------------------------------------------------------------
# subcommands


def cmd_is_salem(args, parser) -> int:
    p = _poly_arg(args.poly, parser)
    res = is_salem(p)
    if not res:
        obj = {
            "salem": False,
            "poly": format_poly(p),
            "reason": res.reason,
            "witness": _jsonify(res.witness),
            "detail": res.detail,
        }
        _dump_json(obj, args.out)
        return 2
    obj = {
        "salem": True,
        "poly": format_poly(p),
        "degree": res.degree,
        "trace_poly": format_poly(res.trace_poly),
        "circle_root_count": res.circle_root_count,
        "lambda": _interval_json(res.root_interval, partial(lambda_approx, res)),
    }
    return _dump_json(obj, args.out)


def cmd_classify(args, parser) -> int:
    p = _poly_arg(args.poly, parser)
    res = is_salem(p)
    if not res:
        obj = {
            "error": "not_salem",
            "poly": format_poly(p),
            "reason": res.reason,
            "detail": res.detail,
        }
        _dump_json(obj, args.out)
        return 2
    report = realizable(res)
    obj = {
        "s_poly": format_poly(p),
        "degree": res.degree,
        "lambda": _lambda_decimal(res),
        "case": SHORT_CASE[report.case_tag],
        "case_tag": report.case_tag,
        "q": report.q_value,
        "square_witness": (
            None
            if report.square_witness is None
            else {"r": report.square_witness[0], "sign": report.square_witness[1]}
        ),
        "projective_types": list(report.projective_types),
        "picard_ranks": {k: v for k, v in report.picard_ranks},
        "finiteness": _finiteness_label(report),
        "witness_count": _witness_total(report),
        "witnesses": [
            {
                "q_poly": format_poly(w.q_poly),
                "c_poly": format_poly(w.c_poly),
                "p_poly": format_poly(w.p_poly),
                "classes": _classes_json(w.classes),
            }
            for w in report.witnesses
        ],
    }
    return _dump_json(obj, args.out)


def cmd_wedge(args, parser) -> int:
    p = _poly_arg(args.poly, parser)
    q = exterior_square(p)
    return _dump_json({"poly": format_poly(p), "exterior_square": format_poly(q)}, args.out)


def cmd_invert_wedge(args, parser) -> int:
    q = _poly_arg(args.poly, parser)
    inv = invert_wedge(q)
    obj = {
        "sextic": format_poly(q),
        "a5": inv.a5,
        "m": inv.m,
        "n": inv.n,
        "candidates": [format_poly(c) for c in inv.candidates],
        "verified": [format_poly(c) for c in inv.verified],
        "obstruction": inv.obstruction,
    }
    return _dump_json(obj, args.out)


def _build_model(args, parser):
    fam = args.family
    what = "the model's H^1 polynomial"
    if fam == "gl2z":
        if args.r is None or args.det is None:
            parser.error("gl2z needs --r and --det")
        _check_bits(parser, what, (args.r * args.r + 2).bit_length())
        return gl2z_model(args.r, args.det)
    if fam == "quad-order":
        if args.d is None:
            parser.error("quad-order needs --d")
        if args.entries is not None:
            vals = parse_ints(args.entries, "entry")
            if len(vals) != 8:
                parser.error("--entries needs 8 integers a00,b00,a01,b01,a10,b10,a11,b11")
            e = (
                ((vals[0], vals[1]), (vals[2], vals[3])),
                ((vals[4], vals[5]), (vals[6], vals[7])),
            )
            qm = QuadOrderMatrix(args.d, e)
        elif args.b1 is None or args.b2 is None:
            parser.error("quad-order needs --entries or both --b1 and --b2")
        else:
            qm = a_form_matrix(args.d, args.b1, args.b2)
        _check_bits(parser, what, max(map(abs, _norm_charpoly(qm).coeffs)).bit_length())
        return quad_order_model(qm)
    if fam == "quartic":
        if args.poly is None:
            parser.error("quartic needs --poly")
        p = _poly_arg(args.poly, parser)
        pairing = None
        if args.pairing is not None:
            pairing = tuple(parse_ints(args.pairing, "pairing index"))
            if len(pairing) != 2:
                parser.error("--pairing needs two indices i,j")
        return from_quartic(p, pairing)
    # argparse leaves only dyadic-cm
    if args.n is None or args.k is None:
        parser.error("dyadic-cm needs --n and --k")
    # 4**n + 3 has 2n + 1 bits; 4**n is not formed for a huge n
    _check_bits(parser, what, 2 * args.n + 1)
    return dyadic_cm_family(args.n, args.k)


def _model_json(model, eps: Fraction):
    rest = model.salem_factor()
    zero = rest.degree == 0
    ent = entropy(model, eps)
    return {
        "family": model.origin.family if model.origin else None,
        "matrix": [list(row) for row in model.matrix],
        "h1_charpoly": format_poly(model.h1_charpoly),
        "h2_charpoly": format_poly(model.h2_charpoly),
        "root_poly": format_poly(model.root_poly),
        "pairing": list(model.pairing),
        "reoriented": model.reoriented,
        "zero_entropy": zero,
        "salem_factor": None if zero else format_poly(rest),
        "entropy": _interval_json(ent, lambda width: entropy(model, width)),
        "gamma1": _box_json(model.gamma1.box, lambda width: model.refined(width).gamma1.box),
        "gamma2": _box_json(model.gamma2.box, lambda width: model.refined(width).gamma2.box),
        # the product of the refined gammas
        "h20_product": _box_json(model.h20_product, lambda width: model.refined(width).h20_product),
        "projective": None if zero else is_projective(model),
        "picard_rank": None if zero else picard_rank(model),
    }


def _parse_eps(args, parser) -> Fraction:
    text = args.eps
    # the digits of the exponent Fraction would raise 10 to, if there is one
    digits = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    if len(text) > MAX_EPS_CHARS or (digits.isdecimal() and int(digits) > MAX_EPS_EXPONENT):
        parser.error(
            f"--eps must have at most {MAX_EPS_CHARS} characters and an exponent of at most "
            f"{MAX_EPS_EXPONENT} in absolute value, got {quote_token(text)}"
        )
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"--eps must be a rational, got {quote_token(text)}")
    if eps <= 0:
        parser.error("--eps must be positive")
    if eps < MIN_EPS:
        parser.error("--eps must be at least 1e-1000")
    return eps


def _oriented_model(args, parser):
    """The model the flags describe, reoriented when the command asks."""
    model = _build_model(args, parser)
    return reorient(model) if args.reorient_after else model


def cmd_construct(args, parser) -> int:
    eps = _parse_eps(args, parser)
    return _dump_json(_model_json(_oriented_model(args, parser), eps), args.out)


def cmd_ns(args, parser) -> int:
    res = ns_charpoly(_oriented_model(args, parser))
    if isinstance(res, NotForced):
        obj = {"forced": False, "reason": res.reason}
    else:
        obj = {"forced": True, "ns_charpoly": format_poly(res)}
    return _dump_json(obj, args.out)


# ----------------------------------------------------------------------
# atlas sweep


def _sweep(degree: int, bound: int):
    """Each monic reciprocal polynomial of the degree with coefficients in [-bound, bound]."""
    for half in itertools.product(range(-bound, bound + 1), repeat=degree // 2):
        yield (1, *half, *half[-2::-1], 1)


def _atlas_row(coeffs):
    """One CSV row (tuple of 9 strings) for a candidate, or None if not Salem.

    coeffs are the candidate's coefficients, highest first; its degree is
    even."""
    # A sign prefilter that no Salem p fails.  Such p of degree 2e is
    # t**e * T(t + 1/t) with T monic of degree e, one simple root above 2 and
    # the other e - 1 in [-2, 2]; p(1) and p(-1) are nonzero, p being
    # irreducible of degree >= 2.  So p(1) = T(2) < 0, and
    # p(-1) = (-1)**e * T(-2) > 0 because T(-2), taken below every root of T,
    # has the sign (-1)**e.  The degree is even, so p(-1) is the alternating
    # sum of the coefficients in either order.
    if not sum(coeffs) < 0 < sum(coeffs[::2]) - sum(coeffs[1::2]):
        return None
    # the decision alone: a rejected candidate is dropped unfactored
    cert = _salem_certificate(IntPoly.from_descending(coeffs))[0]
    return cert and _salem_row(cert)


def _salem_row(cert):
    """The CSV row (tuple of 9 strings) of a Salem polynomial's certificate."""
    report = realizable(cert)
    lam = _lambda_decimal(cert)
    fin = _finiteness_label(report)
    count = _witness_total(report)
    example = ""
    if report.witnesses:
        if isinstance(report.finiteness, InfiniteFamily):
            r = report.finiteness.r
            det = 1 if report.finiteness.sign == "+" else -1
            example = f"gl2z_model(r={r},det={det})"
        else:
            w = report.witnesses[0]
            cl = w.classes[0]
            if cl.kind == "real":
                example = f"gl2z_model(r={cl.gl_params[0]},det={cl.gl_params[1]})"
            else:
                i, j = cl.indices
                example = f"from_quartic({format_poly(w.p_poly)};pairing={i},{j})"
    types = "+".join(sorted(report.projective_types))
    ranks = "+".join(f"{k}:{v}" for k, v in sorted(report.picard_ranks))
    return (
        format_poly(cert.poly),
        str(cert.degree),
        lam,
        SHORT_CASE[report.case_tag],
        fin,
        str(count),
        example,
        types,
        ranks,
    )


def _candidate_count(degree: int, bound: int) -> int:
    """How many candidates _sweep(degree, bound) yields."""
    return (2 * bound + 1) ** (degree // 2)


# a sweep of fewer candidates runs in process whatever --workers says: on a
# 2-CPU host the pool's start-up made two workers lose to one at 2,197
# candidates (degree 6), and two won from 2,601 (degree 4) and 3,375 (degree 6)
_POOL_FROM = 2200


def _collect_rows(degree: int, bound: int, workers: int):
    cands = _sweep(degree, bound)
    count = _candidate_count(degree, bound)
    if workers > 1 and count >= _POOL_FROM:
        # only a parallel sweep pays for loading the process pool
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, count // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [r for r in pool.map(_atlas_row, cands, chunksize=chunk) if r is not None]
    else:
        rows = [r for r in map(_atlas_row, cands) if r is not None]
    # every lambda has 12 decimal places, so its digits order it as an integer
    rows.sort(key=lambda r: (int(r[1]), int(r[2].replace(".", "")), r[0]))
    return rows


def cmd_enumerate(args, parser) -> int:
    if args.max_coeff < 0:
        parser.error("--max-coeff must be nonnegative")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    _check_bits(parser, "a candidate polynomial", args.max_coeff.bit_length())
    count = _candidate_count(args.degree, args.max_coeff)
    if count > MAX_CANDIDATES:
        sys.stderr.write(
            f"salemtori: enumerate: {count} candidates, more than the limit of {MAX_CANDIDATES}\n"
        )
        return 1
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
        # open() fails on such a path and creates no file, so _emit ends the
        # command with its one line now instead of after the sweep
        _emit("", args.out)
    # more processes than CPUs gain nothing; the rows do not depend on it
    workers = min(args.workers, os.cpu_count() or 1)
    rows = _collect_rows(args.degree, args.max_coeff, workers)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
        return 0
    objs = [dict(zip(CSV_HEADER, row)) for row in rows]
    return _dump_json(objs, args.out)


# ----------------------------------------------------------------------
# parser wiring


def _add_poly_flags(sub, run):
    sub.add_argument("poly")
    sub.add_argument("--out", default=None)
    sub.set_defaults(run=run)


def _add_model_flags(sub):
    sub.add_argument("family", choices=("gl2z", "quad-order", "quartic", "dyadic-cm"))
    sub.add_argument("--r", type=_int_option, default=None)
    sub.add_argument("--det", type=_int_option, default=None)
    sub.add_argument("--d", type=_int_option, default=None)
    sub.add_argument("--b1", type=_int_option, default=None)
    sub.add_argument("--b2", type=_int_option, default=None)
    sub.add_argument("--entries", default=None, help="8 ints a00,b00,a01,b01,a10,b10,a11,b11")
    sub.add_argument("--poly", default=None, help="quartic coefficients, highest first")
    sub.add_argument("--pairing", default=None, help="two root indices i,j")
    sub.add_argument("--n", type=_int_option, default=None)
    sub.add_argument("--k", type=_int_option, default=None)
    sub.add_argument("--out", default=None)


def _add_construct_flags(sub, flip):
    _add_model_flags(sub)
    sub.add_argument("--eps", default="1/1000000000", help="entropy interval width target")
    sub.set_defaults(run=cmd_construct, reorient_after=flip)


def _add_ns_flags(sub):
    _add_model_flags(sub)
    sub.add_argument("--reoriented", dest="reorient_after", action="store_true")
    sub.set_defaults(run=cmd_ns)


def _add_enumerate_flags(sub):
    sub.add_argument("--degree", type=_int_option, choices=(2, 4, 6), required=True)
    sub.add_argument("--max-coeff", type=_int_option, required=True)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--workers", type=_int_option, default=1)
    sub.set_defaults(run=cmd_enumerate)


# (name, help line, the function that adds the command's arguments)
_COMMANDS = (
    ("is-salem", "certify a polynomial as Salem", partial(_add_poly_flags, run=cmd_is_salem)),
    ("classify", "case, finiteness and witnesses for a Salem polynomial", partial(_add_poly_flags, run=cmd_classify)),
    ("wedge", "exterior square of a monic quartic", partial(_add_poly_flags, run=cmd_wedge)),
    ("invert-wedge", "quartic preimages of a monic sextic", partial(_add_poly_flags, run=cmd_invert_wedge)),
    ("construct", "build an explicit torus model", partial(_add_construct_flags, flip=False)),
    ("reorient", "build a model, then flip its orientation", partial(_add_construct_flags, flip=True)),
    ("ns", "divisor-class characteristic polynomial, when forced", _add_ns_flags),
    ("enumerate", "atlas sweep over bounded reciprocal polynomials", _add_enumerate_flags),
)


def build_parser(command=None) -> _Parser:
    """The parser of every subcommand, each listed with its help line.

    When command names one, only its arguments are added: argparse reads
    the arguments of the subcommand it is given and no other, so a process
    does not pay for building the rest.
    """
    parser = _Parser(prog="salemtori", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    whole = command not in (name for name, _, _ in _COMMANDS)
    for name, text, add_flags in _COMMANDS:
        sub = subs.add_parser(name, help=text)
        if whole or name == command:
            add_flags(sub)
    return parser


def _as_values(argv):
    """argv with each argument after the first that starts with "-" and a
    digit, such as -1,3,-1, put where argparse reads it as a value, not an
    option: after an option it joins it as --option=value, anywhere else it
    moves behind a "--", after which every argument is positional."""
    end = argv.index("--") if "--" in argv else len(argv)
    out, moved = [], []
    for arg in argv[:end]:
        if not (out and arg[:1] == "-" and arg[1:2].isdigit()):
            out.append(arg)
        elif out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + arg
        else:
            moved.append(arg)
    if moved or end < len(argv):
        out += ["--", *moved, *argv[end + 1 :]]
    return out


def main(argv=None) -> int:
    argv = _as_values(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except ParseError as exc:
        sys.stderr.write(f"salemtori: parse error: {exc}\n")
        return 1
    except SalemToriError as exc:
        _dump_json({"error": {"type": type(exc).__name__, "message": str(exc)}}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
