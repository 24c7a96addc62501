"""Correctness checks on one round's outputs, run after the timed region.

Every check compares with a computation made apart from salemtori (see
oracles.py and exact.py) or with a property the method must have.  None
compares with stored salemtori output.  check_round returns a list of
(index, kind, message): kind "failed" when the operation did not complete
(it raised, or a command ended with the wrong exit code or a traceback), and
kind "wrong" when it completed with an answer the checks refute.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction

import inputs
import oracles
from exact import divides, h1_h2, mul, wedge_poly
from inputs import ENTROPY_EPS, LAMBDA_EPS
# smallest Salem numbers of degree 4 and 6 (Boyd, "Small Salem numbers", 1977)
BOYD_MINIMA = {4: "1.7220838057", 6: "1.4012683679"}


def _poly(text):
    return tuple(int(c) for c in text.split(","))


def _interval(pair):
    return Fraction(pair[0]), Fraction(pair[1])


def _meets(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def _near(dec, enclosure, tol):
    x = Fraction(dec)
    return enclosure[0] - tol <= x <= enclosure[1] + tol


# ----------------------------------------------------------------------


def check_certify(p, out):
    bad = []
    factors = tuple(sorted((tuple(f), m) for f, m in out["factors"]))
    if factors != oracles.factor_list(p):
        bad.append(f"factor_bounded {factors} differs from sympy {oracles.factor_list(p)}")
    prod = (1,)
    for f, m in factors:
        for _ in range(m):
            prod = mul(prod, f)
    if prod != p:
        bad.append("factors do not multiply back to the input")
    verdict, reason = oracles.salem_verdict(p)
    if out["salem"] != verdict:
        bad.append(f"is_salem says {out['salem']}, oracle says {verdict} ({reason})")
    elif verdict:
        if tuple(out["trace_poly"]) != oracles.trace_poly(p):
            bad.append("trace polynomial differs from the interpolated one")
        root = oracles.salem_root(p)
        for key in ("root_interval", "lambda"):
            if not _meets(_interval(out[key]), root):
                bad.append(f"{key} misses the bisection enclosure of lambda")
        lo, hi = _interval(out["lambda"])
        if hi - lo > LAMBDA_EPS:
            bad.append("lambda_approx wider than 1e-12")
    else:
        if out["reason"] != reason:
            bad.append(f"reason {out['reason']}, oracle gives {reason}")
        if out["reason"] == "reducible":
            w = tuple(out.get("witness", ()))
            if not (1 <= len(w) - 1 < len(p) - 1 and divides(w, p)):
                bad.append(f"reducible witness {w} does not divide the input")
    return bad


def check_model(params, out):
    bad = []
    d, b1, b2 = params
    matrix = tuple(tuple(row) for row in out["matrix"])
    h1, h2 = h1_h2(matrix)
    # (t^2 - beta t + 1)(t^2 - conj(beta) t + 1) for beta = b1 + b2 sqrt(-D)
    norm = (1, -2 * b1, b1 * b1 + d * b2 * b2 + 2, -2 * b1, 1)
    if tuple(out["h1"]) != h1 or h1 != norm:
        bad.append("h1_charpoly differs from the Leibniz charpoly or the norm formula")
    if tuple(out["h2"]) != h2:
        bad.append("h2_charpoly differs from the charpoly of the second compound")
    bad += _check_entropy_and_flip(out, h2)
    if out.get("ns") is not None and not divides(tuple(out["ns"]), h2):
        bad.append("ns_charpoly does not divide h2_charpoly")
    return bad


def _check_entropy_and_flip(out, h2, check_flip=True):
    """Entropy against the oracle log of the Salem factor of h2 and, when
    check_flip is set, the flip of projectivity under reorient when that
    factor has degree 4."""
    bad = []
    salem = oracles.non_cyclotomic_part(h2)
    if tuple(out["salem_factor"] or (1,)) != salem:
        bad.append(f"salem factor {out['salem_factor']} differs from oracle {salem}")
    ent = _interval(out["entropy"])
    if salem == (1,):
        if ent != (0, 0):
            bad.append("zero-entropy model has nonzero entropy")
        return bad
    if ent[1] - ent[0] > ENTROPY_EPS:
        bad.append("entropy interval wider than 1e-9")
    log = oracles.log_salem_root(salem)
    if not _meets(ent, log):
        bad.append("entropy interval misses the oracle log")
    if "decimal" in out and not _near(out["decimal"], log, LAMBDA_EPS):
        bad.append("entropy decimal further than 1e-12 from the oracle log")
    if check_flip and len(salem) - 1 == 4 and out.get("projective") == out.get("projective_reoriented"):
        bad.append("projectivity does not flip under reorient")
    return bad


def check_atlas_csv(degree, bound, text):
    bad = []
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0][:3] != ["s_poly", "degree", "lambda"]:
        return ["CSV header is missing"]
    rows = rows[1:]
    polys = [_poly(r[0]) for r in rows]
    expect = oracles.salem_sweep(degree, bound)
    if len(set(polys)) != len(polys) or set(polys) != expect:
        bad.append(f"{len(polys)} rows, oracle sweep finds {len(expect)} Salem polynomials")
    for p, r in zip(polys, rows):
        if r[1] != str(degree):
            bad.append(f"row {r[0]} has degree {r[1]}")
        if p in expect and not _near(r[2], oracles.salem_root(p), LAMBDA_EPS):
            bad.append(f"row {r[0]}: lambda {r[2]} further than 1e-12 from the oracle")
    if rows:
        least = min(Fraction(r[2]) for r in rows)
        if round(least * 10**10) != Fraction(BOYD_MINIMA[degree]) * 10**10:
            bad.append(f"least lambda {least} is not Boyd's {BOYD_MINIMA[degree]}")
    return bad


# ----------------------------------------------------------------------
# cli


def _outcome(argv, expected, out):
    """Why the command did not end as the README documents, or None."""
    code, stderr = out["code"], out["stderr"]
    if code != expected:
        return f"exit code {code}, expected {expected}: {stderr.strip().splitlines()[-1:]}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if expected == 1 and (not stderr.endswith("\n") or stderr.count("\n") != 1):
        return "stderr is not one line"
    if expected != 1 and stderr:
        return "unexpected stderr"
    return None


def _check_salem_json(poly, j, cmd):
    bad = []
    verdict, reason = oracles.salem_verdict(poly)
    if cmd == "is-salem":
        if j["salem"] != verdict or (not verdict and j["reason"] != reason):
            return [f"verdict {j['salem']}/{j.get('reason')}, oracle {verdict}/{reason}"]
        if not verdict:
            return []
        if tuple(_poly(j["trace_poly"])) != oracles.trace_poly(poly):
            bad.append("trace polynomial differs")
        if not _meets(_interval((j["lambda"]["lo"], j["lambda"]["hi"])), oracles.salem_root(poly)):
            bad.append("lambda interval misses the oracle enclosure")
        dec = j["lambda"]["decimal"]
    else:
        if _poly(j["s_poly"]) != poly:
            bad.append("s_poly does not echo the input")
        dec = j["lambda"]
    if not _near(dec, oracles.salem_root(poly), LAMBDA_EPS):
        bad.append(f"lambda {dec} further than 1e-12 from the oracle")
    return bad


def _check_model_json(j):
    matrix = tuple(tuple(r) for r in j["matrix"])
    h1, h2 = h1_h2(matrix)
    bad = []
    if _poly(j["h1_charpoly"]) != h1 or _poly(j["h2_charpoly"]) != h2:
        bad.append("charpolys differ from Leibniz and compound-matrix charpolys")
    view = {
        "salem_factor": None if j["salem_factor"] is None else _poly(j["salem_factor"]),
        "entropy": (j["entropy"]["lo"], j["entropy"]["hi"]),
        "decimal": j["entropy"]["decimal"],
    }
    # the flip under reorient is checked across the construct/reorient pair
    return bad + _check_entropy_and_flip(view, h2, check_flip=False), h2


def check_cli(commands, outputs):
    found = []
    models = {}
    sweeps = {}
    for i, ((argv, expected), out) in enumerate(zip(commands, outputs)):
        why = _outcome(argv, expected, out)
        if why is not None:
            found.append((i, "failed", f"{' '.join(argv)}: {why}"))
            continue
        if expected == 1:
            continue
        cmd = argv[0]
        try:
            j = None if cmd == "enumerate" else json.loads(out["stdout"])
            if cmd in ("is-salem", "classify"):
                bad = _check_salem_json(_poly(argv[1]), j, cmd)
            elif cmd == "wedge":
                bad = [] if _poly(j["exterior_square"]) == wedge_poly(_poly(argv[1])) else ["wrong exterior square"]
            elif cmd == "invert-wedge":
                verified = sorted(_poly(c) for c in j["verified"])
                expect = oracles.wedge_preimages(_poly(argv[1]))
                bad = [] if verified == expect else [f"preimages {verified}, a search finds {expect}"]
            elif cmd in ("construct", "reorient"):
                bad, h2 = _check_model_json(j)
                models[(cmd, argv[1])] = (j, h2)
            elif cmd == "ns":
                bad = []
                if j["forced"]:
                    _, h2 = models[("construct", argv[1])]
                    if not divides(_poly(j["ns_charpoly"]), h2):
                        bad.append("ns_charpoly does not divide h2_charpoly")
            else:
                sweeps[argv[-1]] = out["stdout"]
                bad = check_atlas_csv(int(argv[2]), int(argv[4]), out["stdout"])
        except (KeyError, TypeError, ValueError) as exc:
            bad = [f"malformed output: {type(exc).__name__}: {exc}"]
        if tuple(argv) in inputs.KNOWN_FAULTS:
            # one failed operation, however many checks refute it
            found += [(i, "failed", f"{' '.join(argv)}: {'; '.join(bad)}")] if bad else []
        else:
            found += [(i, "wrong", f"{' '.join(argv)}: {msg}") for msg in bad]
    for fam in {fam for _, fam in models}:
        pair = models.get(("construct", fam)), models.get(("reorient", fam))
        if None not in pair and pair[0][0]["salem_factor"] and len(_poly(pair[0][0]["salem_factor"])) == 5:
            if pair[0][0]["projective"] == pair[1][0]["projective"]:
                found.append((0, "wrong", f"{fam}: projectivity does not flip under reorient"))
    if len(set(sweeps.values())) > 1:
        found.append((0, "wrong", "enumerate output differs between 1 and 2 workers"))
    return found


# ----------------------------------------------------------------------


def check_round(workload, seed, outputs, errors):
    found = [(i, "failed", msg) for i, msg in errors]
    if workload == "cli":
        return found + check_cli(inputs.cli_inputs(seed), outputs)
    items = {
        "certify": inputs.certify_inputs,
        "models": inputs.models_inputs,
        "atlas": inputs.atlas_inputs,
    }[workload](seed)
    for i, (item, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        if workload == "certify":
            bad = check_certify(tuple(item), out)
        elif workload == "models":
            bad = check_model(item, out)
        elif out["code"] != 0:
            bad = [f"enumerate exit code {out['code']}"]
        else:
            bad = check_atlas_csv(item[0], item[1], out["csv"])
        found += [(i, "wrong", msg) for msg in bad]
    return found
