"""One round of one workload, in a fresh process.

    python3 bench/worker.py --workload certify --seed 1 --trace 0

Set-up imports salemtori and builds the seeded inputs, and nothing more: it
never calls the library on the workload's own inputs, so no cache the library
may keep per polynomial can be filled before the timed region.  The round
then runs every operation once, one at a time, with host-speed blocks
(hostspeed.py) between them, reads the peak resident memory, and only then
turns the results into JSON.  The last line of standard output is that JSON
object; run.py starts this script and checks what it prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from inputs import ENTROPY_EPS, LAMBDA_EPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_TIMEOUT_S = 60
# a host-speed block runs before the first operation, after the last, and
# between two operations once this much time has passed since the last block
CAL_EVERY_S = 0.02
# host-speed blocks run when the inputs are ready, to scale the set-up time
SETUP_BLOCKS = 3


def timed(items, call):
    """call(item) for each item, one at a time.  Returns the results, each
    call's duration, and the host-speed blocks as [operations done before
    the block, block seconds]."""
    results, lat = [], []
    cal = [[0, hostspeed.block()]]
    last = time.perf_counter()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        results.append(call(item))
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        if t1 - last >= CAL_EVERY_S or i == len(items) - 1:
            cal.append([i + 1, hostspeed.block()])
            last = time.perf_counter()
    return results, lat, cal


def desc(p):
    """IntPoly as a list of coefficients, highest degree first."""
    return list(reversed(p.coeffs))


def _ivjson(iv):
    return [str(iv.lo), str(iv.hi)]


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# ----------------------------------------------------------------------
# certify: is_salem and factor_bounded, plus lambda_approx on Salem inputs


def certify_op(st, coeffs):
    p = st.IntPoly.from_descending(coeffs)
    cert = st.is_salem(p)
    factors = st.factor_bounded(p)
    lam = st.lambda_approx(cert, LAMBDA_EPS) if cert else None
    return cert, factors, lam


def certify_json(st, result):
    cert, factors, lam = result
    out = {"salem": bool(cert), "factors": [[desc(f), m] for f, m in factors]}
    if cert:
        out["trace_poly"] = desc(cert.trace_poly)
        out["root_interval"] = _ivjson(cert.root_interval)
        out["lambda"] = _ivjson(lam)
    else:
        out["reason"] = cert.reason
        if isinstance(cert.witness, st.IntPoly):
            out["witness"] = desc(cert.witness)
    return out


# ----------------------------------------------------------------------
# models: what construct, reorient and ns compute for one grid model


def models_op(st, params):
    model = st.quad_order_model(st.a_form_matrix(*params))
    ent = st.entropy(model, ENTROPY_EPS)
    if ent.hi <= 0:
        return model, ent, None
    flipped = st.reorient(model)
    return model, ent, (
        st.is_projective(model),
        st.is_projective(flipped),
        st.picard_rank(model),
        st.ns_charpoly(model),
    )


def models_json(st, result):
    model, ent, decisions = result
    out = {
        "matrix": [list(row) for row in model.matrix],
        "h1": desc(model.h1_charpoly),
        "h2": desc(model.h2_charpoly),
        "salem_factor": desc(model.salem_factor()),
        "entropy": _ivjson(ent),
    }
    if decisions is not None:
        proj, proj_flipped, rank, ns = decisions
        out["projective"] = proj
        out["projective_reoriented"] = proj_flipped
        out["picard_rank"] = rank if isinstance(rank, int) else str(rank)
        out["ns"] = desc(ns) if isinstance(ns, st.IntPoly) else None
    return out


# ----------------------------------------------------------------------
# atlas: the enumerate command, in process, one worker, CSV to a file


def atlas_op(st, sweep, tmp):
    degree, bound = sweep
    path = tmp / f"deg{degree}-b{bound}.csv"
    argv = ["enumerate", "--degree", str(degree), "--max-coeff", str(bound), "--workers", "1", "--out", str(path)]
    return st.cli.main(argv), path


def atlas_json(st, result):
    code, path = result
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return {"code": code, "csv": text}


# ----------------------------------------------------------------------
# cli: one fresh `python -m salemtori.cli` process per command


def cli_run(argv, prefix, env):
    proc = subprocess.run(
        prefix + list(argv), cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S
    )
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), proc.stderr.decode("utf-8", "replace")


def run_cli_round(commands, trace, tmp):
    env = cli_env()
    prefix = [sys.executable, "-m", "salemtori.cli"]
    trace_file = tmp / "layers.json"
    if trace:
        prefix = [sys.executable, str(HERE / "traced_cli.py")]
        env["SALEMTORI_BENCH_TRACE_OUT"] = str(trace_file)
    results, lat, cal = timed([argv for argv, _expected in commands], lambda argv: cli_run(argv, prefix, env))
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    layers = {}
    if trace:
        # traced_cli.py writes one JSON object of totals per command, one per line
        for line in trace_file.read_text(encoding="utf-8").splitlines():
            for key, value in json.loads(line).items():
                layers[key] = layers.get(key, 0) + value
        trace_file.unlink()
    outputs = [{"code": c, "stdout": o, "stderr": e} for c, o, e in results]
    return lat, cal, rss_kb, outputs, layers


# ----------------------------------------------------------------------


def run_round(workload, seed, trace, setup_only=False):
    import inputs
    import salemtori as st

    tmp = ROOT / ".bench_tmp" / f"worker-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        items, op, to_json = inputs.certify_inputs(seed), certify_op, certify_json
    elif workload == "models":
        items, op, to_json = inputs.models_inputs(seed), models_op, models_json
    elif workload == "atlas":
        import salemtori.cli  # noqa: F401  (binds st.cli)

        items, op, to_json = inputs.atlas_inputs(seed), functools.partial(atlas_op, tmp=tmp), atlas_json
    else:
        items = inputs.cli_inputs(seed)
    ready = time.monotonic()
    setup_cal = [hostspeed.block() for _ in range(SETUP_BLOCKS)]
    if setup_only:
        tmp.rmdir()
        return {"ready": ready, "setup_cal": setup_cal}

    tracer = None
    if trace and workload != "cli":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    if workload == "cli":
        lat, cal, rss_kb, outputs, layers = run_cli_round(items, trace, tmp)
        errors = []
    else:
        errors = []

        def call(i_item):
            try:
                return op(st, i_item[1])
            except Exception as exc:  # an operation that raises is a failed operation
                errors.append([i_item[0], f"{type(exc).__name__}: {exc}"])
                return None

        results, lat, cal = timed(list(enumerate(items)), call)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        layers = {}
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.report()
        outputs = [None if r is None else to_json(st, r) for r in results]
    tmp.rmdir()
    return {
        "ready": ready,
        "setup_cal": setup_cal,
        "lat": lat,
        "cal": cal,
        "rss_kb": rss_kb,
        "errors": errors,
        "outputs": outputs,
        "layers": layers,
    }


def probe_main(seed):
    """Median in-process time of salemtori.cli.main over the cli workload's
    commands, leaving out the sweeps and the commands known to raise."""
    import inputs
    import salemtori.cli

    commands = inputs.cli_inputs(seed)
    times = []
    for argv, _ in commands:
        if argv[0] == "enumerate" or tuple(argv) in inputs.MALFORMED:
            continue
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                salemtori.cli.main(list(argv))
            except SystemExit:
                pass
        times.append(time.perf_counter() - t0)
    return {"main_s": statistics.median(times)}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop when the inputs are ready")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "probe-main":
        result = probe_main(args.seed)
    else:
        result = run_round(args.workload, args.seed, args.trace, args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
