"""Benchmark for salemtori: four workloads, timed end to end and per layer.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload, each round in a fresh worker process
(worker.py), until --seconds have passed; at least one round always runs.
Then it checks every output against computations made apart from salemtori
(checks.py).  Every time is scaled to the host's speed (hostspeed.py).  It
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the rounds alternate between untraced and
traced, and the metrics are the per-layer ones together with the tracing
overhead.  Diagnostics go to standard error.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import inputs
from worker import SETUP_BLOCKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 120
PROBE_REPEAT = 5
# set-up is timed in every round; fresh processes that stop at "inputs
# ready" top the samples up to this many
SETUP_SAMPLES = 11

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# per-layer metrics from the tracer, with their units
LAYERS = (
    ("kernels.calls", "count"),
    ("kernels.s", "s"),
    ("poly.factor_bounded.calls", "count"),
    ("poly.factor_bounded.self_s", "s"),
    ("poly.divides.calls", "count"),
    ("salem.is_salem.calls", "count"),
    ("salem.is_salem.self_s", "s"),
    ("salem.lambda_interval.s", "s"),
    ("salem.lambda_approx.s", "s"),
    ("salem.isolate_all_roots.calls", "count"),
    ("salem.isolate_all_roots.distinct", "count"),
    ("salem.isolate_all_roots.self_s", "s"),
    ("salem.refine_root_box.calls", "count"),
    ("salem.refine_root_box.distinct", "count"),
    ("salem.refine_root_box.self_s", "s"),
    ("salem.polyroots.calls", "count"),
    ("salem.polyroots.s", "s"),
    ("intervals.box_mul.calls", "count"),
    ("intervals.box_mul.s", "s"),
    ("intervals.log_interval.s", "s"),
    ("torus.entropy.self_s", "s"),
    ("torus.quad_order_model.self_s", "s"),
    ("torus.is_projective.calls", "count"),
    ("torus.is_projective.self_s", "s"),
    ("torus.ns_charpoly.s", "s"),
    ("classify.realizable.calls", "count"),
    ("classify.realizable.self_s", "s"),
    ("classify.pairing_classes.s", "s"),
    ("wedge.invert_wedge.s", "s"),
)
CLI_PROBES = (
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.enumerate_w1_s", "s"),
    ("cli.enumerate_w2_s", "s"),
)
OVERHEAD = (
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _python(args, env=None):
    """Run a fresh interpreter from the checkout root; (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable] + args, cwd=ROOT, env=env, capture_output=True, timeout=WORKER_TIMEOUT_S
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"bench: {' '.join(args[:3])} exited with {proc.returncode}")
    return wall, proc.stdout.decode("utf-8")


def run_round(workload, seed, trace, setup_only=False):
    """One worker process.  Its set-up time is scaled by the host-speed
    blocks run just before it starts and just after its inputs are ready."""
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    before = [hostspeed.block() for _ in range(SETUP_BLOCKS)]
    t0 = time.monotonic()
    _, out = _python(args + ["--setup-only"] if setup_only else args)
    res = json.loads(out.splitlines()[-1])
    res["setup"] = hostspeed.scale(res["ready"] - t0, before + res["setup_cal"])
    return res


def scaled_latencies(r):
    """The round's operation times in reference seconds (hostspeed.py), each
    scaled by the host-speed blocks run just before and just after it."""
    cal, out, j = r["cal"], [], 0
    for i, t in enumerate(r["lat"]):
        while cal[j + 1][0] <= i:
            j += 1
        out.append(hostspeed.scale(t, (cal[j][1], cal[j + 1][1])))
    return out


def op_latencies(rounds):
    """Each operation's median scaled time over the rounds.  Every round is a
    fresh process, so no cache carries over from one to the next."""
    return [statistics.median(times) for times in zip(*map(scaled_latencies, rounds))]


def round_wall(rounds):
    """Median over the rounds of the scaled time to run every operation."""
    return statistics.median(sum(scaled_latencies(r)) for r in rounds)


def cli_probes(seed):
    """Layer figures for the CLI process, each from fresh interpreters."""
    from worker import cli_env

    env = cli_env()
    interp = [_python(["-c", "pass"])[0] for _ in range(PROBE_REPEAT)]
    code = "import time; t = time.perf_counter(); import salemtori.cli; print(time.perf_counter() - t)"
    imports = [float(_python(["-c", code], env)[1]) for _ in range(PROBE_REPEAT)]
    main_s = json.loads(_python([str(HERE / "worker.py"), "--workload", "probe-main", "--seed", str(seed)])[1])
    sweep = ["-m", "salemtori.cli", "enumerate", "--degree", "4", "--max-coeff", "6", "--workers"]
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.main_s": main_s["main_s"],
        "cli.enumerate_w1_s": _python(sweep + ["1"], env)[0],
        "cli.enumerate_w2_s": _python(sweep + ["2"], env)[0],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "salemtori").is_dir():
        raise SystemExit(f"bench: no salemtori sources under {ROOT / 'src'}")

    start = time.monotonic()
    rounds, traced = [], []
    while True:
        rounds.append(run_round(args.workload, args.seed, 0))
        if args.trace:
            traced.append(run_round(args.workload, args.seed, 1))
        if time.monotonic() - start >= args.seconds:
            break
    probes = cli_probes(args.seed) if args.trace else {}
    setups = [r["setup"] for r in rounds]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_round(args.workload, args.seed, 0, setup_only=True)["setup"])

    import checks

    attempted = failed = 0
    known, wrong = set(), []
    verdicts = {}  # rounds with the same outputs get the same verdicts
    for r in rounds + traced:
        attempted += len(r["outputs"])
        key = json.dumps([r["outputs"], r["errors"]])
        if key not in verdicts:
            verdicts[key] = checks.check_round(args.workload, args.seed, r["outputs"], r["errors"])
        for i, kind, msg in verdicts[key]:
            if kind == "failed":
                failed += 1
                if args.workload == "cli" and tuple(inputs.cli_inputs(args.seed)[i][0]) in inputs.KNOWN_FAULTS:
                    known.add(f"known fault: {msg}")
                    continue
            wrong.append(f"op {i}: {kind}: {msg}")
    for msg in sorted(known) + sorted(set(wrong))[:20]:
        sys.stderr.write(f"bench: {msg}\n")
    sys.stderr.write(
        f"bench: {args.workload} seed {args.seed}: {len(rounds)} rounds, {len(traced)} traced, "
        f"{attempted} operations, {failed} failed, {len(wrong)} problems\n"
    )

    if args.trace:
        values = {
            name: statistics.median_low([r["layers"].get(name, 0) for r in traced]) for name, _ in LAYERS
        }
        values.update(probes)
        untraced = round_wall(rounds)
        traced_wall = round_wall(traced)
        values.update(
            {
                "trace.untraced_wall_s": untraced,
                "trace.traced_wall_s": traced_wall,
                "trace.overhead_s": traced_wall - untraced,
            }
        )
        units = LAYERS + CLI_PROBES + OVERHEAD
    else:
        lat = op_latencies(rounds)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": round_wall(rounds),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median([r["rss_kb"] for r in rounds]) / 1024,
        }
        units = END_TO_END
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
