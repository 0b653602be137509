"""hhmat benchmark: run one workload and print its metrics.

    python3 hhbench/run.py --workload t4_exp_n4 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` (and for at
least MIN_TRIALS trials) and the end-to-end metrics are printed.  With
``--trace 1`` a fixed number of trials, set by the seconds and the
workload's nominal rate, runs once untraced and once traced, and the
per-layer metrics are printed.  Either way a sample of trials is checked
against an independent numpy recomputation (``oracle.py``), and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
trial passed and every sampled margin agreed, 1 otherwise, and 2 when the
checkout holds no hhmat sources.
"""

import os

# BLAS must be pinned before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import FIRST_INDEX, WORKLOADS, MissingProgram, run_trial, setup  # noqa: E402

# Ten or more samples lie beyond p90 once a run has 100 trials.
MIN_TRIALS = 100
# A run stops after this long even below MIN_TRIALS, to end within 180 s.
MAX_LOOP_S = 120.0
# Setup is measured this many times: once here and in fresh processes.
SETUP_SAMPLES = 7
# Every ORACLE_EVERY-th trial is recomputed by the oracle.
ORACLE_EVERY = 8
TRACE_MIN_TRIALS = 4
SETUP_GAUGE_REPEATS = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description="hhmat benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _blas_record() -> dict:
    """OpenBLAS version and live thread count, when numpy bundles OpenBLAS."""
    import ctypes
    import glob

    out = {"blas_threads_requested": int(BLAS_THREADS), "openblas": None, "blas_threads": None}
    try:
        out["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out["blas_threads"] = fn()
                return out
    return out


def run_record(args, trials: int, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials": trials,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_record(),
        **extra,
    }


def _oracle_checks(harness, wl, spec, sampled):
    """Recompute the margin of each sampled (index, status, margin)."""
    return [oracle.check(index, harness.generate_instance(wl.theorem, spec, index), status, margin)
            for index, status, margin in sampled]


def _print_metrics(metrics: dict):
    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:34s} {value:>14s} {m['unit']}")


def _failed(attempted: int, statuses: Counter, checks) -> int:
    """Trials not judged pass, plus sampled passes the oracle disputes."""
    disputed = sum(1 for c in checks if not c.ok and c.status == "pass")
    return attempted - statuses["pass"] + disputed


def _finish(args, attempted, failed, statuses, checks, metrics, record_extra) -> int:
    record = run_record(args, attempted, {
        "oracle_samples": len(checks),
        "oracle_margin_rtol": oracle.MARGIN_RTOL,
        "statuses": dict(statuses),
        **record_extra,
    })
    print(f"# hhbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# record " + json.dumps(record, sort_keys=True))
    for c in checks:
        if not c.ok:
            print(f"# output check failed on trial {c.index}: {c.detail}")
    print(f"{'fail_share':34s} {failed / attempted:>14.6g} share")
    print(f"{'skip_share':34s} {statuses['skip'] / attempted:>14.6g} share")
    _print_metrics(metrics)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _setup_sample(wl, seed: int):
    """One set-up: (harness, spec, raw seconds, seconds at reference speed)."""
    harness, spec, seconds = setup(wl, seed)
    return harness, spec, seconds, seconds * speed.SpeedGauge(wl.gauge).scale(SETUP_GAUGE_REPEATS)


def _setup_in_child(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(args, wl) -> int:
    harness, spec, raw_setup_s, first_setup_s = _setup_sample(wl, args.seed)
    gauge = speed.SpeedGauge(wl.gauge)
    raw, readings, statuses, sampled = [], [], Counter(), []
    index = FIRST_INDEX
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        dt, result = run_trial(harness, wl, spec, index)
        raw.append(dt)
        readings.append(gauge.measure())
        statuses[result.status] += 1
        if (index - FIRST_INDEX) % ORACLE_EVERY == 0:
            sampled.append((index, result.status, result.margin))
        index += 1
        now = time.perf_counter()
        if (now >= deadline and len(raw) >= MIN_TRIALS) or now - start >= MAX_LOOP_S:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = _oracle_checks(harness, wl, spec, sampled)
    setups = [first_setup_s] + [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    attempted = len(raw)
    failed = _failed(attempted, statuses, checks)
    scaled, factors = gauge.scale_trials(raw, readings)
    metrics = {
        "trials_per_s": {"value": attempted / sum(scaled), "unit": "1/s"},
        "trial_ms_p50": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
        "trial_ms_p90": {"value": 1e3 * statistics.quantiles(scaled, n=10)[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "pass_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        "judged_share": {"value": (attempted - statuses["skip"]) / attempted, "unit": "share"},
    }
    return _finish(args, attempted, failed, statuses, checks, metrics, {
        "wall_s": wall,
        "raw_trials_per_s": attempted / wall,
        "raw_trial_ms_p50": 1e3 * statistics.median(raw),
        "raw_trial_ms_p90": 1e3 * statistics.quantiles(raw, n=10)[8],
        "raw_setup_s_first": raw_setup_s,
        "setup_samples_s": setups,
        "speed_scale_median": statistics.median(factors),
        "speed_scale_range": [min(factors), max(factors)],
    })


def traced(args, wl) -> int:
    harness, spec, _ = setup(wl, args.seed)
    count = max(TRACE_MIN_TRIALS, round(args.seconds * wl.nominal_rate / 3.0))
    tracer = spans.Tracer()
    statuses, sampled, untraced_s, mismatched = Counter(), [], 0.0, []
    for index in range(FIRST_INDEX, FIRST_INDEX + count):
        dt, plain = run_trial(harness, wl, spec, index)
        untraced_s += dt
        with tracer.installed(), tracer.trial(index):
            _, result = run_trial(harness, wl, spec, index)
        # Tracing must not change a verdict; a traced trial that differs
        # from its untraced run counts as failed.
        differs = (result.status, result.margin) != (plain.status, plain.margin)
        if differs:
            mismatched.append(index)
        statuses["traced_differs" if differs else result.status] += 1
        if (index - FIRST_INDEX) % ORACLE_EVERY == 0:
            sampled.append((index, result.status, result.margin))
    checks = _oracle_checks(harness, wl, spec, sampled)
    metrics = spans.layer_metrics(tracer, untraced_s)
    return _finish(args, count, _failed(count, statuses, checks), statuses, checks, metrics,
                   {"traced_differs": mismatched, "missing_spans": sorted(tracer.missing)})


def main(argv=None) -> int:
    args = _parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            _, _, raw_s, setup_s = _setup_sample(wl, args.seed)
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_s}))
            return 0
        return traced(args, wl) if args.trace else end_to_end(args, wl)
    except MissingProgram as exc:
        print(f"hhbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
