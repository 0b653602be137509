"""Command line interface.

    hhmat verify --theorem ID [options]   run a randomized checker suite
    hhmat alpha --f F --interval LO,HI    chord-ratio constant of a function
    hhmat counterexample [--json FILE]    reproduce the fixed 2x2 counterexample
    hhmat replay FILE                     re-run instances from a report file
    (LO may start with '-': --interval -1,2 is --interval=-1,2)

Exit codes: 0 all checks passed or were hypothesis-skipped, 1 at least one
inequality violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import harness, hhcheck
from .errors import Error
from .funcat import from_descriptor
from .harness import InstanceSpec, THEOREM_IDS


def _interval(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(",")
    return float(lo), float(hi)


def _outcome_line(inst: dict, status: str, margin: float | None, detail: str) -> str:
    """A trial's outcome, as verify prints a failed one and replay every one."""
    shown = "n/a" if margin is None else f"{margin:.3e}"
    return f"{inst.get('theorem')} seed={inst.get('seed')}: {status} margin={shown} {detail}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hhmat")
    sub = parser.add_subparsers(dest="command", required=True)

    # Spec options left out keep the InstanceSpec defaults.
    verify = sub.add_parser("verify", help="run a randomized checker suite",
                            argument_default=argparse.SUPPRESS)
    verify.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    verify.add_argument("--n", type=int)
    verify.add_argument("--m", type=int)
    verify.add_argument("--f", dest="function", metavar="F")
    verify.add_argument("--map", dest="map_desc", metavar="MAP")
    verify.add_argument("--interval", type=_interval)
    verify.add_argument("--trials", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--k", type=int, dest="chain_k", metavar="K", help="chain: k**p panels")
    verify.add_argument("--p", type=int, dest="chain_p", metavar="P", help="chain: k**p panels")
    verify.add_argument("--quad-nodes", type=int)
    verify.add_argument("--quad-rtol", type=float)
    verify.add_argument("--workers", type=int, default=1)
    verify.add_argument("--json", dest="json_out", default=None)
    verify.add_argument("--csv", dest="csv_out", default=None)

    alpha = sub.add_parser("alpha", help="chord-ratio constant of a catalog function")
    alpha.add_argument("--f", required=True)
    alpha.add_argument("--interval", type=_interval, required=True)

    ce = sub.add_parser("counterexample", help="reproduce the fixed 2x2 counterexample")
    ce.add_argument("--json", dest="json_out")

    rp = sub.add_parser("replay", help="re-run instances from a report file")
    rp.add_argument("file")
    return parser


def main(argv=None) -> int:
    # "--interval VALUE" as "--interval=VALUE": argparse reads a VALUE like -1,2 as an option
    words = iter(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(
        [f"{word}={next(words, '')}" if word == "--interval" else word for word in words])
    try:
        if args.command == "verify":
            spec = InstanceSpec(**{field.name: getattr(args, field.name)
                                   for field in fields(InstanceSpec) if hasattr(args, field.name)})
            report = harness.run_suite(spec, args.theorem, workers=args.workers)
            print(report.summary())
            if report.judged == 0:
                print(f"warning: the {args.theorem} suite judged none of its "
                      f"{report.trials} trials", file=sys.stderr)
            for fail in report.failures:
                rec = report.records[fail["trial"]]
                print("  " + _outcome_line(fail["instance"], rec["verdict"], rec["margin"],
                                           rec.get("detail", "")))
                print("  " + json.dumps(fail["instance"], sort_keys=True))
            if args.json_out:
                with open(args.json_out, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json())
            if args.csv_out:
                report.write_csv(args.csv_out)
            return 0 if not report.failures else 1
        if args.command == "alpha":
            f = from_descriptor(args.f)
            result = hhcheck.mond_pecaric_alpha(f, *args.interval)
            print(f"alpha={result.alpha!r} argmax_t={result.argmax_t!r} "
                  f"interval=[{result.omega:g},{result.Omega:g}]")
            return 0
        if args.command == "counterexample":
            payload = hhcheck.reproduce_counterexample()
            for key in ("mid_cubed", "segment_integral", "endpoint_average"):
                print(f"{key}: {payload[key]}")
            print(f"left gap det = {payload['left_gap_det']} "
                  f"(left inequality fails: {payload['left_fails']})")
            print(f"right gap det = {payload['right_gap_det']} "
                  f"(right inequality fails: {payload['right_fails']})")
            print("counterexample reproduced exactly" if payload["passes"]
                  else "counterexample reproduction FAILED")
            if args.json_out:
                with open(args.json_out, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, sort_keys=True)
            return 0 if payload["passes"] else 1
        if args.command == "replay":
            try:
                with open(args.file, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError) as exc:  # unreadable, or not JSON
                print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
                return 2
            results = harness.replay(payload)
            if not results:
                print("no failed trials to replay")
            bad = 0
            for inst, result in results:
                print(_outcome_line(inst, result.status, result.margin, result.detail))
                bad += result.status == "fail"
            return 1 if bad else 0
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
