"""Command-line entry points: run, verify, report, partition, config."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, oracles
from .harness import ExperimentConfig


def _parse_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.regimes:
        overrides["regimes"] = tuple(_parse_list(args.regimes))
    if args.seeds:
        overrides["seeds"] = tuple(int(s) for s in _parse_list(args.seeds))
    if args.out:
        overrides["out"] = args.out
    if overrides:
        config = replace(config, **overrides)
    records = harness.run(config)
    failed = [r for r in records if r.error is not None]
    for r in records:
        status = "ok" if r.error is None else f"FAILED ({r.error})"
        print(f"{r.regime}-{r.seed}: {status}")
    print(f"outputs in {config.out if not args.out else args.out}")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True

    summary = oracles.theorem2_campaign(args.instances, args.seed)
    print(
        f"conflict-bound campaign: {summary.n_checked} checked, {summary.n_skipped} skipped, "
        f"{summary.n_bound_violations} bound violations, "
        f"{summary.n_monotonicity_violations} monotonicity violations -> "
        f"{'PASS' if summary.ok else 'FAIL'}"
    )
    ok = ok and summary.ok
    with open(out_dir / "bound_campaign.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_requested", "n_checked", "n_skipped", "bound_violations", "monotonicity_violations", "ok"])
        writer.writerow(
            [summary.n_requested, summary.n_checked, summary.n_skipped,
             summary.n_bound_violations, summary.n_monotonicity_violations, summary.ok]
        )

    rng = oracles.make_rng(args.seed, 0x7E)
    inst = oracles.generate_theorem2_instance(5, 20, rng)
    report = oracles.theorem2_check(inst)
    with open(out_dir / "bound_report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)

    n_descent_ok = 0
    n_control_increase = 0
    n_problems = 20
    for i in range(n_problems):
        problem = oracles.conflicting_quadratic_problem(6, oracles.make_rng(args.seed, 0x73, i))
        eta = oracles.compliant_eta(problem)
        trace = oracles.theorem3_descent_check(problem, eta)
        if trace.monotone and trace.eta_compliant(problem.smoothness):
            n_descent_ok += 1
        control = oracles.theorem3_descent_check(problem, 10.0 / problem.smoothness)
        if control.n_increases > 0:
            n_control_increase += 1
    descent_ok = n_descent_ok == n_problems and n_control_increase >= n_problems // 2
    print(
        f"descent check: {n_descent_ok}/{n_problems} monotone at compliant step, "
        f"{n_control_increase}/{n_problems} controls increased -> {'PASS' if descent_ok else 'FAIL'}"
    )
    ok = ok and descent_ok
    return 0 if ok else 1


def cmd_report(args) -> int:
    records = harness.load_records(args.records)
    harness.write_report(records, Path(args.records), args.reference)
    print((Path(args.records) / "results.txt").read_text())
    return 0


def cmd_partition(args) -> int:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    seed = config.seeds[0]
    prepared = harness.build_data(config, seed)
    attr = config.partition["attribute"]
    print(f"shard preview (seed {seed}, attribute {attr!r}):")
    header = f"{'client':>8} {'total':>8} " + " ".join(
        f"{name:>10}" for name in sorted(config.partition["fractions"])
    )
    print(header)
    for shard in prepared.shards:
        counts = shard.group_counts[attr]
        row = f"{shard.client_id:>8} {len(shard):>8} " + " ".join(
            f"{counts.get(name, 0):>10}" for name in sorted(config.partition["fractions"])
        )
        print(row)
    return 0


def cmd_config(args) -> int:
    if args.print_defaults:
        print(json.dumps(ExperimentConfig().to_json(), indent=2, sort_keys=True))
        return 0
    print("nothing to do; use --print-defaults", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairfedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a (regime, seed) experiment grid")
    p_run.add_argument("--config", help="experiment config JSON (defaults used when omitted)")
    p_run.add_argument("--regimes", help="comma-separated regime list override")
    p_run.add_argument("--seeds", help="comma-separated seed list override")
    p_run.add_argument("--out", help="output directory override")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the theorem oracle campaigns")
    p_verify.add_argument("--instances", type=_positive_int, default=1000)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--out", default="verify-out")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="rebuild tables from records.json")
    p_report.add_argument("--records", required=True, help="directory containing records.json")
    p_report.add_argument("--reference", default="mfairfl")
    p_report.set_defaults(func=cmd_report)

    p_part = sub.add_parser("partition", help="preview shard counts")
    p_part.add_argument("--config")
    p_part.set_defaults(func=cmd_partition)

    p_cfg = sub.add_parser("config", help="configuration helpers")
    p_cfg.add_argument("--print-defaults", action="store_true")
    p_cfg.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
