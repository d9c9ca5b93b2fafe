"""Command line front end.

Four subcommands: `lti` and `pwa` run the bundled (or given) experiment
configs end to end, `volume-table` runs the linear study trimmed down to
the matrix-zonotope variants it needs for the volume comparison, and
`selftest` runs the library invariant suite.  Outputs are deterministic
for a fixed config and seed; wall-clock data goes to metadata.json only.
"""

import argparse
import sys
from dataclasses import replace

from .harness import (
    HarnessError,
    _write_json,
    bundled_config,
    load_config,
    run_lti_experiment,
    run_pwa_experiment,
)
from .selfcheck import run_selfcheck

_DEFAULT_CONFIGS = {"lti": "lti_5d", "pwa": "pwa_2mode", "volume-table": "lti_5d"}


def _load(args):
    cfg = load_config(args.config) if args.config else bundled_config(_DEFAULT_CONFIGS[args.command])
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    return cfg


def _print_volume_table(report):
    print(f"volumes at step {report['volume_step']}:")
    for row in report["volume_table"]:
        print(f"  {row['method']:24s} {row['volume']:.6e}  x{row['ratio']:.2f}")


def _run_experiment(args):
    try:
        cfg = _load(args)
        if args.command == "volume-table":
            cfg = replace(cfg, model_sets=("mz",), compute_supports=False)
        runner = run_pwa_experiment if cfg.kind == "pwa" else run_lti_experiment
        report = runner(cfg, out_dir=args.out)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        if err.report is not None and args.out:
            # flagged partial results; status in the report says what failed
            _write_json(f"{args.out}/report.json", err.report)
            print(f"partial report written to {args.out}/report.json", file=sys.stderr)
        return 1
    print(f"{cfg.kind} experiment '{cfg.name}' seed {cfg.rng_seed}: {report['status']}")
    if "volume_table" in report:
        _print_volume_table(report)
    if "self_check" in report:
        worst = max(c["max_point_error"] for c in report["self_check"].values())
        print(f"self-check: {len(report['self_check'])} combinations, "
              f"worst point error {worst:.2e}")
    if args.out:
        print(f"results written to {args.out}/")
    return 0


def _run_selftest(args):
    report = run_selfcheck(0 if args.seed is None else args.seed)
    for c in report["checks"]:
        print(f"  {'ok' if c['ok'] else 'FAIL':4s} {c['name']}")
    print(f"selftest: {'all passed' if report['ok'] else 'FAILURES'} "
          f"({report['runtime_s']:.1f}s)")
    if args.out:
        _write_json(f"{args.out}/selftest.json", report)
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="datareach",
        description="data-driven reachability experiments and invariant checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("lti", "run the linear experiment"),
        ("pwa", "run the piecewise-affine experiment"),
        ("volume-table", "run the linear experiment trimmed to the volume comparison"),
        ("selftest", "run the library invariant suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "selftest":
            p.add_argument("--config", help="experiment config JSON (default: bundled)")
        p.add_argument("--seed", type=int, help="override the config rng seed")
        p.add_argument("--out", help="output directory")
    return parser


def cli_main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return _run_selftest(args)
    try:
        return _run_experiment(args)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())
