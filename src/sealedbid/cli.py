"""Command-line interface.

    sealedbid run <scenario.yaml> [--seed N] [--out-dir DIR]
    sealedbid oracle <scenario.yaml>
    sealedbid plot --out plot.csv
    sealedbid verify-log <events.jsonl>

Exit codes: 0 success, 1 invariant/verification failure, 2 configuration
or usage error, which includes a file that cannot be opened or written.
"""

import argparse
import sys

from sealedbid.errors import ConfigError, SealedBidError
from sealedbid.gas import write_plot_csv
from sealedbid.harness import ScenarioRunner, oracle_resolve
from sealedbid.scenario import load_scenario
from sealedbid.verify import verify_log


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    runner = ScenarioRunner(scenario, out_dir=args.out_dir, seed=args.seed)
    report = runner.run()
    print(report.format_text())
    print()
    print(runner.gas.format_text())
    return 0 if report.passed else 1


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    outcome = oracle_resolve(scenario)
    if not outcome.has_winner:
        print("winner: none")
    elif len(outcome.winner_names) == 1:
        print("winner: %s" % outcome.winner_names[0])
        print("amount: %d" % outcome.amount)
    else:
        print("tied winners (escrow address order decides): %s"
              % ", ".join(outcome.winner_names))
        print("amount: %d" % outcome.amount)
    return 0


def _cmd_plot(args) -> int:
    rows = write_plot_csv(args.out)
    print("wrote %d data rows to %s" % (rows, args.out))
    return 0


def _cmd_verify_log(args) -> int:
    """Offline re-verification of a public event stream. Bytes that are
    not UTF-8 are read as lone surrogates, which `verify_log` fails."""
    with open(args.log, "r", encoding="utf-8", errors="surrogateescape") as fh:
        report, passed = verify_log(fh)
    print("\n".join(report))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sealedbid",
        description="Sealed-bid auction simulator with enclave-style "
                    "confidential bidding and public-chain settlement.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out-dir", default=None,
                       help="directory for event/audit logs and the report")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle",
                              help="brute-force winner from the funding script")
    p_oracle.add_argument("scenario")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_plot = sub.add_parser("plot", help="emit gas-scaling CSV data")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    p_verify = sub.add_parser("verify-log",
                              help="re-verify attestations and payload "
                                   "signatures in an event log")
    p_verify.add_argument("log")
    p_verify.set_defaults(func=_cmd_verify_log)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except SealedBidError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
