"""Command-line interface.

    sealedbid run <scenario.yaml> [--seed N] [--out-dir DIR]
    sealedbid oracle <scenario.yaml>
    sealedbid plot --out plot.csv
    sealedbid verify-log <events.jsonl>

Exit codes: 0 success, 1 invariant/verification failure, 2 configuration
or usage error.
"""

import argparse
import json
import sys

from sealedbid.enclave import AttestationReport, verify_attestation
from sealedbid.errors import ConfigError, SealedBidError
from sealedbid.events import canonical, unhx
from sealedbid.gas import write_plot_csv
from sealedbid.harness import ScenarioRunner, disclosure_problems, oracle_resolve
from sealedbid.scenario import load_scenario
from sealedbid.transactions import ADDRESS_LENGTH, SignedTransaction, recover_signer


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    runner = ScenarioRunner(scenario, out_dir=args.out_dir, seed=args.seed)
    report = runner.run()
    print(report.format_text())
    print()
    print(runner.gas.report().format_text())
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


# what a malformed record raises when a field is missing, mistyped or not hex
MALFORMED = (KeyError, ValueError, TypeError, AttributeError, IndexError)


def _name(record: dict) -> str:
    return "event %-18s seq=%-3s" % (record.get("event"), record.get("seq", -1))


def _count_problems(records, bidder_set) -> list:
    """Where the public counts of a resolved stream disagree: the `Closed`
    event's `bidder_count`, the `BidderEnvelope` events and the distinct
    escrows of `bidder_set` must be equal, and the envelopes'
    `registration_index` values must run 0..n-1 in stream order."""
    closed = next((r for r in records if r.get("event") == "Closed"), {})
    indices = [r.get("registration_index") for r in records
               if r.get("event") == "BidderEnvelope"]
    counts = (closed.get("bidder_count"), len(indices), len(bidder_set))
    problems = []
    if not counts[0] == counts[1] == counts[2]:
        problems.append("Closed.bidder_count %r, %d BidderEnvelope event(s), "
                        "%d escrow(s) in bidder_set" % counts)
    if indices != list(range(len(indices))):
        problems.append("registration_index values %r do not run 0..%d"
                        % (indices, len(indices) - 1))
    return problems


def _cmd_verify_log(args) -> int:
    """Offline re-verification of a public event stream."""
    with open(args.log, "r", encoding="utf-8") as fh:
        numbered = [(number, line.rstrip("\n"))
                    for number, line in enumerate(fh, 1) if line.strip()]
    lines = [line for _, line in numbered]
    records = []
    for number, line in numbered:
        try:
            record = json.loads(line)
        except ValueError as exc:
            print("line %d FAIL (not JSON: %s)" % (number, exc))
            return 1
        if not isinstance(record, dict):
            print("line %d FAIL (not a JSON object)" % number)
            return 1
        records.append(record)
    if not records:
        print("verify-log: empty log")
        return 1
    header = records[0]
    if header.get("event") != "Deployed":
        print("verify-log: log does not start with a Deployed event")
        return 1
    try:
        code_hash = unhx(header["code_hash"])
        attestation_address = unhx(header["attestation_address"])
    except MALFORMED as exc:
        print("%s FAIL (malformed: %r)" % (_name(header), exc))
        return 1
    failures = 0

    for record in records:
        attestation = record.get("attestation")
        if attestation is None:
            print("%s FAIL (no attestation)" % _name(record))
            failures += 1
            continue
        stripped = {k: v for k, v in record.items() if k != "attestation"}
        try:
            report = AttestationReport.from_record(attestation)
            ok = verify_attestation(report, code_hash,
                                    canonical(stripped).encode(),
                                    attestation_address)
            verdict = "ok" if ok else "FAIL"
        except MALFORMED as exc:
            ok, verdict = False, "FAIL (malformed: %r)" % exc
        print("%s %s" % (_name(record), verdict))
        failures += 0 if ok else 1

    resolved = next((r for r in records if r.get("event") == "Resolved"), None)
    if resolved is not None:
        try:
            bidder_set = {addr.lower() for addr in resolved.get("bidder_set", [])}
            known = bidder_set | {r["address"].lower() for r in records
                                  if r.get("event") == "AssetEscrowAddress"}
            escrows = {addr: unhx(addr) for addr in sorted(bidder_set)}
            for addr, escrow in escrows.items():
                if len(escrow) != ADDRESS_LENGTH:
                    raise ValueError("bidder_set entry %s is not a %d-byte address"
                                     % (addr, ADDRESS_LENGTH))
            payloads = [(p.get("role"), p.get("raw"))
                        for p in resolved.get("payloads", [])]
        except MALFORMED as exc:
            print("%s FAIL (malformed: %r)" % (_name(resolved), exc))
            return 1
        for role, raw in payloads:
            try:
                tx = SignedTransaction.from_raw(raw)
                signer = "0x" + recover_signer(tx).hex()
                ok = signer in known
            except (SealedBidError,) + MALFORMED:
                signer, ok = "<unrecoverable>", False
            print("payload %-15s signer=%s %s" % (role, signer, "ok" if ok else "FAIL"))
            failures += 0 if ok else 1
        # confidentiality replay: the harness's rules for the disclosed escrows
        for problem in disclosure_problems(records, lines, escrows):
            print("confidentiality FAIL: %s" % problem)
            failures += 1
        # completeness from the public counts alone: `bidder_set` cannot
        # vouch for itself
        for problem in _count_problems(records, bidder_set):
            print("completeness FAIL: %s" % problem)
            failures += 1

    print("verify-log: %s (%d event(s), %d failure(s))"
          % ("PASS" if failures == 0 else "FAIL", len(records), failures))
    return 0 if failures == 0 else 1


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
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except SealedBidError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
