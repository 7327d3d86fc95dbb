"""The command-line interface, through `main`."""

import argparse
import ast
import csv
import json
import re
from pathlib import Path

import pytest
import yaml

from sealedbid import cli, verify
from sealedbid.cli import build_parser, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_logged(name, out_dir):
    assert main(["run", str(SCENARIOS / ("%s.yaml" % name)),
                 "--out-dir", str(out_dir)]) == 0
    return out_dir / "events.jsonl"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
def test_verify_log_accepts_a_clean_log(name, tmp_path, capsys):
    log = run_logged(name, tmp_path)
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.rstrip().splitlines()[-1].startswith("verify-log: PASS")


def first(records, event):
    return next(r for r in records if r["event"] == event)


def rewrite_log(log, edit):
    """Rewrite a saved log after `edit` has changed its records in place;
    returns what `edit` returns."""
    records = [json.loads(line) for line in log.read_text().splitlines()]
    result = edit(records)
    log.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                           + "\n" for r in records))
    return result


def test_verify_log_reports_an_escrow_shown_before_disclosure(tmp_path, capsys):
    log = run_logged("honest_4_bidders", tmp_path)

    def show(records):
        escrow = first(records, "Resolved")["bidder_set"][2]
        first(records, "Open")["note"] = "escrow %s" % escrow
        return escrow

    escrow = rewrite_log(log, show)
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 1
    out = capsys.readouterr().out
    assert "confidentiality FAIL: escrow of %s leaked before disclosure" % escrow in out


def test_verify_log_reports_an_escrow_inside_a_longer_hex_run(tmp_path, capsys):
    log = run_logged("honest_4_bidders", tmp_path)

    def hide(records):
        escrow = first(records, "Resolved")["bidder_set"][1]
        envelope = first(records, "BidderEnvelope")
        envelope["ciphertext"] = "0x9e33%s%s" % (escrow[2:].upper(),
                                                 envelope["ciphertext"][2:])
        return escrow

    escrow = rewrite_log(log, hide)
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 1
    out = capsys.readouterr().out
    assert "confidentiality FAIL: escrow of %s leaked before disclosure" % escrow in out


def test_verify_log_reads_a_bidder_set_entry_written_in_capitals(tmp_path, capsys):
    log = run_logged("honest_4_bidders", tmp_path)

    def capitalise(records):
        bidder_set = first(records, "Resolved")["bidder_set"]
        bidder_set[0] = "0X" + bidder_set[0][2:].upper()

    rewrite_log(log, capitalise)
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    out = captured.out.splitlines()
    # the edited record no longer matches its attestation; nothing else fails
    assert [line for line in out if "FAIL" in line] == [
        next(line for line in out if line.startswith("event Resolved")), out[-1]], out
    assert out[-1].startswith("verify-log: FAIL")


def swap_the_first_two_indices(records):
    one, two = [r for r in records if r["event"] == "BidderEnvelope"][:2]
    one["registration_index"], two["registration_index"] = 1, 0


@pytest.mark.parametrize("event, edit, problem", [
    ("Resolved", lambda records: first(records, "Resolved")["bidder_set"].pop(1),
     "Closed.bidder_count 4, 4 BidderEnvelope event(s), 3 escrow(s) in bidder_set"),
    ("Closed", lambda records: first(records, "Closed").update(bidder_count=5),
     "Closed.bidder_count 5, 4 BidderEnvelope event(s), 4 escrow(s) in bidder_set"),
    ("BidderEnvelope", swap_the_first_two_indices,
     "registration_index values [1, 0, 2, 3] do not run 0..3"),
], ids=["escrow_dropped", "count_raised", "indices_swapped"])
def test_verify_log_checks_completeness_from_the_public_counts(event, edit, problem,
                                                               tmp_path, capsys):
    log = run_logged("honest_4_bidders", tmp_path)
    rewrite_log(log, edit)
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "completeness FAIL: %s" % problem in out
    # the edited record no longer matches its attestation
    assert any(line.startswith("event %s" % event) and line.endswith(" FAIL")
               for line in out), out


@pytest.mark.parametrize("case", ["bad_hex", "not_json", "no_code_hash", "short_escrow"])
def test_verify_log_reports_malformed_input(case, tmp_path, capsys):
    log = run_logged("honest_4_bidders", tmp_path)
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    if case == "short_escrow":  # "12" occurs before disclosure, but is no address
        at = next(i for i, line in enumerate(lines) if '"event":"Resolved"' in line)
        resolved = json.loads(lines[at])
        resolved["bidder_set"].append("0x12")
        lines[at], named = json.dumps(resolved), "event Resolved"
    elif case == "bad_hex":
        header["code_hash"] = "0xzz"
        lines[0], named = json.dumps(header), "event Deployed"
    elif case == "no_code_hash":
        del header["code_hash"]
        lines[0], named = json.dumps(header), "event Deployed"
    else:
        lines[3:3] = ["", "{not json"]  # blank lines still count in the number
        named = "line 5"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith(named) and ("FAIL (malformed" in line or "FAIL (not JSON" in line)
               for line in out.splitlines()), out
    assert "leaked" not in out


@pytest.mark.parametrize("raw", [-2**200, 2**64, 10**6, None])
def test_verify_log_fails_a_payload_that_is_not_hex(raw, tmp_path, capsys):
    # an int is no transaction: it is refused before any bytes are built
    log = run_logged("honest_4_bidders", tmp_path)

    def edit(records):
        first(records, "Resolved")["payloads"][0]["raw"] = raw

    rewrite_log(log, edit)
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("payload ")][0].endswith(
        "signer=<unrecoverable> FAIL"), out
    assert out[-1].startswith("verify-log: FAIL")


@pytest.fixture(scope="module")
def bundled_logs(tmp_path_factory):
    """The event lines of each bundled scenario that has at least four events."""
    logs = {}
    for name in sorted(p.stem for p in SCENARIOS.glob("*.yaml")):
        lines = run_logged(name, tmp_path_factory.mktemp(name)).read_text().splitlines()
        if len(lines) >= 4:
            logs[name] = lines
    return logs


SEQ_MUTATIONS = {
    "third_dropped": lambda lines: lines[:2] + lines[3:],
    "last_replayed": lambda lines: lines + lines[-1:],
    "third_and_fourth_swapped": lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:],
}


@pytest.mark.parametrize("mutation", sorted(SEQ_MUTATIONS))
def test_verify_log_fails_an_event_dropped_replayed_or_moved(mutation, bundled_logs):
    # no_asset and sealed_tamper stop after two and three events
    assert len(bundled_logs) == 11
    for name, lines in bundled_logs.items():
        report, passed = verify.verify_log(SEQ_MUTATIONS[mutation](lines))
        assert not passed, name
        assert any("FAIL (expected seq " in line for line in report), name


def test_verify_log_names_the_expected_seq_and_passes_a_cut_stream(bundled_logs):
    lines = bundled_logs["honest_4_bidders"]
    report, passed = verify.verify_log(lines[:2] + lines[3:])
    assert not passed
    assert "event BidderEnvelope     seq=3   FAIL (expected seq 2)" in report
    assert report[-1] == "verify-log: FAIL (9 event(s), 7 failure(s))"
    # `seq` cannot tell a stream cut after its last event from one still running
    assert verify.verify_log(lines[:-1])[1]


def undecodable_log(tmp_path):
    """A clean log whose second line holds a byte that is not UTF-8."""
    log = run_logged("honest_4_bidders", tmp_path / "out")
    lines = log.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"event":"', b'"event":"\xff', 1)
    log.write_bytes(b"\n".join(lines))
    return log


def non_utf8_scenario(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes((SCENARIOS / "honest_4_bidders.yaml").read_bytes()
                     + b"# caf\xe9\n")
    return path


UNREADABLE = [
    ("verify_log_missing", lambda tmp: ["verify-log", str(tmp / "missing.jsonl")], 2),
    ("run_not_utf8", lambda tmp: ["run", str(non_utf8_scenario(tmp))], 2),
    ("oracle_not_utf8", lambda tmp: ["oracle", str(non_utf8_scenario(tmp))], 2),
    ("plot_missing_directory", lambda tmp: ["plot", "--out", str(tmp / "no" / "plot.csv")], 2),
    ("verify_log_not_utf8", lambda tmp: ["verify-log", str(undecodable_log(tmp))], 1),
]


@pytest.mark.parametrize("argv, code", [case[1:] for case in UNREADABLE],
                         ids=[case[0] for case in UNREADABLE])
def test_a_file_that_cannot_be_read_or_written_ends_without_a_traceback(
        argv, code, tmp_path, capsys):
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:  # a configuration error: one line on stderr
        assert captured.err.startswith("configuration error: ")
        assert captured.err.count("\n") == 1, captured.err
    else:  # a log that is not UTF-8 fails as one that is not JSON does
        assert captured.out.splitlines() == ["line 2 FAIL (not UTF-8)"]


@pytest.mark.parametrize("where", ["endpoint"])
def test_oracle_rejects_an_unknown_behavior(where, tmp_path, capsys):
    doc = yaml.safe_load((SCENARIOS / "honest_4_bidders.yaml").read_text())
    doc["endpoints"][0]["behavior"] = "lie"
    path = tmp_path / "lie.yaml"
    path.write_text(yaml.safe_dump(doc))
    capsys.readouterr()
    assert main(["oracle", str(path)]) == 2
    assert "unknown endpoint behavior 'lie'" in capsys.readouterr().err


@pytest.mark.parametrize("quorum, message", [
    ({"sample_size": 0, "agreement_quorum": 0}, "sample_size must be in [1, "),
    ({"sample_size": 3, "agreement_quorum": 5}, "agreement_quorum must be in [1, sample_size]"),
], ids=["no_sample", "quorum_above_sample"])
def test_oracle_rejects_an_impossible_quorum(quorum, message, tmp_path, capsys):
    doc = yaml.safe_load((SCENARIOS / "honest_4_bidders.yaml").read_text())
    doc.setdefault("quorum", {}).update(quorum)
    path = tmp_path / "quorum.yaml"
    path.write_text(yaml.safe_dump(doc))
    for command in ("oracle", "run"):
        capsys.readouterr()
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err
        assert err.count("\n") == 1, err


def scenario_with(tmp_path, key, value):
    """honest_4_bidders with the value at `key` (dotted; a number indexes a
    list) replaced, written to a file."""
    doc = yaml.safe_load((SCENARIOS / "honest_4_bidders.yaml").read_text())
    *outer, last = [int(part) if part.isdigit() else part for part in key.split(".")]
    holder = doc
    for part in outer:
        holder = holder[part]
    holder[last] = value
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


REJECTED = [
    ("auction.resolution_mode", "bogus", "unknown resolution mode 'bogus'"),
    ("auction.kappa", -1, "kappa/gas_price/proposal_window out of range"),
    ("auction.gas_price", -1, "kappa/gas_price/proposal_window out of range"),
    ("auction.proposal_window", 0, "kappa/gas_price/proposal_window out of range"),
    ("auction.token_id", -1, "token_id and chain_id must be non-negative"),
    ("chain.chain_id", -1, "token_id and chain_id must be non-negative"),
    ("chain.finality_depth", 0, "finality_depth must be >= 1"),
    ("chain.tx_gas", -1, "tx_gas must be non-negative"),
    ("auctioneer.balance", -5, "genesis balance must be non-negative"),
    # removed inputs: an old document fails instead of running without them
    ("bidders.0.balance", -5, "bidders[0]: unknown keys ['balance']"),
    ("quorum.fallback", "honest", "quorum: unknown keys ['fallback']"),
    ("endpoints.0.value", 5, "endpoints[0]: unknown keys ['value']"),
    ("bidders.0.registration_height", "8",
     "bidders[0].registration_height: expected int, got '8'"),
    ("auction.deadline_height", "x", "auction.deadline_height: expected int, got 'x'"),
    ("seed", "abc", "seed: expected int, got 'abc'"),
    ("bidders.0.funding", 1.5, "bidders[0].funding: expected int, got 1.5"),
    ("endpoints.0.probability", "p", "endpoints[0].probability: expected float, got 'p'"),
    ("endpoints.0.probability", 1.5, "endpoints[0]: probability 1.5 is not in [0, 1]"),
    ("endpoints.0.probability", -0.1, "endpoints[0]: probability -0.1 is not in [0, 1]"),
    ("endpoints.0.probability", float("nan"),
     "endpoints[0]: probability nan is not in [0, 1]"),
    # a setting that the endpoint's behavior never reads
    ("endpoints.0", {"id": "ep0", "offset": 5},
     "endpoints[0]: offset applies only to misreport_* behaviors"),
    ("endpoints.0", {"id": "ep0", "behavior": "withhold", "offset": 9},
     "endpoints[0]: offset applies only to misreport_* behaviors"),
    ("endpoints.0", {"id": "ep0", "behavior": "misreport_balance", "offset": 7,
                     "probability": 0.5},
     "endpoints[0]: probability applies only to the withhold behavior"),
    ("endpoints.0.probability", 0.5,
     "endpoints[0]: probability applies only to the withhold behavior"),
    ("faults", {"reorgs": [{"at_height": 9, "depth": 1, "censor": ["nobody:funding"]}]},
     "reorg censors 'nobody:funding', which names no bidder transfer"),
    ("auction.kappa", True, "auction.kappa: expected int, got True"),
    ("faults", {"compromise_enclave": "yes"},
     "faults.compromise_enclave: expected bool, got 'yes'"),
    # a misspelt section, and a section that is not a list
    ("bidder", [], "scenario: unknown keys ['bidder']"),
    ("bidders", 1.5, "bidders: expected a list, got 1.5"),
    ("endpoints", 1.5, "endpoints: expected a list, got 1.5"),
    ("proposals", 2, "proposals: expected a list, got 2"),
    ("faults", {"reorgs": 1}, "faults.reorgs: expected a list, got 1"),
    # a transfer past deadline + kappa + proposal_window (12 + 6 + 10)
    ("bidders.3.funding_height", 29,
     "bidder 'dave': transfer at height 29 is past the limit 28"),
    ("bidders.3.funding_height", 2**64,
     "bidder 'dave': transfer at height %d is past the limit 28" % 2**64),
    # a reorg past the same limit
    ("faults", {"reorgs": [{"at_height": 29, "depth": 1}]},
     "reorg at height 29 is past the limit 28"),
    ("faults", {"reorgs": [{"at_height": 2**64, "depth": 1}]},
     "reorg at height %d is past the limit 28" % 2**64),
    ("seed", 2**127, "seed %d is outside the signed 128-bit range" % 2**127),
    ("seed", -2**127 - 1, "seed %d is outside the signed 128-bit range" % (-2**127 - 1)),
]


@pytest.mark.parametrize("key, value, message", REJECTED,
                         ids=["%s=%s" % (key, value) for key, value, _ in REJECTED])
def test_oracle_and_run_reject_what_the_engine_rejects(key, value, message, tmp_path,
                                                        capsys):
    path = scenario_with(tmp_path, key, value)
    for command in ("oracle", "run"):
        capsys.readouterr()
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err
        assert err.count("\n") == 1, err


def test_a_transfer_at_the_height_limit_loads(tmp_path, capsys):
    path = scenario_with(tmp_path, "bidders.3.funding_height", 28)
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "winner: carol"


def test_a_reorg_at_the_height_limit_loads(tmp_path, capsys):
    path = scenario_with(tmp_path, "faults", {"reorgs": [{"at_height": 28, "depth": 1}]})
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "winner: carol"


def test_run_of_a_breach_with_no_bidders_exits_0(tmp_path, capsys):
    doc = yaml.safe_load((SCENARIOS / "enclave_compromise.yaml").read_text())
    doc["bidders"] = []
    path = tmp_path / "breach.yaml"
    path.write_text(yaml.safe_dump(doc))
    capsys.readouterr()
    assert main(["run", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "Traceback" not in captured.out


def test_run_rejects_a_seed_outside_the_signed_128_bit_range(capsys):
    argv = ["run", str(SCENARIOS / "honest_1_bidder.yaml"), "--seed", str(2**127)]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "configuration error: seed %d is outside the signed 128-bit range\n" % 2**127


def test_a_float_field_takes_an_int(tmp_path, capsys):
    path = scenario_with(tmp_path, "endpoints.0.probability", 1)
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "winner: carol"


def test_the_usage_block_names_every_subcommand_and_flag():
    """Each `sealedbid <command>` line of the module docstring names the
    command's flags and positional arguments, and no others."""
    documented = {}
    for line in cli.__doc__.splitlines():
        match = re.fullmatch(r"    sealedbid (\S+)(.*)", line)
        if match:
            command, rest = match.groups()
            documented[command] = (set(re.findall(r"--[a-z][a-z-]*", rest)),
                                   len(re.findall(r"<[^>]+>", rest)))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    accepted = {
        command: ({flag for action in parser._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"},
                  sum(1 for action in parser._actions if not action.option_strings))
        for command, parser in subparsers.choices.items()}
    assert documented == accepted


def test_plot_writes_the_gas_grid(tmp_path, capsys):
    out = tmp_path / "plot.csv"
    assert main(["plot", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "wrote 80 data rows to %s\n" % out
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mode", "pricing", "bidders", "operation", "layer", "gas"]
    assert [(mode, pricing) for mode, pricing, *_ in rows[1::20]] == [
        ("exhaustive", "default"), ("exhaustive", "adjusted"),
        ("proposer", "default"), ("proposer", "adjusted")]
    assert [int(row[2]) for row in rows[1:21]] == list(range(1, 21))
    assert rows[1] == ["exhaustive", "default", "1", "end_auction", "execution", "651800"]
    assert rows[40] == ["exhaustive", "adjusted", "20", "end_auction", "execution", "3600800"]
    assert {row[5] for row in rows[41:]} == {"398827"}


def sealedbid_imports(module):
    """The package modules that `module`'s source imports."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "sealedbid":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("sealedbid."):
            imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("sealedbid."))
    return imported


def test_the_public_record_rules_read_only_the_public_record():
    """`verify.py` imports only enclave, errors, events and transactions
    from the package, and `cli.py` none of enclave, events and
    transactions. The sources are parsed: importing any package module
    runs `sealedbid/__init__.py`, which imports the engine, so
    `sys.modules` cannot show what one module imports."""
    assert sealedbid_imports(verify) == {"enclave", "errors", "events", "transactions"}
    assert not sealedbid_imports(cli) & {"enclave", "events", "transactions"}
