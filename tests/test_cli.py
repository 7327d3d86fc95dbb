"""The command-line interface, through `main`."""

import json
from pathlib import Path

import pytest
import yaml

from sealedbid.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_logged(name, out_dir):
    assert main(["run", str(SCENARIOS / ("%s.yaml" % name)),
                 "--out-dir", str(out_dir)]) == 0
    return out_dir / "events.jsonl"


@pytest.mark.parametrize("name", ["honest_4_bidders", "proposer_4_bidders"])
def test_verify_log_accepts_a_clean_log(name, tmp_path, capsys):
    log = run_logged(name, tmp_path)
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.rstrip().splitlines()[-1].startswith("verify-log: PASS")


def test_verify_log_reports_an_escrow_shown_before_disclosure(tmp_path, capsys):
    log = run_logged("honest_4_bidders", tmp_path)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    escrow = next(r for r in records if r["event"] == "Resolved")["bidder_set"][2]
    opened = next(r for r in records if r["event"] == "Open")
    opened["note"] = "escrow %s" % escrow
    log.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                           + "\n" for r in records))
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 1
    out = capsys.readouterr().out
    assert "confidentiality FAIL: escrow of %s leaked before disclosure" % escrow in out


def test_verify_log_reports_an_escrow_inside_a_longer_hex_run(tmp_path, capsys):
    log = run_logged("honest_4_bidders", tmp_path)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    escrow = next(r for r in records if r["event"] == "Resolved")["bidder_set"][1]
    envelope = next(r for r in records if r["event"] == "BidderEnvelope")
    envelope["ciphertext"] = "0x9e33%s%s" % (escrow[2:].upper(), envelope["ciphertext"][2:])
    log.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                           + "\n" for r in records))
    capsys.readouterr()
    assert main(["verify-log", str(log)]) == 1
    out = capsys.readouterr().out
    assert "confidentiality FAIL: escrow of %s leaked before disclosure" % escrow in out


@pytest.mark.parametrize("case", ["bad_hex", "not_json", "no_code_hash"])
def test_verify_log_reports_malformed_input(case, tmp_path, capsys):
    log = run_logged("honest_4_bidders", tmp_path)
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    if case == "bad_hex":
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
    assert any(line.startswith(named) and "FAIL" in line for line in out.splitlines()), out


@pytest.mark.parametrize("where", ["endpoint", "fallback"])
def test_oracle_rejects_an_unknown_behavior(where, tmp_path, capsys):
    doc = yaml.safe_load((SCENARIOS / "honest_4_bidders.yaml").read_text())
    if where == "endpoint":
        doc["endpoints"][0]["behavior"] = "lie"
    else:
        doc.setdefault("quorum", {})["fallback"] = "lie"
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
    capsys.readouterr()
    assert main(["oracle", str(path)]) == 2
    assert message in capsys.readouterr().err
