"""The command-line interface, through `main`."""

import json
from pathlib import Path

import pytest

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
