"""The scenario runner's own checks and its report on an aborted run."""

import json
from pathlib import Path

import pytest
import yaml

from sealedbid import crypto
from sealedbid.events import canonical
from sealedbid.harness import pre_disclosure_leaks, run_scenario, stated_numbers

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("record", [
    {"amount": 92000},
    {"amount": "92000"},
    {"note": "bidder b5 pays 92000 at height 9"},
    {"amount": hex(92000)},
    {"values": [1, {"92000": None}]},
])
def test_a_stated_bid_is_found(record):
    assert 92000 in stated_numbers([record])


@pytest.mark.parametrize("record", [
    {"ciphertext": "0x9e33fb92000e202c"},
    {"amount": True},
    {"note": "reference 920001"},
    {"amount": 920001},
])
def test_digits_that_state_no_bid_are_not_found(record):
    assert 92000 not in stated_numbers([record])


def test_leaks_are_cut_at_the_first_disclosure_event():
    escrow = bytes(range(20))
    records = [
        {"event": "BidderEnvelope", "ciphertext": "0x77"},
        {"event": "ProposalsOpened", "window_end_height": 20},
        {"event": "ProposalAccepted", "candidate": "0x" + escrow.hex(),
         "amount": 92000},
    ]
    escrows, bids = {"b5": escrow}, [("b5", 92000)]
    assert pre_disclosure_leaks(records, [canonical(r) for r in records],
                                escrows, bids) == []
    records[0].update(ciphertext="0x77%s77" % escrow.hex(), amount=92000)
    assert pre_disclosure_leaks(records, [canonical(r) for r in records],
                                escrows, bids) == [
        "escrow of b5 leaked before disclosure",
        "bid value 92000 of b5 visible pre-resolution"]


@pytest.mark.parametrize("seed", [179, 1055, 1513])
def test_bid_digits_inside_ciphertext_are_not_a_leak(seed):
    # each seed puts one bid's decimal digits inside the hex of an envelope
    report = run_scenario(SCENARIOS / "honest_10_bidders.yaml", seed=seed)
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


def test_a_quorum_failure_still_gives_a_report_and_logs(make_runner, tmp_path):
    doc = yaml.safe_load((SCENARIOS / "misreporting_minority.yaml").read_text())
    doc["endpoints"] = [
        {"id": "honest"},
        {"id": "withhold-a", "behavior": "withhold", "probability": 0.5},
        {"id": "withhold-b", "behavior": "withhold", "probability": 0.5},
    ]
    runner = make_runner(**doc)
    runner.out_dir = tmp_path
    report = runner.run()
    assert report.flags["quorum_failure"].startswith("Quorum")
    liveness = [c for c in report.checks if c.name == "liveness"]
    assert len(liveness) == 1 and not liveness[0].passed
    assert report.flags["quorum_failure"] in liveness[0].detail
    assert not report.passed
    for name in ("events.jsonl", "audit.jsonl", "gas.csv", "report.json"):
        assert (tmp_path / name).exists()
    assert (tmp_path / "audit.jsonl").read_text().count("\n") == report.counters["queries"]


def test_the_report_names_its_crypto_backend(tmp_path):
    report = run_scenario(SCENARIOS / "honest_1_bidder.yaml", out_dir=tmp_path)
    assert report.backend == crypto.IMPLEMENTATION
    assert report.to_dict()["backend"] == crypto.IMPLEMENTATION
    assert json.loads((tmp_path / "report.json").read_text())["backend"] == \
        crypto.IMPLEMENTATION
    assert report.format_text().splitlines()[0] == \
        "scenario honest_1_bidder (seed %d, %s crypto): PASS" % (report.seed,
                                                                 crypto.IMPLEMENTATION)
