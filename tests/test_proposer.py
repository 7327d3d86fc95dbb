"""Proposer-mode resolution driven through the scenario runner."""

import gc
import weakref
from pathlib import Path

import pytest
import yaml

from sealedbid import harness
from sealedbid.auction import AuctionState
from sealedbid.errors import QuorumFailure
from sealedbid.proposer import STATUS_OPEN, finalize_proposals

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_failed_settlement_query_leaves_finalization_retryable(make_runner,
                                                               monkeypatch):
    doc = yaml.safe_load((SCENARIOS / "proposer_4_bidders.yaml").read_text())
    runner = make_runner(**doc)
    first_attempt = {}

    def finalize_after_one_failure(phase, quorum):
        real_query = quorum.query_funding_source

        def failing_query(*args, **kwargs):
            quorum.query_funding_source = real_query
            raise QuorumFailure("injected: no value reached the agreement quorum")

        quorum.query_funding_source = failing_query
        with pytest.raises(QuorumFailure):
            finalize_proposals(phase, quorum)
        first_attempt["state"] = phase.auction.state
        first_attempt["status"] = phase.status
        return finalize_proposals(phase, quorum)

    monkeypatch.setattr(harness, "finalize_proposals", finalize_after_one_failure)
    report = runner.run()
    assert first_attempt == {"state": AuctionState.CLOSED, "status": STATUS_OPEN}
    assert report.final_state == "Claimed"
    assert report.winner["bidder"] == "carol"
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


def test_a_finished_auction_is_freed_without_the_cycle_collector(make_runner):
    # the phase refers back to its auction weakly, so dropping the runner
    # frees the auction, its enclave and its logs at once
    doc = yaml.safe_load((SCENARIOS / "proposer_4_bidders.yaml").read_text())
    runner = make_runner(**doc)
    assert runner.run().passed
    auction = weakref.ref(runner.auction)
    gc.disable()
    try:
        del runner
        assert auction() is None
    finally:
        gc.enable()
