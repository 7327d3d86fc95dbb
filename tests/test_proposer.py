"""Proposer-mode resolution driven through the scenario runner."""

import gc
import weakref
from pathlib import Path

import pytest
import yaml

from sealedbid import harness
from sealedbid.auction import AuctionState
from sealedbid.errors import QuorumFailure, StateError
from sealedbid.proposer import (
    REJECT_NOT_HIGHER,
    REJECT_UNKNOWN_ESCROW,
    REJECT_WINDOW_EXPIRED,
    REJECT_ZERO_BALANCE,
    STATUS_OPEN,
    finalize_proposals,
    open_proposals,
    submit_proposal,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_failed_settlement_query_leaves_finalization_retryable(make_runner,
                                                               monkeypatch):
    doc = yaml.safe_load((SCENARIOS / "proposer_4_bidders.yaml").read_text())
    runner = make_runner(**doc)
    first_attempt = {}

    def finalize_after_one_failure(auction):
        quorum = auction.quorum
        real_query = quorum.query_funding_source

        def failing_query(*args, **kwargs):
            quorum.query_funding_source = real_query
            raise QuorumFailure("injected: no value reached the agreement quorum")

        quorum.query_funding_source = failing_query
        with pytest.raises(QuorumFailure):
            finalize_proposals(auction)
        first_attempt["state"] = auction.state
        first_attempt["status"] = auction.proposal_phase.status
        return finalize_proposals(auction)

    monkeypatch.setattr(harness, "finalize_proposals", finalize_after_one_failure)
    report = runner.run()
    assert first_attempt == {"state": AuctionState.CLOSED, "status": STATUS_OPEN}
    assert report.final_state == "Claimed"
    assert report.winner["bidder"] == "carol"
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


def test_a_finished_auction_is_freed_without_the_cycle_collector(make_runner):
    # the phase does not refer back to its auction, so dropping the runner
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


@pytest.mark.parametrize("name, message", [
    ("honest_4_bidders", "no proposal phase is open"),
    ("proposer_4_bidders", "proposal phase is finalized"),
])
def test_proposals_need_an_open_phase(make_runner, name, message):
    runner = make_runner(**yaml.safe_load((SCENARIOS / ("%s.yaml" % name)).read_text()))
    assert runner.run().passed
    escrow = next(iter(runner.escrows.values()))
    with pytest.raises(StateError, match=message):
        submit_proposal(runner.auction, escrow)
    with pytest.raises(StateError, match=message):
        finalize_proposals(runner.auction)


def drive_proposals(runner, proposals):
    """Run `runner` to the end, with `proposals`, (blocks after the phase
    opens, bidder name or raw address) in order, as the proposal phase.
    Returns the report, each proposal's (accepted, reason) and the leader
    when the window closed."""
    seen = {"outcomes": []}

    def run_proposals():  # stands in for ScenarioRunner._run_proposals
        phase = open_proposals(runner.auction)
        opened_at = runner.chain.head_height
        for after_open, candidate in proposals:
            runner._advance_to(opened_at + after_open)
            escrow = runner.escrows.get(candidate, candidate)
            seen["outcomes"].append(submit_proposal(runner.auction, escrow))
        runner._advance_to(phase.window_end_height)
        seen["leader"] = phase.current_leader
        finalize_proposals(runner.auction)

    runner._run_proposals = run_proposals
    return runner.run(), seen["outcomes"], seen["leader"]


def test_each_rejection_reason_occurs(make_runner):
    doc = yaml.safe_load((SCENARIOS / "proposer_4_bidders.yaml").read_text())
    del doc["proposals"]
    # "late" funds its escrow after the deadline, so its bid is zero
    doc["bidders"].append({"name": "late", "registration_height": 8,
                           "funding": 400_000, "funding_height": 14})
    runner = make_runner(**doc)
    window = doc["auction"]["proposal_window"]
    report, outcomes, leader = drive_proposals(runner, [
        (1, "bob"), (2, "alice"), (3, b"\x5e" * 20), (4, "late"), (5, "dave"),
        (window, "carol")])
    assert outcomes == [
        (True, None),
        (True, None),                         # 900,000 displaces 750,000
        (False, REJECT_UNKNOWN_ESCROW),
        (False, REJECT_ZERO_BALANCE),
        (False, REJECT_NOT_HIGHER),           # 500,000 is below the leader
        (False, REJECT_WINDOW_EXPIRED),       # carol's top bid comes too late
    ]
    assert [r["reason"] for r in runner.events.records
            if r["event"] == "ProposalRejected"] == [
        REJECT_UNKNOWN_ESCROW, REJECT_ZERO_BALANCE, REJECT_NOT_HIGHER,
        REJECT_WINDOW_EXPIRED]
    assert leader[0].escrow_address == runner.escrows["alice"]
    assert report.winner["bidder"] == "alice"
    assert report.final_state == "Claimed"
    # only the winner differs from the oracle's, which knows carol's bid
    assert {c.name for c in report.checks if not c.passed} == {
        "expected_winner", "oracle_agreement"}


@pytest.mark.parametrize("order", [("first_nine", "later_nine"),
                                   ("later_nine", "first_nine")])
def test_equal_proposals_leave_the_leader_rank_key_picks(make_runner, order):
    # tie_break: first_nine and later_nine both bid 900,000, reached at
    # heights 9 and 11
    doc = yaml.safe_load((SCENARIOS / "tie_break.yaml").read_text())
    exhaustive = make_runner(**doc).run()
    assert exhaustive.winner["bidder"] == "first_nine"
    doc["auction"]["resolution_mode"] = "proposer"
    runner = make_runner(**doc)
    report, outcomes, leader = drive_proposals(runner, [(1, order[0]), (2, order[1])])
    tied = [runner.auction.entry_for(runner.escrows[name]) for name in order]
    picked = min(tied, key=lambda entry: runner.auction.rank_key(entry, 900_000))
    assert leader == (picked, 900_000)
    assert picked.escrow_address == runner.escrows["first_nine"]
    assert outcomes == ([(True, None), (False, REJECT_NOT_HIGHER)]
                        if order[0] == "first_nine" else [(True, None), (True, None)])
    assert report.winner == exhaustive.winner
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
