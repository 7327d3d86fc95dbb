"""The invariant suite fails on a fault, and only on a fault.

Each check name the runner's suite can emit maps to a scripted fault or
an in-test mutation of the engine that makes that check fail. A census
keeps the table whole: the names emitted over the table's runs and the
bundled scenarios must be its keys, so a check added without a fault
that trips it fails here. The other direction is held by runs with no
fault in them: each must pass every check.
"""

from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from sealedbid import auction as auction_module
from sealedbid.auction import AuctionInstance
from sealedbid.chain import SimChain
from sealedbid.events import hx
from sealedbid.harness import ScenarioRunner, oracle_resolve, run_scenario
from sealedbid.scenario import scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bundled(name):
    return yaml.safe_load((SCENARIOS / ("%s.yaml" % name)).read_text())


def runner_of(doc):
    return ScenarioRunner(scenario_from_dict(doc))


# -- one fault per check: each takes a MonkeyPatch and returns a runner -------

def withholding_majority(monkeypatch):
    """Two of three endpoints time out half the time: a query fails."""
    doc = bundled("misreporting_minority")
    doc["endpoints"] = [
        {"id": "honest"},
        {"id": "withhold-a", "behavior": "withhold", "probability": 0.5},
        {"id": "withhold-b", "behavior": "withhold", "probability": 0.5},
    ]
    return runner_of(doc)


def asset_never_escrowed(monkeypatch):
    """The auctioneer never escrows the asset, so the auction never opens."""
    doc = bundled("honest_4_bidders")
    doc["auctioneer"]["escrow_asset"] = False
    return runner_of(doc)


def top_bid_never_proposed(monkeypatch):
    """Nobody proposes carol, the top bidder."""
    doc = bundled("proposer_4_bidders")
    doc["proposals"] = [p for p in doc["proposals"] if p["candidate"] != "carol"]
    return runner_of(doc)


def colluding_quorum_unflagged(monkeypatch):
    """Two of three endpoints inflate balances alike; the scenario does
    not declare the divergence it causes."""
    doc = bundled("colluding_quorum")
    del doc["expect"]["oracle_divergence"]
    return runner_of(doc)


def expected_collusion_absent(monkeypatch):
    """The scenario declares a divergence, but every endpoint is honest."""
    doc = bundled("colluding_quorum")
    doc["endpoints"] = [{"id": e["id"]} for e in doc["endpoints"]]
    return runner_of(doc)


def cutoff_answer_one_high(monkeypatch):
    """Every nonzero cutoff balance comes back one unit high, so the
    winner's payment exceeds its escrow."""
    real = AuctionInstance.cutoff_balance

    def cutoff_balance(auction, escrow):
        balance = real(auction, escrow)
        return balance + 1 if balance else 0

    monkeypatch.setattr(AuctionInstance, "cutoff_balance", cutoff_balance)
    return runner_of(bundled("honest_4_bidders"))


def chain_burns_fees(monkeypatch):
    """The chain charges each fee but does not collect it."""
    real = SimChain._apply

    def apply(chain, state, tx, sender):
        applied = real(chain, state, tx, sender)
        if applied:
            state.fees_collected -= chain.tx_fee(tx)
        return applied

    monkeypatch.setattr(SimChain, "_apply", apply)
    return runner_of(bundled("honest_4_bidders"))


def refund_payload_dropped(monkeypatch):
    """The enclave publishes the settlement without its first refund."""
    real = AuctionInstance.settlement_for

    def settlement_for(auction, winner, amount):
        result = real(auction, winner, amount)
        refund = next(stx for stx in result.settlement_txs if stx.role == "refund")
        result.settlement_txs.remove(refund)
        return result

    monkeypatch.setattr(AuctionInstance, "settlement_for", settlement_for)
    return runner_of(bundled("honest_4_bidders"))


def signed_one_unit_short(to_auctioneer):
    """An `_sign_transfer` that signs each plain transfer to the
    auctioneer, or else each one to anyone else, one unit short."""
    real = AuctionInstance._sign_transfer

    def sign_transfer(auction, handle, nonce, to, value, data=b""):
        if not data and (to == auction.config.auctioneer_address) == to_auctioneer:
            value -= 1
        return real(auction, handle, nonce, to, value, data)

    return sign_transfer


def refund_one_unit_short(monkeypatch):
    """Each refund (and excess return) is signed one unit short."""
    monkeypatch.setattr(AuctionInstance, "_sign_transfer", signed_one_unit_short(False))
    return runner_of(bundled("honest_4_bidders"))


def payment_one_unit_short(monkeypatch):
    """The winner's payment to the auctioneer is signed one unit short."""
    monkeypatch.setattr(AuctionInstance, "_sign_transfer", signed_one_unit_short(True))
    return runner_of(bundled("honest_4_bidders"))


def asset_sent_to_auctioneer(monkeypatch):
    """The asset claim names the auctioneer instead of the winner."""
    runner = runner_of(bundled("honest_4_bidders"))
    real = auction_module.asset_transfer_data
    monkeypatch.setattr(auction_module, "asset_transfer_data",
                        lambda token_id, _: real(token_id, runner.auctioneer.address))
    return runner


def escrow_in_closed_event(monkeypatch):
    """The `Closed` event, before disclosure, names the first escrow."""
    runner = runner_of(bundled("honest_4_bidders"))
    real = AuctionInstance.emit

    def emit(auction, event, **fields):
        if event == "Closed":
            fields["note"] = hx(next(iter(runner.escrows.values())))
        return real(auction, event, **fields)

    monkeypatch.setattr(AuctionInstance, "emit", emit)
    return runner


def bid_paid_in_two_transfers(monkeypatch):
    """Each bidder pays one unit of its bid in a transfer of its own,
    in the same block as the rest."""
    real = ScenarioRunner._transfer

    def transfer(runner, sender, key, to, value, data=b""):
        if to in runner.escrows.values() and value > 1:
            runner.chain.submit_tx(real(runner, sender, key, to, 1))
            value -= 1
        return real(runner, sender, key, to, value, data)

    monkeypatch.setattr(ScenarioRunner, "_transfer", transfer)
    return runner_of(bundled("honest_4_bidders"))


FAULTS = {
    "liveness": withholding_majority,
    "final_state": asset_never_escrowed,
    "expected_winner": top_bid_never_proposed,
    "oracle_agreement": colluding_quorum_unflagged,
    "oracle_divergence_flagged": expected_collusion_absent,
    "conservation_ledger": cutoff_answer_one_high,
    "supply_conservation": chain_burns_fees,
    "escrows_drained": refund_payload_dropped,
    "bidder_refunds_exact": refund_one_unit_short,
    "auctioneer_payment": payment_one_unit_short,
    "asset_delivery": asset_sent_to_auctioneer,
    "confidentiality": escrow_in_closed_event,
    "non_interactivity": bid_paid_in_two_transfers,
}


@pytest.fixture(scope="module")
def fault_reports():
    """The report of each fault's run, by the check it should fail."""
    reports = {}
    for name, fault in FAULTS.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            reports[name] = fault(monkeypatch).run()
    return reports


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_check_fails_on_its_fault(name, fault_reports):
    failed = {c.name for c in fault_reports[name].checks if not c.passed}
    assert name in failed, (FAULTS[name].__doc__, failed)


def test_every_check_the_suite_emits_has_a_fault(fault_reports):
    reports = list(fault_reports.values()) + [
        run_scenario(path) for path in sorted(SCENARIOS.glob("*.yaml"))]
    assert {c.name for report in reports for c in report.checks} == set(FAULTS)


def test_a_refund_paid_to_a_stranger_fails_only_the_refund_check(monkeypatch):
    # the escrows are drained and the ledger balances, so only the
    # wallets, checked against the script, show it
    real = AuctionInstance._sign_transfer

    def sign_transfer(auction, handle, nonce, to, value, data=b""):
        if not data and to != auction.config.auctioneer_address:
            to = b"\x5e" * 20
        return real(auction, handle, nonce, to, value, data)

    monkeypatch.setattr(AuctionInstance, "_sign_transfer", sign_transfer)
    report = runner_of(bundled("honest_4_bidders")).run()
    assert report.final_state == "Claimed"
    assert {c.name for c in report.checks if not c.passed} == {"bidder_refunds_exact"}


# -- runs with no fault pass every check --------------------------------------

NO_FAULT = {
    # the misreporter is never asked a balance: there are no bidders
    "misreporter_without_bidders": {
        "name": "misreporter_without_bidders",
        "endpoints": [{"id": "ep0", "behavior": "misreport_balance", "offset": 1}]
                     + [{"id": "ep%d" % i} for i in range(1, 5)],
    },
    # a misreporter whose offset is 0 answers the truth
    "misreporter_offset_0": {
        "name": "misreporter_offset_0",
        "endpoints": [{"id": "ep0", "behavior": "misreport_balance", "offset": 0},
                      {"id": "ep1"}, {"id": "ep2"}],
        "bidders": [{"name": "b0", "registration_height": 8, "funding": 5000,
                     "funding_height": 10},
                    {"name": "b1", "registration_height": 9, "funding": 7000,
                     "funding_height": 11}],
    },
    # the zero-value funding transfer still is the bidder's one transfer
    "zero_funding": {
        "name": "zero_funding",
        "endpoints": [{"id": "ep%d" % i} for i in range(3)],
        "bidders": [{"name": "b0", "registration_height": 8, "funding": 0,
                     "funding_height": 10}],
    },
}


@pytest.mark.parametrize("name", sorted(NO_FAULT))
def test_a_run_without_a_fault_passes(name):
    report = runner_of(NO_FAULT[name]).run()
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


def test_a_zero_funding_counts_as_the_bidders_one_transfer():
    report = runner_of(NO_FAULT["zero_funding"]).run()
    check = next(c for c in report.checks if c.name == "non_interactivity")
    assert check.passed and "[('b0', 1)]" in check.detail


# Two colluding height misreporters (f = q, outside the trust assumption)
# make the agreed head lag one block behind the challenge window's end.
LAGGING_HEAD = {
    "name": "fz489", "seed": 236205,
    "auction": {"deadline_height": 12, "kappa": 4,
                "resolution_mode": "proposer", "proposal_window": 5},
    "chain": {"finality_depth": 2},
    "quorum": {"sample_size": 3, "agreement_quorum": 2},
    "endpoints": [{"id": "ep0", "behavior": "misreport_height", "offset": -1},
                  {"id": "ep1", "behavior": "misreport_height", "offset": -1},
                  {"id": "ep2"}, {"id": "ep3"}, {"id": "ep4"}],
    "bidders": [{"name": "b0", "registration_height": 5, "funding": 5000,
                 "funding_height": 14, "topup": 14, "topup_height": 18},
                {"name": "b1", "registration_height": 11, "funding": 5000,
                 "funding_height": 14}],
    "proposals": [{"candidate": "b1", "after_open": 4},
                  {"candidate": "b0", "after_open": 3}],
}


def test_a_window_the_agreed_head_has_not_passed_fails_liveness():
    report = runner_of(LAGGING_HEAD).run()
    assert report.final_state == "Closed"
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["liveness"]
    assert failed[0].detail == ("lifecycle stopped by StateError: "
                                "challenge window is open until height 27")


def ahead_of_the_chain(offset, honest, bidders, **sections):
    """Honest endpoints, then two colluding height misreporters with one
    positive offset (f = q, outside the trust assumption), which put the
    agreed head ahead of the chain; bidders are (name, registration
    height, funding, funding height)."""
    doc = {"name": "ahead", "auction": {"deadline_height": 12, "kappa": 2},
           "endpoints": [{"id": "ep%d" % i} for i in range(honest)]
           + [{"id": "liar%d" % i, "behavior": "misreport_height", "offset": offset}
              for i in range(2)],
           "bidders": [{"name": name, "registration_height": at, "funding": funding,
                        "funding_height": funded_at}
                       for name, at, funding, funded_at in bidders]}
    doc.update(sections)
    return doc


# name -> (scenario, final state, what stops the lifecycle)
AHEAD = {
    "registration_past_the_agreed_deadline": (
        ahead_of_the_chain(2, 1, [("a", 4, 5000, 5), ("b", 10, 6000, 11)]),
        "Open", "RegistrationError: registration after the deadline is rejected"),
    "balance_asked_past_the_head": (
        ahead_of_the_chain(3, 3, [("a", 4, 5000, 5), ("b", 5, 6000, 9)], seed=1),
        "Closed", "QuorumFailure: no value reached the agreement quorum"),
    "deadline_behind_the_agreed_head": (
        ahead_of_the_chain(20, 1, [("a", 4, 5000, 11)]),
        "Init", "StateError: deadline height 12 is not past the settlement head 20"),
    "asset_owner_asked_past_the_head": (
        ahead_of_the_chain(3, 1, [("a", 10, 5000, 11)]),
        "Deployed", "QuorumFailure: no value reached the agreement quorum"),
    # the lying head rejects b1's registration at height 7 and the run
    # stops before b0's funding height: no interaction check may fail
    "registration_stops_before_every_funding": (
        {"name": "stopped_open", "seed": 92,
         "auction": {"deadline_height": 9, "kappa": 1},
         "endpoints": [{"id": "ep0"},
                       {"id": "liar1", "behavior": "misreport_height", "offset": 3},
                       {"id": "liar0", "behavior": "misreport_height", "offset": 3},
                       {"id": "ep1"}, {"id": "ep2"}],
         "bidders": [{"name": "b0", "registration_height": 6, "funding": 1500,
                      "funding_height": 9},
                     {"name": "b1", "registration_height": 7, "funding": 5000,
                      "funding_height": 10},
                     {"name": "b2", "registration_height": 3, "funding": 1500,
                      "funding_height": 6}]},
        "Open", "RegistrationError: registration after the deadline is rejected"),
}


@pytest.mark.parametrize("name", sorted(AHEAD))
def test_a_head_agreed_ahead_of_the_chain_fails_liveness(name):
    doc, final_state, stopped_by = AHEAD[name]
    report = runner_of(doc).run()
    assert report.final_state == final_state
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["liveness"]
    assert failed[0].detail == "lifecycle stopped by " + stopped_by


def test_a_disclosure_that_swaps_a_proposed_escrow_fails_confidentiality(monkeypatch):
    # bob's escrow still shows in the ProposalAccepted event and the
    # counts stay equal: only the runner's own escrows reveal the swap
    runner = runner_of(bundled("proposer_4_bidders"))
    real = AuctionInstance.commit

    def commit(auction, result, actor):
        bob = runner.escrows["bob"]
        result.bidder_set_disclosure = [b"\x5e" * 20 if escrow == bob else escrow
                                        for escrow in result.bidder_set_disclosure]
        return real(auction, result, actor)

    monkeypatch.setattr(AuctionInstance, "commit", commit)
    report = runner.run()
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["confidentiality"]
    assert failed[0].detail == "escrow of bob missing from disclosure"


def test_only_the_balance_queries_name_the_balance_misreporter():
    runner = runner_of(bundled("misreporting_minority"))
    assert runner.run().passed
    listed = [(r["query"], r["discrepancies"]) for r in runner.audit.records]
    assert [d for q, d in listed if q == "balance"] == [["liar"]] * 4
    assert [d for q, d in listed if q != "balance"] == [[]] * 9


# The reorg censors b1's funding, so the chain rejects b1's top-up in the
# same window for its nonce gap, and b0 pays after the deadline.
CENSORED_FUNDING = {
    "name": "censored_funding", "seed": 626705,
    "auction": {"deadline_height": 6, "kappa": 0},
    "endpoints": [{"id": "ep%d" % i} for i in range(3)],
    "bidders": [{"name": "b0", "registration_height": 4, "funding": 2000,
                 "funding_height": 8, "topup": 5000, "topup_height": 10},
                {"name": "b1", "registration_height": 3, "funding": 21000,
                 "funding_height": 4, "topup": 500, "topup_height": 6}],
    "faults": {"reorgs": [{"at_height": 6, "depth": 3, "censor": ["b1:funding"]}]},
}


def test_the_oracle_drops_a_topup_the_chain_rejects():
    report = runner_of(CENSORED_FUNDING).run()
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert (report.winner, report.oracle) == (None, {"winners": [], "amount": 0})


SETTLEMENT_CHECKS = {"escrows_drained", "auctioneer_payment", "bidder_refunds_exact",
                     "asset_delivery"}

# The reorg censors alice's funding below kappa, so bob wins; the auction
# settles, and the settlement checks count only the transfers on chain
# (an `@example` of the property below).
CENSORED_CLAIMED = {
    "name": "censored_claimed", "seed": 5, "chain": {"finality_depth": 3},
    "auction": {"deadline_height": 9, "kappa": 3},
    "endpoints": [{"id": "ep%d" % i} for i in range(3)],
    "bidders": [{"name": "alice", "registration_height": 5, "funding": 700_000,
                 "funding_height": 8},
                {"name": "bob", "registration_height": 5, "funding": 650_000,
                 "funding_height": 7},
                {"name": "carol", "registration_height": 6, "funding": 100_000,
                 "funding_height": 7}],
    "faults": {"reorgs": [{"at_height": 8, "depth": 2, "censor": ["alice:funding"]}]},
    "expect": {"final_state": "Claimed", "winner": "bob"},
}


def test_a_short_refund_fails_the_settlement_checks_of_a_censored_run(monkeypatch):
    refund_one_unit_short(monkeypatch)
    report = runner_of(CENSORED_CLAIMED).run()
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"escrows_drained", "bidder_refunds_exact"}, failed


AMOUNTS = st.sampled_from((0, 21_000, 21_001, 50_000, 80_000))  # the fee is 21,000


@st.composite
def small_auctions(draw):
    """A valid scenario of up to 4 bidders and 3 honest endpoints, in
    either mode (in proposer mode every bidder is proposed once), with
    optional top-ups and at most one reorg no deeper than kappa or the
    finality window, which censors up to 2 transfers."""
    kappa, finality = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    open_height = 1 + kappa
    deadline = draw(st.integers(open_height + 1, open_height + 4))
    bidders = []
    for i in range(draw(st.integers(0, 4))):
        registration = draw(st.integers(open_height, deadline - 1))
        funding_height = draw(st.integers(registration + 1, deadline + 1))
        bidder = {"name": "b%d" % i, "registration_height": registration,
                  "funding": draw(AMOUNTS), "funding_height": funding_height}
        if draw(st.booleans()):
            bidder.update(topup=draw(AMOUNTS),
                          topup_height=draw(st.integers(funding_height + 1, funding_height + 3)))
        bidders.append(bidder)
    doc = {"name": "small", "seed": draw(st.integers(0, 2**16)),
           "chain": {"finality_depth": finality},
           "auction": {"deadline_height": deadline, "kappa": kappa},
           "endpoints": [{"id": "ep%d" % i} for i in range(3)], "bidders": bidders}
    if draw(st.booleans()):
        doc["auction"]["resolution_mode"] = "proposer"
        doc["proposals"] = [{"candidate": b["name"], "after_open": draw(st.integers(1, 9))}
                            for b in bidders]
    if draw(st.booleans()):
        labels = ["%s:%s" % (b["name"], kind) for b in bidders
                  for kind in ("funding", "topup") if kind in b]
        censor = draw(st.lists(st.sampled_from(labels), max_size=2, unique=True)
                      if labels else st.just([]))
        doc["faults"] = {"reorgs": [{
            "at_height": draw(st.integers(2, deadline + 2 * kappa + 4)),
            "depth": draw(st.integers(0, min(kappa, finality))), "censor": censor}]}
    return doc


@settings(max_examples=40, deadline=None)
@given(doc=small_auctions())
@example(doc=CENSORED_CLAIMED)
def test_a_small_auction_passes_every_check_and_agrees_with_the_oracle(doc):
    runner = runner_of(doc)
    report = runner.run()
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    oracle = oracle_resolve(runner.scenario)
    if report.winner is None:
        assert not oracle.has_winner
    else:
        assert report.winner["bidder"] in oracle.winner_names
        assert report.winner["amount"] == oracle.amount
    if report.final_state == "Claimed":
        assert SETTLEMENT_CHECKS <= {c.name for c in report.checks}


def test_a_bare_hex_auction_id_states_no_bid():
    # b0 tops up 1500, and this seed's auction id starts with "1500"
    runner = runner_of({
        "name": "bare_hex_id", "seed": 866393,
        "auction": {"deadline_height": 8, "kappa": 3},
        "endpoints": [{"id": "ep%d" % i} for i in range(5)],
        "bidders": [{"name": "b0", "registration_height": 5, "funding": 5000,
                     "funding_height": 8, "topup": 1500, "topup_height": 11},
                    {"name": "b1", "registration_height": 7, "funding": 5000,
                     "funding_height": 10},
                    {"name": "b2", "registration_height": 7, "funding": 21000,
                     "funding_height": 9},
                    {"name": "b3", "registration_height": 7, "funding": 0,
                     "funding_height": 8}]})
    report = runner.run()
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert runner.auction.auction_id.startswith("1500")


def top_up_doc(topup_height):
    """a pays 50,000 at 6 and tops up 30,000; b pays 40,000 at 8."""
    return {"name": "top_up", "auction": {"deadline_height": 10, "kappa": 2},
            "endpoints": [{"id": "ep%d" % i} for i in range(3)],
            "bidders": [{"name": "a", "registration_height": 4, "funding": 50_000,
                         "funding_height": 6, "topup": 30_000,
                         "topup_height": topup_height},
                        {"name": "b", "registration_height": 5, "funding": 40_000,
                         "funding_height": 8}]}


def test_a_topup_after_the_deadline_is_returned_to_the_winner():
    runner = runner_of(top_up_doc(12))
    report = runner.run()
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert (report.winner["bidder"], report.winner["amount"]) == ("a", 50_000)
    assert [stx.role for stx in runner.auction.resolution.settlement_txs] == \
        ["asset_claim", "winner_payment", "excess_return", "refund"]


def conservation_of(runner):
    """(transferred, fees, dust) of each escrow, in registration order."""
    return [(e.transferred, e.fees, e.dust)
            for e in runner.auction.resolution.conservation.entries]


def test_a_payout_of_exactly_the_fee_stays_as_dust(make_runner):
    # the fee is 21,000: a's excess and b's refund are exactly the fee,
    # c's refund is one unit more
    runner = make_runner(
        auction={"deadline_height": 10, "kappa": 2},
        bidders=[{"name": "a", "registration_height": 4, "funding": 50_000,
                  "funding_height": 6, "topup": 21_000, "topup_height": 12},
                 {"name": "b", "registration_height": 5, "funding": 21_000,
                  "funding_height": 7},
                 {"name": "c", "registration_height": 6, "funding": 21_001,
                  "funding_height": 8}])
    report = runner.run()
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert [stx.role for stx in runner.auction.resolution.settlement_txs] == \
        ["asset_claim", "winner_payment", "refund"]
    assert conservation_of(runner) == [(29_000, 21_000, 21_000), (0, 0, 21_000),
                                       (1, 21_000, 0)]


def test_a_winning_bid_of_exactly_the_fee_pays_nothing(make_runner):
    runner = make_runner(
        auction={"deadline_height": 10, "kappa": 2},
        bidders=[{"name": "a", "registration_height": 4, "funding": 21_000,
                  "funding_height": 6}])
    report = runner.run()
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert [stx.role for stx in runner.auction.resolution.settlement_txs] == \
        ["asset_claim"]
    assert conservation_of(runner) == [(0, 0, 21_000)]


def test_an_excess_return_one_unit_short_fails_the_refund_check(monkeypatch):
    # b's refund and a's excess return are each one unit short
    monkeypatch.setattr(AuctionInstance, "_sign_transfer", signed_one_unit_short(False))
    report = runner_of(top_up_doc(12)).run()
    check = next(c for c in report.checks if c.name == "bidder_refunds_exact")
    assert not check.passed
    assert [line.split(":")[0] for line in check.detail.split("; ")] == ["a", "b"]


def test_a_whole_deposit_stated_before_disclosure_fails_confidentiality(monkeypatch):
    # a's cutoff balance is 50,000 + 30,000; neither transfer is stated
    runner = runner_of(top_up_doc(8))
    real = AuctionInstance.emit

    def emit(auction, event, **fields):
        if event == "Closed":
            fields["note"] = 80_000
        return real(auction, event, **fields)

    monkeypatch.setattr(AuctionInstance, "emit", emit)
    report = runner.run()
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["confidentiality"]
    assert failed[0].detail == "bid value 80000 of a visible pre-resolution"


# Two colluding endpoints report the head one block short (f = q = 2 of
# 5): depending on the sample, the auction cannot confirm the asset or
# the deadline. A stop without a stated cause must fail a check.
def stuck(seed):
    return {"name": "stuck", "seed": seed,
            "auction": {"deadline_height": 10, "kappa": 2},
            "endpoints": [{"id": "ep%d" % i} for i in range(3)]
            + [{"id": "liar%d" % i, "behavior": "misreport_height", "offset": -1}
               for i in range(2)],
            "bidders": [{"name": "a", "registration_height": 4, "funding": 5000,
                         "funding_height": 6},
                        {"name": "b", "registration_height": 5, "funding": 7000,
                         "funding_height": 8}]}


def test_an_unconfirmed_deadline_fails_liveness():
    report = runner_of(stuck(5)).run()
    assert report.final_state == "Open"
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["liveness"]
    assert failed[0].detail == ("lifecycle stopped by StateError: deadline height 10 "
                                "is not confirmed at the agreed head 11")


def test_an_unverified_asset_escrow_fails_oracle_agreement():
    runner = runner_of(stuck(0))
    report = runner.run()
    assert report.final_state == "Deployed"
    assert report.oracle == {"winners": ["b"], "amount": 7000}
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["oracle_agreement"]
    assert failed[0].detail == (
        "auction did not resolve: asset escrow %s does not hold token 1 kappa (2) "
        "blocks below the agreed head" % hx(runner.auction.asset_escrow_address))


# Two colluding endpoints report every balance one unit low (f = q = 2 of
# 3), so c's zero deposit is agreed as -1, a balance no chain holds.
NEGATIVE_BALANCE = {
    "name": "negative_balance", "seed": 3,
    "auction": {"deadline_height": 10, "kappa": 1, "resolution_mode": "proposer",
                "proposal_window": 4},
    "quorum": {"sample_size": 3, "agreement_quorum": 2},
    "endpoints": [{"id": "ep0"}]
    + [{"id": "liar%d" % i, "behavior": "misreport_balance", "offset": -1}
       for i in range(2)],
    "bidders": [{"name": "a", "registration_height": 4, "funding": 5000,
                 "funding_height": 6},
                {"name": "c", "registration_height": 5, "funding": 0,
                 "funding_height": 7}],
    "proposals": [{"candidate": "c", "after_open": 1}],
}


def test_a_negative_agreed_balance_is_a_failed_query():
    runner = runner_of(NEGATIVE_BALANCE)
    report = runner.run()
    assert report.final_state == "Closed"
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["liveness"]
    assert failed[0].detail == ("lifecycle stopped by QuorumFailure: the agreed "
                                "balance -1 is below zero")
    token_id = runner.scenario.auction.token_id
    assert runner.chain.token_owner(token_id) == runner.auction.asset_escrow_address
