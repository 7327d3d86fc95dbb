"""Gas model: the calibrated 4-bidder tables and the end-phase shape in n."""

from pathlib import Path

import pytest

from sealedbid.errors import ConfigError
from sealedbid.gas import (
    ADJUSTED_HTTP_REQUEST_COST,
    DEFAULT_HTTP_REQUEST_COST,
    LAYER_EXECUTION,
    LAYER_SETTLEMENT,
    MODE_EXHAUSTIVE,
    MODE_PROPOSER,
    OP_END,
    OP_REGISTER_WINNER,
    GasLedger,
    end_auction_gas,
    register_winner_gas,
)
from sealedbid.harness import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

REQUEST_COSTS = {"default": DEFAULT_HTTP_REQUEST_COST,
                 "adjusted": ADJUSTED_HTTP_REQUEST_COST}


# (mode, request cost) -> end_auction execution gas with 4 bidders
FOUR_BIDDER_END_AUCTION = {
    (MODE_EXHAUSTIVE, "default"): 804_800,
    (MODE_EXHAUSTIVE, "adjusted"): 1_200_800,
    (MODE_PROPOSER, "default"): 398_827,
    (MODE_PROPOSER, "adjusted"): 398_827,
}


@pytest.mark.parametrize("mode,label", sorted(FOUR_BIDDER_END_AUCTION))
def test_four_bidder_end_auction(mode, label):
    gas = end_auction_gas(mode, 4, REQUEST_COSTS[label])
    assert gas == FOUR_BIDDER_END_AUCTION[(mode, label)]


def test_register_winner_includes_one_offchain_query():
    assert register_winner_gas(DEFAULT_HTTP_REQUEST_COST) == 154_283
    assert register_winner_gas(ADJUSTED_HTTP_REQUEST_COST) == 253_283


def test_proposer_mode_setup_operations():
    ledger = GasLedger(MODE_PROPOSER)
    for op in ("deploy", "start_auction", "submit_bid"):
        ledger.charge(LAYER_EXECUTION, op)
        ledger.charge(LAYER_SETTLEMENT, op)
    assert [e.gas for e in ledger.entries] == [4_122_288, 0, 55_403, 70_618,
                                              271_998, 21_000]


@pytest.mark.parametrize("label", sorted(REQUEST_COSTS))
def test_exhaustive_end_phase_is_linear_in_bidders(label):
    cost = REQUEST_COSTS[label]
    curve = [end_auction_gas(MODE_EXHAUSTIVE, n, cost) for n in range(0, 51)]
    assert {b - a for a, b in zip(curve, curve[1:])} == {cost + 50_000}
    assert curve[0] == 600_800


@pytest.mark.parametrize("label", sorted(REQUEST_COSTS))
def test_proposer_end_phase_is_flat_in_bidders(label):
    curve = [end_auction_gas(MODE_PROPOSER, n, REQUEST_COSTS[label])
             for n in (1, 4, 100, 1000)]
    assert set(curve) == {398_827}


def test_unknown_operation_layer_and_mode_are_rejected():
    ledger = GasLedger(MODE_EXHAUSTIVE)
    with pytest.raises(ConfigError):
        ledger.charge(LAYER_EXECUTION, "mint")
    with pytest.raises(ConfigError):
        ledger.charge(LAYER_SETTLEMENT, "mint")
    with pytest.raises(ConfigError):
        ledger.charge("consensus", OP_END, n_bidders=1)
    with pytest.raises(ConfigError):
        GasLedger("auction-house")
    assert ledger.entries == []


def test_scaling_curve_needs_bidder_counts():
    ledger = GasLedger(MODE_EXHAUSTIVE)
    with pytest.raises(ConfigError, match="requires n_bidders"):
        ledger.charge(LAYER_EXECUTION, OP_END)
    assert ledger.entries == []


def test_register_winner_is_charged_only_in_proposer_mode():
    ledger = GasLedger(MODE_EXHAUSTIVE)
    with pytest.raises(ConfigError, match="only in proposer mode"):
        ledger.charge(LAYER_EXECUTION, OP_REGISTER_WINNER)
    assert ledger.entries == []


# operation -> (settlement avg, execution avg) of each 4-bidder calibration run
FOUR_BIDDER_TABLES = {
    "honest_4_bidders": {
        "deploy": (0, 3_849_426), "start_auction": (70_618, 124_324),
        "submit_bid": (21_000, 271_160), "end_auction": (0, 804_800),
        "claim_valuable": (21_000, 0)},
    "proposer_4_bidders": {
        "deploy": (0, 4_122_288), "start_auction": (70_618, 55_403),
        "submit_bid": (21_000, 271_998), "end_auction": (0, 398_827),
        "register_winner": (0, 154_283), "claim_valuable": (21_000, 0)},
}


@pytest.mark.parametrize("name", sorted(FOUR_BIDDER_TABLES))
def test_a_four_bidder_run_prints_the_papers_table(name):
    gas = run_scenario(SCENARIOS / ("%s.yaml" % name)).gas
    assert {op: (row["settlement"], row["execution"]) for op, row in gas.items()} \
        == FOUR_BIDDER_TABLES[name]
    assert list(gas) == list(FOUR_BIDDER_TABLES[name])
