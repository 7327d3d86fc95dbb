"""Gas model: the calibrated 4-bidder tables and the end-phase shape in n."""

import pytest

from sealedbid.errors import ConfigError
from sealedbid.gas import (
    LAYER_EXECUTION,
    LAYER_SETTLEMENT,
    MODE_EXHAUSTIVE,
    MODE_PROPOSER,
    OP_END,
    GasLedger,
    adjusted_pricing,
    default_pricing,
    scaling_curve,
)

PRICINGS = {"default": default_pricing, "adjusted": adjusted_pricing}


# (mode, pricing) -> end_auction execution gas with 4 bidders
FOUR_BIDDER_END_AUCTION = {
    (MODE_EXHAUSTIVE, "default"): 804_800,
    (MODE_EXHAUSTIVE, "adjusted"): 1_200_800,
    (MODE_PROPOSER, "default"): 398_827,
    (MODE_PROPOSER, "adjusted"): 398_827,
}


@pytest.mark.parametrize("mode,label", sorted(FOUR_BIDDER_END_AUCTION))
def test_four_bidder_end_auction(mode, label):
    ledger = GasLedger(PRICINGS[label](mode))
    gas = ledger.charge(LAYER_EXECUTION, OP_END, n_bidders=4)
    assert gas == FOUR_BIDDER_END_AUCTION[(mode, label)]


def test_register_winner_includes_one_offchain_query():
    assert default_pricing(MODE_PROPOSER).register_winner() == 154_283
    assert adjusted_pricing(MODE_PROPOSER).register_winner() == 253_283


def test_proposer_mode_setup_operations():
    ledger = GasLedger(default_pricing(MODE_PROPOSER))
    for op in ("deploy", "start_auction", "submit_bid"):
        ledger.charge(LAYER_EXECUTION, op)
        ledger.charge(LAYER_SETTLEMENT, op)
    assert [e.gas for e in ledger.entries] == [4_122_288, 0, 55_403, 70_618,
                                              271_998, 21_000]


@pytest.mark.parametrize("label", sorted(PRICINGS))
def test_exhaustive_end_phase_is_linear_in_bidders(label):
    pricing = PRICINGS[label](MODE_EXHAUSTIVE)
    curve = scaling_curve(pricing, range(0, 51))
    steps = {b - a for (_, a), (_, b) in zip(curve, curve[1:])}
    assert steps == {pricing.http_request_cost + 50_000}
    assert curve[0] == (0, 600_800)


@pytest.mark.parametrize("label", sorted(PRICINGS))
def test_proposer_end_phase_is_flat_in_bidders(label):
    curve = scaling_curve(PRICINGS[label](MODE_PROPOSER), [1, 4, 100, 1000])
    assert {gas for _, gas in curve} == {398_827}


def test_unknown_operation_layer_and_mode_are_rejected():
    ledger = GasLedger(default_pricing(MODE_EXHAUSTIVE))
    with pytest.raises(ConfigError):
        ledger.charge(LAYER_EXECUTION, "mint")
    with pytest.raises(ConfigError):
        ledger.charge(LAYER_SETTLEMENT, "mint")
    with pytest.raises(ConfigError):
        ledger.charge("consensus", OP_END, n_bidders=1)
    with pytest.raises(ConfigError):
        ledger.charge(LAYER_EXECUTION, OP_END)  # needs n_bidders
    with pytest.raises(ConfigError):
        default_pricing("auction-house")
    assert ledger.entries == []


def test_scaling_curve_needs_bidder_counts():
    with pytest.raises(ConfigError):
        scaling_curve(default_pricing(MODE_EXHAUSTIVE), [])
