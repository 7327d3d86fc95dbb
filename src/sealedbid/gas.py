"""Gas accounting on both layers, from calibrated constants.

Costs are calibrated constants, not an EVM emulation. They reproduce the
paper's 4-bidder tables exactly (pinned in tests/test_gas.py). The
end-auction charge in exhaustive mode is affine in the bidder count:

    end_auction(n) = base + n * (http_request_cost + per-bidder overhead)

The base/per-bidder split beyond the calibrated point is a modeling
choice validated only through the linearity property. Proposer-mode
resolution is flat in the bidder count; each verified proposal is
charged separately (register_winner includes one off-chain query).
Auctions are charged at the default request cost; the "adjusted" cost
reprices off-chain requests from 1,000 to 100,000 gas for the scaling
curve that `write_plot_csv` writes.
"""

import csv
from dataclasses import dataclass
from typing import List, Optional, Tuple

from sealedbid.errors import ConfigError

MODE_EXHAUSTIVE = "exhaustive"
MODE_PROPOSER = "proposer"

LAYER_SETTLEMENT = "settlement"
LAYER_EXECUTION = "execution"

OP_DEPLOY = "deploy"
OP_START = "start_auction"
OP_BID = "submit_bid"
OP_END = "end_auction"
OP_REGISTER_WINNER = "register_winner"
OP_CLAIM = "claim_valuable"

DEFAULT_HTTP_REQUEST_COST = 1_000
ADJUSTED_HTTP_REQUEST_COST = 100_000

SETTLEMENT_GAS = {
    OP_DEPLOY: 0,
    OP_START: 70_618,
    OP_BID: 21_000,
    OP_END: 0,
    OP_REGISTER_WINNER: 0,
    OP_CLAIM: 21_000,
}

# execution costs that do not depend on the bidder count or request cost
EXECUTION_GAS = {
    MODE_EXHAUSTIVE: {OP_DEPLOY: 3_849_426, OP_START: 124_324, OP_BID: 271_160,
                      OP_CLAIM: 0},
    MODE_PROPOSER: {OP_DEPLOY: 4_122_288, OP_START: 55_403, OP_BID: 271_998,
                    OP_CLAIM: 0},
}

END_AUCTION_BASE = {MODE_EXHAUSTIVE: 600_800, MODE_PROPOSER: 398_827}
EXHAUSTIVE_PER_BIDDER_OVERHEAD = 50_000
REGISTER_WINNER_OVERHEAD = 153_283


def _check_mode(mode: str) -> None:
    if mode not in EXECUTION_GAS:
        raise ConfigError("unknown resolution mode %r" % mode)


def end_auction_gas(mode: str, n_bidders: int, http_request_cost: int) -> int:
    """End-phase execution gas: one request per bidder in exhaustive
    mode, flat in proposer mode."""
    _check_mode(mode)
    if mode == MODE_PROPOSER:
        return END_AUCTION_BASE[mode]
    return END_AUCTION_BASE[mode] + n_bidders * (
        http_request_cost + EXHAUSTIVE_PER_BIDDER_OVERHEAD)


def register_winner_gas(http_request_cost: int) -> int:
    """One verified proposal: its overhead and one off-chain query."""
    return REGISTER_WINNER_OVERHEAD + http_request_cost


@dataclass(frozen=True)
class GasEntry:
    layer: str
    operation: str
    actor: str
    gas: int


_ROW_ORDER = (OP_DEPLOY, OP_START, OP_BID, OP_END, OP_REGISTER_WINNER, OP_CLAIM)


class GasLedger:
    """The charges of one auction, priced for its resolution mode."""

    def __init__(self, mode: str):
        _check_mode(mode)
        self.mode = mode
        self.entries: List[GasEntry] = []

    def charge(self, layer: str, operation: str, actor: str = "",
               n_bidders: Optional[int] = None) -> int:
        """Record the calibrated cost of one protocol operation."""
        gas = self._cost(layer, operation, n_bidders)
        self.entries.append(GasEntry(layer, operation, actor, gas))
        return gas

    def _cost(self, layer: str, operation: str, n_bidders: Optional[int]) -> int:
        if layer == LAYER_SETTLEMENT:
            table = SETTLEMENT_GAS
        elif layer != LAYER_EXECUTION:
            raise ConfigError("unknown layer %r" % layer)
        elif operation == OP_END:
            if n_bidders is None:
                raise ConfigError("end_auction charge requires n_bidders")
            return end_auction_gas(self.mode, n_bidders, DEFAULT_HTTP_REQUEST_COST)
        elif operation == OP_REGISTER_WINNER:
            if self.mode != MODE_PROPOSER:
                raise ConfigError("register_winner is charged only in proposer mode")
            return register_winner_gas(DEFAULT_HTTP_REQUEST_COST)
        else:
            table = EXECUTION_GAS[self.mode]
        if operation not in table:
            raise ConfigError("unknown %s operation %r" % (layer, operation))
        return table[operation]

    def total(self) -> int:
        return sum(e.gas for e in self.entries)

    def table(self) -> List[Tuple[str, int, int]]:
        """(operation, settlement avg, execution avg) rows in table order."""
        sums = {}
        for e in self.entries:
            total, count = sums.get((e.operation, e.layer), (0, 0))
            sums[e.operation, e.layer] = (total + e.gas, count + 1)

        def average(op, layer):
            total, count = sums.get((op, layer), (0, 0))
            return total // count if count else 0

        return [(op, average(op, LAYER_SETTLEMENT), average(op, LAYER_EXECUTION))
                for op in _ROW_ORDER
                if op != OP_REGISTER_WINNER or self.mode == MODE_PROPOSER]

    def format_text(self) -> str:
        lines = ["%-18s %14s %14s" % ("operation", "L1 gas (avg)", "exec gas (avg)")]
        for op, l1, ex in self.table():
            lines.append("%-18s %14s %14s" % (op, "{:,}".format(l1), "{:,}".format(ex)))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {op: {"settlement": l1, "execution": ex}
                for op, l1, ex in self.table()}


def write_plot_csv(path) -> int:
    """CSV of the end-phase gas of 1..20 bidders in both modes at both
    request costs, for figure reproduction; returns the row count."""
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "pricing", "bidders", "operation", "layer", "gas"])
        for mode in (MODE_EXHAUSTIVE, MODE_PROPOSER):
            for label, cost in (("default", DEFAULT_HTTP_REQUEST_COST),
                                ("adjusted", ADJUSTED_HTTP_REQUEST_COST)):
                for n in range(1, 21):
                    writer.writerow([mode, label, n, OP_END, LAYER_EXECUTION,
                                     end_auction_gas(mode, n, cost)])
                    rows += 1
    return rows
