"""Parametric gas accounting on both layers.

Costs are calibrated constants, not an EVM emulation. The end-auction
charge in exhaustive mode is affine in the bidder count:

    end_auction(n) = base + n * (http_request_cost + per-bidder overhead)

The shipped defaults pin the 4-bidder figures exactly (see the tables in
tests/test_gas.py); the base/per-bidder split beyond the calibrated
point is a modeling choice validated only through the linearity
property. Proposer-mode resolution is flat in the bidder count; each
verified proposal is charged separately (register_winner includes one
off-chain query). The "adjusted" pricing reprices off-chain requests
from 1,000 to 100,000 gas.
"""

import csv
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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


@dataclass(frozen=True)
class GasPricing:
    mode: str
    http_request_cost: int = DEFAULT_HTTP_REQUEST_COST
    deploy: int = 0
    start_auction: int = 0
    submit_bid: int = 0
    end_auction_base: int = 0
    end_auction_queries_per_bidder: int = 0
    end_auction_per_bidder_overhead: int = 0
    register_winner_overhead: int = 0
    l1_start_auction: int = 70_618
    l1_submit_bid: int = 21_000
    l1_claim_valuable: int = 21_000

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, int) and value < 0:
                raise ConfigError("gas cost %s must be non-negative" % f.name)

    def end_auction_per_bidder(self) -> int:
        return (self.end_auction_queries_per_bidder * self.http_request_cost
                + self.end_auction_per_bidder_overhead)

    def end_auction(self, n_bidders: int) -> int:
        return self.end_auction_base + n_bidders * self.end_auction_per_bidder()

    def register_winner(self) -> int:
        return self.register_winner_overhead + self.http_request_cost


def default_pricing(mode: str) -> GasPricing:
    if mode == MODE_EXHAUSTIVE:
        return GasPricing(
            mode=mode,
            deploy=3_849_426,
            start_auction=124_324,
            submit_bid=271_160,
            end_auction_base=600_800,
            end_auction_queries_per_bidder=1,
            end_auction_per_bidder_overhead=50_000,
        )
    if mode == MODE_PROPOSER:
        return GasPricing(
            mode=mode,
            deploy=4_122_288,
            start_auction=55_403,
            submit_bid=271_998,
            end_auction_base=398_827,
            register_winner_overhead=153_283,
        )
    raise ConfigError("unknown resolution mode %r" % mode)


def adjusted_pricing(mode: str) -> GasPricing:
    return dataclasses.replace(default_pricing(mode),
                               http_request_cost=ADJUSTED_HTTP_REQUEST_COST)


@dataclass(frozen=True)
class GasEntry:
    layer: str
    operation: str
    actor: str
    gas: int


class GasLedger:
    def __init__(self, pricing: GasPricing):
        self.pricing = pricing
        self.entries: List[GasEntry] = []

    def charge(self, layer: str, operation: str, actor: str = "",
               n_bidders: Optional[int] = None) -> int:
        """Record the configured cost for one protocol operation."""
        gas = self._cost(layer, operation, n_bidders)
        self.entries.append(GasEntry(layer, operation, actor, gas))
        return gas

    def _cost(self, layer: str, operation: str, n_bidders: Optional[int]) -> int:
        p = self.pricing
        if layer == LAYER_SETTLEMENT:
            table = {
                OP_DEPLOY: 0,
                OP_START: p.l1_start_auction,
                OP_BID: p.l1_submit_bid,
                OP_END: 0,
                OP_REGISTER_WINNER: 0,
                OP_CLAIM: p.l1_claim_valuable,
            }
            if operation not in table:
                raise ConfigError("unknown settlement operation %r" % operation)
            return table[operation]
        if layer == LAYER_EXECUTION:
            if operation == OP_DEPLOY:
                return p.deploy
            if operation == OP_START:
                return p.start_auction
            if operation == OP_BID:
                return p.submit_bid
            if operation == OP_END:
                if n_bidders is None:
                    raise ConfigError("end_auction charge requires n_bidders")
                return p.end_auction(n_bidders)
            if operation == OP_REGISTER_WINNER:
                return p.register_winner()
            if operation == OP_CLAIM:
                return 0
            raise ConfigError("unknown execution operation %r" % operation)
        raise ConfigError("unknown layer %r" % layer)

    def total(self) -> int:
        return sum(e.gas for e in self.entries)

    def report(self) -> "GasReport":
        return GasReport.from_entries(self.pricing, self.entries)


@dataclass
class GasRow:
    operation: str
    settlement_total: int = 0
    settlement_count: int = 0
    execution_total: int = 0
    execution_count: int = 0

    def settlement_avg(self) -> int:
        return self.settlement_total // self.settlement_count if self.settlement_count else 0

    def execution_avg(self) -> int:
        return self.execution_total // self.execution_count if self.execution_count else 0


_ROW_ORDER = (OP_DEPLOY, OP_START, OP_BID, OP_END, OP_REGISTER_WINNER, OP_CLAIM)


@dataclass
class GasReport:
    pricing: GasPricing
    rows: Dict[str, GasRow] = field(default_factory=dict)

    @classmethod
    def from_entries(cls, pricing, entries) -> "GasReport":
        report = cls(pricing)
        for op in _ROW_ORDER:
            report.rows[op] = GasRow(op)
        for entry in entries:
            row = report.rows.setdefault(entry.operation, GasRow(entry.operation))
            if entry.layer == LAYER_SETTLEMENT:
                row.settlement_total += entry.gas
                row.settlement_count += 1
            else:
                row.execution_total += entry.gas
                row.execution_count += 1
        return report

    def table(self) -> List[Tuple[str, int, int]]:
        """(operation, settlement avg, execution avg) rows in table order."""
        out = []
        for op in _ROW_ORDER:
            if op == OP_REGISTER_WINNER and self.pricing.mode != MODE_PROPOSER:
                continue
            row = self.rows[op]
            out.append((op, row.settlement_avg(), row.execution_avg()))
        return out

    def format_text(self) -> str:
        lines = ["%-18s %14s %14s" % ("operation", "L1 gas (avg)", "exec gas (avg)")]
        for op, l1, ex in self.table():
            lines.append("%-18s %14s %14s" % (op, "{:,}".format(l1), "{:,}".format(ex)))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {op: {"settlement": l1, "execution": ex}
                for op, l1, ex in self.table()}


def scaling_curve(pricing: GasPricing, n_range) -> List[Tuple[int, int]]:
    """(bidders, end-phase execution gas) for each n in n_range."""
    ns = list(n_range)
    if not ns:
        raise ConfigError("n_range must be non-empty")
    return [(n, pricing.end_auction(n)) for n in ns]


def write_plot_csv(path) -> int:
    """CSV of the end-phase gas of 1..20 bidders in both modes under both
    pricings, for figure reproduction; returns the row count."""
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "pricing", "bidders", "operation", "layer", "gas"])
        for mode in (MODE_EXHAUSTIVE, MODE_PROPOSER):
            for label, pricing in (("default", default_pricing(mode)),
                                   ("adjusted", adjusted_pricing(mode))):
                for n, gas in scaling_curve(pricing, range(1, 21)):
                    writer.writerow([mode, label, n, OP_END, LAYER_EXECUTION, gas])
                    rows += 1
    return rows
