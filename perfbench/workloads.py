"""Benchmark inputs: which auctions each workload runs, and what they must yield.

A workload is a sequence of work units. A unit of `suite` is one pass over
the bundled scenarios; a unit of a sweep is one synthetic auction. Unit k
of a workload is a pure function of (workload, seed, k), so the same seed
always gives the same auctions, and the parent commit and a change can be
compared auction by auction.
"""

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

SUITE_SIZE = 13
SWEEP_BIDDERS = 300
SWEEP_PROPOSAL_WINDOW = 10
SWEEP_ENDPOINTS = 5

WORKLOADS = ("suite", "sweep-exhaustive-300", "sweep-proposer-300")


@dataclass
class Auction:
    """One `run_scenario` call and the outcome the benchmark checks it against."""

    scenario: object
    seed: int
    final_state: Optional[str]
    winner: Optional[str]
    amount: Optional[int] = None
    queries: Optional[int] = None
    blocks: Optional[int] = None


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sweep_dict(n: int, mode: str, seed: int) -> dict:
    """The baseline sweep generator; in proposer mode every bidder
    proposes itself once, in an order and at offsets drawn from `seed`."""
    winner = "b%d" % (n - 1)
    data = {
        "name": "sweep-%s-%d" % (mode, n),
        "seed": seed,
        "auction": {"deadline_height": 12, "kappa": 2, "resolution_mode": mode,
                    "proposal_window": SWEEP_PROPOSAL_WINDOW},
        "quorum": {"sample_size": 3, "agreement_quorum": 2},
        "endpoints": [{"id": "ep%d" % i} for i in range(SWEEP_ENDPOINTS)],
        "bidders": [{"name": "b%d" % i, "registration_height": 4 + i % 4,
                     "funding": 100_000 + 37 * i, "funding_height": 9 + i % 3}
                    for i in range(n)],
        "expect": {"final_state": "Claimed", "winner": winner},
    }
    if mode == "proposer":
        rng = random.Random(seed)
        order = list(range(n))
        rng.shuffle(order)
        data["proposals"] = [
            {"candidate": "b%d" % i,
             "after_open": rng.randint(1, SWEEP_PROPOSAL_WINDOW - 1)}
            for i in order]
    return data


def sweep_auction(n: int, mode: str, seed: int) -> Auction:
    from sealedbid.scenario import scenario_from_dict

    if mode == "exhaustive":
        queries, blocks = 4 * n + 5, 17
    else:
        queries, blocks = 5 * n + 7, 27
    return Auction(scenario_from_dict(sweep_dict(n, mode, seed)), seed,
                   final_state="Claimed", winner="b%d" % (n - 1),
                   amount=100_000 + 37 * (n - 1), queries=queries, blocks=blocks)


class Workload:
    def __init__(self, name: str, seed: int, bidders: int = SWEEP_BIDDERS):
        if name not in WORKLOADS:
            raise ValueError("unknown workload %r; choose one of %s"
                             % (name, ", ".join(WORKLOADS)))
        self.name = name
        self.seed = seed
        self.bidders = bidders
        self._suite = None

    def prepare(self) -> None:
        """Load the inputs that every unit shares. A sweep shares none, so
        generating one auction's inputs stands in for this step."""
        if self.name == "suite":
            from sealedbid.scenario import load_scenario

            paths = sorted(SCENARIO_DIR.glob("*.yaml"))
            if len(paths) != SUITE_SIZE:
                raise RuntimeError("expected %d bundled scenarios in %s, found %d"
                                   % (SUITE_SIZE, SCENARIO_DIR, len(paths)))
            self._suite = [load_scenario(p) for p in paths]
        else:
            self.unit(0)

    def unit(self, k) -> List[Auction]:
        """The auctions of unit `k`; k="warmup" names the untimed warm-up."""
        if self.name == "suite":
            return [Auction(scn, derive_seed(self.name, self.seed, k, scn.name),
                            final_state=scn.expect.final_state,
                            winner=scn.expect.winner)
                    for scn in self._suite]
        mode = self.name.split("-")[1]
        return [sweep_auction(self.bidders, mode, derive_seed(self.name, self.seed, k))]


def check(auction: Auction, runner, report) -> List[str]:
    """Benchmark-side outcome checks; returns what did not hold."""
    problems = []
    winner = report.winner
    if auction.final_state is not None and report.final_state != auction.final_state:
        problems.append("final state %s, expected %s"
                        % (report.final_state, auction.final_state))
    if auction.winner is not None:
        got = winner["bidder"] if winner else None
        if got != auction.winner:
            problems.append("winner %s, expected %s" % (got, auction.winner))
    if auction.amount is not None and (winner or {}).get("amount") != auction.amount:
        problems.append("winning amount %s, expected %d"
                        % ((winner or {}).get("amount"), auction.amount))
    if auction.queries is not None and runner.client.query_count != auction.queries:
        problems.append("%d quorum queries, expected %d"
                        % (runner.client.query_count, auction.queries))
    if auction.blocks is not None and runner.chain.head_height != auction.blocks:
        problems.append("%d blocks, expected %d"
                        % (runner.chain.head_height, auction.blocks))
    divergence = report.flags.get("oracle_divergence")
    if divergence is not None and divergence != auction.scenario.expect.oracle_divergence:
        problems.append("oracle divergence %s, expected %s: %s"
                        % (divergence, auction.scenario.expect.oracle_divergence,
                           report.oracle))
    return ["%s: %s" % (auction.scenario.name, p) for p in problems]


# the harness's confidentiality check reports a bid value wherever its
# digits occur, including inside hex ciphertext, keys and signatures
BID_VALUE_FINDING = re.compile(r"bid value (\d+) of \S+ visible pre-resolution")
HEX_STRING = re.compile(r"(0x)?[0-9a-f]+")


def pre_disclosure(records: list) -> list:
    """The event records before disclosure begins, as the harness cuts them."""
    for i, record in enumerate(records):
        if record.get("event") in ("Resolved", "ProposalsOpened"):
            return records[:i]
    return records


def scalars(value):
    """Every key and scalar value of a JSON-like structure."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from scalars(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from scalars(item)
    else:
        yield value


def value_visible(amount: int, records: list) -> bool:
    """Whether `amount` appears in `records` as a number or as decimal text.

    Digits that only occur inside a longer hex string do not count: that
    string is ciphertext, a key, a hash or a signature.
    """
    digits = str(amount)
    standalone = re.compile(r"(?<![0-9a-z])%s(?![0-9a-z])" % digits)
    for item in scalars(records):
        if isinstance(item, bool):
            continue
        if isinstance(item, (int, float)):
            if item == amount:
                return True
        elif isinstance(item, str):
            text = item.lower()
            if HEX_STRING.fullmatch(text) and len(text) > len(digits):
                continue
            if standalone.search(text):
                return True
    return False


def confidentiality_false_positive(records: list, detail: str) -> bool:
    """Whether a failed confidentiality check is the known false positive.

    True only if every finding in `detail` is a bid value, and none of
    those values is visible in the pre-disclosure records outside hex
    strings. Any other finding (an escrow or key leak, a missing
    disclosure) is a real failure.
    """
    findings = [BID_VALUE_FINDING.fullmatch(f) for f in detail.split("; ")]
    if not findings or not all(findings):
        return False
    before = pre_disclosure(records)
    return not any(value_visible(int(f.group(1)), before) for f in findings)
