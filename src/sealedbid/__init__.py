"""Sealed-bid auctions with confidential enclave execution and public settlement.

A desk-scale simulator: bids are commitments of funds to enclave-generated
escrow addresses on a simulated settlement chain; an emulated enclave
determines the winner at a deadline block via quorum-sampled interface
queries and emits signed settlement transactions anyone can relay.
"""

__version__ = "0.1.0"

from sealedbid.auction import AuctionConfig, AuctionInstance, AuctionState
from sealedbid.chain import SimChain
from sealedbid.enclave import Enclave, Envelope
from sealedbid.gas import GasLedger
from sealedbid.harness import RunReport, ScenarioRunner, oracle_resolve, run_scenario
from sealedbid.quorum import QuorumClient
from sealedbid.scenario import Scenario, load_scenario
from sealedbid.transactions import SignedTransaction, UnsignedTx

__all__ = [
    "AuctionConfig",
    "AuctionInstance",
    "AuctionState",
    "Enclave",
    "Envelope",
    "GasLedger",
    "QuorumClient",
    "RunReport",
    "Scenario",
    "ScenarioRunner",
    "SignedTransaction",
    "SimChain",
    "UnsignedTx",
    "__version__",
    "load_scenario",
    "oracle_resolve",
    "run_scenario",
]
