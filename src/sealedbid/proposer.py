"""Proposer-based resolution: scalable alternative to exhaustive queries.

After closing, anyone may nominate a candidate winner during a
fixed-length challenge window. Each verified proposal costs a single
cutoff-balance query; a proposal replaces the current leader only if it
is strictly higher (or equal and ahead on the deterministic tie-break,
which keeps the outcome equal to exhaustive resolution when the true
winner is proposed). If the window expires with no proposals at all,
resolution falls back to the exhaustive path so the auction still
terminates.

Only the auction's public steps are used: `cutoff_balance` and `rank_key`
verify a proposal, and `finalize_proposals` ends like exhaustive
resolution, through `AuctionInstance.settlement_for` and then
`AuctionInstance.commit`. A query that fails during finalization leaves
the auction Closed and the phase open, so finalization can be retried.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from sealedbid.auction import (
    AuctionInstance,
    AuctionState,
    RegistryEntry,
    ResolutionResult,
)
from sealedbid.errors import StateError
from sealedbid.events import hx
from sealedbid.gas import LAYER_EXECUTION, MODE_PROPOSER, OP_REGISTER_WINNER

STATUS_OPEN = "open"
STATUS_FINALIZED = "finalized"
STATUS_TIMED_OUT = "timed_out"

REJECT_UNKNOWN_ESCROW = "unknown_escrow"
REJECT_NOT_HIGHER = "not_higher"
REJECT_ZERO_BALANCE = "zero_balance"
REJECT_WINDOW_EXPIRED = "window_expired"


@dataclass
class ProposalPhase:
    """The proposal window of one auction, held as
    `AuctionInstance.proposal_phase`. It does not refer back to the
    auction, so the pair forms no reference cycle."""
    window_end_height: int
    status: str = STATUS_OPEN
    current_leader: Optional[Tuple[RegistryEntry, int]] = None
    proposal_count: int = 0
    _leader_rank: Optional[tuple] = field(default=None, repr=False)


def open_proposals(auction: AuctionInstance) -> ProposalPhase:
    if auction.state is not AuctionState.CLOSED:
        raise StateError("proposals open only on a Closed auction, not %s"
                         % auction.state.value)
    if auction.config.resolution_mode != MODE_PROPOSER:
        raise StateError("auction is not configured for proposer-based resolution")
    if auction.proposal_phase is not None:
        raise StateError("proposal phase is already open")
    head = auction.quorum.query_height()
    phase = ProposalPhase(window_end_height=head + auction.config.proposal_window)
    auction.proposal_phase = phase
    auction.emit("ProposalsOpened", window_end_height=phase.window_end_height)
    return phase


def submit_proposal(auction: AuctionInstance, candidate_escrow: bytes):
    """Verify one candidate with one balance query; returns (accepted, reason)."""
    phase = _open_phase(auction)
    phase.proposal_count += 1
    head = auction.quorum.query_height()
    if head >= phase.window_end_height:
        return _reject(auction, REJECT_WINDOW_EXPIRED)
    entry = auction.entry_for(candidate_escrow)
    if entry is None:
        return _reject(auction, REJECT_UNKNOWN_ESCROW)
    amount = auction.cutoff_balance(entry.escrow_address)
    auction.gas.charge(LAYER_EXECUTION, OP_REGISTER_WINNER, actor="proposer")
    if amount == 0:
        return _reject(auction, REJECT_ZERO_BALANCE)
    rank = None
    if phase.current_leader is not None:
        leader_entry, leader_amount = phase.current_leader
        if amount < leader_amount:
            return _reject(auction, REJECT_NOT_HIGHER)
        if amount == leader_amount:
            # equal bids: the tie-break decides, costing extra queries
            if phase._leader_rank is None:
                phase._leader_rank = auction.rank_key(leader_entry, leader_amount)
            rank = auction.rank_key(entry, amount)
            if rank >= phase._leader_rank:
                return _reject(auction, REJECT_NOT_HIGHER)
    phase.current_leader = (entry, amount)
    phase._leader_rank = rank
    auction.emit("ProposalAccepted", candidate=hx(entry.escrow_address),
                 amount=amount)
    return True, None


def finalize_proposals(auction: AuctionInstance) -> ResolutionResult:
    """Settle with the leading proposal, or fall back to exhaustive."""
    phase = _open_phase(auction)
    head = auction.quorum.query_height()
    if head < phase.window_end_height:
        raise StateError("challenge window is open until height %d"
                         % phase.window_end_height)
    if phase.current_leader is not None:
        winner, amount = phase.current_leader
        status = STATUS_FINALIZED
    else:
        # nobody proposed: liveness falls back to the exhaustive scan
        winner, amount = auction.determine_winner()
        status = STATUS_TIMED_OUT
    result = auction.settlement_for(winner, amount)
    phase.status = status
    auction.emit("ProposalFinalized", status=status,
                 proposal_count=phase.proposal_count)
    auction.commit(result, actor="finalizer")
    return result


def _open_phase(auction: AuctionInstance) -> ProposalPhase:
    phase = auction.proposal_phase
    if phase is None:
        raise StateError("no proposal phase is open")
    if phase.status != STATUS_OPEN:
        raise StateError("proposal phase is %s" % phase.status)
    return phase


def _reject(auction: AuctionInstance, reason: str):
    auction.emit("ProposalRejected", reason=reason)
    return False, reason
