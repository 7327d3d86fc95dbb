"""Sealed-bid auction lifecycle running inside the enclave.

States advance Init -> Deployed -> Open -> Closed -> Resolved -> Claimed.
Each step checks its source state before it changes anything and
raises StateError from any other. A step that cannot proceed yet leaves
the state unchanged: `close` raises StateError until the agreed head is
kappa blocks past the deadline, `verify_asset_escrow` returns False
until the token is escrowed at a confirmed height, and `finalize`
returns Resolved until every settlement transaction is kappa-deep.

Bids are escrow balances frozen at the deadline height. Resolution
queries each registered escrow once at the cutoff for winner selection,
then constructs self-funding settlement transactions: the winner's
cutoff balance pays the auctioneer, losers are refunded their full
observed balance, and any post-cutoff excess returns to the winner's
funding source. One rule pays each of these: a payout above the flat fee
to a known recipient is signed less the fee, and any other stays in the
escrow as dust. Asset-registry transfers carry no chain fee (escrow
accounts hold no balance; see chain module notes).

Equal top bids break ties by the earliest height at which the escrow
first reached its cutoff balance (located by binary search over
historical balance queries, valid because escrows only ever receive
funds before resolution), then by ascending escrow address bytes - both
auditable from public chain data once the bidder set is disclosed.
`rank_key` is that rule, shared by both resolution modes.

Both modes end through the same two public steps: `settlement_for`
builds and signs the settlement transactions for a chosen winner without
touching any state, and `commit` records the result, emits `Resolved`
and charges the end-auction gas. `resolve` is the exhaustive mode:
`determine_winner`, then those two steps; the proposer module picks the
winner from verified proposals and ends the same way.
"""

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from sealedbid.chain import ASSET_REGISTRY_ADDRESS, SimChain, asset_transfer_data
from sealedbid.enclave import Enclave, Envelope
from sealedbid.errors import (
    ConfigError,
    EnvelopeAuthError,
    RegistrationError,
    StateError,
)
from sealedbid.events import EventLog, canonical, hx, unhx
from sealedbid.gas import (
    GasLedger,
    LAYER_EXECUTION,
    MODE_EXHAUSTIVE,
    MODE_PROPOSER,
    OP_BID,
    OP_DEPLOY,
    OP_END,
    OP_START,
)
from sealedbid.quorum import QuorumClient
from sealedbid.transactions import SignedTransaction, UnsignedTx


class AuctionState(enum.Enum):
    INIT = "Init"
    DEPLOYED = "Deployed"
    OPEN = "Open"
    CLOSED = "Closed"
    RESOLVED = "Resolved"
    CLAIMED = "Claimed"


@dataclass(frozen=True)
class AuctionConfig:
    deadline_height: int
    auctioneer_address: bytes
    token_id: int
    gas_price: int
    kappa: int
    resolution_mode: str
    proposal_window: int
    settlement_tx_gas: int
    chain_id: int

    def __post_init__(self):
        if self.deadline_height < 1:
            raise ConfigError("deadline_height must be positive")
        if len(self.auctioneer_address) != 20:
            raise ConfigError("auctioneer_address must be 20 bytes")
        if self.resolution_mode not in (MODE_EXHAUSTIVE, MODE_PROPOSER):
            raise ConfigError("unknown resolution mode %r" % self.resolution_mode)
        if self.kappa < 0 or self.gas_price < 0 or self.proposal_window < 1:
            raise ConfigError("kappa/gas_price/proposal_window out of range")
        if self.token_id < 0 or self.chain_id < 0:
            raise ConfigError("token_id and chain_id must be non-negative")

    @property
    def settlement_fee(self) -> int:
        return self.settlement_tx_gas * self.gas_price


@dataclass(frozen=True)
class RegistryEntry:
    index: int
    handle: str
    escrow_address: bytes
    claim_address: bytes
    registration_height: int

    def to_record(self) -> dict:
        return {
            "index": self.index,
            "handle": self.handle,
            "escrow_address": hx(self.escrow_address),
            "claim_address": hx(self.claim_address),
            "registration_height": self.registration_height,
        }

    @classmethod
    def from_record(cls, r: dict) -> "RegistryEntry":
        return cls(r["index"], r["handle"], unhx(r["escrow_address"]),
                   unhx(r["claim_address"]), r["registration_height"])


@dataclass(frozen=True)
class SettlementTx:
    role: str  # asset_claim | winner_payment | refund | excess_return
    tx: SignedTransaction

    def to_record(self) -> dict:
        return {"role": self.role, "raw": self.tx.raw_hex()}


@dataclass
class ConservationEntry:
    escrow: bytes
    balance_observed: int
    transferred: int = 0
    fees: int = 0
    dust: int = 0

    def balanced(self) -> bool:
        return self.transferred + self.fees + self.dust == self.balance_observed


@dataclass
class ConservationLedger:
    entries: List[ConservationEntry] = field(default_factory=list)

    def balanced(self) -> bool:
        return all(e.balanced() for e in self.entries)

    def totals(self) -> dict:
        return {
            "balances": sum(e.balance_observed for e in self.entries),
            "transferred": sum(e.transferred for e in self.entries),
            "fees": sum(e.fees for e in self.entries),
            "dust": sum(e.dust for e in self.entries),
        }


@dataclass
class ResolutionResult:
    winner_escrow: Optional[bytes]
    winning_amount: int
    cutoff_height: int
    settlement_txs: List[SettlementTx]
    bidder_set_disclosure: List[bytes]
    conservation: ConservationLedger

    @property
    def has_winner(self) -> bool:
        return self.winner_escrow is not None


class AuctionInstance:
    """One auction; all operations run inside the owning enclave."""

    def __init__(self, enclave: Enclave, config: AuctionConfig,
                 quorum: QuorumClient, events: EventLog, gas: GasLedger):
        self.enclave = enclave
        self.config = config
        self.quorum = quorum  # fixed at deployment: no caller of a step picks it
        self.events = events
        self.gas = gas
        self.state = AuctionState.INIT
        self.resolution: Optional[ResolutionResult] = None
        self.auction_id: Optional[str] = None
        self._asset_handle: Optional[str] = None
        self.asset_escrow_address: Optional[bytes] = None
        # the proposer module's ProposalPhase, once proposals are opened
        self.proposal_phase = None
        self.register_call_count = 0
        # escrow address -> registry index; the sealed records stay the
        # source of truth, so every lookup still unseals and verifies one
        self._escrow_index: Dict[bytes, int] = {}

    # -- lifecycle helpers -----------------------------------------------------

    def _require_state(self, expected: AuctionState, op: str) -> None:
        if self.state is not expected:
            raise StateError("%s requires state %s, not %s"
                             % (op, expected.value, self.state.value))

    def emit(self, event: str, **fields) -> None:
        """Append one attested record, at the next `seq`, to the event stream."""
        record = {"event": event, "seq": len(self.events)}
        record.update(fields)
        report = self.enclave.attest(canonical(record).encode())
        record["attestation"] = report.to_record()
        self.events.append(record)

    # -- sealed registry ----------------------------------------------------------

    @property
    def registry_label(self) -> str:
        """Sealed-store label of the registry's count record; entry i is
        sealed under `registry_label + "/%d" % i`."""
        return "auction/%s/registry" % self.auction_id

    def _registry_count(self) -> int:
        return int(self.enclave.seal_get(self.registry_label))

    def _entry_label(self, index: int) -> str:
        return "%s/%d" % (self.registry_label, index)

    def _load_entry(self, index: int) -> RegistryEntry:
        raw = self.enclave.seal_get(self._entry_label(index))
        return RegistryEntry.from_record(json.loads(raw))

    def _load_registry(self) -> List[RegistryEntry]:
        return [self._load_entry(i) for i in range(self._registry_count())]

    def entry_for(self, escrow: bytes) -> Optional[RegistryEntry]:
        """The registry entry of an escrow address, or None."""
        index = self._escrow_index.get(escrow)
        if index is None:
            return None
        entry = self._load_entry(index)
        return entry if entry.escrow_address == escrow else None

    # -- operations ------------------------------------------------------------

    @classmethod
    def deploy(cls, enclave: Enclave, config: AuctionConfig,
               quorum: QuorumClient, events: EventLog,
               gas: GasLedger) -> "AuctionInstance":
        instance = cls(enclave, config, quorum, events, gas)
        head = quorum.query_height()
        if config.deadline_height <= head:
            raise StateError("deadline height %d is not past the settlement head %d"
                             % (config.deadline_height, head))
        instance.auction_id = enclave.random(4).hex()
        instance.enclave.seal_put(instance.registry_label, b"0")
        instance.state = AuctionState.DEPLOYED
        instance.emit(
            "Deployed",
            auction_id=instance.auction_id,
            deadline_height=config.deadline_height,
            token_id=config.token_id,
            resolution_mode=config.resolution_mode,
            kappa=config.kappa,
            chain_id=config.chain_id,
            auctioneer=hx(config.auctioneer_address),
            code_hash=hx(enclave.code_hash),
            attestation_address=hx(enclave.attestation_address),
            input_public_key=hx(enclave.input_public_key),
        )
        instance.gas.charge(LAYER_EXECUTION, OP_DEPLOY, actor="auctioneer")
        return instance

    def setup(self) -> bytes:
        """Create (or return) the asset escrow address; idempotent."""
        self._require_state(AuctionState.DEPLOYED, "setup")
        if self._asset_handle is not None:
            return self.asset_escrow_address
        handle, address = self.enclave.generate_keypair()
        self._asset_handle = handle
        self.asset_escrow_address = address
        self.emit("AssetEscrowAddress", address=hx(address))
        self.gas.charge(LAYER_EXECUTION, OP_START, actor="auctioneer")
        return address

    def verify_asset_escrow(self) -> bool:
        """Open the auction iff the token is escrowed at a confirmed height."""
        self._require_state(AuctionState.DEPLOYED, "verify_asset_escrow")
        if self._asset_handle is None:
            raise StateError("setup has not been called")
        head = self.quorum.query_height()
        observed = max(0, head - self.config.kappa)
        owner = self.quorum.query_asset_owner(self.config.token_id, observed)
        if owner != self.asset_escrow_address:
            return False
        self.state = AuctionState.OPEN
        self.emit("Open", verified_height=observed,
                  token_id=self.config.token_id)
        return True

    def register_bidder(self, registration: Envelope) -> Envelope:
        """One enclave call per bidder: the escrow address, in a reply keyed
        from the request, which is opened first so a replay draws nothing."""
        self._require_state(AuctionState.OPEN, "register_bidder")
        try:
            plaintext, reply_key = self.enclave.decrypt_input(registration)
            self.register_call_count += 1  # authentic and not a replay
            claim_address = unhx(json.loads(plaintext)["claim_address"])
        except EnvelopeAuthError as exc:
            raise RegistrationError("registration rejected: %s" % exc) from exc
        except Exception as exc:
            raise RegistrationError("malformed registration payload") from exc
        if len(claim_address) != 20:
            raise RegistrationError("bad claim address length")
        head = self.quorum.query_height()
        if head >= self.config.deadline_height:
            raise RegistrationError("registration after the deadline is rejected")
        count = self._registry_count()
        handle, escrow_address = self.enclave.generate_keypair()
        entry = RegistryEntry(
            index=count,
            handle=handle,
            escrow_address=escrow_address,
            claim_address=claim_address,
            registration_height=head,
        )
        self.enclave.seal_put(self._entry_label(count),
                              canonical(entry.to_record()).encode())
        self.enclave.seal_put(self.registry_label, b"%d" % (count + 1))
        self._escrow_index[escrow_address] = count
        response = canonical({
            "escrow_address": hx(escrow_address),
            "registration_index": entry.index,
        }).encode()
        envelope = self.enclave.encrypt_to(reply_key, registration, response)
        self.emit("BidderEnvelope", registration_index=entry.index,
                  **envelope.to_record())
        self.gas.charge(LAYER_EXECUTION, OP_BID, actor="bidder-%d" % entry.index)
        return envelope

    def close(self) -> None:
        """Freeze the bidder set once the deadline is kappa-confirmed."""
        self._require_state(AuctionState.OPEN, "close")
        deadline = self.config.deadline_height
        head = self.quorum.query_height()
        if head < deadline + self.config.kappa:
            raise StateError("deadline height %d is not confirmed at the agreed head %d"
                             % (deadline, head))
        count = self._registry_count()
        self.state = AuctionState.CLOSED
        self.emit("Closed", bidder_count=count, deadline_height=deadline)

    # -- winner determination ---------------------------------------------------

    def cutoff_balance(self, escrow: bytes) -> int:
        """The escrow's balance at the deadline height: its bid."""
        return self.quorum.query_balance(escrow, self.config.deadline_height)

    def _first_reach_height(self, escrow: bytes, target: int) -> int:
        """Earliest height with balance == target (balances are monotone)."""
        low, high = 1, self.config.deadline_height
        while low < high:
            mid = (low + high) // 2
            balance = self.quorum.query_balance(escrow, mid)
            if balance >= target:
                high = mid
            else:
                low = mid + 1
        return low

    def determine_winner(self) -> Tuple[Optional[RegistryEntry], int]:
        """One cutoff query per registered escrow; ties need extra queries."""
        entries = self._load_registry()
        balances = [(entry, self.cutoff_balance(entry.escrow_address))
                    for entry in entries]
        funded = [(entry, bal) for entry, bal in balances if bal > 0]
        if not funded:
            return None, 0
        top = max(bal for _, bal in funded)
        tied = [entry for entry, bal in funded if bal == top]
        if len(tied) == 1:
            return tied[0], top
        return min(tied, key=lambda e: self.rank_key(e, top)), top

    def rank_key(self, entry: RegistryEntry, amount: int) -> Tuple[int, bytes]:
        """Tie-break key (reach height, address); lower wins."""
        return (self._first_reach_height(entry.escrow_address, amount),
                entry.escrow_address)

    # -- settlement construction ---------------------------------------------------

    def _sign_transfer(self, handle: str, nonce: int, to: bytes,
                       value: int, data: bytes = b"") -> SignedTransaction:
        tx = UnsignedTx(
            nonce=nonce,
            gas_price=self.config.gas_price,
            gas_limit=self.config.settlement_tx_gas,
            to=to,
            value=value,
            data=data,
            chain_id=self.config.chain_id,
        )
        return self.enclave.sign_with(handle, tx)

    def settlement_for(self, winner: Optional[RegistryEntry],
                       winner_amount: int) -> ResolutionResult:
        """Query every escrow and sign the settlement; changes no state."""
        config = self.config
        head = self.quorum.query_height()
        observed = max(config.deadline_height, head - config.kappa)
        fee = config.settlement_fee
        entries = self._load_registry()
        txs: List[SettlementTx] = []
        conservation = ConservationLedger()

        # the auctioned asset moves first: to the winner's claim address,
        # or back to the auctioneer when nobody bid
        recipient = winner.claim_address if winner else config.auctioneer_address
        asset_tx = self._sign_transfer(
            self._asset_handle, 0, ASSET_REGISTRY_ADDRESS, 0,
            asset_transfer_data(config.token_id, recipient))
        txs.append(SettlementTx("asset_claim", asset_tx))

        for entry in entries:
            full = self.quorum.query_balance(entry.escrow_address, observed)
            record = ConservationEntry(entry.escrow_address, full)
            conservation.entries.append(record)
            if full == 0:
                continue
            source = self.quorum.query_funding_source(entry.escrow_address, observed)
            refund_to = source if source else None
            if winner is not None and entry.index == winner.index:
                # if full < winner_amount (possible only when the escrow was
                # drained by a breach) the entry is left unbalanced on purpose
                payouts = [("winner_payment", config.auctioneer_address, winner_amount),
                           ("excess_return", refund_to, max(0, full - winner_amount))]
            else:
                payouts = [("refund", refund_to, full)]
            nonce = 0
            for role, to, gross in payouts:
                if gross > fee and to is not None:
                    txs.append(SettlementTx(role, self._sign_transfer(
                        entry.handle, nonce, to, gross - fee)))
                    record.transferred += gross - fee
                    record.fees += fee
                    nonce += 1
                else:
                    record.dust += gross

        return ResolutionResult(
            winner_escrow=winner.escrow_address if winner else None,
            winning_amount=winner_amount if winner else 0,
            cutoff_height=config.deadline_height,
            settlement_txs=txs,
            bidder_set_disclosure=[e.escrow_address for e in entries],
            conservation=conservation,
        )

    def commit(self, result: ResolutionResult, actor: str) -> None:
        """Closed -> Resolved: publish the settlement and charge end_auction."""
        self._require_state(AuctionState.CLOSED, "commit")
        self.resolution = result
        self.state = AuctionState.RESOLVED
        self.emit(
            "Resolved",
            winner_escrow=hx(result.winner_escrow) if result.has_winner else None,
            winning_amount=result.winning_amount,
            cutoff_height=result.cutoff_height,
            payloads=[stx.to_record() for stx in result.settlement_txs],
            bidder_set=[hx(a) for a in result.bidder_set_disclosure],
        )
        self.gas.charge(LAYER_EXECUTION, OP_END, actor=actor,
                        n_bidders=len(result.bidder_set_disclosure))

    def resolve(self) -> ResolutionResult:
        """Exhaustive resolution; on quorum failure the state stays Closed."""
        self._require_state(AuctionState.CLOSED, "resolve")
        if self.config.resolution_mode != MODE_EXHAUSTIVE:
            raise StateError("resolve is only available in exhaustive mode")
        winner, amount = self.determine_winner()
        result = self.settlement_for(winner, amount)
        self.commit(result, actor="resolver")
        return result

    # -- post-resolution ---------------------------------------------------------

    def finalize(self, chain: SimChain) -> AuctionState:
        """Claimed once every settlement tx is kappa-deep; a poll."""
        self._require_state(AuctionState.RESOLVED, "finalize")
        kappa = self.config.kappa
        heights = {}
        for stx in self.resolution.settlement_txs:
            tx_hash = stx.tx.tx_hash()
            if not chain.is_confirmed(tx_hash, kappa):
                return self.state
            heights[stx.to_record()["raw"]] = chain.height_of(tx_hash)
        self.state = AuctionState.CLAIMED
        self.emit("Claimed", inclusion_heights=heights)
        return self.state

