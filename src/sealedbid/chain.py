"""Simulated public settlement chain.

An account ledger with explicit block production, bounded reorgs, a
finality window, and a single-asset ownership registry. The chain is the
one record of what was included: `height_of` answers it, and a reorg
reports only whether it applied. Value is an
unsigned integer unit; each included value transfer pays a flat fee of
`tx_gas * tx.gas_price` which is tracked (not redistributed), so

    sum(balances) + fees_collected == genesis supply

holds after every block. Asset-registry transactions are fee-exempt:
their senders are enclave-held escrow accounts that hold no balance, and
their real-world fees are treated as relayer-sponsored (the gas ledger
still accounts them).

Asset transfers are ordinary signed transactions addressed to
ASSET_REGISTRY_ADDRESS with data = rlp([token_id, recipient]) and zero
value; they apply only if the signer currently owns the token.

The transaction pool keeps two sets, after go-ethereum's legacypool:

- pending: executable transactions, in arrival order. A sender's pending
  transactions carry consecutive nonces starting at its account nonce,
  and the next block includes all of them unless one is invalidated at
  mining.
- queued: future-nonce transactions parked per sender, keyed by nonce,
  at most MAX_QUEUED_PER_SENDER (64) per sender. A transaction whose
  nonce is past the sender's next pending nonce waits here until the gap
  fills, so relayers may submit a nonce chain in any order.

A stale nonce (one below the next pending nonce), a second transaction
at a nonce already queued, and a future nonce past the queue bound are
rejected outright. Admitting the transaction at the next pending nonce
discards any queued one at that nonce and promotes the sender's queued
transactions that now follow without a gap into pending, in nonce
order. Promotion runs the funds check of admission; it stops at the
first transaction that cannot pay, which is dropped.
"""

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from sealedbid import rlp
from sealedbid.crypto import keccak_256
from sealedbid.errors import ChainQueryError, CodecError, ConfigError, SignatureError
from sealedbid.transactions import SignedTransaction, recover_signer

ASSET_REGISTRY_ADDRESS = keccak_256(b"sealedbid/asset-registry")[-20:]

REJECT_BAD_SIGNATURE = "bad_signature"
REJECT_REPLAY = "replay_protection"
REJECT_NONCE_GAP = "nonce_gap"
REJECT_INSUFFICIENT = "insufficient_funds"
REJECT_ASSET_OP = "invalid_asset_op"

MAX_QUEUED_PER_SENDER = 64  # go-ethereum's default AccountQueue


def asset_transfer_data(token_id: int, recipient: bytes) -> bytes:
    return rlp.encode([rlp.encode_int(token_id), recipient])


def parse_asset_transfer(data: bytes) -> Tuple[int, bytes]:
    item = rlp.decode(data)
    if not (isinstance(item, list) and len(item) == 2
            and isinstance(item[0], bytes) and isinstance(item[1], bytes)
            and len(item[1]) == 20):
        raise CodecError("asset transfer data must be rlp([token_id, recipient])")
    return rlp.decode_int(item[0]), item[1]


GENESIS_PARENT_HASH = b"\x00" * 32


class Block:
    """A mined block: its height, its transactions, its parent and the
    account and asset state after it. A state is not changed once its
    block is appended, so a block that applies no transaction keeps its
    parent's state object, and the history queries read `_state`.

    Nothing in a run reads a block's commitments, so `state_root`,
    `parent_hash` and `header_hash()` are computed on first read and then
    kept. A block removed by a reorg keeps its own.
    """

    __slots__ = ("height", "tx_list", "_parent", "_state", "_root", "_hash")

    def __init__(self, height: int, tx_list: Tuple[SignedTransaction, ...],
                 parent: Optional["Block"], state: "_State"):
        self.height = height
        self.tx_list = tx_list
        self._parent = parent
        self._state = state
        self._root: Optional[bytes] = None
        self._hash: Optional[bytes] = None

    @property
    def state_root(self) -> bytes:
        if self._root is None:
            self._root = self._state.root()
        return self._root

    @property
    def parent_hash(self) -> bytes:
        if self._parent is None:
            return GENESIS_PARENT_HASH
        return self._parent.header_hash()

    def header_hash(self) -> bytes:
        """keccak of rlp([height, parent_hash, state_root, [raw txs]]).
        Unhashed ancestors are hashed oldest first, without recursion."""
        unhashed = []
        block = self
        while block is not None and block._hash is None:
            unhashed.append(block)
            block = block._parent
        for block in reversed(unhashed):
            block._hash = keccak_256(rlp.encode([
                rlp.encode_int(block.height),
                block.parent_hash,
                block.state_root,
                [tx.raw() for tx in block.tx_list],
            ]))
        return self._hash


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of `SimChain.submit_tx`.

    `accepted` means the transaction entered the pending set: the next
    block includes it unless it is invalidated at mining. Otherwise
    `reason` names the rejection. `queued` is True only for a future
    nonce parked in the queued set (`accepted=False`,
    `reason="nonce_gap"`); it becomes pending when its nonce gap fills.
    """

    accepted: bool
    reason: Optional[str]
    queued: bool = False


@dataclass(frozen=True)
class ReorgResult:
    applied: bool
    reason: Optional[str] = None


class _State:
    """Post-block account/asset snapshot; cheap to copy at desk scale."""

    __slots__ = ("balances", "nonces", "assets", "fees_collected")

    def __init__(self, balances=None, nonces=None, assets=None, fees_collected=0):
        self.balances: Dict[bytes, int] = dict(balances or {})
        self.nonces: Dict[bytes, int] = dict(nonces or {})
        self.assets: Dict[int, bytes] = dict(assets or {})
        self.fees_collected = fees_collected

    def copy(self) -> "_State":
        return _State(self.balances, self.nonces, self.assets, self.fees_collected)

    def root(self) -> bytes:
        """keccak of rlp([[[addr, balance, nonce] for each account, sorted],
        [[token, owner] for each asset, sorted], fees_collected])."""
        return keccak_256(rlp.encode([
            [[addr, rlp.encode_int(self.balances.get(addr, 0)),
              rlp.encode_int(self.nonces.get(addr, 0))]
             for addr in sorted(set(self.balances) | set(self.nonces))],
            [[rlp.encode_int(token), owner]
             for token, owner in sorted(self.assets.items())],
            rlp.encode_int(self.fees_collected),
        ]))


class SimChain:
    def __init__(self, genesis: Dict[bytes, int], chain_id: int, finality_depth: int,
                 genesis_assets=None, tx_gas: int = 21_000):
        if finality_depth < 1:
            raise ConfigError("finality_depth must be >= 1")
        if tx_gas < 0:
            raise ConfigError("tx_gas must be non-negative")
        state = _State()
        for addr, balance in genesis.items():
            if len(addr) != 20:
                raise ConfigError("genesis address must be 20 bytes")
            if balance < 0:
                raise ConfigError("genesis balance must be non-negative")
            state.balances[addr] = balance
        for token_id, owner in (genesis_assets or {}).items():
            if len(owner) != 20:
                raise ConfigError("asset owner must be a 20-byte address")
            state.assets[int(token_id)] = owner

        self.chain_id = chain_id
        self.finality_depth = finality_depth
        self.tx_gas = tx_gas
        self._lock = threading.RLock()
        self._pending: List[Tuple[SignedTransaction, bytes]] = []  # (tx, sender)
        # sender -> (its transactions in _pending, the value plus fees they commit)
        self._pending_from: Dict[bytes, Tuple[int, int]] = {}
        self._queued: Dict[bytes, Dict[int, SignedTransaction]] = {}  # sender -> nonce -> tx
        self._blocks: List[Block] = [Block(0, (), None, state)]
        self._tx_index: Dict[bytes, int] = {}  # tx_hash -> inclusion height
        # address -> (height, sender) of its first value inflow
        self._first_inflow: Dict[bytes, Tuple[int, bytes]] = {}

    # -- queries ------------------------------------------------------------

    @property
    def head_height(self) -> int:
        return len(self._blocks) - 1

    def _known(self, height: int) -> int:
        """`height`, if a block is there; ChainQueryError otherwise."""
        if not 0 <= height <= self.head_height:
            raise ChainQueryError("unknown height %d" % height)
        return height

    def block_at(self, height: int) -> Block:
        with self._lock:
            return self._blocks[self._known(height)]

    def balance_at(self, addr: bytes, height: int) -> int:
        with self._lock:
            return self._blocks[self._known(height)]._state.balances.get(addr, 0)

    def asset_owner_at(self, token_id: int, height: int) -> bytes:
        with self._lock:
            owner = self._blocks[self._known(height)]._state.assets.get(token_id)
            if owner is None:
                raise ChainQueryError("unknown token %d at height %d" % (token_id, height))
            return owner

    def balance(self, addr: bytes) -> int:
        return self.balance_at(addr, self.head_height)

    def account_nonce(self, addr: bytes) -> int:
        with self._lock:
            return self._blocks[-1]._state.nonces.get(addr, 0)

    def next_nonce(self, addr: bytes) -> int:
        """Account nonce plus executable transactions pending from `addr`.

        Queued (future-nonce) transactions are not counted.
        """
        with self._lock:
            return self.account_nonce(addr) + self._pending_from.get(addr, (0, 0))[0]

    def token_owner(self, token_id: int) -> bytes:
        return self.asset_owner_at(token_id, self.head_height)

    def total_supply(self) -> int:
        with self._lock:
            state = self._blocks[-1]._state
            return sum(state.balances.values()) + state.fees_collected

    def fees_collected_at(self, height: int) -> int:
        with self._lock:
            return self._blocks[self._known(height)]._state.fees_collected

    def height_of(self, tx_hash: bytes) -> Optional[int]:
        with self._lock:
            return self._tx_index.get(tx_hash)

    def is_confirmed(self, tx_hash: bytes, confirmations: int) -> bool:
        with self._lock:
            height = self._tx_index.get(tx_hash)
            return height is not None and self.head_height >= height + confirmations

    def first_funder(self, addr: bytes, height: int) -> Optional[bytes]:
        """Sender of the first value transfer into `addr`, as of `height`."""
        with self._lock:
            self._known(height)
            first = self._first_inflow.get(addr)
            if first is None or first[0] > height:
                return None
            return first[1]

    def pending_count(self) -> int:
        """Executable transactions awaiting the next block; queued ones are
        not counted."""
        with self._lock:
            return len(self._pending)

    # -- fees ---------------------------------------------------------------

    def tx_fee(self, tx: SignedTransaction) -> int:
        if tx.to == ASSET_REGISTRY_ADDRESS:
            return 0
        return self.tx_gas * tx.gas_price

    # -- mutation -----------------------------------------------------------

    def submit_tx(self, tx: SignedTransaction) -> SubmitResult:
        if tx.v < 35 or tx.chain_id != self.chain_id:
            return SubmitResult(False, REJECT_REPLAY)
        try:
            sender = recover_signer(tx)
        except SignatureError:
            return SubmitResult(False, REJECT_BAD_SIGNATURE)
        if tx.to == ASSET_REGISTRY_ADDRESS:
            if tx.value != 0:
                return SubmitResult(False, REJECT_ASSET_OP)
            try:
                parse_asset_transfer(tx.data)
            except CodecError:
                return SubmitResult(False, REJECT_ASSET_OP)
        cost = tx.value + self.tx_fee(tx)
        with self._lock:
            state = self._blocks[-1]._state
            pending, committed = self._pending_from.get(sender, (0, 0))
            expected_nonce = state.nonces.get(sender, 0) + pending
            queued = self._queued.get(sender, {})
            if tx.nonce < expected_nonce:
                return SubmitResult(False, REJECT_NONCE_GAP)
            if tx.nonce > expected_nonce and (tx.nonce in queued
                                              or len(queued) >= MAX_QUEUED_PER_SENDER):
                return SubmitResult(False, REJECT_NONCE_GAP)
            spendable = state.balances.get(sender, 0) - committed
            if cost > spendable:
                return SubmitResult(False, REJECT_INSUFFICIENT)
            if tx.nonce > expected_nonce:
                self._queued.setdefault(sender, {})[tx.nonce] = tx
                return SubmitResult(False, REJECT_NONCE_GAP, queued=True)
            self._admit(tx, sender, cost)
            if queued:
                self._promote(sender, tx.nonce, spendable - cost)
            return SubmitResult(True, None)

    def _admit(self, tx: SignedTransaction, sender: bytes, cost: int) -> None:
        self._pending.append((tx, sender))
        pending, committed = self._pending_from.get(sender, (0, 0))
        self._pending_from[sender] = (pending + 1, committed + cost)

    def _promote(self, sender: bytes, admitted_nonce: int, spendable: int) -> None:
        """Discard `sender`'s queued transaction at `admitted_nonce`, then
        move the queued ones that follow it without a gap into pending, in
        nonce order, while `spendable` pays for them. The first that
        cannot pay is dropped."""
        queued = self._queued[sender]
        queued.pop(admitted_nonce, None)
        nonce = admitted_nonce + 1
        while nonce in queued:
            tx = queued.pop(nonce)
            cost = tx.value + self.tx_fee(tx)
            if cost > spendable:
                break
            self._admit(tx, sender, cost)
            spendable -= cost
            nonce += 1
        if not queued:
            del self._queued[sender]

    def mine_block(self) -> Block:
        with self._lock:
            parent = self._blocks[-1]
            state = parent._state.copy() if self._pending else parent._state
            applied = [(tx, sender) for tx, sender in self._pending
                       if self._apply(state, tx, sender)]
            self._pending, self._pending_from = [], {}
            # a block that applies nothing shares its parent's state
            block = Block(parent.height + 1, tuple(tx for tx, _ in applied),
                          parent, state if applied else parent._state)
            self._blocks.append(block)
            for tx, sender in applied:
                self._tx_index[tx.tx_hash()] = block.height
                if tx.value > 0 and tx.to not in self._first_inflow:
                    self._first_inflow[tx.to] = (block.height, sender)
            return block

    def _apply(self, state: _State, tx: SignedTransaction, sender: bytes) -> bool:
        """Apply `tx` to `state` in place; invalidated transactions drop."""
        if tx.nonce != state.nonces.get(sender, 0):
            return False
        fee = self.tx_fee(tx)
        if state.balances.get(sender, 0) < tx.value + fee:
            return False
        if tx.to == ASSET_REGISTRY_ADDRESS:
            try:
                token_id, recipient = parse_asset_transfer(tx.data)
            except CodecError:
                return False
            if state.assets.get(token_id) != sender:
                return False
            state.assets[token_id] = recipient
        else:
            state.balances[tx.to] = state.balances.get(tx.to, 0) + tx.value
        state.balances[sender] = state.balances.get(sender, 0) - tx.value - fee
        state.fees_collected += fee
        state.nonces[sender] = tx.nonce + 1
        return True

    def reorg(self, depth: int, replacement_txs=()) -> ReorgResult:
        """Replace the last `depth` blocks, re-mining with `replacement_txs`.

        Transactions from the replaced blocks are dropped unless they
        appear in the replacement list. A replacement that does not fit
        the re-mined nonces is dropped, not queued; `height_of` tells
        which replacements landed. The untouched pending and queued sets
        survive the reorg. A negative depth is a ConfigError, and the
        chain is left as it was.
        """
        if depth < 0:
            raise ConfigError("reorg depth must be >= 0, got %d" % depth)
        with self._lock:
            if depth == 0:
                return ReorgResult(applied=True)
            if depth > min(self.finality_depth, self.head_height):
                return ReorgResult(applied=False, reason="finality")
            removed = self._blocks[-depth:]
            del self._blocks[-depth:]
            for block in removed:
                for tx in block.tx_list:
                    self._tx_index.pop(tx.tx_hash(), None)
                    first = self._first_inflow.get(tx.to)
                    if first is not None and first[0] > self.head_height:
                        del self._first_inflow[tx.to]
            stashed = self._pending, self._pending_from, self._queued
            self._pending, self._pending_from, self._queued = [], {}, {}
            # a queued replacement lands if a later one fills its gap
            for tx in replacement_txs:
                self.submit_tx(tx)
            for _ in range(depth):
                self.mine_block()
            self._pending, self._pending_from, self._queued = stashed
            return ReorgResult(applied=True)
