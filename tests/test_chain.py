"""Settlement chain: ledger rules, history queries, reorgs, conservation."""

import random
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sealedbid import chain as chain_module, rlp
from sealedbid.chain import (
    ASSET_REGISTRY_ADDRESS,
    SimChain,
    asset_transfer_data,
)
from sealedbid.crypto import keccak_256, secp256k1
from sealedbid.errors import ChainQueryError, ConfigError
from sealedbid.transactions import (
    SignedTransaction,
    UnsignedTx,
    derive_address,
    recover_signer,
    sign_tx,
)

CHAIN_ID = 1
GAS = 21_000


def addr_of(key):
    return derive_address(secp256k1.public_key(key))


KEY_A, KEY_B, KEY_C = 1001, 1002, 1003
A, B, C = addr_of(KEY_A), addr_of(KEY_B), addr_of(KEY_C)


def make_chain(finality=6, genesis=None, assets=None, chain_id=CHAIN_ID):
    balances = {A: 10_000_000, B: 10_000_000} if genesis is None else genesis
    return SimChain(balances, chain_id=chain_id, finality_depth=finality,
                    genesis_assets=assets)


def transfer(chain, key, to, value, nonce=None, gas_price=1, chain_id=CHAIN_ID,
             data=b""):
    sender = addr_of(key)
    tx = UnsignedTx(
        nonce=chain.next_nonce(sender) if nonce is None else nonce,
        gas_price=gas_price, gas_limit=GAS, to=to, value=value,
        data=data, chain_id=chain_id)
    return sign_tx(tx, key)


# -- creation -----------------------------------------------------------------

def test_empty_genesis():
    chain = SimChain({}, chain_id=1, finality_depth=6)
    assert chain.head_height == 0
    assert chain.total_supply() == 0


def test_genesis_identity():
    chain = SimChain({A: 100}, chain_id=1, finality_depth=6)
    assert chain.balance_at(A, 0) == 100


def test_two_account_supply_matches_sum():
    chain = SimChain({A: 100, B: 250}, chain_id=1, finality_depth=6)
    assert chain.total_supply() == 350


def test_genesis_validation():
    with pytest.raises(ConfigError):
        SimChain({A: -1}, chain_id=1, finality_depth=6)
    with pytest.raises(ConfigError):
        SimChain({}, chain_id=1, finality_depth=0)
    with pytest.raises(ConfigError):
        SimChain({b"\x01": 5}, chain_id=1, finality_depth=6)


# -- submission ---------------------------------------------------------------

def test_valid_transfer_accepted_and_applied():
    chain = make_chain()
    result = chain.submit_tx(transfer(chain, KEY_A, C, 5))
    assert result.accepted
    chain.mine_block()
    assert chain.balance(C) == 5
    assert chain.balance(A) == 10_000_000 - 5 - GAS


def test_chain_id_mismatch_rejected_as_replay():
    chain = make_chain()
    foreign = transfer(chain, KEY_A, C, 5, chain_id=2)
    result = chain.submit_tx(foreign)
    assert not result.accepted and result.reason == "replay_protection"


def test_cross_chain_replay_isolation():
    chain1 = make_chain(chain_id=1)
    chain2 = make_chain(chain_id=2)
    tx = transfer(chain1, KEY_A, C, 5, chain_id=1)
    assert chain1.submit_tx(tx).accepted
    assert chain2.submit_tx(tx).reason == "replay_protection"


def test_overdraft_rejected():
    chain = make_chain(genesis={A: 30_000})
    result = chain.submit_tx(transfer(chain, KEY_A, C, 20_000))
    assert result.reason == "insufficient_funds"  # 20000 + fee > 30000


def test_fee_counts_against_balance():
    chain = make_chain(genesis={A: GAS + 10})
    assert chain.submit_tx(transfer(chain, KEY_A, C, 10)).accepted
    assert chain.submit_tx(transfer(chain, KEY_A, C, 11, nonce=0)).reason \
        == "nonce_gap"  # second tx has stale nonce anyway
    chain2 = make_chain(genesis={A: GAS + 10})
    assert chain2.submit_tx(transfer(chain2, KEY_A, C, 11)).reason \
        == "insufficient_funds"


def test_nonce_gap_rejected():
    chain = make_chain()
    result = chain.submit_tx(transfer(chain, KEY_A, C, 5, nonce=3))
    assert result.reason == "nonce_gap"


def test_bad_signature_rejected():
    chain = make_chain()
    tx = transfer(chain, KEY_A, C, 5)
    from sealedbid.transactions import SignedTransaction
    forged = SignedTransaction(tx.nonce, tx.gas_price, tx.gas_limit, tx.to,
                               tx.value + 1, tx.data, tx.v, tx.r,
                               secp256k1.N - tx.s)
    assert chain.submit_tx(forged).reason == "bad_signature"


def test_pending_nonce_chain_in_one_block():
    chain = make_chain()
    assert chain.submit_tx(transfer(chain, KEY_A, C, 5)).accepted
    assert chain.submit_tx(transfer(chain, KEY_A, C, 7)).accepted  # nonce n+1
    block = chain.mine_block()
    assert len(block.tx_list) == 2
    assert chain.balance(C) == 12
    assert chain.account_nonce(A) == 2


def test_a_future_nonce_is_rejected_and_changes_nothing():
    chain = make_chain()
    later = transfer(chain, KEY_A, C, 7, nonce=1)
    result = chain.submit_tx(later)
    assert not result.accepted and result.reason == "nonce_gap"
    assert (chain._pending, chain._pending_from, chain.next_nonce(A)) == ([], {}, 0)
    # the gap fills, and only the transaction at the next nonce lands
    assert chain.submit_tx(transfer(chain, KEY_A, C, 5, nonce=0)).accepted
    assert chain.next_nonce(A) == 1
    assert [tx.nonce for tx in chain.mine_block().tx_list] == [0]
    assert chain.height_of(later.tx_hash()) is None and chain.balance(C) == 5


# -- mining ----------------------------------------------------------------------

def test_empty_pool_mines_empty_block():
    chain = make_chain()
    block = chain.mine_block()
    assert block.height == 1 and block.tx_list == ()


def test_sequential_apply_oracle():
    """Block application equals a hand-rolled sequential replay."""
    rng = random.Random(17)
    chain = make_chain()
    expected = {A: 10_000_000, B: 10_000_000}
    fees = 0
    for _ in range(5):
        for _ in range(rng.randrange(0, 4)):
            key, sender = rng.choice([(KEY_A, A), (KEY_B, B)])
            value = rng.randrange(1, 2000)
            if chain.submit_tx(transfer(chain, key, C, value)).accepted:
                expected[sender] -= value + GAS
                expected[C] = expected.get(C, 0) + value
                fees += GAS
        chain.mine_block()
    for account, balance in expected.items():
        assert chain.balance(account) == balance
    assert chain._blocks[-1]._state.fees_collected == fees


def test_value_and_asset_transfer_in_one_block():
    chain = make_chain(assets={7: A})
    chain.submit_tx(transfer(chain, KEY_A, C, 9))
    chain.submit_tx(transfer(chain, KEY_A, ASSET_REGISTRY_ADDRESS, 0,
                             data=asset_transfer_data(7, B)))
    chain.mine_block()
    assert chain.balance(C) == 9
    assert chain.token_owner(7) == B


def test_invalidated_pending_tx_dropped_at_mining():
    chain = make_chain(genesis={A: 2 * GAS + 100})
    # both pass admission individually, but together they overdraw
    t1 = transfer(chain, KEY_A, C, 90)
    assert chain.submit_tx(t1).accepted
    t2 = transfer(chain, KEY_A, B, 90, nonce=1)
    chain._pending.append((t2, A))  # bypass admission to force the conflict
    block = chain.mine_block()
    assert len(block.tx_list) == 1


# -- asset registry ----------------------------------------------------------------

def test_asset_minted_at_genesis():
    chain = make_chain(assets={5: A})
    assert chain.asset_owner_at(5, 0) == A


def test_asset_transfer_history():
    chain = make_chain(assets={5: A})
    chain.mine_block()  # height 1
    chain.submit_tx(transfer(chain, KEY_A, ASSET_REGISTRY_ADDRESS, 0,
                             data=asset_transfer_data(5, B)))
    chain.mine_block()  # height 2: transferred
    assert chain.asset_owner_at(5, 1) == A
    assert chain.asset_owner_at(5, 2) == B


def test_asset_transfer_requires_ownership():
    chain = make_chain(assets={5: A})
    chain.submit_tx(transfer(chain, KEY_B, ASSET_REGISTRY_ADDRESS, 0,
                             data=asset_transfer_data(5, B)))
    chain.mine_block()
    assert chain.token_owner(5) == A  # dropped at apply time


def test_malformed_asset_op_rejected():
    chain = make_chain()
    assert chain.submit_tx(transfer(chain, KEY_A, ASSET_REGISTRY_ADDRESS, 0,
                                    data=b"junk")).reason == "invalid_asset_op"
    assert chain.submit_tx(transfer(chain, KEY_A, ASSET_REGISTRY_ADDRESS, 5,
                                    data=asset_transfer_data(5, B))
                           ).reason == "invalid_asset_op"


def test_unknown_token_query_errors():
    chain = make_chain()
    with pytest.raises(ChainQueryError):
        chain.asset_owner_at(99, 0)


# -- historical queries ----------------------------------------------------------------

def test_unfunded_address_is_zero_everywhere():
    chain = make_chain()
    chain.mine_block()
    assert chain.balance_at(C, 0) == 0
    assert chain.balance_at(C, 1) == 0


def test_balance_at_replay_oracle():
    chain = make_chain()
    chain.mine_block()
    chain.mine_block()
    chain.submit_tx(transfer(chain, KEY_A, C, 7))
    chain.mine_block()  # height 3: +7
    assert chain.balance_at(C, 2) == 0
    assert chain.balance_at(C, 3) == 7


def test_late_topup_excluded_at_cutoff():
    chain = make_chain()
    chain.mine_block(), chain.mine_block()
    chain.submit_tx(transfer(chain, KEY_A, C, 7))
    chain.mine_block()  # height 3
    chain.mine_block()  # height 4 (the cutoff)
    chain.submit_tx(transfer(chain, KEY_A, C, 2))
    chain.mine_block()  # height 5
    assert chain.balance_at(C, 4) == 7
    assert chain.balance_at(C, 5) == 9


def test_unknown_height_errors():
    chain = make_chain()
    with pytest.raises(ChainQueryError):
        chain.balance_at(A, 5)


def test_first_funder():
    chain = make_chain()
    assert chain.first_funder(C, 0) is None
    chain.submit_tx(transfer(chain, KEY_B, C, 3))
    chain.mine_block()
    chain.submit_tx(transfer(chain, KEY_A, C, 5))
    chain.mine_block()
    assert chain.first_funder(C, chain.head_height) == B


# -- conservation and determinism ----------------------------------------------------

def test_supply_conserved_over_random_blocks():
    rng = random.Random(23)
    chain = make_chain()
    initial = chain.total_supply()
    keys = [KEY_A, KEY_B]
    for _ in range(12):
        for _ in range(rng.randrange(0, 5)):
            chain.submit_tx(transfer(chain, rng.choice(keys),
                                     rng.choice([A, B, C]),
                                     rng.randrange(0, 5000)))
        chain.mine_block()
        assert chain.total_supply() == initial


def test_identical_histories_produce_identical_roots():
    def build():
        chain = make_chain(assets={3: A})
        chain.submit_tx(transfer(chain, KEY_A, C, 5))
        chain.mine_block()
        chain.submit_tx(transfer(chain, KEY_B, C, 9))
        chain.submit_tx(transfer(chain, KEY_A, ASSET_REGISTRY_ADDRESS, 0,
                                 data=asset_transfer_data(3, C)))
        chain.mine_block()
        return [chain.block_at(h).state_root for h in range(chain.head_height + 1)]
    assert build() == build()


# -- reorgs ---------------------------------------------------------------------------

def test_reorg_depth_zero_is_noop():
    chain = make_chain()
    chain.mine_block()
    root = chain.block_at(1).state_root
    result = chain.reorg(0)
    assert result.applied
    assert chain.block_at(1).state_root == root


def test_reorg_beyond_finality_refused():
    chain = make_chain(finality=3)
    for _ in range(6):
        chain.mine_block()
    result = chain.reorg(4)
    assert not result.applied and result.reason == "finality"
    assert chain.reorg(3).applied


def test_reorg_cannot_touch_genesis():
    chain = make_chain(finality=6)
    chain.mine_block()
    assert not chain.reorg(2).applied


def test_reorg_removing_funding_changes_cutoff_balance():
    chain = make_chain()
    funding = transfer(chain, KEY_A, C, 7)
    chain.submit_tx(funding)
    chain.mine_block()  # height 1 carries the funding
    assert chain.balance_at(C, 1) == 7
    result = chain.reorg(1, censor={funding.tx_hash()})
    assert result.applied
    assert chain.head_height == 1
    assert chain.balance_at(C, 1) == 0
    assert chain.height_of(funding.tx_hash()) is None


def test_reorg_reincludes_replacements():
    chain = make_chain()
    tx = transfer(chain, KEY_A, C, 7)
    chain.submit_tx(tx)
    chain.mine_block()
    chain.mine_block()
    assert chain.reorg(2).applied
    assert chain.head_height == 2
    assert chain.balance_at(C, 1) == 7  # re-landed in the first re-mined block
    assert chain.height_of(tx.tx_hash()) == 1


def test_reorg_replay_recovers_no_sender_again(monkeypatch):
    # sign_tx leaves the sender unset, so the first submission recovers it;
    # a reorg that replays the same transactions recovers nothing
    calls = []
    real = secp256k1.recover_public_key
    monkeypatch.setattr(secp256k1, "recover_public_key",
                        lambda *args: calls.append(args) or real(*args))
    chain = make_chain()
    txs = [transfer(chain, KEY_A, C, 7, nonce=0), transfer(chain, KEY_A, C, 8, nonce=1),
           transfer(chain, KEY_B, C, 9)]
    assert all(chain.submit_tx(tx).accepted for tx in txs)
    assert len(calls) == len(txs)
    chain.mine_block()
    chain.mine_block()
    assert chain.reorg(2).applied
    assert [chain.height_of(tx.tx_hash()) for tx in txs] == [1, 1, 1]
    assert len(calls) == len(txs)
    assert chain.balance_at(C, 1) == 24
    # a transaction decoded afresh is recovered, once
    fresh = SignedTransaction.from_raw(txs[2].raw())
    assert recover_signer(fresh) == recover_signer(fresh) == B
    assert len(calls) == len(txs) + 1


def test_negative_reorg_depth_is_rejected_and_changes_nothing():
    chain = make_chain(finality=6)
    tx = transfer(chain, KEY_A, C, 7)
    chain.submit_tx(tx)
    for _ in range(5):
        chain.mine_block()
    before = [chain.balance_at(C, h) for h in range(6)]
    with pytest.raises(ConfigError, match="reorg depth must be >= 0"):
        chain.reorg(-2)
    assert chain.head_height == 5
    assert [chain.balance_at(C, h) for h in range(6)] == before == [0, 7, 7, 7, 7, 7]
    assert chain.height_of(tx.tx_hash()) == 1


def test_finalized_history_immutable_under_permitted_reorgs():
    rng = random.Random(5)
    chain = make_chain(finality=3)
    for _ in range(10):
        if rng.random() < 0.7:
            chain.submit_tx(transfer(chain, KEY_A, C, rng.randrange(1, 100)))
        chain.mine_block()
    finalized_height = chain.head_height - chain.finality_depth
    frozen = [chain.balance_at(C, h) for h in range(finalized_height + 1)]
    for depth in (1, 2, 3, 4):
        chain.reorg(depth)  # depth 4 is refused; 1-3 apply
        assert [chain.balance_at(C, h)
                for h in range(finalized_height + 1)] == frozen


def test_pending_pool_survives_reorg():
    chain = make_chain()
    chain.mine_block()
    chain.submit_tx(transfer(chain, KEY_B, C, 11))
    assert chain.reorg(1).applied
    assert chain.next_nonce(B) == 1
    chain.mine_block()
    assert chain.balance(C) == 11


def test_a_reorg_replays_in_block_order():
    # A's nonce 1 lands after its nonce 0 although B's transfer came first
    chain = make_chain()
    first = transfer(chain, KEY_A, C, 5, nonce=0)
    chain.submit_tx(first)
    chain.mine_block()
    other, second = transfer(chain, KEY_B, C, 9), transfer(chain, KEY_A, C, 7, nonce=1)
    chain.submit_tx(other), chain.submit_tx(second)
    chain.mine_block()
    assert chain.reorg(2).applied
    assert chain.block_at(1).tx_list == (first, other, second)
    assert [chain.height_of(tx.tx_hash()) for tx in (first, other, second)] == [1, 1, 1]
    assert chain.head_height == 2 and not chain.block_at(2).tx_list
    assert chain.balance(C) == 21


def test_reorg_replacement_with_nonce_gap_rejected_not_queued():
    # censoring A's nonce 0 leaves its replayed nonce 1 with a gap
    chain = make_chain()
    zero = transfer(chain, KEY_A, C, 3, nonce=0)
    gapped = transfer(chain, KEY_A, C, 7, nonce=1)
    chain.submit_tx(zero), chain.submit_tx(gapped)
    chain.mine_block()
    assert chain.reorg(1, censor={zero.tx_hash()}).applied
    assert chain.height_of(zero.tx_hash()) is None
    assert chain.height_of(gapped.tx_hash()) is None
    assert chain.submit_tx(transfer(chain, KEY_A, C, 5, nonce=0)).accepted
    chain.mine_block()
    assert chain.height_of(gapped.tx_hash()) is None
    assert chain.balance(C) == 5


# -- concurrency -----------------------------------------------------------------------

def test_concurrent_submissions_are_safe():
    # each of four threads owns two senders and submits each one's nonces
    # in order, while a fifth mines blocks
    keys = [3000 + i for i in range(8)]
    genesis = {addr_of(k): 1_000_000 for k in keys}
    chain = SimChain(genesis, chain_id=1, finality_depth=6)
    by_thread = [[transfer(chain, k, C, 10, nonce=nonce)
                  for nonce in range(10) for k in keys[2 * i:2 * i + 2]]
                 for i in range(4)]
    accepted = []

    def submit(txs):
        for tx in txs:
            accepted.append(chain.submit_tx(tx).accepted)

    def mine():
        while any(t.is_alive() for t in threads):
            chain.mine_block()

    threads = [threading.Thread(target=submit, args=(txs,)) for txs in by_thread]
    miner = threading.Thread(target=mine)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside submit_tx, not between calls
    try:
        for t in threads + [miner]:
            t.start()
        for t in threads + [miner]:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [miner])
    assert accepted == [True] * 80
    chain.mine_block()
    assert chain.balance(C) == 8 * 10 * 10
    assert chain.total_supply() == 8 * 1_000_000


# -- state roots, header hashes and the first-inflow index --------------------------

def reference_root(state):
    """The state root recomputed from scratch, from the snapshot's dicts."""
    accounts = sorted(set(state.balances) | set(state.nonces))
    return keccak_256(rlp.encode([
        [[addr, rlp.encode_int(state.balances.get(addr, 0)),
          rlp.encode_int(state.nonces.get(addr, 0))] for addr in accounts],
        [[rlp.encode_int(token), owner]
         for token, owner in sorted(state.assets.items())],
        rlp.encode_int(state.fees_collected),
    ]))


def reference_header_hash(block):
    """The header hash with every transaction re-encoded from its fields."""
    raws = [rlp.encode([rlp.encode_int(tx.nonce), rlp.encode_int(tx.gas_price),
                        rlp.encode_int(tx.gas_limit), tx.to, rlp.encode_int(tx.value),
                        tx.data, rlp.encode_int(tx.v), rlp.encode_int(tx.r),
                        rlp.encode_int(tx.s)])
            for tx in block.tx_list]
    return keccak_256(rlp.encode([rlp.encode_int(block.height), block.parent_hash,
                                  block.state_root, raws]))


def reference_header_hashes(chain):
    """Every header hash from genesis up, from the block states and the
    transactions alone: no block commitment is read."""
    hashes = []
    for height in range(chain.head_height + 1):
        block = chain._blocks[height]
        raws = [tx.raw() for tx in block.tx_list]
        parent = hashes[-1] if hashes else b"\x00" * 32
        state = chain._blocks[height]._state
        hashes.append(keccak_256(rlp.encode([
            rlp.encode_int(height), parent, reference_root(state), raws])))
    return hashes


def reference_first_funder(chain, addr, height):
    """The block scan that `first_funder` made before it kept an index."""
    for block in chain._blocks[1:height + 1]:
        for tx in block.tx_list:
            if tx.to == addr and tx.value > 0:
                return recover_signer(tx)
    return None


def test_state_root_and_header_hash_of_a_fixed_history():
    # a transfer, then a transfer with an asset move that a reorg drops
    chain = make_chain(assets={3: A})
    chain.submit_tx(transfer(chain, KEY_A, C, 5))
    chain.mine_block()
    late = transfer(chain, KEY_B, C, 9)
    move = transfer(chain, KEY_A, ASSET_REGISTRY_ADDRESS, 0, data=asset_transfer_data(3, C))
    chain.submit_tx(late), chain.submit_tx(move)
    # the fee-exempt asset move changes A's nonce but not its balance
    assert chain.mine_block().state_root.hex() == \
        "41ef4f8d4287b88840d02b602f02a552ba905163c9ca2ca2913b1931f1a4e2e0"
    assert chain.reorg(1, censor={move.tx_hash()}).applied
    chain.mine_block()
    head = chain.block_at(3)
    assert head.state_root.hex() == \
        "ce7b9679562d8e1b24c0670da24f58f2c6e98e5252035e1178cfd03e2122343e"
    assert head.header_hash().hex() == \
        "2e19e3bb218454896e4e9c67a5588b6357aa0ed6049bc7cea5326772066932be"
    assert chain.block_at(2).header_hash().hex() == \
        "8597d13c50c24051f4537b86cd9d63578a2d70bf252f980d52b1344ebb365a38"


def test_a_block_removed_by_a_reorg_keeps_its_own_commitments():
    # the history above; block 2 is read only after a reorg replaced it
    chain = make_chain(assets={3: A})
    chain.submit_tx(transfer(chain, KEY_A, C, 5))
    chain.mine_block()
    late = transfer(chain, KEY_B, C, 9)
    move = transfer(chain, KEY_A, ASSET_REGISTRY_ADDRESS, 0, data=asset_transfer_data(3, C))
    chain.submit_tx(late), chain.submit_tx(move)
    removed = chain.mine_block()
    assert chain.reorg(1, censor={move.tx_hash()}).applied
    assert removed.state_root.hex() == \
        "41ef4f8d4287b88840d02b602f02a552ba905163c9ca2ca2913b1931f1a4e2e0"
    assert removed.header_hash().hex() == \
        "b8141ecda36e85cc7dcabffeb1bb2e65924f9361f9ce4752334a5b0557382645"
    assert chain.block_at(2).header_hash().hex() == \
        "8597d13c50c24051f4537b86cd9d63578a2d70bf252f980d52b1344ebb365a38"
    assert removed.parent_hash == chain.block_at(2).parent_hash


def test_a_long_chain_hashes_its_head_without_recursion():
    chain = make_chain()
    for _ in range(2000):
        chain.mine_block()
    assert chain.head_height > sys.getrecursionlimit()
    head = chain.block_at(chain.head_height)
    assert len(head.header_hash()) == 32
    assert head.parent_hash == chain.block_at(chain.head_height - 1).header_hash()


KEY_D = 1004
D = addr_of(KEY_D)
HISTORY_KEYS = (KEY_A, KEY_B, KEY_D)
HISTORY_NONCES = 5
HISTORY_GENESIS = {A: 10_000_000, B: 10_000_000, D: 50_000}
TOKEN = 7
HISTORY_OWNER = B  # of TOKEN at genesis


@lru_cache(maxsize=None)
def pooled_tx(key, nonce, kind):
    """One signed transaction per (sender, nonce, kind), shared by every
    example: a value transfer to C, a zero-value transfer to A, or a move of
    TOKEN to C that only its owner at mining can make."""
    to, value, data = {
        "pay": (C, 1_000 + nonce, b""),
        "zero": (A, 0, b""),
        "move": (ASSET_REGISTRY_ADDRESS, 0, asset_transfer_data(TOKEN, C)),
    }[kind]
    tx = UnsignedTx(nonce=nonce, gas_price=1, gas_limit=GAS, to=to, value=value,
                    data=data, chain_id=CHAIN_ID)
    return sign_tx(tx, key)


submission = st.tuples(st.sampled_from(HISTORY_KEYS), st.sampled_from(("pay", "zero", "move")),
                       st.sampled_from((0, 0, 0, 1)))
history_step = st.one_of(
    st.tuples(st.just("block"), st.lists(submission, max_size=4)),
    st.tuples(st.just("reorg"), st.integers(min_value=1, max_value=3),
              st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                 st.integers(min_value=0, max_value=3)), max_size=3)),
)


def run_history(steps, check):
    """Build a chain step by step and call `check(chain)` after each one:
    a block of submissions at the sender's next nonce (or one past it, which
    the pool rejects), the same submissions left pending ("submit"), or a
    reorg that censors every transaction of the blocks it removes but the
    picked ones. The pool's transactions are shared, and `recover_signer`
    recovers each sender once, so the examples stay fast on the
    pure-Python backend."""
    chain = make_chain(genesis=HISTORY_GENESIS, assets={TOKEN: HISTORY_OWNER})
    check(chain)
    for step in steps:
        if step[0] in ("block", "submit"):
            for key, kind, ahead in step[1]:
                nonce = chain.next_nonce(addr_of(key)) + ahead
                if nonce < HISTORY_NONCES:
                    chain.submit_tx(pooled_tx(key, nonce, kind))
            if step[0] == "block":
                chain.mine_block()
        else:
            _, depth, picks = step
            depth = min(depth, chain.head_height)
            removed = [chain.block_at(chain.head_height - i).tx_list
                       for i in range(depth)]
            kept = {removed[b][t] for b, t in picks
                    if b < len(removed) and t < len(removed[b])}
            chain.reorg(depth, {tx.tx_hash() for txs in removed for tx in txs
                                if tx not in kept})
        check(chain)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(history_step, min_size=1, max_size=8))
def test_maintained_state_root_matches_the_from_scratch_formula(steps):
    def check(chain):
        for height in range(chain.head_height + 1):
            block = chain.block_at(height)
            assert block.state_root == reference_root(chain._blocks[height]._state)
            assert block.header_hash() == reference_header_hash(block)
            if height:
                assert block.parent_hash == reference_header_hash(chain.block_at(height - 1))
    run_history(steps, check)


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(history_step, min_size=1, max_size=8), newest_first=st.booleans())
def test_commitments_read_in_either_order_match_the_formula(steps, newest_first):
    chains = []
    run_history(steps, chains.append)
    chain = chains[-1]
    hashes = reference_header_hashes(chain)
    heights = range(chain.head_height + 1)
    for height in reversed(heights) if newest_first else heights:
        block = chain.block_at(height)
        assert block.header_hash() == hashes[height]
        assert block.state_root == reference_root(chain._blocks[height]._state)
        assert block.parent_hash == (hashes[height - 1] if height else b"\x00" * 32)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(history_step, min_size=1, max_size=8))
def test_first_funder_index_matches_a_block_scan(steps):
    def check(chain):
        for addr in (A, B, C, D, ASSET_REGISTRY_ADDRESS):
            for height in range(chain.head_height + 1):
                assert chain.first_funder(addr, height) == \
                    reference_first_funder(chain, addr, height), (addr.hex(), height)
    run_history(steps, check)


pool_step = st.one_of(history_step,
                      st.tuples(st.just("submit"), st.lists(submission, min_size=1, max_size=4)))


def replayed_history(chain):
    """(balances, TOKEN's owner, fees collected) at every height, from a
    replay of each block's transactions from the genesis of
    `run_history`; no chain state is read. A block holds only the
    transactions it applied, so each applies unconditionally."""
    balances, owner, fees = dict(HISTORY_GENESIS), HISTORY_OWNER, 0
    history = [(dict(balances), owner, fees)]
    for height in range(1, chain.head_height + 1):
        for tx in chain.block_at(height).tx_list:
            sender = recover_signer(tx)
            if tx.to == ASSET_REGISTRY_ADDRESS:
                token, recipient = rlp.decode(tx.data)
                assert rlp.decode_int(token) == TOKEN
                owner = recipient
            else:
                fee = GAS * tx.gas_price
                balances[tx.to] = balances.get(tx.to, 0) + tx.value
                balances[sender] -= tx.value + fee
                fees += fee
        history.append((dict(balances), owner, fees))
    return history


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(pool_step, min_size=1, max_size=10))
def test_history_queries_match_a_replay_from_genesis(steps):
    """Every height's balances, owner and fees equal a replay of the
    blocks, after every step; a block with no transactions holds its
    parent's state object, so a shared state that a later block changed
    would show at an earlier height."""
    def check(chain):
        for height, (balances, owner, fees) in enumerate(replayed_history(chain)):
            for addr in (A, B, C, D, ASSET_REGISTRY_ADDRESS):
                assert chain.balance_at(addr, height) == balances.get(addr, 0), \
                    (addr.hex(), height)
            assert chain.asset_owner_at(TOKEN, height) == owner
            assert chain._blocks[height]._state.fees_collected == fees
            block = chain.block_at(height)
            if height and not block.tx_list:
                assert block._state is chain.block_at(height - 1)._state
    run_history(steps, check)


def reference_pending_from(chain):
    """Per sender, the pending transactions and the value plus fees they
    commit, from a scan of the whole pending list."""
    out = {}
    for tx, sender in chain._pending:
        count, committed = out.get(sender, (0, 0))
        out[sender] = (count + 1, committed + tx.value + chain.tx_fee(tx))
    return out


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(pool_step, min_size=1, max_size=10))
def test_pending_index_matches_a_list_scan(steps):
    """The per-sender count and sum that `submit_tx` reads and extends,
    and `mine_block` and `reorg` reset, after every submission (a reorg's
    own included) and every step."""
    def check(chain):
        assert chain._pending_from == reference_pending_from(chain)
        for key in HISTORY_KEYS:
            addr = addr_of(key)
            assert chain.next_nonce(addr) == chain.account_nonce(addr) + \
                reference_pending_from(chain).get(addr, (0, 0))[0]

    real = SimChain.submit_tx

    def submit_tx(chain, tx):
        result = real(chain, tx)
        check(chain)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimChain, "submit_tx", submit_tx)
        run_history(steps, check)


class CountingList(list):
    """A block list that counts reads of its items."""

    reads = 0

    def __getitem__(self, index):
        CountingList.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        CountingList.reads += 1
        return super().__iter__()


def test_first_funder_reads_no_blocks():
    chain = make_chain()
    for value in (3, 4):
        chain.submit_tx(transfer(chain, KEY_B, C, value))
        chain.mine_block()
    expected = [chain.first_funder(addr, h) for addr in (A, C) for h in (0, 1, 2)]
    chain._blocks = CountingList(chain._blocks)
    CountingList.reads = 0
    assert [chain.first_funder(addr, h) for addr in (A, C) for h in (0, 1, 2)] == expected
    assert expected == [None, None, None, None, B, B]
    assert CountingList.reads == 0

