"""The auction's steps refuse a state they do not accept, and only
deployment takes a quorum client; the sealed bidder registry: rollback
and tamper detection, lookup, and per-bidder sealed-store, history and
log-scan costs that stay flat as n grows."""

import ast
from collections import Counter
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from sealedbid import (
    auction as auction_module,
    enclave as enclave_module,
    events,
    harness,
    proposer,
    rlp,
    transactions,
    verify,
)
from sealedbid.auction import AuctionInstance, AuctionState
from sealedbid.chain import SimChain
from sealedbid.crypto import secp256k1
from sealedbid.enclave import Enclave, encrypt_to_key
from sealedbid.errors import RegistrationError, StateError
from sealedbid.proposer import open_proposals
from sealedbid.transactions import SignedTransaction


def auction_doc(n, mode="exhaustive", **extra):
    """n bidders registering at heights 4-7 and funding at 9-11; in
    proposer mode every bidder proposes itself once."""
    doc = {
        "auction": {"deadline_height": 12, "kappa": 2, "resolution_mode": mode},
        "bidders": [{"name": "b%d" % i, "registration_height": 4 + i % 4,
                     "funding": 100_000 + 37 * i, "funding_height": 9 + i % 3}
                    for i in range(n)],
    }
    if mode == "proposer":
        doc["proposals"] = [{"candidate": "b%d" % i, "after_open": 1 + i % 8}
                            for i in range(n)]
    doc.update(extra)
    return doc


# each public step, called with whatever arguments: the state is checked first
STEPS = {
    "setup": lambda runner: runner.auction.setup(),
    "verify_asset_escrow": lambda runner: runner.auction.verify_asset_escrow(),
    "register_bidder": lambda runner: runner.auction.register_bidder(None),
    "close": lambda runner: runner.auction.close(),
    "resolve": lambda runner: runner.auction.resolve(),
    "commit": lambda runner: runner.auction.commit(None, "test"),
    "finalize": lambda runner: runner.auction.finalize(runner.chain),
    "open_proposals": lambda runner: open_proposals(runner.auction),
}
ACCEPTS = {
    "setup": {AuctionState.DEPLOYED},
    "verify_asset_escrow": {AuctionState.DEPLOYED},
    "register_bidder": {AuctionState.OPEN},
    "close": {AuctionState.OPEN},
    "resolve": {AuctionState.CLOSED},
    "commit": {AuctionState.CLOSED},
    "finalize": {AuctionState.RESOLVED},
    "open_proposals": {AuctionState.CLOSED},
}


@pytest.mark.parametrize("step", sorted(STEPS))
def test_a_step_from_a_state_it_does_not_accept_changes_nothing(make_runner, step):
    # a proposer-mode auction waits for blocks in every state from Deployed on
    runner = make_runner(**auction_doc(2, "proposer"))
    refused = []

    def call_from_here():
        state, events_before = runner.auction.state, len(runner.events)
        queries = runner.client.query_count
        if state in ACCEPTS[step] or state in refused:
            return
        with pytest.raises(StateError):
            STEPS[step](runner)
        assert (runner.auction.state, len(runner.events), runner.client.query_count) \
            == (state, events_before, queries)
        refused.append(state)

    real = runner._advance_to

    def advance_to(target):
        call_from_here()
        real(target)

    runner._advance_to = advance_to
    assert runner.run().passed
    call_from_here()
    assert set(refused) == set(AuctionState) - {AuctionState.INIT} - ACCEPTS[step]


def test_only_deployment_takes_a_quorum_client():
    """The auction keeps the client it was deployed with, so no caller of
    a later step chooses the enclave's view of the chain."""
    def functions(module, owner=None):
        tree = ast.parse(Path(module.__file__).read_text())
        if owner is not None:
            tree = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == owner)
        return [node for node in tree.body if isinstance(node, ast.FunctionDef)]

    def takes_quorum(node):
        args = node.args
        return any(arg.arg == "quorum"
                   for arg in args.posonlyargs + args.args + args.kwonlyargs)

    methods = functions(auction_module, "AuctionInstance")
    public = [f for f in functions(proposer) if not f.name.startswith("_")]
    assert [f.name for f in methods + public if takes_quorum(f)] == ["__init__", "deploy"]


def host_replays_registry(runner, snapshot_height, inject_height):
    """The host snapshots the registry record at one height and puts it
    back at a later one, before that height's registrations run."""
    snapshot = {}

    def take():
        snapshot["old"] = runner.enclave.snapshot_sealed_entry(
            runner.auction.registry_label)

    def replay():
        runner.enclave.inject_sealed_entry(runner.auction.registry_label,
                                           snapshot["old"])

    runner._at(snapshot_height, take)
    runner._at(inject_height, replay)


def test_replayed_registry_count_aborts_the_next_registration(make_runner):
    runner = make_runner(**auction_doc(4))
    # b1 registers at 5 and b2 at 6: the replay undoes b1's registration
    host_replays_registry(runner, 5, 6)
    report = runner.run()
    assert report.flags["integrity_error"].startswith("stale snapshot")
    assert report.final_state == "Open"
    assert runner.auction.register_call_count == 3


def test_replayed_registry_count_aborts_close(make_runner):
    runner = make_runner(**auction_doc(2))
    # b1 registers at 5; the record of height 5 comes back after it
    host_replays_registry(runner, 5, 8)
    report = runner.run()
    assert report.flags["integrity_error"].startswith("stale snapshot")
    assert report.final_state == "Open"
    assert runner.auction.register_call_count == 2


def test_tampered_entry_aborts_winner_determination(make_runner, monkeypatch):
    runner = make_runner(**auction_doc(3))
    runner._at(11, lambda: runner.enclave.tamper_sealed_entry(
        runner.auction.registry_label + "/1", b"corrupted"))
    failed_in = []
    real = AuctionInstance.determine_winner

    def determine_winner(auction):
        try:
            return real(auction)
        except Exception as exc:
            failed_in.append(type(exc).__name__)
            raise

    monkeypatch.setattr(AuctionInstance, "determine_winner", determine_winner)
    report = runner.run()
    assert failed_in == ["SealedStoreIntegrity"]
    assert report.flags["integrity_error"].endswith("/1' fails MAC")
    assert report.final_state == "Closed"


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
def test_entry_for_finds_registered_escrows_only(make_runner, mode):
    runner = make_runner(**auction_doc(5, mode))
    assert runner.run().passed
    for name, escrow in runner.escrows.items():
        assert runner.auction.entry_for(escrow).escrow_address == escrow
    assert runner.auction.entry_for(bytes(20)) is None


class SealedBytes:
    """Sealed-store bytes written and read inside each call of an operation."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = {}
        self._open = None
        real_put, real_get = Enclave.seal_put, Enclave.seal_get

        def seal_put(enclave, label, value):
            if self._open is not None:
                self._open["put"] += len(value)
            return real_put(enclave, label, value)

        def seal_get(enclave, label):
            value = real_get(enclave, label)
            if self._open is not None:
                self._open["get"] += len(value)
            return value

        monkeypatch.setattr(Enclave, "seal_put", seal_put)
        monkeypatch.setattr(Enclave, "seal_get", seal_get)

    def measure(self, owner, name):
        real = getattr(owner, name)
        calls = self.calls.setdefault(name, [])

        def wrapper(*args, **kwargs):
            self._open = {"put": 0, "get": 0}
            try:
                return real(*args, **kwargs)
            finally:
                calls.append(self._open)
                self._open = None

        self.monkeypatch.setattr(owner, name, wrapper)


# an index or a count may gain a digit between n=4 and n=12; one whole
# registry entry is over 200 bytes
DIGIT_SLACK = 16


def sealed_bytes_per_call(make_runner, monkeypatch, mode, name):
    per_n = {}
    for n in (4, 12):
        spy = SealedBytes(monkeypatch)
        spy.measure(AuctionInstance, "register_bidder")
        spy.measure(harness, "submit_proposal")
        assert make_runner(**auction_doc(n, mode)).run().passed
        per_n[n] = spy.calls[name]
        monkeypatch.undo()
    return per_n


def test_sealed_bytes_per_registration_do_not_grow(make_runner, monkeypatch):
    per_n = sealed_bytes_per_call(make_runner, monkeypatch, "exhaustive",
                                  "register_bidder")
    assert [len(per_n[n]) for n in (4, 12)] == [4, 12]
    for kind in ("put", "get"):
        small = max(c[kind] for c in per_n[4])
        large = max(c[kind] for c in per_n[12])
        assert large <= small + DIGIT_SLACK, (kind, small, large)


def test_each_proposal_reads_constant_sealed_bytes(make_runner, monkeypatch):
    per_n = sealed_bytes_per_call(make_runner, monkeypatch, "proposer",
                                  "submit_proposal")
    assert [len(per_n[n]) for n in (4, 12)] == [4, 12]
    small = max(c["get"] for c in per_n[4])
    large = max(c["get"] for c in per_n[12])
    assert large <= small + DIGIT_SLACK, (small, large)
    assert all(c["put"] == 0 for c in per_n[4] + per_n[12])


def test_non_interactivity_reads_each_block_once(make_runner, monkeypatch):
    runner = make_runner(**auction_doc(12))
    assert runner.run().passed
    calls = []
    real = SimChain.block_at

    def block_at(chain, height):
        calls.append(height)
        return real(chain, height)

    monkeypatch.setattr(SimChain, "block_at", block_at)
    assert runner._non_interactivity_check().passed
    assert 0 < len(calls) <= runner.chain.head_height


def expected_queries(n, mode):
    """Queries per kind of one auction_doc run: 4n+5 exhaustive, 5n+7 proposer."""
    heights = n + 4 if mode == "exhaustive" else 2 * n + 6
    return {"height": heights, "balance": 2 * n, "funding_source": n,
            "asset_owner": 1}


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
@pytest.mark.parametrize("n", [4, 12])
def test_query_traffic_per_kind(make_runner, mode, n):
    runner = make_runner(**auction_doc(n, mode))
    assert runner.run().passed
    counts = {}
    for record in runner.audit.records:
        counts[record["query"]] = counts.get(record["query"], 0) + 1
    assert counts == expected_queries(n, mode)
    assert runner.client.query_count == sum(counts.values())


def expected_crypto_calls(n, mode):
    """secp256k1 calls of one auction_doc run; at n=300 exhaustive they are
    908, 602 and 604, as the traced benchmark counts."""
    signatures = 3 * n + 8 if mode == "exhaustive" else 4 * n + 10
    return {"sign_recoverable": signatures, "recover_public_key": 2 * n + 2,
            "public_key": 2 * n + 4}


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
@pytest.mark.parametrize("n", [4, 12])
def test_crypto_calls_per_bidder(make_runner, monkeypatch, mode, n):
    runner = make_runner(**auction_doc(n, mode))
    counts = dict.fromkeys(expected_crypto_calls(n, mode), 0)
    for name in counts:
        def counted(*args, _name=name, _real=getattr(secp256k1, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(secp256k1, name, counted)
    assert runner.run().passed
    assert counts == expected_crypto_calls(n, mode)


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
@pytest.mark.parametrize("n", [4, 12])
def test_each_transaction_is_encoded_and_hashed_once(make_runner, monkeypatch, mode, n):
    runner = make_runner(**auction_doc(n, mode))
    created, encoded, hashed = [], Counter(), Counter()
    real_init, real_encode = SignedTransaction.__init__, rlp.encode
    real_keccak = transactions.keccak_256

    def init(tx, *args, **kwargs):
        real_init(tx, *args, **kwargs)
        created.append(tx)

    def encode(item):
        out = real_encode(item)
        encoded[out] += 1
        return out

    def keccak_256(data):
        hashed[bytes(data)] += 1
        return real_keccak(data)

    monkeypatch.setattr(SignedTransaction, "__init__", init)
    monkeypatch.setattr(rlp, "encode", encode)
    monkeypatch.setattr(transactions, "keccak_256", keccak_256)
    assert runner.run().passed
    monkeypatch.undo()
    raws = [tx.raw() for tx in created]
    assert len(set(raws)) == len(created) > 2 * n  # funding and settlement txs
    assert [encoded[raw] for raw in raws] == [1] * len(raws)
    # every settlement and funding transaction was hashed, each one once
    assert [hashed[raw] for raw in raws] == [1] * len(raws)


class _CountedX25519Key:
    """An X25519 private key whose key agreements are counted."""

    def __init__(self, key, exchanges):
        self._key, self._exchanges = key, exchanges

    def exchange(self, peer):
        self._exchanges.append(1)
        return self._key.exchange(peer)

    def __getattr__(self, name):
        return getattr(self._key, name)


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
@pytest.mark.parametrize("n", [4, 12])
def test_x25519_keys_built_per_auction(make_runner, monkeypatch, mode, n):
    # keys: the enclave's input key, then one registration ephemeral per
    # bidder; agreements: one per registration on each side, since the
    # reply is keyed from the request
    runner = make_runner(**auction_doc(n, mode))
    loads, exchanges = [], []
    real = X25519PrivateKey.from_private_bytes.__func__

    def from_private_bytes(cls, data):
        loads.append(len(data))
        return _CountedX25519Key(real(cls, data), exchanges)

    monkeypatch.setattr(X25519PrivateKey, "from_private_bytes",
                        classmethod(from_private_bytes))
    assert runner.run().passed
    assert len(loads) == n + 1
    assert len(exchanges) == 2 * n


def test_a_replayed_registration_is_refused_before_any_draw_or_seal(make_runner,
                                                                   monkeypatch):
    # the host sends each bidder's request again right after it registers
    runner = make_runner(**auction_doc(3))
    real = runner._register
    refused = []

    def register(script):
        real(script)
        wallet, enclave = runner.wallets[script.name], runner.enclave
        payload = events.canonical({"claim_address": events.hx(wallet.address)}).encode()
        request, _ = encrypt_to_key(enclave.input_public_key, payload,
                                    wallet.registration_ephemeral)
        before = (len(runner.events), runner.auction._registry_count(),
                  runner.client.query_count, runner.gas.total())
        touched = []
        with monkeypatch.context() as patch:
            patch.setattr(enclave, "_stream", lambda n: touched.append("draw"))
            patch.setattr(enclave, "seal_put", lambda *args: touched.append("seal"))
            with pytest.raises(RegistrationError, match="replays an accepted request"):
                runner.auction.register_bidder(request)
        assert touched == []
        assert (len(runner.events), runner.auction._registry_count(),
                runner.client.query_count, runner.gas.total()) == before
        refused.append(script.name)

    runner._register = register
    report = runner.run()
    assert refused == ["b0", "b1", "b2"] and report.final_state == "Claimed"
    # a refused replay is not a call the bidder made
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert runner.auction.register_call_count == 3
    assert [r["registration_index"] for r in runner.events.records
            if r["event"] == "BidderEnvelope"] == [0, 1, 2]


def test_a_second_registration_under_a_fresh_key_fails_non_interactivity(make_runner):
    # b0 registers again with a new ephemeral key, which the enclave accepts
    runner = make_runner(**auction_doc(3))
    real = runner._register

    def register(script):
        real(script)
        if script.name == "b0":
            wallet, enclave = runner.wallets["b0"], runner.enclave
            payload = events.canonical({"claim_address": events.hx(wallet.address)}).encode()
            request, _ = encrypt_to_key(enclave.input_public_key, payload, bytes(range(32)))
            runner.auction.register_bidder(request)

    runner._register = register
    report = runner.run()
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["non_interactivity"]
    assert failed[0].detail.startswith("register calls 4/3;")


@pytest.mark.parametrize("n", [4, 12])
def test_first_funder_reads_no_blocks(make_runner, monkeypatch, n):
    runner = make_runner(**auction_doc(n))
    calls, reads = [], []
    real = SimChain.first_funder

    class CountedBlocks(list):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

        def __iter__(self):
            reads.append("iter")
            return super().__iter__()

    def first_funder(chain, addr, height):
        calls.append(addr)
        blocks, chain._blocks = chain._blocks, CountedBlocks(chain._blocks)
        try:
            return real(chain, addr, height)
        finally:
            chain._blocks = blocks

    monkeypatch.setattr(SimChain, "first_funder", first_funder)
    assert runner.run().passed
    assert len(calls) >= n and reads == []


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
@pytest.mark.parametrize("n", [4, 12])
def test_confidentiality_check_reads_each_log_once(make_runner, monkeypatch, mode, n):
    runner = make_runner(**auction_doc(n, mode))
    assert runner.run().passed
    escrows = {escrow.hex() for escrow in runner.escrows.values()}
    cut = next(i for i, r in enumerate(runner.events.records)
               if r["event"] in ("Resolved", "ProposalsOpened"))
    scanned, parsed = [], []
    real, real_loads = events.find_hex, verify.json.loads

    def find_hex(lines, needles):
        kind = "escrows" if needles.needles == escrows else "keys"
        scanned.append((list(lines), kind))
        return real(lines, needles)

    monkeypatch.setattr(verify, "find_hex", find_hex)
    monkeypatch.setattr(enclave_module, "find_hex", find_hex)
    monkeypatch.setattr(verify.json, "loads",
                        lambda line: parsed.append(line) or real_loads(line))
    assert runner._confidentiality_check().passed
    # the event lines before disclosure for the escrows, the event lines
    # for the keys, then the audit lines: each once, whatever n is
    event_lines, audit_lines = runner.events.lines, runner.audit.lines
    assert scanned == [(event_lines[:cut], "escrows"), (event_lines, "keys"),
                       (audit_lines, "keys")]
    # the rules read each event line's record from one parse
    assert parsed == event_lines


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
def test_verify_log_parses_each_line_once(make_runner, monkeypatch, mode):
    runner = make_runner(**auction_doc(4, mode))
    assert runner.run().passed
    assert runner.auction.state is AuctionState.CLAIMED
    parsed = []
    real_loads = verify.json.loads
    monkeypatch.setattr(verify.json, "loads",
                        lambda line: parsed.append(line) or real_loads(line))
    report, ok = verify.verify_log(runner.events.lines)
    assert ok, report
    assert parsed == runner.events.lines
