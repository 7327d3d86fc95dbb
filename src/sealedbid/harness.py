"""Scenario runner: drives full auction lifecycles and audits the outcome.

The runner owns everything outside the enclave: wallets, the settlement
chain, endpoint processes, the relayer, and fault injection. It executes
a deterministic schedule derived from scripted block heights, then runs
an invariant suite (oracle agreement, conservation, settlement,
confidentiality, non-interactivity) and assembles a RunReport.

The confidentiality check applies the public rules of `sealedbid.verify`
with the escrows and bids that the runner knows. The logs are rendered as
their records are appended, so the check and the written files use the
same lines.

`oracle_resolve` is the independent verifier: it recomputes the winner
from the scripted funding plan alone, bypassing the enclave, the chain,
and the quorum client.
"""

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from sealedbid import crypto
from sealedbid.auction import AuctionInstance, AuctionState
from sealedbid.chain import ASSET_REGISTRY_ADDRESS, SimChain, asset_transfer_data
from sealedbid.crypto import secp256k1
from sealedbid.enclave import (
    DeterministicStream,
    Enclave,
    decrypt_envelope,
    encrypt_to_key,
)
from sealedbid.errors import (
    QuorumFailure,
    RegistrationError,
    SealedStoreIntegrity,
    StateError,
)
from sealedbid.events import EventLog, canonical, hx, unhx
from sealedbid.gas import (
    GasLedger,
    LAYER_SETTLEMENT,
    MODE_PROPOSER,
    OP_BID,
    OP_CLAIM,
    OP_START,
)
from sealedbid.proposer import finalize_proposals, open_proposals, submit_proposal
from sealedbid.quorum import Endpoint, QuorumClient
from sealedbid.scenario import Scenario, load_scenario
from sealedbid.transactions import UnsignedTx, derive_address, sign_tx
from sealedbid.verify import stream_problems

# the flags `run` sets when the lifecycle stops early
STOP_FLAGS = ("quorum_failure", "integrity_error")


@dataclass
class OracleOutcome:
    """Winner set (normally a singleton; ties beyond reach height stay
    tied because the oracle never sees escrow addresses) and amount."""

    winner_names: List[str]
    amount: int

    @property
    def has_winner(self) -> bool:
        return bool(self.winner_names)

    def to_dict(self) -> dict:
        return {"winners": self.winner_names, "amount": self.amount}


def oracle_resolve(scenario: Scenario) -> OracleOutcome:
    """Brute-force winner from the scripted funding plan alone."""
    deadline = scenario.auction.deadline_height
    plans = []
    for b in scenario.bidders:
        plans.append((b.name, [[height, amount, label]
                               for label, height, amount in b.transfers()]))
    # replay scripted reorg faults onto effective inclusion heights
    for fault in sorted(scenario.faults.reorgs, key=lambda r: r.at_height):
        if fault.depth == 0:
            continue
        if fault.depth > min(scenario.chain.finality_depth, fault.at_height):
            continue  # the chain refuses it
        low = fault.at_height - fault.depth + 1
        for _, entries in plans:
            censored = False
            for entry in entries:
                height, amount, label = entry
                if amount is None or not low <= height <= fault.at_height:
                    continue
                # the chain keeps each sender's nonce order: once an entry
                # is censored, the bidder's later ones in the window are rejected
                censored = censored or label in fault.censor
                if censored:
                    entry[1] = None
                else:
                    entry[0] = low  # re-included in the first replacement block
    scored = []
    for name, entries in plans:
        counted = [(h, a) for h, a, _ in entries if a is not None and h <= deadline]
        cutoff = sum(a for _, a in counted)
        reach = max((h for h, a in counted if a > 0), default=None)
        scored.append((name, cutoff, reach))
    top = max((c for _, c, _ in scored), default=0)
    if top <= 0:
        return OracleOutcome([], 0)
    best_reach = min(r for _, c, r in scored if c == top)
    winners = [n for n, c, r in scored if c == top and r == best_reach]
    return OracleOutcome(winners, top)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class RunReport:
    scenario: str
    seed: int
    final_state: str
    winner: Optional[dict]
    oracle: dict
    checks: List[CheckResult]
    flags: dict
    gas: dict
    counters: dict
    paths: dict = field(default_factory=dict)
    backend: str = crypto.IMPLEMENTATION  # the crypto backend that ran

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return dict(asdict(self), passed=self.passed)

    def format_text(self) -> str:
        lines = ["scenario %s (seed %d, %s crypto): %s"
                 % (self.scenario, self.seed, self.backend,
                    "PASS" if self.passed else "FAIL")]
        lines.append("  final state: %s" % self.final_state)
        if self.winner:
            lines.append("  winner: %(bidder)s escrow=%(escrow)s amount=%(amount)d"
                         % self.winner)
        else:
            lines.append("  winner: none")
        for check in self.checks:
            lines.append("  [%s] %s%s" % ("ok" if check.passed else "FAIL",
                                          check.name,
                                          " - " + check.detail if check.detail else ""))
        for key, value in sorted(self.flags.items()):
            lines.append("  flag %s: %s" % (key, value))
        return "\n".join(lines)


class _Wallet:
    def __init__(self, stream: DeterministicStream):
        self.key = secp256k1.generate_private_key(stream.read)
        self.address = derive_address(secp256k1.public_key(self.key))
        self.registration_ephemeral = stream.read(32)


class ScenarioRunner:
    def __init__(self, scenario: Scenario, out_dir=None,
                 seed: Optional[int] = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.out_dir = Path(out_dir) if out_dir else None
        self.flags: Dict[str, object] = {}
        self.escrows: Dict[str, bytes] = {}          # bidder name -> escrow addr
        self.transfer_hashes: Dict[str, bytes] = {}  # bidder transfer label -> hash
        # height -> (bidder name, transfer label, builder) of each bidder transfer
        self._tx_schedule: Dict[int, List[Tuple[str, str, Callable]]] = {}
        self._action_schedule: Dict[int, List[Callable]] = {}
        self.reorg_results: List[dict] = []

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        scn = self.scenario
        wallet_stream = DeterministicStream(b"wallets/%d" % self.seed)
        self.auctioneer = _Wallet(wallet_stream)
        self.wallets = {b.name: _Wallet(wallet_stream) for b in scn.bidders}
        self.attacker = _Wallet(wallet_stream)
        genesis = {self.auctioneer.address: scn.auctioneer.balance}
        for b in scn.bidders:
            genesis[self.wallets[b.name].address] = scn.wallet_balance(b)
        self.genesis_balances = dict(genesis)
        self.chain = SimChain(
            genesis,
            chain_id=scn.chain.chain_id,
            finality_depth=scn.chain.finality_depth,
            genesis_assets={scn.auction.token_id: self.auctioneer.address},
            tx_gas=scn.chain.tx_gas,
        )
        self.enclave = Enclave(seed=self.seed)
        endpoints = [Endpoint(spec, self.chain) for spec in scn.endpoints]
        self.client = QuorumClient(
            endpoints,
            sample_size=scn.quorum.sample_size,
            agreement_quorum=scn.quorum.agreement_quorum,
            rand=self.enclave.random,
        )
        self.audit = self.client.audit_log
        self.events = EventLog()
        self.gas = GasLedger(scn.auction.resolution_mode)
        self.auction: Optional[AuctionInstance] = None

    # -- scheduling ------------------------------------------------------------

    def _at(self, height: int, action: Callable) -> None:
        self._action_schedule.setdefault(height, []).append(action)

    def _advance_to(self, target: int) -> None:
        scn = self.scenario
        while self.chain.head_height < target:
            next_height = self.chain.head_height + 1
            for name, label, builder in self._tx_schedule.pop(next_height, []):
                tx = builder()
                result = self.chain.submit_tx(tx)
                self.transfer_hashes[label] = tx.tx_hash()
                if result.accepted:
                    self.gas.charge(LAYER_SETTLEMENT, OP_BID, actor=name)
            self.chain.mine_block()
            head = self.chain.head_height
            for action in self._action_schedule.pop(head, []):
                action()
            for fault in scn.faults.reorgs:
                if fault.at_height == head:
                    self._apply_reorg(fault)

    def _apply_reorg(self, fault) -> None:
        """The chain replays what a reorg replaces, less what this names."""
        censor = {self.transfer_hashes[label] for label in fault.censor
                  if label in self.transfer_hashes}
        result = self.chain.reorg(fault.depth, censor)
        self.reorg_results.append({
            "at_height": fault.at_height,
            "depth": fault.depth,
            "applied": result.applied,
            "reason": result.reason,
        })

    # -- lifecycle ----------------------------------------------------------------

    def _register(self, bidder_script) -> None:
        """The bidder's one interaction: a request sealed to the enclave's
        input key names its claim address, and the reply, keyed from that
        same request, returns its escrow address."""
        wallet = self.wallets[bidder_script.name]
        payload = canonical({"claim_address": hx(wallet.address)}).encode()
        registration, reply_key = encrypt_to_key(
            self.enclave.input_public_key, payload, wallet.registration_ephemeral)
        envelope = self.auction.register_bidder(registration)
        response = json.loads(decrypt_envelope(reply_key, envelope))
        escrow = unhx(response["escrow_address"])
        self.escrows[bidder_script.name] = escrow
        self._schedule_funding(bidder_script, wallet, escrow)

    def _transfer(self, sender: bytes, key: int, to: bytes, value: int,
                  data: bytes = b""):
        """Sign a transfer from `sender` (the address of `key`) at its next nonce."""
        scn = self.scenario
        tx = UnsignedTx(
            nonce=self.chain.next_nonce(sender),
            gas_price=scn.auction.gas_price,
            gas_limit=scn.chain.tx_gas,
            to=to,
            value=value,
            data=data,
            chain_id=scn.chain.chain_id,
        )
        return sign_tx(tx, key)

    def _schedule_funding(self, script, wallet, escrow: bytes) -> None:
        for label, height, amount in script.transfers():
            def build(amount=amount):
                return self._transfer(wallet.address, wallet.key, escrow, amount)
            self._tx_schedule.setdefault(height, []).append((script.name, label, build))

    def _escrow_asset(self) -> None:
        """Submitted at the genesis head, so block 1 includes it."""
        scn = self.scenario
        self.chain.submit_tx(self._transfer(
            self.auctioneer.address, self.auctioneer.key, ASSET_REGISTRY_ADDRESS, 0,
            asset_transfer_data(scn.auction.token_id, self.auction.asset_escrow_address)))
        self.gas.charge(LAYER_SETTLEMENT, OP_START, actor="auctioneer")

    def _breach(self) -> None:
        """Enclave compromise: the attacker drains the richest escrow, if
        there is one."""
        scn = self.scenario
        exported = self.enclave.compromise()
        self.flags["compromised"] = True
        if not self.escrows:
            return
        by_address = {}
        for handle, key_bytes in exported.items():
            if not handle.startswith("key-"):
                continue
            key = int.from_bytes(key_bytes, "big")
            by_address[derive_address(secp256k1.public_key(key))] = key
        target = max(sorted(self.escrows.values()), key=self.chain.balance)
        value = self.chain.balance(target) - scn.fee
        if value <= 0:
            return
        signed = self._transfer(target, by_address[target], self.attacker.address,
                                value)
        self.flags["attacker_drain_accepted"] = self.chain.submit_tx(signed).accepted
        self._advance_to(self.chain.head_height + 1 + scn.auction.kappa)

    def _run_proposals(self) -> None:
        scn = self.scenario
        phase = open_proposals(self.auction)
        opened_at = self.chain.head_height
        for script in sorted(scn.proposals, key=lambda p: p.after_open):
            self._advance_to(opened_at + script.after_open)
            candidate = self.escrows[script.candidate]
            submit_proposal(self.auction, candidate)
        self._advance_to(phase.window_end_height)
        finalize_proposals(self.auction)

    def _settle(self) -> None:
        scn = self.scenario
        kappa = scn.auction.kappa
        for _attempt in range(4):
            for stx in self.auction.resolution.settlement_txs:
                if self.chain.height_of(stx.tx.tx_hash()) is not None:
                    continue
                if self.chain.submit_tx(stx.tx).accepted:
                    self.gas.charge(LAYER_SETTLEMENT, OP_CLAIM, actor="relayer")
            self._advance_to(self.chain.head_height + 1 + kappa)
            if self.auction.finalize(self.chain) is AuctionState.CLAIMED:
                break
        self._advance_to(max((r.at_height for r in scn.faults.reorgs), default=0))
        pending = [stx.role for stx in self.auction.resolution.settlement_txs
                   if self.chain.height_of(stx.tx.tx_hash()) is None]
        if pending:
            self.flags["unclaimed_payloads"] = pending

    def _lifecycle(self) -> None:
        scn = self.scenario
        self.auction = AuctionInstance.deploy(
            self.enclave, scn.auction_config(self.auctioneer.address), self.client,
            self.events, self.gas)
        self.auction.setup()
        if scn.auctioneer.escrow_asset:
            self._escrow_asset()
        self._advance_to(scn.open_height)
        if not self.auction.verify_asset_escrow():
            # stays Deployed; nothing else can happen
            self.flags["asset_unconfirmed"] = (
                "asset escrow %s does not hold token %d kappa (%d) blocks below "
                "the agreed head" % (hx(self.auction.asset_escrow_address),
                                     scn.auction.token_id, scn.auction.kappa))
            return
        if scn.faults.tamper_sealed:
            self._at(scn.open_height + 1,
                     lambda: self.enclave.tamper_sealed_entry(
                         self.auction.registry_label, b"corrupted"))
        for script in scn.bidders:
            if script.registration_height <= self.chain.head_height:
                self._register(script)
            else:
                self._at(script.registration_height,
                         lambda s=script: self._register(s))
        self._advance_to(scn.close_target_height())
        self.auction.close()
        if scn.faults.compromise_enclave:
            self._breach()
        if scn.auction.resolution_mode == MODE_PROPOSER:
            self._run_proposals()
        else:
            self.auction.resolve()
        self._settle()

    # -- invariant suite --------------------------------------------------------

    def _stopped(self) -> bool:
        return any(flag in self.flags for flag in STOP_FLAGS)

    def _engine_winner(self) -> Optional[dict]:
        if self.auction is None or self.auction.resolution is None:
            return None
        res = self.auction.resolution
        if not res.has_winner:
            return None
        by_escrow = {addr: name for name, addr in self.escrows.items()}
        return {
            "bidder": by_escrow.get(res.winner_escrow, "<unknown>"),
            "escrow": hx(res.winner_escrow),
            "amount": res.winning_amount,
        }

    def _checks(self, oracle: OracleOutcome) -> List[CheckResult]:
        checks = []
        scn = self.scenario
        auction = self.auction
        state = auction.state.value if auction else "Init"

        if "quorum_failure" in self.flags:
            checks.append(CheckResult(
                "liveness", False,
                "lifecycle stopped by %s" % self.flags["quorum_failure"]))

        # expected terminal state
        if scn.expect.final_state is not None:
            checks.append(CheckResult(
                "final_state", state == scn.expect.final_state,
                "expected %s, got %s" % (scn.expect.final_state, state)))

        # expected winner by bidder name
        if scn.expect.winner is not None:
            engine = self._engine_winner()
            got = engine["bidder"] if engine else None
            checks.append(CheckResult(
                "expected_winner", got == scn.expect.winner,
                "expected %s, got %s" % (scn.expect.winner, got)))

        # winner agreement with the script-level oracle
        checks.append(self._oracle_check(oracle))

        resolved = auction is not None and auction.resolution is not None
        if resolved and not self.flags.get("compromised"):
            ledger = auction.resolution.conservation
            checks.append(CheckResult(
                "conservation_ledger", ledger.balanced(),
                canonical(ledger.totals())))

        # chain-level supply conservation always holds
        supply = self.chain.total_supply()
        expected_supply = sum(self.genesis_balances.values())
        checks.append(CheckResult(
            "supply_conservation", supply == expected_supply,
            "supply %d vs genesis %d" % (supply, expected_supply)))

        if (auction is not None and auction.state is AuctionState.CLAIMED
                and not self.flags.get("compromised")):
            checks.extend(self._settlement_checks())

        checks.append(self._confidentiality_check())

        # a lifecycle that stopped early may not have mined every funding
        if (scn.bidders and all(b.topup is None for b in scn.bidders)
                and not scn.faults.reorgs and self.escrows
                and not self._stopped()):
            checks.append(self._non_interactivity_check())
        return checks

    def _oracle_check(self, oracle: OracleOutcome) -> CheckResult:
        scn = self.scenario
        auction = self.auction
        resolved = auction is not None and auction.resolution is not None
        if not resolved:
            # only a stop with a stated cause agrees: no asset, a declared
            # early final state, or a flagged failure
            stated = (not scn.auctioneer.escrow_asset
                      or scn.expect.final_state not in (None, "Resolved", "Claimed")
                      or self._stopped())
            cause = self.flags.get("asset_unconfirmed")
            return CheckResult("oracle_agreement", stated, "auction did not resolve"
                               + (": " + cause if cause else ""))
        engine = self._engine_winner()
        if engine is None:
            agree = not oracle.has_winner
            detail = "engine: no winner; oracle: %s" % oracle.to_dict()
        else:
            agree = (engine["bidder"] in oracle.winner_names
                     and engine["amount"] == oracle.amount)
            detail = "engine: %s@%d; oracle: %s" % (
                engine["bidder"], engine["amount"], oracle.to_dict())
        self.flags["oracle_divergence"] = not agree
        if scn.expect.oracle_divergence:
            return CheckResult("oracle_divergence_flagged", not agree, detail)
        return CheckResult("oracle_agreement", agree, detail)

    def _settlement_checks(self) -> List[CheckResult]:
        """Exact value accounting after Claimed, to the unit. What the
        auctioneer and each bidder should hold follows from the deposits
        that the chain included, the published winner and amount, and the
        fee, never from the payloads, so a payload that pays the wrong
        amount or the wrong address fails, with or without censorship."""
        scn = self.scenario
        res = self.auction.resolution
        checks = []
        fee = scn.fee
        engine = self._engine_winner()
        winner = engine["bidder"] if engine else None
        # escrows end up holding exactly the recorded dust
        dust_ok = all(
            self.chain.balance(entry.escrow) == entry.dust
            for entry in res.conservation.entries)
        checks.append(CheckResult("escrows_drained", dust_ok,
                                  "escrow balances equal recorded dust"))
        # auctioneer collected the winning amount minus the documented fee
        payment = res.winning_amount - fee if res.winning_amount > fee else 0
        expected_auctioneer = scn.auctioneer.balance + payment
        actual_auctioneer = self.chain.balance(self.auctioneer.address)
        checks.append(CheckResult(
            "auctioneer_payment", actual_auctioneer == expected_auctioneer,
            "balance %d, expected %d" % (actual_auctioneer, expected_auctioneer)))
        # every bidder wallet: initial - deposits - fees + what comes back,
        # which is the deposits less the winning amount (for the winner)
        # less one fee, unless that leaves nothing
        wallet_ok, wallet_detail = True, []
        for b in scn.bidders:
            wallet = self.wallets[b.name]
            # a censored transfer sent again is the same transaction, and
            # its two labels name one hash: count each included hash once
            included = {self.transfer_hashes[label]: amount
                        for label, _, amount in b.transfers()}
            amounts = [amount for tx_hash, amount in included.items()
                       if self.chain.height_of(tx_hash) is not None]
            spent = sum(amounts)
            n_txs = len(amounts)
            back = spent - (res.winning_amount if b.name == winner else 0)
            expected = (self.genesis_balances[wallet.address]
                        - spent - n_txs * fee
                        + (back - fee if back > fee else 0))
            actual = self.chain.balance(wallet.address)
            if actual != expected:
                wallet_ok = False
                wallet_detail.append("%s: %d != %d" % (b.name, actual, expected))
        checks.append(CheckResult(
            "bidder_refunds_exact", wallet_ok,
            "; ".join(wallet_detail) if wallet_detail else
            "all wallet balances match to the unit"))
        # the asset landed with the winner (or returned to the auctioneer)
        owner = self.chain.token_owner(scn.auction.token_id)
        if engine is None:
            expected_owner = self.auctioneer.address
        else:
            expected_owner = self.wallets[engine["bidder"]].address
        checks.append(CheckResult(
            "asset_delivery", owner == expected_owner,
            "owner %s expected %s" % (hx(owner), hx(expected_owner))))
        return checks

    def _confidentiality_check(self) -> CheckResult:
        """The public rules of `verify-log` with the runner's own escrows
        and bids: no escrow or bid in plaintext before disclosure begins,
        and a complete disclosure once the auction resolves. Also no
        private key material anywhere, ever (`Enclave.scan_for_key_leaks`,
        skipped once the enclave is compromised and its keys are public).
        """
        # each transfer and the whole deposit, once each
        bids = []
        for b in self.scenario.bidders:
            amounts = [amount for _, _, amount in b.transfers()]
            bids.extend((b.name, amount) for amount in amounts + [sum(amounts)] if amount)
        bids = list(dict.fromkeys(bids))
        lines = self.events.lines
        leaks, gaps = stream_problems(((line, json.loads(line)) for line in lines),
                                      self.escrows, bids)
        problems = leaks + gaps
        if not self.flags.get("compromised"):
            key_leaks = self.enclave.scan_for_key_leaks(lines, self.audit.lines)
            if key_leaks:
                problems.append("%d private-key leak(s) in public logs" % key_leaks)
        return CheckResult("confidentiality", not problems,
                           "; ".join(problems) if problems else
                           "no plaintext leaks before disclosure")

    def _non_interactivity_check(self) -> CheckResult:
        expected = len(self.scenario.bidders)
        calls_ok = self.auction.register_call_count == expected
        inflows = dict.fromkeys(self.escrows.values(), 0)
        for height in range(1, self.chain.head_height + 1):
            for tx in self.chain.block_at(height).tx_list:
                if tx.to in inflows:
                    inflows[tx.to] += 1
        transfer_counts = [(name, inflows[escrow])
                           for name, escrow in self.escrows.items()]
        transfers_ok = all(count == 1 for _, count in transfer_counts)
        return CheckResult(
            "non_interactivity", calls_ok and transfers_ok,
            "register calls %d/%d; funding transfers %s"
            % (self.auction.register_call_count, expected, transfer_counts))

    # -- entry point ----------------------------------------------------------------

    def run(self) -> RunReport:
        self._build()
        try:
            self._lifecycle()
        except SealedStoreIntegrity as exc:
            self.flags["integrity_error"] = str(exc)
        except (QuorumFailure, RegistrationError, StateError) as exc:
            # the auction keeps its state; the run still reports and logs.
            # A lying quorum can put the agreed head past a deadline or
            # short of a window end (RegistrationError, StateError)
            self.flags["quorum_failure"] = "%s: %s" % (type(exc).__name__, exc)
        oracle = oracle_resolve(self.scenario)
        checks = self._checks(oracle)
        report = RunReport(
            scenario=self.scenario.name,
            seed=self.seed,
            final_state=self.auction.state.value if self.auction else "Init",
            winner=self._engine_winner(),
            oracle=oracle.to_dict(),
            checks=checks,
            flags=dict(self.flags),
            gas=self.gas.to_dict(),
            counters={
                "queries": self.client.query_count,
                "events": len(self.events),
                "blocks": self.chain.head_height,
                "reorgs": self.reorg_results,
            },
        )
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            events_path = self.out_dir / "events.jsonl"
            audit_path = self.out_dir / "audit.jsonl"
            report_path = self.out_dir / "report.json"
            gas_path = self.out_dir / "gas.csv"
            for path, log in ((events_path, self.events), (audit_path, self.audit)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(line + "\n" for line in log.lines)
            with open(gas_path, "w", encoding="utf-8") as fh:
                fh.write("layer,operation,actor,gas\n")
                for entry in self.gas.entries:
                    fh.write("%s,%s,%s,%d\n" % (entry.layer, entry.operation,
                                                entry.actor, entry.gas))
            report.paths = {
                "events": str(events_path),
                "audit": str(audit_path),
                "gas": str(gas_path),
                "report": str(report_path),
            }
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        return report


def run_scenario(scenario, out_dir=None, seed: Optional[int] = None) -> RunReport:
    """Run a Scenario object or a path to a scenario file."""
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    return ScenarioRunner(scenario, out_dir=out_dir, seed=seed).run()
