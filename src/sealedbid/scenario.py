"""Declarative auction scenarios.

A scenario is a YAML document describing chain parameters, the auction
configuration, bidder funding scripts, the endpoint roster, fault
injections, and expected outcomes. Scenarios double as executable
documentation: the bundled files under scenarios/ cover the honest
lifecycle and every modeled threat.

All times are settlement block heights. The runner derives a fixed
timeline: the asset is escrowed in block 1, the auction opens once that
is kappa-confirmed, and resolution happens after every scripted transfer
is kappa-deep, so registration heights must be at least kappa+1 and
strictly precede their funding heights. A run reaches every scripted
reorg, mining past settlement if one is scripted later.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union, get_args, get_origin

from sealedbid.auction import AuctionConfig
from sealedbid.chain import SimChain
from sealedbid.enclave import DeterministicStream
from sealedbid.errors import ConfigError
from sealedbid.gas import MODE_EXHAUSTIVE, MODE_PROPOSER
from sealedbid.quorum import Endpoint, EndpointSpec, QuorumClient


@dataclass
class ChainParams:
    chain_id: int = 1
    finality_depth: int = 5
    tx_gas: int = 21_000


@dataclass
class AuctionParams:
    deadline_height: int = 12
    token_id: int = 1
    gas_price: int = 1
    kappa: int = 6
    resolution_mode: str = MODE_EXHAUSTIVE
    proposal_window: int = 10


@dataclass
class AuctioneerParams:
    balance: int = 1_000_000
    escrow_asset: bool = True


@dataclass
class QuorumParams:
    sample_size: int = 3
    agreement_quorum: int = 2


@dataclass
class BidderScript:
    name: str
    registration_height: int
    funding: int
    funding_height: int
    topup: Optional[int] = None
    topup_height: Optional[int] = None

    def transfers(self) -> List[Tuple[str, int, int]]:
        """(label, height, amount) of the funding, then of the top-up if
        any; the label names the transfer in a reorg's `censor` list."""
        plan = [("%s:funding" % self.name, self.funding_height, self.funding)]
        if self.topup is not None:
            plan.append(("%s:topup" % self.name, self.topup_height, self.topup))
        return plan


@dataclass
class ProposalScript:
    candidate: str     # bidder name
    after_open: int    # blocks after the proposal phase opens


@dataclass
class ReorgFault:
    at_height: int
    depth: int
    censor: List[str] = field(default_factory=list)


@dataclass
class FaultPlan:
    reorgs: List[ReorgFault] = field(default_factory=list)
    compromise_enclave: bool = False
    tamper_sealed: bool = False


@dataclass
class Expectations:
    final_state: Optional[str] = None
    oracle_divergence: bool = False
    winner: Optional[str] = None


@dataclass
class Scenario:
    name: str
    seed: int = 0
    description: str = ""
    chain: ChainParams = field(default_factory=ChainParams)
    auction: AuctionParams = field(default_factory=AuctionParams)
    auctioneer: AuctioneerParams = field(default_factory=AuctioneerParams)
    quorum: QuorumParams = field(default_factory=QuorumParams)
    endpoints: List[EndpointSpec] = field(default_factory=list)
    bidders: List[BidderScript] = field(default_factory=list)
    proposals: List[ProposalScript] = field(default_factory=list)
    faults: FaultPlan = field(default_factory=FaultPlan)
    expect: Expectations = field(default_factory=Expectations)

    @property
    def open_height(self) -> int:
        """Head height at which the auction can open (escrow kappa-confirmed)."""
        return 1 + self.auction.kappa

    def last_transfer_height(self) -> int:
        return max([self.auction.deadline_height]
                   + [height for b in self.bidders for _, height, _ in b.transfers()])

    def close_target_height(self) -> int:
        """Head height at which closing and resolution proceed."""
        return self.last_transfer_height() + self.auction.kappa

    def auction_config(self, auctioneer_address: bytes) -> AuctionConfig:
        """The engine's configuration of this scenario's auction."""
        return AuctionConfig(
            deadline_height=self.auction.deadline_height,
            auctioneer_address=auctioneer_address,
            token_id=self.auction.token_id,
            gas_price=self.auction.gas_price,
            kappa=self.auction.kappa,
            resolution_mode=self.auction.resolution_mode,
            proposal_window=self.auction.proposal_window,
            settlement_tx_gas=self.chain.tx_gas,
            chain_id=self.chain.chain_id,
        )

    @property
    def fee(self) -> int:
        """What one transfer pays for its gas."""
        return self.chain.tx_gas * self.auction.gas_price

    def wallet_balance(self, bidder: BidderScript) -> int:
        """A bidder wallet's genesis balance: its deposits, four fees and 1,000."""
        return sum(amount for _, _, amount in bidder.transfers()) + 4 * self.fee + 1_000


def _matches(value, declared) -> bool:
    """Whether a document value has the type a field declares: a bool is
    not an int, and a float field takes an int."""
    if type(value) is declared:
        return True
    origin = get_origin(declared)
    if origin is Union:
        return any(_matches(value, arg) for arg in get_args(declared))
    if origin is list:
        return isinstance(value, list) and all(
            _matches(item, get_args(declared)[0]) for item in value)
    if isinstance(value, bool):
        return declared is bool
    return isinstance(value, (int, float) if declared is float else declared)


def _checked(value, declared, context):
    if not _matches(value, declared):
        name = (declared.__name__ if isinstance(declared, type)
                else str(declared).replace("typing.", ""))
        raise ConfigError("%s: expected %s, got %r" % (context, name, value))
    return value


def _build(cls, data, context):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("%s: expected a mapping, got %r" % (context, type(data).__name__))
    fields = cls.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError("%s: unknown keys %s" % (context, sorted(unknown)))
    for key, value in data.items():
        _checked(value, fields[key].type, "%s.%s" % (context, key))
    try:
        return cls(**data)
    except (TypeError, ConfigError) as exc:
        raise ConfigError("%s: %s" % (context, exc))


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario document must be a mapping")
    if "name" not in data:
        raise ConfigError("scenario: missing required key 'name'")
    scn = Scenario(
        name=_checked(data["name"], str, "name"),
        seed=_checked(data.get("seed", 0), int, "seed"),
        description=_checked(data.get("description", ""), str, "description"),
        chain=_build(ChainParams, data.get("chain"), "chain"),
        auction=_build(AuctionParams, data.get("auction"), "auction"),
        auctioneer=_build(AuctioneerParams, data.get("auctioneer"), "auctioneer"),
        quorum=_build(QuorumParams, data.get("quorum"), "quorum"),
        endpoints=[_build(EndpointSpec, e, "endpoints[%d]" % i)
                   for i, e in enumerate(data.get("endpoints") or [])],
        bidders=[_build(BidderScript, b, "bidders[%d]" % i)
                 for i, b in enumerate(data.get("bidders") or [])],
        proposals=[_build(ProposalScript, p, "proposals[%d]" % i)
                   for i, p in enumerate(data.get("proposals") or [])],
        faults=_build_faults(data.get("faults")),
        expect=_build(Expectations, data.get("expect"), "expect"),
    )
    validate_scenario(scn)
    return scn


def _build_faults(data) -> FaultPlan:
    if data is None:
        return FaultPlan()
    if not isinstance(data, dict):
        raise ConfigError("faults: expected a mapping")
    reorgs = [_build(ReorgFault, r, "faults.reorgs[%d]" % i)
              for i, r in enumerate(data.get("reorgs") or [])]
    return _build(FaultPlan, dict(data, reorgs=reorgs), "faults")


def validate_scenario(scn: Scenario) -> None:
    """The engine's objects check their own settings; this adds what only
    the scenario states: its timeline, bidders, proposals and faults."""
    ctx = "scenario %r" % scn.name
    try:
        scn.auction_config(bytes(20))
        stream = DeterministicStream(scn.seed)
        chain = SimChain({bytes(20): scn.auctioneer.balance}, scn.chain.chain_id,
                         scn.chain.finality_depth, tx_gas=scn.chain.tx_gas)
        QuorumClient([Endpoint(spec, chain) for spec in scn.endpoints],
                     scn.quorum.sample_size, scn.quorum.agreement_quorum, stream.read)
    except ConfigError as exc:
        raise ConfigError("%s: %s" % (ctx, exc))
    if scn.auction.deadline_height <= scn.open_height:
        raise ConfigError("%s: deadline %d must exceed the open height %d"
                          % (ctx, scn.auction.deadline_height, scn.open_height))
    names = set()
    for b in scn.bidders:
        bctx = "%s bidder %r" % (ctx, b.name)
        if b.name in names:
            raise ConfigError("%s: duplicate name" % bctx)
        names.add(b.name)
        if b.registration_height < scn.open_height:
            raise ConfigError("%s: registers at %d before the auction can open (%d)"
                              % (bctx, b.registration_height, scn.open_height))
        if b.registration_height >= scn.auction.deadline_height:
            raise ConfigError("%s: registers at/after the deadline" % bctx)
        if b.funding_height <= b.registration_height:
            raise ConfigError("%s: funding height %d must follow registration %d"
                              % (bctx, b.funding_height, b.registration_height))
        if (b.topup is None) != (b.topup_height is None):
            raise ConfigError("%s: topup and topup_height must appear together" % bctx)
        if b.topup_height is not None and b.topup_height <= b.funding_height:
            raise ConfigError("%s: topup height %d must follow funding %d"
                              % (bctx, b.topup_height, b.funding_height))
        if b.funding < 0 or (b.topup or 0) < 0:
            raise ConfigError("%s: negative amounts" % bctx)
    if scn.proposals and scn.auction.resolution_mode != MODE_PROPOSER:
        raise ConfigError("%s: proposals require proposer mode" % ctx)
    for p in scn.proposals:
        if p.candidate not in names:
            raise ConfigError("%s: proposal names unknown bidder %r" % (ctx, p.candidate))
        if not 1 <= p.after_open < scn.auction.proposal_window:
            raise ConfigError("%s: proposal offset %d outside the window" % (ctx, p.after_open))
    # the transfers that `oracle_resolve` replays
    transfers = {label for b in scn.bidders for label, _, _ in b.transfers()}
    for r in scn.faults.reorgs:
        for label in r.censor:
            if label not in transfers:
                raise ConfigError("%s: reorg censors %r, which names no bidder transfer"
                                  % (ctx, label))
        if r.at_height < 2:
            raise ConfigError("%s: reorg at height %d has nothing to replace"
                              % (ctx, r.at_height))
        if r.depth < 0:
            raise ConfigError("%s: negative reorg depth" % ctx)


def load_scenario(path) -> Scenario:
    """The scenario in the YAML file at `path`. YAML is imported here, so
    a program that builds its scenarios in code never loads it."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read scenario %s: %s" % (path, exc))
    except yaml.YAMLError as exc:
        raise ConfigError("cannot parse scenario %s: %s" % (path, exc))
    return scenario_from_dict(data)
