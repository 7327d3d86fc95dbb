"""The enclave's sampled view of the settlement layer.

Every query samples n of the m declared endpoints uniformly without
replacement (driven by enclave randomness), collects their responses,
and accepts the plurality value only if at least q endpoints reported
it; otherwise the query raises, as does a balance query whose agreed
value is below zero. Every query, including failed ones, appends one
record to the client's own audit log: its parameters, every sample, the
decision and the discrepancies; one audit line per query, which
`query_count` counts.

Endpoint behaviors model the threat surface: honest endpoints mirror
chain ground truth, `misreport_balance` / `misreport_height` skew their
respective query kinds (colluders share the same skew), and `withhold`
times out with a configurable probability. Any endpoint refuses a query
at a height past its chain's head; a refusal is audited apart from a
timeout and counts toward no value.
"""

from dataclasses import dataclass
from typing import Callable, List, Sequence

from sealedbid.chain import SimChain
from sealedbid.errors import (
    ChainQueryError,
    ConfigError,
    QuorumFailure,
    QuorumTimeout,
)
from sealedbid.events import AuditLog, hx

HONEST_LATENCY = 1
TIMEOUT_LATENCY = 10

# an endpoint's answer to a query at a height past its chain's head
REFUSED = object()

BEHAVIOR_KINDS = ("honest", "misreport_balance", "misreport_height", "withhold")

# the names under which each query kind's arguments appear in the audit log
QUERY_PARAMS = {
    "balance": ("address", "height"),
    "height": (),
    "asset_owner": ("token_id", "height"),
    "funding_source": ("address", "height"),
}


@dataclass(frozen=True)
class EndpointSpec:
    """One declared endpoint: its id and how it answers."""
    id: str
    behavior: str = "honest"
    offset: int = 0
    probability: float = 1.0

    def __post_init__(self):
        if self.behavior not in BEHAVIOR_KINDS:
            raise ConfigError("unknown endpoint behavior %r" % self.behavior)
        if not 0 <= self.probability <= 1:  # NaN too
            raise ConfigError("probability %r is not in [0, 1]" % self.probability)
        # a setting that its behavior never reads would load and change nothing
        if self.offset and not self.behavior.startswith("misreport_"):
            raise ConfigError("offset applies only to misreport_* behaviors")
        if self.probability != 1 and self.behavior != "withhold":
            raise ConfigError("probability applies only to the withhold behavior")


class Endpoint:
    """One settlement-layer interface backed by chain ground truth."""

    def __init__(self, spec: EndpointSpec, chain: SimChain):
        self.spec = spec
        self.id = spec.id
        self.chain = chain

    def serve(self, query: str, args: tuple, draw01: Callable[[], float]):
        """The endpoint's answer; None models a timeout, REFUSED a refusal."""
        spec = self.spec
        if spec.behavior == "withhold" and draw01() < spec.probability:
            return None
        if query != "height" and args[-1] > self.chain.head_height:
            return REFUSED
        if query == "balance":
            truth = self.chain.balance_at(*args)
            if spec.behavior == "misreport_balance":
                return truth + spec.offset
            return truth
        if query == "height":
            truth = self.chain.head_height
            if spec.behavior == "misreport_height":
                return truth + spec.offset
            return truth
        if query == "asset_owner":
            try:
                return self.chain.asset_owner_at(*args)
            except ChainQueryError:
                return b""  # token unknown at that height
        if query == "funding_source":
            funder = self.chain.first_funder(*args)
            # b"" means "no funder yet"; None is reserved for timeouts
            return funder if funder is not None else b""
        raise ConfigError("unknown query kind %r" % query)


def _jsonable(value):
    if isinstance(value, (bytes, bytearray)):
        return hx(value)
    return value


def _sample(endpoint: Endpoint, value) -> dict:
    if value is REFUSED:
        return {"endpoint": endpoint.id, "response": None, "timeout": False,
                "latency": HONEST_LATENCY, "refused": True}
    return {
        "endpoint": endpoint.id,
        "response": _jsonable(value),
        "timeout": value is None,
        "latency": TIMEOUT_LATENCY if value is None else HONEST_LATENCY,
    }


class QuorumClient:
    def __init__(self, endpoints: Sequence[Endpoint], sample_size: int,
                 agreement_quorum: int, rand: Callable[[int], bytes]):
        if not 1 <= sample_size <= len(endpoints):
            raise ConfigError("sample_size must be in [1, %d], the endpoint roster"
                              % len(endpoints))
        if not 1 <= agreement_quorum <= sample_size:
            raise ConfigError("agreement_quorum must be in [1, sample_size]")
        seen = set()
        for endpoint in endpoints:
            if endpoint.id in seen:
                raise ConfigError("duplicate endpoint id %r" % endpoint.id)
            seen.add(endpoint.id)
        self.endpoints = list(endpoints)
        self.sample_size = sample_size
        self.agreement_quorum = agreement_quorum
        self._rand = rand
        self.audit_log = AuditLog()

    @property
    def query_count(self) -> int:
        return len(self.audit_log)

    # -- randomness helpers --------------------------------------------------

    def _rand_below(self, bound: int) -> int:
        # rejection sampling on 4-byte draws keeps the sample unbiased
        limit = (1 << 32) - ((1 << 32) % bound)
        while True:
            draw = int.from_bytes(self._rand(4), "big")
            if draw < limit:
                return draw % bound

    def _draw01(self) -> float:
        return int.from_bytes(self._rand(4), "big") / float(1 << 32)

    def sample_endpoints(self) -> List[Endpoint]:
        """Uniform sample of sample_size distinct endpoints."""
        pool = list(self.endpoints)
        chosen = []
        for i in range(self.sample_size):
            j = i + self._rand_below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
            chosen.append(pool[i])
        return chosen

    # -- core query path -------------------------------------------------------

    def _execute(self, query: str, *args):
        """Run one query: sample, decide, audit, then return or raise."""
        responses = [(endpoint, endpoint.serve(query, args, self._draw01))
                     for endpoint in self.sample_endpoints()]
        samples = [_sample(endpoint, value) for endpoint, value in responses]
        value = self._agree([value for _, value in responses])
        kind, reason = "agreed", None
        if value is None:
            all_withheld = all(v is None for _, v in responses)
            kind, reason = "failed", "timeout" if all_withheld else "no_quorum"
        self.audit_log.append({
            "seq": len(self.audit_log),
            "query": query,
            "params": {name: _jsonable(arg)
                       for name, arg in zip(QUERY_PARAMS[query], args)},
            "samples": samples,
            "decision": {"kind": kind, "value": _jsonable(value), "reason": reason},
            "discrepancies": [endpoint.id for endpoint, v in responses
                              if value is None or v != value],
        })
        if reason == "timeout":
            raise QuorumTimeout("every sampled endpoint withheld its response")
        if reason == "no_quorum":
            raise QuorumFailure("no value reached the agreement quorum")
        return value

    def _agree(self, values):
        counts = {}
        for value in values:
            if value is not None and value is not REFUSED:
                counts[value] = counts.get(value, 0) + 1
        reaching = [(count, value) for value, count in counts.items()
                    if count >= self.agreement_quorum]
        if not reaching:
            return None
        best = max(count for count, _ in reaching)
        winners = [value for count, value in reaching if count == best]
        if len(winners) > 1:
            return None  # ambiguous plurality: treat as disagreement
        return winners[0]

    # -- public query operations ---------------------------------------------------

    def query_balance(self, addr: bytes, height: int) -> int:
        """The agreed balance; one below zero, which no chain holds, is a
        failed query."""
        balance = self._execute("balance", addr, height)
        if balance < 0:
            raise QuorumFailure("the agreed balance %d is below zero" % balance)
        return balance

    def query_height(self) -> int:
        return self._execute("height")

    def query_asset_owner(self, token_id: int, height: int) -> bytes:
        return self._execute("asset_owner", token_id, height)

    def query_funding_source(self, addr: bytes, height: int) -> bytes:
        return self._execute("funding_source", addr, height)
