"""Span tracing installed from outside the package, and the per-layer metrics.

`Tracer.install()` wraps each function named in `PROBES`: a call records
one span (auction id, span id, parent span id, name, start, end, bytes,
tag). Spans stay in memory until `write()`. A probe whose target no longer
exists is an error, never a silent zero. A re-entrant call of a probed
function (rlp.encode recursing into itself) folds into the open span.

Self time of a span is its duration minus the durations of its direct
children; since calls nest strictly, the children never overlap.
"""

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


def _len_arg(index):
    return lambda args, result: len(args[index])


def _len_result(args, result):
    return len(result) if result is not None else 0


@dataclass(frozen=True)
class Probe:
    name: str                # span and metric prefix, <module>.<function>
    owner: str               # module that defines the target
    target: str              # "function" or "Class.method"
    size: Optional[Callable] = None   # (args, result) -> bytes handled
    tag: Optional[Callable] = None    # (args, result) -> sub-counter name


PROBES = (
    Probe("crypto.keccak_256", "sealedbid.crypto", "keccak_256", size=_len_arg(0)),
    Probe("crypto.sign_recoverable", "sealedbid.crypto.secp256k1", "sign_recoverable"),
    Probe("crypto.recover_public_key", "sealedbid.crypto.secp256k1", "recover_public_key"),
    Probe("crypto.public_key", "sealedbid.crypto.secp256k1", "public_key"),
    Probe("rlp.encode", "sealedbid.rlp", "encode"),
    Probe("rlp.decode", "sealedbid.rlp", "decode"),
    Probe("transactions.sign_tx", "sealedbid.transactions", "sign_tx"),
    Probe("transactions.recover_signer", "sealedbid.transactions", "recover_signer"),
    Probe("transactions.tx_hash", "sealedbid.transactions", "SignedTransaction.tx_hash"),
    Probe("chain.submit_tx", "sealedbid.chain", "SimChain.submit_tx",
          tag=lambda args, result: None if result is None or result.accepted
          else "rejected"),
    Probe("chain.mine_block", "sealedbid.chain", "SimChain.mine_block"),
    Probe("chain.state_root", "sealedbid.chain", "_State.root"),
    Probe("chain.balance_at", "sealedbid.chain", "SimChain.balance_at"),
    Probe("chain.first_funder", "sealedbid.chain", "SimChain.first_funder"),
    Probe("chain.block_at", "sealedbid.chain", "SimChain.block_at"),
    Probe("chain.reorg", "sealedbid.chain", "SimChain.reorg"),
    Probe("enclave.seal_put", "sealedbid.enclave", "Enclave.seal_put", size=_len_arg(2)),
    Probe("enclave.seal_get", "sealedbid.enclave", "Enclave.seal_get", size=_len_result),
    Probe("enclave.attest", "sealedbid.enclave", "Enclave.attest"),
    Probe("enclave.generate_keypair", "sealedbid.enclave", "Enclave.generate_keypair"),
    Probe("enclave.sign_with", "sealedbid.enclave", "Enclave.sign_with"),
    Probe("enclave.envelope", "sealedbid.enclave", "Enclave.encrypt_to"),
    Probe("enclave.envelope", "sealedbid.enclave", "Enclave.decrypt_input"),
    Probe("enclave.envelope", "sealedbid.enclave", "encrypt_to_key"),
    Probe("enclave.envelope", "sealedbid.enclave", "decrypt_envelope"),
    Probe("quorum.query", "sealedbid.quorum", "QuorumClient._execute",
          tag=lambda args, result: args[1]),
    Probe("auction.register_bidder", "sealedbid.auction", "AuctionInstance.register_bidder"),
    Probe("auction.resolve", "sealedbid.auction", "AuctionInstance.resolve"),
    Probe("auction.finalize", "sealedbid.auction", "AuctionInstance.finalize"),
    Probe("proposer.submit_proposal", "sealedbid.proposer", "submit_proposal"),
    Probe("proposer.finalize_proposals", "sealedbid.proposer", "finalize_proposals"),
    Probe("events.canonical", "sealedbid.events", "canonical", size=_len_result),
    Probe("harness.build", "sealedbid.harness", "ScenarioRunner._build"),
    Probe("harness.lifecycle", "sealedbid.harness", "ScenarioRunner._lifecycle"),
    Probe("harness.checks", "sealedbid.harness", "ScenarioRunner._checks"),
    Probe("harness.confidentiality", "sealedbid.harness",
          "ScenarioRunner._confidentiality_check"),
    Probe("harness.non_interactivity", "sealedbid.harness",
          "ScenarioRunner._non_interactivity_check"),
    Probe("harness.oracle_resolve", "sealedbid.harness", "oracle_resolve"),
)

ROOT_SPAN = "run_scenario"
SPAN_FIELDS = ("auction", "id", "parent", "name", "start_ns", "end_ns", "bytes", "tag")

# per-layer metrics reported on every workload; each is a total over the
# traced auctions divided by their number
CALLS = ("crypto.keccak_256", "crypto.sign_recoverable", "crypto.recover_public_key",
         "crypto.public_key", "rlp.encode", "rlp.decode", "transactions.sign_tx",
         "transactions.recover_signer", "transactions.tx_hash", "chain.submit_tx",
         "chain.mine_block", "chain.state_root", "chain.balance_at", "chain.first_funder",
         "chain.block_at", "chain.reorg", "enclave.seal_put", "enclave.seal_get",
         "enclave.attest", "enclave.generate_keypair", "enclave.sign_with",
         "enclave.envelope", "auction.register_bidder", "auction.resolve",
         "auction.finalize", "proposer.submit_proposal", "proposer.finalize_proposals",
         "events.canonical")
BYTES = ("crypto.keccak_256", "enclave.seal_put", "enclave.seal_get", "events.canonical")
SELF_MS = ("crypto.keccak_256", "crypto.sign_recoverable", "crypto.recover_public_key",
           "crypto.public_key", "rlp.encode", "transactions.sign_tx",
           "transactions.recover_signer", "chain.submit_tx", "chain.mine_block",
           "chain.state_root", "chain.balance_at", "chain.first_funder",
           "enclave.seal_put", "enclave.seal_get", "enclave.attest",
           "enclave.generate_keypair", "enclave.sign_with", "enclave.envelope",
           "quorum.query", "events.canonical", "harness.confidentiality",
           "harness.non_interactivity")
TOTAL_MS = ("harness.build", "harness.lifecycle", "harness.checks",
            "harness.oracle_resolve")
QUERY_KINDS = ("balance", "height", "asset_owner", "funding_source")


class ProbeError(RuntimeError):
    """A probe names a function that the package no longer has."""


def _resolve(probe: Probe):
    try:
        module = importlib.import_module(probe.owner)
    except ImportError as exc:
        raise ProbeError("%s: cannot import %s" % (probe.name, probe.owner)) from exc
    owner, _, attr = probe.target.rpartition(".")
    holder = module
    if owner:
        holder = getattr(module, owner, None)
        if not isinstance(holder, type):
            raise ProbeError("%s: %s has no class %s" % (probe.name, probe.owner, owner))
        if attr not in vars(holder):
            raise ProbeError("%s: %s.%s has no method %s"
                             % (probe.name, probe.owner, owner, attr))
        return holder, attr, vars(holder)[attr]
    if not hasattr(module, attr):
        raise ProbeError("%s: %s has no function %s" % (probe.name, probe.owner, attr))
    return holder, attr, getattr(module, attr)


def _bindings(function):
    """Every (module, name) in the package's Python modules bound to `function`;
    modules that imported it by name hold their own binding."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "sealedbid" and not name.startswith("sealedbid."):
            continue
        if name.startswith("sealedbid._core"):  # the kernels themselves
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                found.append((module, attr))
    return found


class Tracer:
    def __init__(self, probes=PROBES):
        self.probes = tuple(probes)
        self.spans: List[tuple] = []
        self.auction: Optional[str] = None
        self._stack: List[tuple] = []
        self._next_id = 0
        self._undo: List[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise ProbeError("probes are already installed")
        resolved = [(probe, *_resolve(probe)) for probe in self.probes]
        for probe, holder, attr, original in resolved:
            wrapper = self._wrap(probe, original)
            if isinstance(holder, type):
                targets = [(holder, attr)]
            else:
                targets = _bindings(original)
            for obj, name in targets:
                self._undo.append((obj, name, original))
                setattr(obj, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    # -- recording -------------------------------------------------------------

    def _wrap(self, probe: Probe, original):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] is probe:
                return original(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((span_id, probe))
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((
                    tracer.auction, span_id, parent, probe.name, start, end,
                    probe.size(args, result) if probe.size else 0,
                    probe.tag(args, result) if probe.tag else None))

        return traced

    def call(self, auction_id: str, function, *args):
        """Run `function` as the root span of one auction."""
        self.auction = auction_id
        root = Probe(ROOT_SPAN, "", "")
        try:
            return self._wrap(root, function)(*args)
        finally:
            self.auction = None

    def write(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


@dataclass
class LayerStats:
    calls: Dict[str, int]
    bytes: Dict[str, int]
    total_ns: Dict[str, int]
    self_ns: Dict[str, int]
    tags: Dict[str, int]
    durations: Dict[str, List[int]]


def layer_stats(spans) -> LayerStats:
    child_ns = defaultdict(int)
    for _auction, _sid, parent, _name, start, end, _size, _tag in spans:
        if parent is not None:
            child_ns[parent] += end - start
    stats = LayerStats(defaultdict(int), defaultdict(int), defaultdict(int),
                       defaultdict(int), defaultdict(int), defaultdict(list))
    for _auction, sid, _parent, name, start, end, size, tag in spans:
        duration = end - start
        stats.calls[name] += 1
        stats.bytes[name] += size
        stats.total_ns[name] += duration
        stats.self_ns[name] += duration - child_ns[sid]
        stats.durations[name].append(duration)
        if tag is not None:
            stats.tags["%s.%s" % (name, tag)] += 1
    return stats


def _quantile_ms(durations, q) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] / 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] / 1e6


def per_layer_metrics(stats: LayerStats, auctions: int, audit_records) -> Dict[str, tuple]:
    """name -> (value, unit); totals are per traced auction."""
    out = {}
    for name in CALLS:
        out[name + ".calls"] = (stats.calls[name] / auctions, "count")
    out["chain.submit_tx.rejected"] = (stats.tags["chain.submit_tx.rejected"] / auctions,
                                       "count")
    for name in BYTES:
        out[name + ".bytes"] = (stats.bytes[name] / auctions, "B")
    for name in SELF_MS:
        out[name + ".self_ms"] = (stats.self_ns[name] / 1e6 / auctions, "ms")
    for name in TOTAL_MS:
        out[name + ".ms"] = (stats.total_ns[name] / 1e6 / auctions, "ms")
    for kind in QUERY_KINDS:
        out["quorum.queries." + kind] = (stats.tags["quorum.query." + kind] / auctions,
                                         "count")
    registrations = stats.durations["auction.register_bidder"]
    out["auction.register_bidder.ms.p50"] = (_quantile_ms(registrations, 50), "ms")
    out["auction.register_bidder.ms.p90"] = (_quantile_ms(registrations, 90), "ms")
    samples = sum(len(r["samples"]) for r in audit_records)
    agreed = sum(1 for r in audit_records if r["decision"]["kind"] == "agreed")
    out["quorum.samples"] = (samples / auctions, "count")
    out["quorum.agreed_share"] = (agreed / len(audit_records) if audit_records else 0.0,
                                  "ratio")
    return out


def optional_metrics(stats: LayerStats, auctions: int) -> Dict[str, tuple]:
    """Timings of steps that only some workloads run, for those it ran.

    A workload that never runs a step would report a constant zero for
    it, so these are printed with the traced run but are not per-layer
    metrics of the benchmark.
    """
    out = {}
    if stats.calls["auction.resolve"]:
        out["auction.resolve.ms"] = (stats.total_ns["auction.resolve"] / 1e6 / auctions, "ms")
    if stats.calls["proposer.finalize_proposals"]:
        out["proposer.finalize_proposals.ms"] = (
            stats.total_ns["proposer.finalize_proposals"] / 1e6 / auctions, "ms")
    if stats.calls["proposer.submit_proposal"]:
        out["proposer.submit_proposal.ms.p50"] = (
            _quantile_ms(stats.durations["proposer.submit_proposal"], 50), "ms")
    if stats.calls["chain.reorg"]:
        out["chain.reorg.self_ms"] = (stats.self_ns["chain.reorg"] / 1e6 / auctions, "ms")
    return out
