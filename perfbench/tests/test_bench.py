"""Tests of the benchmark itself, on tiny auctions, so that a broken
generator, probe or metric fails here rather than in a long run.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compiled  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

N = 6


@pytest.fixture(scope="module", autouse=True)
def backend():
    if "sealedbid" not in sys.modules:
        compiled.load(compiled.build(0))


def traced_auction(mode, seed=1, n=N):
    from sealedbid.harness import ScenarioRunner

    auction = workloads.sweep_auction(n, mode, seed)
    runner = ScenarioRunner(auction.scenario, seed=auction.seed)
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = tracer.call("test", runner.run)
    finally:
        tracer.uninstall()
    assert workloads.check(auction, runner, report) == []
    return runner, spans.layer_stats(tracer.spans)


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
def test_counters_repeat_exactly(mode):
    _, first = traced_auction(mode)
    _, second = traced_auction(mode)
    assert first.calls == second.calls
    assert first.bytes == second.bytes
    assert first.tags == second.tags


@pytest.mark.parametrize("mode,expected", [("exhaustive", 4 * N + 5),
                                           ("proposer", 5 * N + 7)])
def test_query_counts(mode, expected):
    runner, stats = traced_auction(mode)
    by_kind = sum(stats.tags["quorum.query.%s" % k] for k in spans.QUERY_KINDS)
    assert stats.calls["quorum.query"] == by_kind == expected
    assert runner.client.query_count == expected
    if mode == "proposer":
        assert stats.calls["proposer.submit_proposal"] == N


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
def test_seal_put_calls(mode):
    _, stats = traced_auction(mode)
    assert stats.calls["enclave.seal_put"] == N + 2


@pytest.mark.parametrize("mode", ["exhaustive", "proposer"])
def test_attest_calls_equal_events(mode):
    runner, stats = traced_auction(mode)
    assert stats.calls["enclave.attest"] == len(runner.events) > 0


@pytest.mark.parametrize("target", ["SimChain.no_such_method", "NoSuchClass.submit_tx",
                                    "no_such_function"])
def test_missing_probe_target_is_an_error(target):
    import sealedbid.chain

    original = sealedbid.chain.SimChain.submit_tx
    tracer = spans.Tracer([spans.Probe("chain.submit_tx", "sealedbid.chain",
                                       "SimChain.submit_tx"),
                           spans.Probe("chain.gone", "sealedbid.chain", target)])
    with pytest.raises(spans.ProbeError):
        tracer.install()
    assert sealedbid.chain.SimChain.submit_tx is original


def test_uninstall_restores_every_binding():
    import sealedbid.auction
    import sealedbid.events
    import sealedbid.harness

    before = (sealedbid.events.canonical, sealedbid.auction.canonical,
              sealedbid.harness.canonical)
    tracer = spans.Tracer()
    tracer.install()
    assert sealedbid.auction.canonical is not before[1]
    tracer.uninstall()
    assert (sealedbid.events.canonical, sealedbid.auction.canonical,
            sealedbid.harness.canonical) == before


def test_self_time_subtracts_direct_children():
    spans_in = [("a", 1, 0, "child", 10, 30, 0, None),
                ("a", 2, 1, "grandchild", 12, 20, 0, None),
                ("a", 3, 0, "child", 40, 60, 0, None),
                ("a", 0, None, "root", 0, 100, 0, None)]
    stats = spans.layer_stats(spans_in)
    assert stats.self_ns["root"] == 60
    assert stats.self_ns["child"] == 32
    assert stats.total_ns["child"] == 40


def test_proposer_generator_is_seeded():
    first = workloads.sweep_dict(50, "proposer", 7)
    assert first == workloads.sweep_dict(50, "proposer", 7)
    assert first != workloads.sweep_dict(50, "proposer", 8)
    proposals = first["proposals"]
    assert sorted(p["candidate"] for p in proposals) == sorted(
        b["name"] for b in first["bidders"])
    assert all(1 <= p["after_open"] < workloads.SWEEP_PROPOSAL_WINDOW for p in proposals)


def test_suite_unit_outcomes_hold():
    workload = workloads.Workload("suite", 0)
    workload.prepare()
    results = [run.run_auction(a) for a in workload.unit(0)]
    assert len(results) == workloads.SUITE_SIZE
    assert [p for r in results for p in r.problems] == []
    assert not any(r.failed for r in results)


def test_metrics_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = workloads.Workload("sweep-proposer-300", 0, bidders=N)
    workload.prepare()
    plain, traced, wall = run.closed_loop(workload, 0.01, spans.Tracer())
    assert len(plain) == len(traced) == 1
    layer = spans.per_layer_metrics(spans.layer_stats([]), 1, [])
    layer["trace.overhead"] = (1.0, "ratio")
    e2e = run.end_to_end(plain, wall, 1.0)
    for produced, section in ((e2e, "end_to_end"), (layer, "per_layer")):
        assert {m["name"]: m["unit"] for m in declared[section]} == {
            name: unit for name, (_, unit) in produced.items()}


def test_missing_sources_exit_without_result(monkeypatch, capsys):
    monkeypatch.setattr(compiled, "SOURCE", BENCH / "no-such-file.c")
    assert run.main(["--workload", "suite", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_false_positive_needs_the_value_inside_hex_only():
    detail = "bid value 106586 of b178 visible pre-resolution"
    records = [{"event": "BidderEnvelope", "ephemeral_key": "0x7d01cea0c20e106586c6c6a65f",
                "seq": 0},
               {"event": "Resolved", "amount": 106586, "seq": 1}]
    assert workloads.confidentiality_false_positive(records, detail)
    for leak in (106586, "106586", "bid=106586", {"106586": 1}, ["b178", 106586]):
        leaked = [{"event": "BidderEnvelope", "value": leak}] + records
        assert not workloads.confidentiality_false_positive(leaked, detail)
    assert not workloads.confidentiality_false_positive(
        records, detail + "; escrow of b1 leaked before disclosure")


def test_known_false_positive_is_verified_not_failed():
    # this seed's n=300 auction trips the harness's confidentiality check on
    # digits inside a bidder envelope's ephemeral key
    auction = workloads.sweep_auction(
        300, "exhaustive", workloads.derive_seed("sweep-exhaustive-300", 6, 0))
    result = run.run_auction(auction)
    assert result.problems == []
    assert result.false_positive and not result.failed
