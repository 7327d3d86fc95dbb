"""The quorum client driven directly over a small SimChain: agreement
despite liars, ambiguity, timeouts, refusals and the audit trail."""

import pytest
from hypothesis import given, settings, strategies as st

from sealedbid.chain import SimChain
from sealedbid.enclave import DeterministicStream
from sealedbid.errors import ConfigError, QuorumFailure, QuorumTimeout
from sealedbid.events import hx
from sealedbid.quorum import Endpoint, EndpointSpec, QuorumClient
from sealedbid.scenario import scenario_from_dict

ALICE = b"\xa1" * 20
NOBODY = b"\x0b" * 20
BALANCE = 1_000


def small_chain():
    return SimChain({ALICE: BALANCE}, chain_id=1, finality_depth=2,
                    genesis_assets={7: ALICE})


def make_client(chain, specs, sample_size=3, agreement_quorum=2, seed=b"quorum"):
    return QuorumClient([Endpoint(spec, chain) for spec in specs],
                        sample_size=sample_size, agreement_quorum=agreement_quorum,
                        rand=DeterministicStream(seed).read)


def honest(*ids):
    return [EndpointSpec(i) for i in ids]


def liars(*ids, offset=5):
    return [EndpointSpec(i, "misreport_balance", offset=offset) for i in ids]


def withholders(*ids):
    return [EndpointSpec(i, "withhold") for i in ids]


def last_record(client):
    return client.audit_log.records[-1]


def test_agreement_despite_a_misreporting_minority():
    client = make_client(small_chain(), honest("a", "b") + liars("liar"))
    assert client.query_balance(ALICE, 0) == BALANCE
    record = last_record(client)
    assert record["decision"] == {"kind": "agreed", "value": BALANCE, "reason": None}
    assert record["discrepancies"] == ["liar"]
    assert record["params"] == {"address": hx(ALICE), "height": 0}
    assert sorted(s["endpoint"] for s in record["samples"]) == ["a", "b", "liar"]
    assert client.query_count == 1


def test_an_ambiguous_plurality_fails_without_timing_out():
    client = make_client(small_chain(), honest("a", "b") + liars("x", "y"),
                         sample_size=4)
    with pytest.raises(QuorumFailure) as raised:
        client.query_balance(ALICE, 0)
    assert not isinstance(raised.value, QuorumTimeout)
    record = last_record(client)
    assert record["decision"] == {"kind": "failed", "value": None, "reason": "no_quorum"}
    assert sorted(record["discrepancies"]) == ["a", "b", "x", "y"]


def test_all_endpoints_withholding_times_out():
    client = make_client(small_chain(), withholders("a", "b", "c"))
    with pytest.raises(QuorumTimeout):
        client.query_height()
    record = last_record(client)
    assert record["decision"] == {"kind": "failed", "value": None, "reason": "timeout"}
    assert all(s["timeout"] and s["response"] is None and s["latency"] == 10
               for s in record["samples"])
    assert sorted(record["discrepancies"]) == ["a", "b", "c"]


def test_a_height_past_the_head_is_refused_not_timed_out():
    client = make_client(small_chain(), honest("a", "b") + withholders("w"))
    with pytest.raises(QuorumFailure) as raised:
        client.query_balance(ALICE, 1)
    assert not isinstance(raised.value, QuorumTimeout)
    record = last_record(client)
    assert record["decision"] == {"kind": "failed", "value": None, "reason": "no_quorum"}
    by_id = {s.pop("endpoint"): s for s in record["samples"]}
    refused = {"response": None, "timeout": False, "latency": 1, "refused": True}
    assert by_id == {"a": refused, "b": refused,
                     "w": {"response": None, "timeout": True, "latency": 10}}


def test_each_failed_query_is_audited_and_counted_once():
    client = make_client(small_chain(), withholders("a", "b", "c"))
    for attempt in range(1, 3):
        with pytest.raises(QuorumTimeout):
            client.query_balance(ALICE, 0)
        assert client.query_count == attempt
        assert len(client.audit_log) == attempt
    assert [r["seq"] for r in client.audit_log.records] == [0, 1]


def test_funding_source_of_an_unfunded_address_is_empty_bytes():
    client = make_client(small_chain(), honest("a", "b", "c"))
    assert client.query_funding_source(NOBODY, 0) == b""
    record = last_record(client)
    assert record["decision"]["value"] == "0x"
    assert record["params"] == {"address": hx(NOBODY), "height": 0}


def test_asset_owner_and_an_unknown_token():
    client = make_client(small_chain(), honest("a", "b", "c"))
    assert client.query_asset_owner(7, 0) == ALICE
    assert client.query_asset_owner(8, 0) == b""
    assert last_record(client)["params"] == {"token_id": 8, "height": 0}


@st.composite
def minority_collusions(draw):
    """(m, s, q, f) with f < q colluders and s - f >= q honest samples."""
    m = draw(st.integers(1, 7))
    s = draw(st.integers(1, m))
    q = draw(st.integers(1, s))
    f = draw(st.integers(0, min(q - 1, s - q)))
    return m, s, q, f


@settings(max_examples=40, deadline=None)
@given(shape=minority_collusions(), offset=st.integers(1, 10**6),
       seed=st.binary(min_size=1, max_size=8))
def test_a_colluding_minority_never_moves_the_balance(shape, offset, seed):
    m, s, q, f = shape
    specs = (liars(*("liar%d" % i for i in range(f)), offset=offset)
             + honest(*("ep%d" % i for i in range(m - f))))
    client = make_client(small_chain(), specs, sample_size=s, agreement_quorum=q,
                         seed=seed)
    assert client.query_balance(ALICE, 0) == BALANCE
    assert last_record(client)["decision"]["kind"] == "agreed"


@pytest.mark.parametrize("section", [
    {"endpoints": [{"id": "a", "behavior": "lie"}]},
], ids=["endpoint"])
def test_a_scenario_with_an_unknown_behavior_does_not_load(section):
    with pytest.raises(ConfigError, match="unknown endpoint behavior 'lie'"):
        scenario_from_dict(dict(name="lie", **section))


@pytest.mark.parametrize("specs, sample_size, agreement_quorum, message", [
    (honest("a", "b", "c"), 0, 1, r"sample_size must be in \[1, 3\], the endpoint roster"),
    (honest("a", "b", "c"), 4, 2, r"sample_size must be in \[1, 3\], the endpoint roster"),
    ([], 1, 1, r"sample_size must be in \[1, 0\], the endpoint roster"),
    (honest("a", "b", "c"), 3, 4, r"agreement_quorum must be in \[1, sample_size\]"),
    (honest("a", "b", "a"), 3, 2, "duplicate endpoint id 'a'"),
], ids=["no_sample", "sample_above_roster", "no_endpoints", "quorum_above_sample",
        "duplicate_id"])
def test_the_client_rejects_an_impossible_roster(specs, sample_size, agreement_quorum,
                                                 message):
    with pytest.raises(ConfigError, match=message):
        make_client(small_chain(), specs, sample_size=sample_size,
                    agreement_quorum=agreement_quorum)
