"""The scenario runner's own checks and its report on an aborted run."""

import json
import re
from functools import lru_cache
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from sealedbid import crypto, events
from sealedbid.enclave import Enclave
from sealedbid.events import HexNeedles, canonical, find_hex
from sealedbid.harness import ScenarioRunner, run_scenario
from sealedbid.scenario import load_scenario
from sealedbid.verify import MIN_CHECKED_BID, stated_numbers, stream_problems

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def leaks(lines, escrows, bids=()):
    """What `stream_problems` finds before disclosure in a stream's lines."""
    return stream_problems([(line, json.loads(line)) for line in lines], escrows, bids)[0]


def gaps(lines, escrows):
    """Where `stream_problems` finds the disclosure of a stream's lines incomplete."""
    return stream_problems([(line, json.loads(line)) for line in lines], escrows)[1]


@pytest.mark.parametrize("record", [
    {"amount": 92000},
    {"amount": "92000"},
    {"note": "bidder b5 pays 92000 at height 9"},
    {"amount": hex(92000)},
    {"values": [1, {"92000": None}]},
])
def test_a_stated_bid_is_found(record):
    assert stated_numbers([record], [92000]) == {92000}


@pytest.mark.parametrize("record", [
    {"ciphertext": "0x9e33fb92000e202c"},
    {"amount": True},
    {"note": "reference 920001"},
    {"amount": 920001},
    {"auction_id": "92000bcd"},  # a bare hex id states 0x92000bcd
])
def test_digits_that_state_no_bid_are_not_found(record):
    assert stated_numbers([record], [92000]) == set()


def test_leaks_are_cut_at_the_first_disclosure_event():
    escrow = bytes(range(20))
    records = [
        {"event": "BidderEnvelope", "ciphertext": "0x77"},
        {"event": "ProposalsOpened", "window_end_height": 20},
        {"event": "ProposalAccepted", "candidate": "0x" + escrow.hex(),
         "amount": 92000},
    ]
    escrows, bids = {"b5": escrow}, [("b5", 92000)]
    assert leaks([canonical(r) for r in records], escrows, bids) == []
    records[0].update(ciphertext="0x77%s77" % escrow.hex(), amount=92000)
    assert leaks([canonical(r) for r in records], escrows, bids) == [
        "escrow of b5 leaked before disclosure",
        "bid value 92000 of b5 visible pre-resolution"]


@pytest.mark.parametrize("prefix", ["x", "\u0130" * 3], ids=["ascii", "lengthened"])
def test_an_escrow_that_ends_at_the_cut_leaks(prefix):
    # raw lines, as verify-log reads them; the escrow ends the second
    # line's note, and the third line, at the cut, names it again
    escrow = bytes(range(20))

    def lines(note):
        return ['{"event":"Open","note":"a"}',
                '{"event":"Open","note":"%s"}' % note,
                '{"event":"Resolved","note":"%s"}' % escrow.hex()]

    leak = ["escrow of b5 leaked before disclosure"]
    assert leaks(lines(prefix + escrow.hex()), {"b5": escrow}) == leak
    assert leaks(lines(prefix + escrow.hex()[:-1]), {"b5": escrow}) == []


def test_a_resolved_stream_that_omits_an_escrow_reports_it():
    shown, hidden = bytes(range(20)), bytes(range(20, 40))
    records = [{"event": "Closed", "bidder_count": 2},
               {"event": "BidderEnvelope", "registration_index": 0},
               {"event": "BidderEnvelope", "registration_index": 1},
               # the stranger keeps the counts equal; the hidden escrow
               # shows elsewhere in the text, but not in bidder_set
               {"event": "ProposalAccepted", "candidate": "0x" + hidden.hex()},
               {"event": "Resolved", "bidder_set": ["0x" + shown.hex(), "0x" + "5e" * 20]}]
    escrows = {"b1": shown, "b2": hidden}
    assert gaps([canonical(r) for r in records], escrows) == \
        ["escrow of b2 missing from disclosure"]
    records[-1]["bidder_set"][1] = "0x" + hidden.hex().upper()
    assert gaps([canonical(r) for r in records], escrows) == []


def test_a_stream_with_only_proposals_opened_is_not_checked_for_completeness():
    records = [{"event": "Closed", "bidder_count": 1},
               {"event": "ProposalsOpened", "window_end_height": 20}]
    assert gaps([canonical(r) for r in records], {"b1": bytes(range(20))}) == []


@pytest.mark.parametrize("seed", [2419, 2897, 3264])
def test_bid_digits_inside_ciphertext_are_not_a_leak(seed):
    # each seed puts one bid's decimal digits, between hex letters, inside
    # the ciphertext of an envelope
    report = run_scenario(SCENARIOS / "honest_10_bidders.yaml", seed=seed)
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


def test_a_quorum_failure_still_gives_a_report_and_logs(make_runner, tmp_path):
    doc = yaml.safe_load((SCENARIOS / "misreporting_minority.yaml").read_text())
    doc["endpoints"] = [
        {"id": "honest"},
        {"id": "withhold-a", "behavior": "withhold", "probability": 0.5},
        {"id": "withhold-b", "behavior": "withhold", "probability": 0.5},
    ]
    runner = make_runner(**doc)
    runner.out_dir = tmp_path
    report = runner.run()
    assert report.flags["quorum_failure"].startswith("Quorum")
    liveness = [c for c in report.checks if c.name == "liveness"]
    assert len(liveness) == 1 and not liveness[0].passed
    assert report.flags["quorum_failure"] in liveness[0].detail
    assert not report.passed
    for name in ("events.jsonl", "audit.jsonl", "gas.csv", "report.json"):
        assert (tmp_path / name).exists()
    assert (tmp_path / "audit.jsonl").read_text().count("\n") == report.counters["queries"]


def test_a_tampered_registry_that_stops_a_funding_passes_every_check(make_runner):
    # the tamper stops the run before bob's funding is mined; a stopped run
    # is not held to one funding transfer per escrow
    doc = yaml.safe_load((SCENARIOS / "sealed_tamper.yaml").read_text())
    doc["bidders"][0]["registration_height"] = 5
    doc["bidders"].append({"name": "bob", "registration_height": 7,
                           "funding": 100_000, "funding_height": 9})
    report = make_runner(**doc).run()
    assert report.final_state == "Open" and "integrity_error" in report.flags
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


def test_a_breach_with_no_escrow_drains_nothing(make_runner):
    doc = yaml.safe_load((SCENARIOS / "enclave_compromise.yaml").read_text())
    doc["bidders"] = []
    report = make_runner(**doc).run()
    assert report.final_state == "Claimed"
    assert report.flags["compromised"] is True
    assert "attacker_drain_accepted" not in report.flags
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


def test_a_reorg_scripted_past_settlement_still_happens(make_runner):
    # the run would end at height 9; the depth-6 reorg at 10 then takes
    # alice's funding off the chain, so her escrow cannot pay the winner
    runner = make_runner(
        chain={"finality_depth": 6}, auction={"deadline_height": 6, "kappa": 1},
        bidders=[{"name": "alice", "registration_height": 3, "funding": 500_000,
                  "funding_height": 5},
                 {"name": "bob", "registration_height": 3, "funding": 400_000,
                  "funding_height": 4}],
        faults={"reorgs": [{"at_height": 10, "depth": 6, "censor": ["alice:funding"]}]})
    report = runner.run()
    assert report.counters["reorgs"] == [
        {"at_height": 10, "depth": 6, "applied": True, "reason": None}]
    assert report.counters["blocks"] == 10
    assert runner.chain.height_of(runner.transfer_hashes["alice:funding"]) is None
    assert runner.chain.height_of(runner.transfer_hashes["bob:funding"]) is not None
    assert report.flags["unclaimed_payloads"] == ["winner_payment"]


def test_the_report_names_its_crypto_backend(tmp_path):
    report = run_scenario(SCENARIOS / "honest_1_bidder.yaml", out_dir=tmp_path)
    assert report.backend == crypto.IMPLEMENTATION
    assert report.to_dict()["backend"] == crypto.IMPLEMENTATION
    assert json.loads((tmp_path / "report.json").read_text())["backend"] == \
        crypto.IMPLEMENTATION
    assert report.format_text().splitlines()[0] == \
        "scenario honest_1_bidder (seed %d, %s crypto): PASS" % (report.seed,
                                                                 crypto.IMPLEMENTATION)


# -- the one-pass rules against the per-needle rules they replace ----------------

def per_needle_stated_numbers(records):
    """Every number the records state, collected whole."""
    numbers = set()
    stack = list(records)
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, str):
            if re.fullmatch(r"[0-9]+", value):
                numbers.add(int(value))
            elif re.fullmatch(r"(0[xX])?[0-9a-fA-F]+", value):
                numbers.add(int(value, 16))
            else:
                numbers.update(int(run) for run in re.findall(r"[0-9]+", value))
        elif isinstance(value, int) and not isinstance(value, bool):
            numbers.add(value)
    return numbers


def per_needle_disclosure_problems(records, lines, escrows, bids):
    """One `in` search of the text before the cut per escrow."""
    boundary = next((i for i, r in enumerate(records)
                     if r.get("event") in ("Resolved", "ProposalsOpened")),
                    len(records))
    pre_text = "\n".join(lines[:boundary]).lower()
    problems = ["escrow of %s leaked before disclosure" % name
                for name, escrow in escrows.items() if escrow.hex() in pre_text]
    numbers = per_needle_stated_numbers(records[:boundary])
    problems.extend("bid value %d of %s visible pre-resolution" % (amount, name)
                    for name, amount in bids
                    if amount >= MIN_CHECKED_BID and amount in numbers)
    return problems


def per_needle_key_leaks(keys, events_text, audit_text):
    """One `in` search of each lowercased log per key."""
    return sum(key in text.lower() for text in (events_text, audit_text) for key in keys)


PERIODIC_KEY = "5a" * 32  # self-overlapping; no key generator would draw it


@lru_cache(maxsize=None)
def scanning_enclave():
    """An enclave with one escrow key and a planted periodic key, and the
    hex of all its private keys."""
    enclave = Enclave(seed=11)
    enclave.generate_keypair()
    enclave._keys["periodic"] = int(PERIODIC_KEY, 16)
    keys = tuple(key.hex() for key in enclave.compromise().values())
    return enclave, keys


hex_run = st.text("0123456789abcdef", max_size=20)
PLANTS = ("whole", "inside", "repeated", "overlapping", "upper", "near")


@st.composite
def planted(draw, needle):
    """`needle` written into a log field in one of the ways it can hide."""
    how = draw(st.sampled_from(PLANTS))
    if how == "whole":
        return "0x" + needle
    if how == "inside":
        return "0x%s%s%s" % (draw(hex_run), needle, draw(hex_run))
    if how == "repeated":
        return needle + draw(hex_run) + needle
    if how == "overlapping":
        return needle[:draw(st.integers(1, len(needle) - 1))] + needle
    if how == "upper":
        return "0X" + needle.upper()
    return needle[:-1] + ("1" if needle[-1] == "0" else "0")  # a near miss


escrow_bytes = st.one_of(st.binary(min_size=20, max_size=20),
                         st.binary(min_size=2, max_size=2).map(lambda b: b * 10))


@st.composite
def bid_token(draw, amount):
    """`amount` written as a token, or only as digits that state no number."""
    return draw(st.sampled_from([
        amount, str(amount), hex(amount), "0x000" + format(amount, "X"),
        "pays %d at height 9" % amount, "ref %d1" % amount,
        "0x9e%d0e" % amount, "%d" % (amount * 10 + 7),
    ]))


@st.composite
def planted_logs(draw):
    """Events with escrow hex, key hex and bid amounts planted on both
    sides of the disclosure cut (or with no cut), and an audit text."""
    _, keys = scanning_enclave()
    escrows = {"b%d" % i: e for i, e in enumerate(
        draw(st.lists(escrow_bytes, min_size=1, max_size=4)))}
    bids = [(name, draw(st.integers(0, 3 * MIN_CHECKED_BID))) for name in escrows]
    records = [{"event": "Open", "seq": i, "pad": draw(hex_run)}
               for i in range(draw(st.integers(1, 6)))]
    cut = draw(st.integers(0, len(records)))
    if cut < len(records):
        records[cut]["event"] = draw(st.sampled_from(["Resolved", "ProposalsOpened"]))
    fields = [e.hex() for e in escrows.values()] + list(keys)
    for needle in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=6)):
        record = draw(st.sampled_from(records))
        record.setdefault("notes", []).append(draw(planted(needle)))
    for _, amount in bids:
        for token in draw(st.lists(bid_token(amount), min_size=1, max_size=2)):
            draw(st.sampled_from(records)).setdefault("tokens", []).append(token)
    audit = [{"seq": i, "value": draw(planted(draw(st.sampled_from(fields))))}
             for i in range(draw(st.integers(0, 3)))]
    ascii_only = draw(st.booleans())
    if not ascii_only:  # a raw log line may hold characters that lowering lengthens
        records[0]["note"] = "\u0130" * 48 + "\u03a3\u212a"
    return records, ascii_only, escrows, bids, audit


def test_find_hex_finds_needles_across_window_edges():
    escrow, key = "3c" * 20, "0123456789abcdef" * 4
    needles = HexNeedles([escrow, key])
    for offset in range(events._WINDOW - 110, events._WINDOW + 20):
        text = "q" * offset + escrow.upper() + key + "q"
        assert find_hex([text], needles) == {escrow, key}
        assert find_hex([text[:offset + 79]], needles) == {escrow}


def test_needles_that_share_a_word_are_each_found():
    # "01234567" is a word of both needles, at offsets 0 and 8
    key, escrow = "0123456789abcdef" * 4, "89abcdef01234567" + "5e" * 12
    text = "q%sq%s%s" % (key, escrow.upper(), key[:40])
    assert find_hex([text], HexNeedles([key, escrow])) == {key, escrow}


@pytest.mark.parametrize("needle", ["ef01", "5e" * 11 + "f", "\u0130" * 24])
def test_a_short_or_non_ascii_needle_is_rejected(needle):
    with pytest.raises(ValueError):
        HexNeedles(["5e" * 20, needle])


@settings(max_examples=150, deadline=None)
@given(log=planted_logs())
def test_one_pass_rules_equal_the_per_needle_rules(log):
    records, ascii_only, escrows, bids, audit = log
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":"), ensure_ascii=ascii_only)
             for r in records]
    audit_lines = [canonical(r) for r in audit]
    assert leaks(lines, escrows, bids) == \
        per_needle_disclosure_problems(records, lines, escrows, bids)
    enclave, keys = scanning_enclave()
    assert enclave.scan_for_key_leaks(lines, audit_lines) == \
        per_needle_key_leaks(keys, "\n".join(lines), "\n".join(audit_lines))
    escrow_hex = [e.hex() for e in escrows.values()]
    found = find_hex(lines, HexNeedles(escrow_hex))
    lowered = "\n".join(lines).lower()
    assert found == {needle for needle in escrow_hex if needle in lowered}


LINE_NEEDLES = ("3c" * 20, "0123456789abcdef" * 4, "89abcdef01234567" + "5e" * 12)
# lengths around the points where `find_hex` closes a chunk or a window
edge_length = st.one_of(
    st.integers(0, 40),
    st.integers(events._WINDOW // 2 - 70, events._WINDOW // 2 + 10),
    st.integers(events._WINDOW - 70, events._WINDOW + 10),
    st.integers(2 * events._WINDOW - 70, 2 * events._WINDOW + 10))


@st.composite
def needle_lines(draw):
    """Lines of filler with needles planted whole, upper-cased, cut short,
    at a line's end, or split across two lines, where they do not occur."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        line = draw(st.sampled_from("q0a\u0130")) * draw(edge_length)
        needle = draw(st.sampled_from(LINE_NEEDLES))
        how = draw(st.sampled_from(("whole", "upper", "short", "split", "none")))
        if how == "split":
            cut = draw(st.integers(1, len(needle) - 1))
            lines.append(line + needle[:cut])
            line = needle[cut:]
        elif how != "none":
            line += {"whole": needle, "upper": needle.upper(), "short": needle[:-1]}[how]
        lines.append(line + "q" * draw(st.integers(0, 3)))
    return lines


@settings(max_examples=100, deadline=None)
@given(lines=needle_lines())
def test_find_hex_over_lines_equals_a_search_of_the_joined_text(lines):
    joined = "\n".join(lines).lower()
    assert find_hex(lines, HexNeedles(LINE_NEEDLES)) == \
        {needle for needle in LINE_NEEDLES if needle in joined}


def test_writing_the_logs_renders_no_record_again(monkeypatch, tmp_path):
    # run() writes the text the confidentiality check rendered
    rendered = []
    real = events.canonical
    monkeypatch.setattr(events, "canonical",
                        lambda record: rendered.append(record) or real(record))
    scenario = load_scenario(SCENARIOS / "honest_4_bidders.yaml")
    counts = {}
    for out_dir in (None, tmp_path):
        rendered.clear()
        runner = ScenarioRunner(scenario, out_dir=out_dir)
        assert runner.run().passed
        counts[out_dir] = len(rendered)
    assert counts[tmp_path] == counts[None] > 0
    for name, log in (("events.jsonl", runner.events), ("audit.jsonl", runner.audit)):
        assert (tmp_path / name).read_text(encoding="utf-8") == \
            "".join(line + "\n" for line in log.lines)
