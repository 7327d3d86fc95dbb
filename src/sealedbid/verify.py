"""The rules that anyone can apply to a saved public event stream.

The enclave computes the winner; these rules re-check what it published
from the stream alone. `verify_log` applies them all, for `sealedbid
verify-log`; the scenario runner applies `stream_problems` with the
escrows and bids it knows privately. Either parses each line once and
hands `stream_problems` the (line, record) pairs, which it reads in one
pass for both the leaks before disclosure and the gaps in it.
"""

import json
import re
from typing import Dict, Iterable, List, Set, Tuple

from sealedbid.enclave import AttestationReport, verify_attestation
from sealedbid.errors import SealedBidError
from sealedbid.events import HexNeedles, canonical, find_hex, unhx
from sealedbid.transactions import ADDRESS_LENGTH, SignedTransaction, recover_signer

# what a malformed record raises when a field is missing, mistyped or not hex
MALFORMED = (KeyError, ValueError, TypeError, AttributeError, IndexError)

# a bid below this is not checked: small numbers are heights, indices and
# sequence numbers in every log
MIN_CHECKED_BID = 1000

# the events at which disclosure begins
DISCLOSURE_EVENTS = ("Resolved", "ProposalsOpened")

_DECIMAL = re.compile(r"[0-9]+")
_HEX = re.compile(r"(?:0[xX])?([0-9a-fA-F]+)")


def stated_numbers(records: Iterable, amounts: Iterable[int]) -> Set[int]:
    """The members of `amounts` that JSON-like records state as a token.

    A token is each integer (not a boolean), each all-digit string read as
    decimal, each other string of hex digits, bare or after `0x`, read as
    hex, and in any other string each maximal run of decimal digits; dict
    keys count as strings. Digits that occur only inside a longer hex
    string (ciphertext, a key, a hash, a bare hex id) state no number.
    The records are walked one at a time, and all of them, also when
    `amounts` is empty; each token is tested against `amounts`, and a
    token with more significant digits than the largest amount is never
    read as a number.
    """
    amounts = set(amounts)
    stated: Set[int] = set()
    top = max(amounts, default=0)
    width = {10: len(str(top)), 16: len(format(top, "x"))}
    keys: Set[str] = set()  # read once each: every record repeats them

    def read(value) -> None:
        if isinstance(value, str):
            whole_hex = _HEX.fullmatch(value)
            if _DECIMAL.fullmatch(value):
                tokens, base = (value,), 10
            elif whole_hex:
                tokens, base = (whole_hex.group(1),), 16
            else:
                tokens, base = _DECIMAL.findall(value), 10
            for token in tokens:
                digits = token.lstrip("0")
                if len(digits) <= width[base]:
                    number = int(digits or "0", base)
                    if number in amounts:
                        stated.add(number)
        elif isinstance(value, int) and not isinstance(value, bool):
            if value in amounts:
                stated.add(value)

    for record in records:
        stack = [record]
        while stack:
            value = stack.pop()
            if isinstance(value, dict):
                keys.update(value)
                stack.extend(value.values())
            elif isinstance(value, (list, tuple)):
                stack.extend(value)
            else:
                read(value)
    for key in keys:
        read(key)
    return stated


def stream_problems(stream: Iterable[Tuple[str, dict]], escrows: Dict[str, bytes],
                    bids: Iterable[Tuple[str, int]] = ()) -> Tuple[List[str], List[str]]:
    """The leaks and the gaps of an event stream, from one pass over its
    (line, record) pairs.

    Leaks come before disclosure begins, at the first `Resolved` or
    `ProposalsOpened` event: an escrow whose hex occurs in the lowercased
    lines, also inside a longer hex run, and a bid (name, amount) of at
    least MIN_CHECKED_BID that the records state as a number (see
    `stated_numbers`). Each record before the cut is walked once for every
    bid, and the lines before it are read once for every escrow (`find_hex`).

    Gaps exist once the stream holds a `Resolved` event: the first `Closed`
    event's `bidder_count`, the `BidderEnvelope` events and the distinct
    escrows of the first `Resolved` event's `bidder_set` must be equal, as
    `bidder_set` cannot vouch for itself; the envelopes' `registration_index`
    values must run 0..n-1 in stream order; and each of `escrows`
    (name -> address) must be in `bidder_set`, compared as bytes.
    """
    before: List[str] = []
    first: Dict[str, dict] = {}
    indices = []

    def records_before_the_cut():
        cut = False
        for line, record in stream:
            event = record.get("event")
            if event == "BidderEnvelope":
                indices.append(record.get("registration_index"))
            elif event in ("Resolved", "Closed"):
                first.setdefault(event, record)
            cut = cut or event in DISCLOSURE_EVENTS
            if not cut:
                before.append(line)
                yield record

    bids = list(bids)
    # `stated_numbers` reads every record it is given, so every record is noted
    stated = stated_numbers(records_before_the_cut(),
                            (amount for _, amount in bids if amount >= MIN_CHECKED_BID))
    found = find_hex(before, HexNeedles(escrow.hex() for escrow in escrows.values()))
    leaks = ["escrow of %s leaked before disclosure" % name
             for name, escrow in escrows.items() if escrow.hex() in found]
    leaks.extend("bid value %d of %s visible pre-resolution" % (amount, name)
                 for name, amount in bids if amount in stated)
    if "Resolved" not in first:
        return leaks, []
    disclosed = {unhx(addr) for addr in first["Resolved"].get("bidder_set", [])}
    counts = (first.get("Closed", {}).get("bidder_count"), len(indices), len(disclosed))
    gaps = []
    if not counts[0] == counts[1] == counts[2]:
        gaps.append("Closed.bidder_count %r, %d BidderEnvelope event(s), "
                    "%d escrow(s) in bidder_set" % counts)
    if indices != list(range(len(indices))):
        gaps.append("registration_index values %r do not run 0..%d"
                    % (indices, len(indices) - 1))
    gaps.extend("escrow of %s missing from disclosure" % name
                for name, escrow in escrows.items() if escrow not in disclosed)
    return leaks, gaps


def _name(record: dict) -> str:
    return "event %-18s seq=%-3s" % (record.get("event"), record.get("seq", -1))


def verify_log(lines: Iterable[str]) -> Tuple[List[str], bool]:
    """The report's lines on a public event stream, and whether it passed.

    Each record's attestation must verify under the `Deployed` event's
    code hash and attestation address, and its attested `seq` must be its
    position among the records, so an event dropped, replayed or moved
    fails; a stream cut after its last event passes, as `seq` cannot tell
    it from one still running. Once the stream holds a `Resolved`
    event, each payload's signer must be an escrow that the stream names,
    and the disclosure rules apply to the escrows of `bidder_set`. A
    malformed line or field ends the report with a FAIL line. Blank lines
    are skipped but keep their numbers. A line that holds a lone
    surrogate, as `errors="surrogateescape"` reads bytes that are not
    UTF-8, fails as a line that is not JSON does.
    """
    numbered = [(number, line.rstrip("\n"))
                for number, line in enumerate(lines, 1) if line.strip()]
    stream = []  # (line, record) pairs: each line is parsed once
    for number, line in numbered:
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            return ["line %d FAIL (not UTF-8)" % number], False
        try:
            record = json.loads(line)
        except ValueError as exc:
            return ["line %d FAIL (not JSON: %s)" % (number, exc)], False
        if not isinstance(record, dict):
            return ["line %d FAIL (not a JSON object)" % number], False
        stream.append((line, record))
    records = [record for _, record in stream]
    if not records:
        return ["verify-log: empty log"], False
    header = records[0]
    if header.get("event") != "Deployed":
        return ["verify-log: log does not start with a Deployed event"], False
    try:
        code_hash = unhx(header["code_hash"])
        attestation_address = unhx(header["attestation_address"])
    except MALFORMED as exc:
        return ["%s FAIL (malformed: %r)" % (_name(header), exc)], False
    report: List[str] = []
    failures = 0

    for position, record in enumerate(records):
        if type(record.get("seq")) is not int or record["seq"] != position:
            report.append("%s FAIL (expected seq %d)" % (_name(record), position))
            failures += 1
        attestation = record.get("attestation")
        if attestation is None:
            report.append("%s FAIL (no attestation)" % _name(record))
            failures += 1
            continue
        stripped = {k: v for k, v in record.items() if k != "attestation"}
        try:
            attested = AttestationReport.from_record(attestation)
            ok = verify_attestation(attested, code_hash,
                                    canonical(stripped).encode(),
                                    attestation_address)
            verdict = "ok" if ok else "FAIL"
        except MALFORMED as exc:
            ok, verdict = False, "FAIL (malformed: %r)" % exc
        report.append("%s %s" % (_name(record), verdict))
        failures += 0 if ok else 1

    resolved = next((r for r in records if r.get("event") == "Resolved"), None)
    if resolved is not None:
        try:
            bidder_set = {addr.lower() for addr in resolved.get("bidder_set", [])}
            known = bidder_set | {r["address"].lower() for r in records
                                  if r.get("event") == "AssetEscrowAddress"}
            escrows = {addr: unhx(addr) for addr in sorted(bidder_set)}
            for addr, escrow in escrows.items():
                if len(escrow) != ADDRESS_LENGTH:
                    raise ValueError("bidder_set entry %s is not a %d-byte address"
                                     % (addr, ADDRESS_LENGTH))
            payloads = [(p.get("role"), p.get("raw"))
                        for p in resolved.get("payloads", [])]
        except MALFORMED as exc:
            report.append("%s FAIL (malformed: %r)" % (_name(resolved), exc))
            return report, False
        for role, raw in payloads:
            try:
                tx = SignedTransaction.from_raw(raw)
                signer = "0x" + recover_signer(tx).hex()
                ok = signer in known
            except (SealedBidError,) + MALFORMED:
                signer, ok = "<unrecoverable>", False
            report.append("payload %-15s signer=%s %s"
                          % (role, signer, "ok" if ok else "FAIL"))
            failures += 0 if ok else 1
        leaks, gaps = stream_problems(stream, escrows)
        problems = (["confidentiality FAIL: %s" % p for p in leaks]
                    + ["completeness FAIL: %s" % p for p in gaps])
        report.extend(problems)
        failures += len(problems)

    report.append("verify-log: %s (%d event(s), %d failure(s))"
                  % ("PASS" if failures == 0 else "FAIL", len(records), failures))
    return report, failures == 0
