"""Line-delimited JSON logs: the public event stream and the query audit trail.

Records are canonicalized (sorted keys, no whitespace) so that runs with
the same seed produce byte-identical logs.
"""

import json
from typing import List


def hx(data: bytes) -> str:
    return "0x" + bytes(data).hex()


def unhx(text: str) -> bytes:
    return bytes.fromhex(text[2:] if text.startswith("0x") else text)


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class JsonlLog:
    def __init__(self):
        self.records: List[dict] = []

    def append(self, record: dict) -> dict:
        record = dict(record)
        record["seq"] = len(self.records)
        self.records.append(record)
        return record

    def lines(self) -> List[str]:
        return [canonical(r) for r in self.records]

    def text(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.records else "")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())

    def __len__(self) -> int:
        return len(self.records)


class EventLog(JsonlLog):
    """Public event stream emitted by the execution environment."""


class AuditLog(JsonlLog):
    """One record per settlement-layer query, including failed ones."""
