"""JSONL sinks for traces and metrics.

Two write disciplines, matched to the artifact:

- :class:`JsonlSink` *streams*: one line per record, flushed as
  written, so a crashed run leaves a readable prefix (the same
  torn-tail-tolerant JSONL convention the checkpoint store uses).
- :func:`write_jsonl` writes a whole record list *atomically* (sibling
  temp file, ``fsync``, ``os.replace``) — used for end-of-run artifacts
  like the metrics dump, where a half-written file is worse than none.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Optional


class JsonlSink:
    """Append-as-you-go JSONL writer (one JSON object per line).

    Opens ``path`` for writing immediately; each :meth:`write` emits one
    line and flushes, so the file is always a valid JSONL prefix of the
    records emitted so far. Usable as a context manager.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._handle: Optional[Any] = open(  # noqa: SIM115 - long-lived
            self.path, "w", encoding="utf-8"
        )

    def write(self, record: Dict[str, Any]) -> None:
        """Serialise ``record`` as one JSONL line and flush."""
        if self._handle is None:
            raise ValueError(f"sink {self.path!r} is closed")
        self._handle.write(json.dumps(record, sort_keys=True, default=str))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def write_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> str:
    """Write ``records`` to ``path`` as JSONL, atomically.

    The records go to a sibling ``<path>.tmp`` first, are ``fsync``-ed,
    then ``os.replace``-d over ``path`` — a crash cannot leave a torn
    file. Returns ``path``.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_jsonl(path: str) -> list:
    """Read a JSONL file back into a list of records.

    Safe against a *live* :class:`JsonlSink` writer appending to the
    same file (a server reading its own sinks for ``/status``): a final
    line with no terminating newline is an in-flight partial flush and
    is skipped **without being parsed** — a flush boundary can land
    anywhere inside a record, and a partial line must never be promoted
    to a record just because its prefix happens to parse. A terminated
    but malformed final line is also tolerated (crash-mid-write
    signature, same convention as the checkpoint store) and dropped;
    malformed earlier lines raise ``json.JSONDecodeError``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()
    if lines and not text.endswith("\n"):
        # In-flight tail: the writer has not finished this line. Do not
        # attempt to parse it — skip it; a later read sees it complete.
        lines.pop()
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines):
                break
            raise
    return records
