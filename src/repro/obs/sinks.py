"""JSONL sinks for traces and metrics.

Two write disciplines, matched to the artifact:

- :class:`JsonlSink` *streams*: one line per record, flushed as
  written, so a crashed run leaves a readable prefix (the same
  torn-tail-tolerant JSONL convention the checkpoint store uses).
- :func:`write_jsonl` writes a whole record list *atomically* through
  :func:`write_atomic` (sibling temp file, ``fsync``, ``os.replace``;
  manifests, archived results, checkpoints and the kernel-bench
  trajectory use it too) — used for end-of-run artifacts like the
  metrics dump, where a half-written file is worse than none.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Optional

from repro.errors import ObservabilityError


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


def write_atomic(path: str, text: str) -> str:
    """Replace ``path`` with ``text`` so that a crash cannot tear it.

    ``text`` goes to a sibling ``<path>.tmp`` first, is flushed and
    ``fsync``-ed, then ``os.replace``-d over ``path``: a reader, or a
    resume after a crash, sees the old file or the new one, never a
    prefix. Returns ``path``.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def write_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> str:
    """Write ``records`` to ``path`` as JSONL, atomically
    (:func:`write_atomic`). Returns ``path``."""
    return write_atomic(
        path,
        "".join(
            json.dumps(record, sort_keys=True, default=str) + "\n"
            for record in records
        ),
    )


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
    malformed earlier lines raise ``json.JSONDecodeError``. A line that
    parses to anything but an object (``5``, ``[1, 2]``) is no torn
    write: it raises :class:`~repro.errors.ObservabilityError` naming
    the file.
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
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break
            raise
        if not isinstance(record, dict):
            raise ObservabilityError(
                f"{path!r} line {lineno} holds no JSON object"
            )
        records.append(record)
    return records
