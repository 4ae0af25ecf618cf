"""Crash-safe checkpointing for long experiment campaigns.

A :class:`CheckpointStore` is a JSONL file of ``{"key", "payload"}``
records, one per completed unit of work (a campaign grid cell, or one
algorithm × k run of a suite). Every :meth:`CheckpointStore.record`
rewrites the file via a sibling temporary file, ``fsync`` and
``os.replace``, so the checkpoint on disk is always a complete,
parseable prefix of the work done — a crash (power loss, OOM kill,
Ctrl-C) can lose at most the record being written, never corrupt the
earlier ones.

On restart, pass the same path with ``resume=True`` (the default): the
store loads the completed keys and the drivers
(:func:`~repro.experiments.campaign.run_campaign`,
:func:`~repro.experiments.runner.run_suite`) skip them, recomputing
nothing that already finished. A :class:`ResumeReport` summarises what
was skipped versus recomputed.

A malformed *final* line is tolerated (it is the signature of a crash
mid-write under filesystems without atomic replace; the record is
dropped and recomputed); malformed *earlier* lines mean real corruption
and raise :class:`~repro.errors.ExperimentError` naming the file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ExperimentError
from repro.obs import trace

PathLike = Union[str, "os.PathLike[str]"]

_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ResumeReport:
    """What a checkpointed driver skipped versus recomputed.

    ``skipped`` holds the keys restored from the checkpoint without
    recomputation; ``computed`` the keys executed (and recorded) this
    session, in completion order.
    """

    path: str
    skipped: Tuple[str, ...]
    computed: Tuple[str, ...]

    @property
    def num_skipped(self) -> int:
        """Number of work units restored from the checkpoint."""
        return len(self.skipped)

    @property
    def num_computed(self) -> int:
        """Number of work units executed this session."""
        return len(self.computed)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"checkpoint {self.path}: {self.num_skipped} skipped, "
            f"{self.num_computed} computed"
        )


class CheckpointStore:
    """Atomic JSONL store of completed work units keyed by string.

    ``resume=True`` (default) loads any existing checkpoint at ``path``
    so previously completed keys are served from disk; ``resume=False``
    discards an existing file and starts fresh.
    """

    def __init__(self, path: PathLike, resume: bool = True) -> None:
        self.path = os.fspath(path)
        self._payloads: Dict[str, Any] = {}
        self._restored: List[str] = []
        self._computed: List[str] = []
        if resume and os.path.exists(self.path):
            self._load()
        elif os.path.exists(self.path):
            os.remove(self.path)

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        if lines and not text.endswith("\n"):
            # Unterminated tail: either a crash mid-write or a live
            # writer's partial flush racing this read. Skip it without
            # parsing — a partial line must never be promoted to a
            # record just because its prefix happens to parse.
            lines.pop()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = record["key"]
                payload = record["payload"]
            except (json.JSONDecodeError, TypeError, KeyError) as exc:
                if lineno == len(lines):
                    # Torn final line: the crash happened mid-write.
                    # Drop it — that unit simply gets recomputed.
                    break
                raise ExperimentError(
                    f"corrupt checkpoint {self.path!r} at line {lineno}: "
                    f"{exc}"
                ) from exc
            self._payloads[key] = payload

    def __contains__(self, key: str) -> bool:
        return key in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)

    def keys(self) -> List[str]:
        """All completed keys currently in the store."""
        return list(self._payloads)

    def get(self, key: str) -> Any:
        """Payload recorded for ``key``; marks it as restored-on-resume.

        Raises :class:`~repro.errors.ExperimentError` for unknown keys.
        """
        if key not in self._payloads:
            raise ExperimentError(
                f"checkpoint {self.path!r} has no record for key {key!r}"
            )
        if key not in self._restored:
            self._restored.append(key)
        return self._payloads[key]

    def record(self, key: str, payload: Any) -> None:
        """Record ``key`` as completed with ``payload``, atomically.

        The whole store is rewritten to ``<path>.tmp`` on the same
        filesystem, fsync'd, then ``os.replace``d over ``path`` — so
        readers (and a post-crash resume) never observe a partial file.
        """
        self._payloads[key] = payload
        if key not in self._computed:
            self._computed.append(key)
        with trace.span("checkpoint/record", key=key):
            tmp_path = f"{self.path}.tmp"
            with open(tmp_path, "w", encoding="utf-8") as fh:
                for existing_key, existing_payload in self._payloads.items():
                    fh.write(
                        json.dumps(
                            {
                                "version": _SCHEMA_VERSION,
                                "key": existing_key,
                                "payload": existing_payload,
                            },
                            sort_keys=True,
                        )
                    )
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.path)

    def report(self) -> ResumeReport:
        """Skipped/computed summary of this store's session."""
        return ResumeReport(
            path=self.path,
            skipped=tuple(self._restored),
            computed=tuple(self._computed),
        )


def as_checkpoint(
    value: Union[None, PathLike, CheckpointStore],
    resume: bool = True,
) -> Optional[CheckpointStore]:
    """Coerce ``None``, a path, or a store into an optional store.

    Drivers accept any of the three so casual callers can pass a bare
    path while tests/orchestrators share one :class:`CheckpointStore`.
    """
    if value is None:
        return None
    if isinstance(value, CheckpointStore):
        return value
    return CheckpointStore(value, resume=resume)
