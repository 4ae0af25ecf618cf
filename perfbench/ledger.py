"""Derivations the benchmark reports: percentiles, self times, memory.

Everything here is a pure function over numbers, span records or
``/proc`` text, so ``perfbench/test_derivations.py`` can check each rule
on synthetic inputs:

- :func:`tail_percentile` — the highest percentile of a fixed ladder
  that still has at least :data:`MIN_BEYOND` samples above it;
- :func:`parse_server_timing` — the ``Server-Timing`` header the serving
  stack attaches to every ``/solve`` answer;
- :func:`self_times` — per-node self time (duration minus the durations
  of its children) over a span tree, and :func:`layer_ledger`, which
  folds node self times into the per-layer ledger;
- :func:`parse_vmhwm_kb` / :func:`sum_vmhwm_mb` — peak resident memory;
- :func:`leaked_processes` — what a stopped run left running.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it, so a single slow sample cannot set it.
MIN_BEYOND = 10

#: Percentiles the tail may be reported at, highest first. A fixed
#: ladder keeps the reported percentile the same from run to run while
#: the sample count moves a little around its usual value.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` values.

    The same definition as :func:`repro.serving.loadgen.percentile`.
    """
    return max(1, min(n, round(q / 100.0 * n)))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n - nearest_rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond.

    ``None`` when even the lowest rung (above the median) has fewer.
    """
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def parse_server_timing(header: Optional[str]) -> Dict[str, float]:
    """``"parse;dur=0.005, total;dur=0.13"`` -> ``{"parse": 0.005, ...}``.

    Durations stay in the header's unit (milliseconds). Entries without
    a ``dur`` parameter are skipped; a repeated name keeps its last
    value, as the serving stack never repeats one.
    """
    timings: Dict[str, float] = {}
    if not header:
        return timings
    for entry in header.split(","):
        parts = [part.strip() for part in entry.split(";")]
        name = parts[0]
        if not name:
            continue
        for param in parts[1:]:
            key, _, value = param.partition("=")
            if key.strip() == "dur":
                timings[name] = float(value.strip().strip('"'))
    return timings


#: One node of a span tree: ``(node_id, parent_id, name, duration)``.
Node = Tuple[str, Optional[str], str, float]


def self_times(nodes: Iterable[Node]) -> Dict[str, float]:
    """Self time of every node: its duration minus its children's.

    A node whose parent is not among ``nodes`` is a root. Summed over a
    tree, self times telescope to the roots' durations exactly, which
    is what lets the ledger add up to the end-to-end time. A child that
    ran longer than its parent (clock skew across processes) leaves the
    parent a negative self time rather than being clipped, so the sum
    still holds.
    """
    nodes = list(nodes)
    own = {node_id: duration for node_id, _, _, duration in nodes}
    for _, parent, _, duration in nodes:
        if parent is not None and parent in own:
            own[parent] -= duration
    return own


def layer_ledger(
    nodes: Iterable[Node],
    layer_of: Callable[[str], str],
) -> Dict[str, float]:
    """Sum node self times per layer; ``layer_of`` maps a span name."""
    nodes = list(nodes)
    own = self_times(nodes)
    ledger: Dict[str, float] = {}
    for node_id, _, name, _ in nodes:
        layer = layer_of(name)
        ledger[layer] = ledger.get(layer, 0.0) + own[node_id]
    return ledger


def parse_vmhwm_kb(status_text: str) -> int:
    """The ``VmHWM`` (peak resident set, kB) of ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line in process status")


def _read_status(pid: int) -> str:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        return handle.read()


def sum_vmhwm_mb(
    pids: Iterable[int],
    reader: Callable[[int], str] = _read_status,
) -> float:
    """Summed peak resident memory of ``pids`` in MiB.

    Each pid counts once. A process that is gone cannot be read, which
    is an error: callers read before stopping anything.
    """
    total_kb = sum(parse_vmhwm_kb(reader(pid)) for pid in sorted(set(pids)))
    return total_kb / 1024.0


def process_table(proc: str = "/proc") -> List[Dict[str, object]]:
    """Every visible process as ``{pid, state, ppid, pgid}``."""
    table = []
    for entry in os.listdir(proc):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join(proc, entry, "stat"), encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            continue  # exited between listdir and open
        # The command name sits in parentheses and may itself contain
        # spaces or parentheses; the fixed fields follow the last ')'.
        fields = text[text.rfind(")") + 2:].split()
        table.append({
            "pid": int(entry),
            "state": fields[0],
            "ppid": int(fields[1]),
            "pgid": int(fields[2]),
        })
    return table


def leaked_processes(
    table: Sequence[Mapping[str, object]],
    owner: int,
    groups: Iterable[int],
    allowed: Iterable[int] = (),
) -> List[int]:
    """Live processes a stopped run left behind.

    A process counts when it is a child of ``owner`` (the benchmark) or
    a member of one of ``groups`` (each replica leads its own process
    group, so its sampler workers carry the replica's pid as group id).
    Zombies have already exited and ``allowed`` pids are expected
    helpers, so neither counts.
    """
    groups = set(groups)
    allowed = set(allowed) | {owner}
    return sorted(
        int(row["pid"])
        for row in table
        if row["state"] != "Z"
        and int(row["pid"]) not in allowed
        and (row["ppid"] == owner or row["pgid"] in groups)
    )
