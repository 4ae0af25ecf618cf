"""Flat-array coverage engine.

The third and fastest member of the coverage-engine family:

- ``CoverageState`` (reference) keeps per-sample member sets as Python
  ``set`` objects;
- ``BitsetCoverage`` packs each sample's covered members into an int
  bitset but still walks ``node -> {sample_idx: mask}`` nested dicts;
- ``FlatCoverage`` (this module) reads the pool's inverted index
  compiled into parallel contiguous sequences
  (:class:`~repro.sampling.pool.FlatIndex`), so a marginal evaluation
  is a zip over flat storage with zero dict lookups in the loop.

The compiled index is built at most once per pool size and shared
read-only by every engine on the pool
(:meth:`RICSamplePool.flat_index`). Each engine keeps only its own
state: per sample, the member bits still uncovered and the members
still needed to reach the threshold; per slot, the entries that can
still contribute. A marginal call drops an entry for good once its
sample has reached its threshold (the sample's uncovered bits are
then cleared) or once all of the node's member bits in it are covered;
either way ``mask & uncovered`` is zero. Both conditions are monotone
while seeds are only added, a dropped entry adds nothing to either
gain, and the surviving terms are summed in the original order, so the
``(ĉ, ν)`` pairs are bit-identical to an unpruned scan.

Behaviour is identical to the other engines (the hypothesis suite
cross-checks all three on random pools); selection is uniform via
``engine="flat"`` on the solvers, :func:`repro.core.framework.solve_imc`,
and the CLI.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SolverError
from repro.obs import metrics
from repro.sampling.pool import RICSamplePool

# int.bit_count() exists from Python 3.10; fall back for 3.9.
if hasattr(int, "bit_count"):
    _popcount = int.bit_count
else:  # pragma: no cover - exercised only on Python 3.9

    def _popcount(x: int) -> int:
        return bin(x).count("1")


class FlatCoverage:
    """Incremental ĉ/ν coverage over a pool's compiled flat index.

    The public surface mirrors :class:`~repro.core.objective.CoverageState`
    and :class:`~repro.core.bitset_engine.BitsetCoverage`: ``add_seed``,
    ``gain_influenced``, ``gain_fractional``, ``gain_pair``, ``resync``
    and the two estimate accessors. Like its siblings, it snapshots the
    pool's sample count at construction and fails fast (``SolverError``)
    when the pool has grown, until :meth:`resync` reloads the index.
    """

    def __init__(self, pool: RICSamplePool) -> None:
        self.pool = pool
        self.seeds: List[int] = []
        self._seed_set = set()
        self._resyncing = False
        self._load()

    def _load(self) -> None:
        """Bind the pool's flat index and reset this engine's state.

        Replays the current seed set, so it doubles as the
        :meth:`resync` body.
        """
        index = self.pool.flat_index()
        self._thresholds = index.thresholds
        self._slot_of = index.slot_of
        self._entry_off = index.entry_off
        self._entry_sample = index.entry_sample
        self._entry_mask = index.entry_mask
        num_samples = len(index.thresholds)
        # Per slot: the (sample, mask) entries that survived the last
        # marginal call, or None until the slot is first evaluated.
        self._live: List[Optional[List[Tuple[int, int]]]] = [None] * (
            len(index.entry_off) - 1
        )
        # Per sample: member bits not yet covered (-1 sets every bit;
        # 0 once the sample reached its threshold, since no further
        # bit counts) and the members still needed to reach it.
        self._uncovered: List[int] = [-1] * num_samples
        self._need: List[int] = list(index.thresholds)
        self._influenced = 0
        self._fractional = 0.0
        self._synced_samples = num_samples
        for node in self.seeds:
            self._apply_seed(node)

    def _check_sync(self) -> None:
        """Fail fast when the pool grew since this engine last synced."""
        if self._resyncing:
            raise SolverError(
                "flat engine is mid-resync() (another thread is "
                "reloading it); concurrent marginal/accessor calls "
                "would read half-built arrays — serialize engine access "
                "(see the locking contract in docs/serving.md)"
            )
        if len(self.pool.samples) != self._synced_samples:
            raise SolverError(
                f"pool grew from {self._synced_samples} to "
                f"{len(self.pool.samples)} samples since this flat "
                "engine was loaded; call resync() or rebuild the engine"
            )

    def resync(self) -> None:
        """Incorporate samples added to the pool since the last sync.

        Loads the grown pool's flat index (compiling it if no engine
        has yet), resets the pruned entry lists and replays the current
        seed set. The compile is O(total coverage), the same order as
        building the engine fresh — IMCAF doubles the pool per stage,
        so the recompile cost is within a constant factor of the
        incremental path and keeps the layout contiguous.

        Not thread-safe: a concurrent :meth:`resync` (or any marginal /
        accessor call while one is in progress) raises ``SolverError``
        instead of returning answers from half-compiled arrays —
        callers must serialize engine access (see docs/serving.md).
        """
        if self._resyncing:
            raise SolverError(
                "FlatCoverage.resync() re-entered while another "
                "resync() is in progress; serialize engine access "
                "(see the locking contract in docs/serving.md)"
            )
        if len(self.pool.samples) == self._synced_samples:
            return
        metrics.inc("coverage.resyncs")
        self._resyncing = True
        try:
            self._load()
        finally:
            self._resyncing = False

    # -- accessors ------------------------------------------------------

    @property
    def influenced_count(self) -> int:
        """``Σ_g X_g(S)`` for the current seed set."""
        return self._influenced

    @property
    def fractional_count(self) -> float:
        """``Σ_g min(|I_g(S)|/h_g, 1)`` for the current seed set."""
        return self._fractional

    def estimate_benefit(self) -> float:
        """``ĉ_R(S)`` for the current seed set."""
        self._check_sync()
        if not self.pool.samples:
            return 0.0
        return self.pool.total_benefit * self._influenced / len(self.pool.samples)

    def estimate_upper_bound(self) -> float:
        """``ν_R(S)`` for the current seed set."""
        self._check_sync()
        if not self.pool.samples:
            return 0.0
        return self.pool.total_benefit * self._fractional / len(self.pool.samples)

    # -- mutation -------------------------------------------------------

    def _apply_seed(self, node: int) -> None:
        """Merge ``node``'s member masks into the covered state."""
        slot = self._slot_of.get(node)
        if slot is None:
            return
        lo = self._entry_off[slot]
        hi = self._entry_off[slot + 1]
        uncovered = self._uncovered
        needs = self._need
        thresholds = self._thresholds
        for sample_idx, mask in zip(
            self._entry_sample[lo:hi], self._entry_mask[lo:hi]
        ):
            new_bits = mask & uncovered[sample_idx]
            if not new_bits:
                continue
            added = _popcount(new_bits)
            need = needs[sample_idx]
            if added >= need:
                self._fractional += need / thresholds[sample_idx]
                self._influenced += 1
                uncovered[sample_idx] = 0
            else:
                self._fractional += added / thresholds[sample_idx]
                uncovered[sample_idx] ^= new_bits
                needs[sample_idx] = need - added

    def add_seed(self, node: int) -> None:
        """Add ``node`` and update the flat covered state."""
        self._check_sync()
        if node in self._seed_set:
            raise SolverError(f"node {node} is already a seed")
        self.seeds.append(node)
        self._seed_set.add(node)
        self._apply_seed(node)

    # -- marginals ------------------------------------------------------

    def gain_pair(self, node: int) -> Tuple[int, float]:
        """Marginal (ĉ, ν) gains of adding ``node``.

        Prunes the node's dead entries (sample saturated, or every
        member bit already covered) as a side effect; see the module
        docstring for why that leaves every answer unchanged.
        """
        self._check_sync()
        if node in self._seed_set:
            return 0, 0.0
        slot = self._slot_of.get(node)
        if slot is None:
            return 0, 0.0
        entries = self._live[slot]
        if entries is None:
            lo = self._entry_off[slot]
            hi = self._entry_off[slot + 1]
            entries = zip(self._entry_sample[lo:hi], self._entry_mask[lo:hi])
        kept: List[Tuple[int, int]] = []
        keep = kept.append
        gain_c = 0
        gain_nu = 0.0
        uncovered = self._uncovered
        needs = self._need
        thresholds = self._thresholds
        for entry in entries:
            sample_idx, mask = entry
            new_bits = mask & uncovered[sample_idx]
            if not new_bits:
                continue
            keep(entry)
            added = _popcount(new_bits)
            need = needs[sample_idx]
            if added >= need:
                gain_nu += need / thresholds[sample_idx]
                gain_c += 1
            else:
                gain_nu += added / thresholds[sample_idx]
        self._live[slot] = kept
        return gain_c, gain_nu

    def gain_influenced(self, node: int) -> int:
        """Marginal ĉ gain of ``node``."""
        return self.gain_pair(node)[0]

    def gain_fractional(self, node: int) -> float:
        """Marginal ν gain of ``node``."""
        return self.gain_pair(node)[1]
