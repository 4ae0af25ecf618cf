"""Ablation — coverage-engine choice (flat mask engine vs reference sets).

The flat engine reads the pool's per-node member masks and keeps the
covered members of each sample as an integer bitset; marginal
evaluation becomes a few ANDs and popcounts over entries that can still
contribute. Identical results by construction (property-tested); this
ablation measures the speedup on a realistic pool.
"""

from conftest import emit

from repro.core.greedy import greedy_maxr
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_instance, make_pool
from repro.utils.timing import Stopwatch

K = 15


def test_ablation_engine_choice(benchmark):
    config = ExperimentConfig(
        dataset="facebook", scale=0.2, pool_size=1200, seed=7
    )
    graph, communities = build_instance(config)
    pool = make_pool(graph, communities, config)

    reference_timer = Stopwatch()
    with reference_timer:
        reference_seeds = greedy_maxr(pool, K, engine="reference")

    flat_timer = Stopwatch()
    flat_seeds = benchmark.pedantic(
        greedy_maxr, args=(pool, K), kwargs={"engine": "flat"}, rounds=1
    )
    with flat_timer:
        greedy_maxr(pool, K, engine="flat")

    emit(
        "Ablation: coverage engine (greedy on c_R, k=15, |R|=1200)",
        f"seeds identical: {reference_seeds == flat_seeds}\n"
        f"runtime(s) reference={reference_timer.elapsed:.3f} "
        f"flat={flat_timer.elapsed:.3f} "
        f"speedup={reference_timer.elapsed / max(flat_timer.elapsed, 1e-9):.1f}x",
    )
    # Same algorithm, same tie-breaking: identical seed sequences.
    assert reference_seeds == flat_seeds
    # Flat should never be dramatically slower.
    assert flat_timer.elapsed <= reference_timer.elapsed * 3.0 + 0.1
