"""Microbenchmark — RIC sample generation throughput.

Algorithm 1's cost is proportional to the explored (reverse-reachable)
neighbourhood. This bench measures samples/second per dataset stand-in
and per threshold policy — the number that dominates every solver's
wall-clock.
"""

import os
import time

from conftest import SCALE, emit

from repro.communities.louvain import louvain_communities
from repro.communities.structure import Community, CommunityStructure
from repro.communities.thresholds import build_structure, constant_thresholds
from repro.datasets.registry import load_dataset
from repro.experiments.reporting import ascii_table
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

DATASETS = ("facebook", "wikivote", "epinions")
SAMPLES = max(300, int(500 * SCALE))
PARALLEL_SAMPLES = max(600, int(1500 * SCALE))
WORKER_COUNTS = (1, 2, 4)


def test_ric_throughput(benchmark):
    instances = []
    for name in DATASETS:
        dataset = load_dataset(name, scale=0.15 * SCALE, seed=7)
        blocks = louvain_communities(dataset.graph, seed=7)
        communities = build_structure(
            blocks, size_cap=8, threshold_policy=constant_thresholds(2)
        )
        instances.append((name, dataset.graph, communities))

    def run():
        rows = []
        for name, graph, communities in instances:
            sampler = RICSampler(graph, communities, seed=11)
            pool = RICSamplePool(sampler)
            start = time.perf_counter()
            pool.grow(SAMPLES)
            elapsed = time.perf_counter() - start
            total_reach = sum(
                sum(sample.reach_sizes()) for sample in pool.samples
            )
            rows.append(
                (
                    name,
                    graph.num_nodes,
                    graph.num_edges,
                    SAMPLES / elapsed,
                    total_reach / SAMPLES,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    emit(
        f"RIC sampling throughput ({SAMPLES} samples per dataset)",
        ascii_table(
            ["dataset", "nodes", "edges", "samples/s", "avg reach size"],
            rows,
        ),
    )
    for _, _, _, throughput, _ in rows:
        assert throughput > 50  # laptop-scale sanity floor


def test_serial_vs_parallel_throughput(benchmark):
    """Serial vs. process-pool RIC sampling on a planted-partition graph.

    The parallel engine must produce the identical sample sequence, so
    the only question is wall-clock: this bench reports samples/s and
    speedup per worker count. The >=2x speedup assertion only runs on
    hosts with at least 4 cores — on smaller machines the numbers are
    still emitted for inspection, but dispatch overhead with nothing to
    run on makes a speedup target meaningless.
    """
    graph, blocks = planted_partition_graph(
        [30] * 20, p_in=0.25, p_out=0.005, directed=True, seed=17
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )

    def run():
        rows = []
        sampler = RICSampler(graph, communities, seed=11)
        start = time.perf_counter()
        expected = sampler.sample_many(PARALLEL_SAMPLES)
        serial_elapsed = time.perf_counter() - start
        serial_rate = PARALLEL_SAMPLES / serial_elapsed
        rows.append(("serial", 1, serial_rate, 1.0))
        for workers in WORKER_COUNTS:
            with RICSampler(
                graph, communities, seed=11, workers=workers
            ) as parallel:
                parallel.sample_many(32)  # warm the worker pool
                start = time.perf_counter()
                got = parallel.sample_many(PARALLEL_SAMPLES)
                elapsed = time.perf_counter() - start
            assert got[: len(expected) - 32] == expected[32:]
            rows.append(
                (
                    "parallel",
                    workers,
                    PARALLEL_SAMPLES / elapsed,
                    serial_elapsed / elapsed,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    emit(
        f"serial vs parallel RIC throughput "
        f"({PARALLEL_SAMPLES} samples, planted partition 600 nodes)",
        ascii_table(
            ["engine", "workers", "samples/s", "speedup vs serial"],
            [(e, w, f"{r:.1f}", f"{s:.2f}x") for e, w, r, s in rows],
        ),
    )
    if (os.cpu_count() or 1) >= 4:
        best = max(s for _, _, _, s in rows[1:])
        assert best >= 2.0, f"expected >=2x speedup at 4 workers, got {best:.2f}x"
