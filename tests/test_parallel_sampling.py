"""Parallel RIC sampling engine: determinism, wire format, plumbing.

The engine's contract is exact: for a fixed seed the parallel sampler
must produce the *same sample sequence* as the serial sampler, for every
worker count and batch size, so switching engines can never change a
solver's output.
"""

import pickle

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.framework import solve_imc
from repro.core.ubg import UBG
from repro.errors import SamplingError, SolverError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_pool
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler


#: The keys of every ``RICSampler.last_profile()``, in order.
PROFILE_FIELDS = (
    "mode",
    "samples",
    "elapsed_seconds",
    "samples_per_sec",
    "workers",
    "batches",
    "batch_size",
    "worker_utilization",
    "retries",
    "worker_restarts",
    "failed_batches",
    "attempts",
)


@pytest.fixture(scope="module")
def instance():
    graph, blocks = planted_partition_graph(
        [6] * 5, p_in=0.5, p_out=0.05, directed=True, seed=5
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


# ------------------------------------------------------- wire format


def test_compact_roundtrip(instance):
    # The (node, member-mask) pairs are the wire format: workers pickle
    # the samples as drawn, and the round trip must be exact.
    graph, communities = instance
    for sample in RICSampler(graph, communities, seed=3).sample_many(20):
        assert pickle.loads(pickle.dumps(sample)) == sample


def test_compact_encoding_is_canonical_tuples(instance):
    graph, communities = instance
    sample = RICSampler(graph, communities, seed=3).sample()
    assert isinstance(sample.community_index, int)
    assert isinstance(sample.threshold, int)
    for field in (sample.members, sample.nodes, sample.masks):
        assert isinstance(field, tuple)
        assert all(type(value) is int for value in field)
    assert len(set(sample.nodes)) == len(sample.nodes)
    full = (1 << len(sample.members)) - 1
    assert all(0 < mask <= full for mask in sample.masks)
    by_node = dict(zip(sample.nodes, sample.masks))
    for i, member in enumerate(sample.members):
        assert by_node[member] >> i & 1


# ------------------------------------------------------- determinism


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_parallel_matches_serial_for_all_worker_counts(instance, workers):
    graph, communities = instance
    serial = RICSampler(graph, communities, seed=42).sample_many(48)
    with RICSampler(
        graph, communities, seed=42, workers=workers
    ) as parallel:
        assert parallel.sample_many(48) == serial


@pytest.mark.parametrize("batch_size", [1, 3, 7, 100])
def test_parallel_deterministic_across_batch_sizes(instance, batch_size):
    graph, communities = instance
    serial = RICSampler(graph, communities, seed=9).sample_many(30)
    with RICSampler(
        graph, communities, seed=9, workers=2, batch_size=batch_size
    ) as parallel:
        assert parallel.sample_many(30) == serial


def test_parallel_pools_byte_identical(instance):
    """Acceptance check: pools built by either engine are identical in
    samples AND in every inverted index."""
    graph, communities = instance
    serial_pool = RICSamplePool(RICSampler(graph, communities, seed=7))
    serial_pool.grow(40)
    with RICSampler(graph, communities, seed=7, workers=3) as sampler:
        parallel_pool = RICSamplePool(sampler)
        parallel_pool.grow(40)
    assert parallel_pool.samples == serial_pool.samples
    assert parallel_pool.mask_index == serial_pool.mask_index
    for node, masks in serial_pool.mask_index.items():
        # Same entries in the same (ascending sample) order per node.
        assert list(parallel_pool.mask_index[node].items()) == list(
            masks.items()
        )
    assert parallel_pool.community_counts() == serial_pool.community_counts()


def test_interleaved_sample_and_sample_many_match_serial(instance):
    graph, communities = instance
    serial = RICSampler(graph, communities, seed=13)
    expected = [serial.sample() for _ in range(40)]
    with RICSampler(graph, communities, seed=13, workers=2) as par:
        got = [par.sample(), par.sample()]
        got.extend(par.sample_many(30))
        got.extend(par.sample() for _ in range(8))
    assert got == expected


def test_parallel_lt_model_matches_serial(instance):
    graph, communities = instance
    serial = RICSampler(graph, communities, seed=21, model="lt").sample_many(24)
    with RICSampler(
        graph, communities, seed=21, model="lt", workers=2
    ) as parallel:
        assert parallel.sample_many(24) == serial


# ------------------------------------------------------- profile & lifecycle


def test_profile_reports_parallel_run(instance):
    graph, communities = instance
    with RICSampler(graph, communities, seed=1, workers=2) as sampler:
        assert sampler.last_profile() is None
        sampler.sample_many(32)
        profile = sampler.last_profile()
    assert profile["mode"] == "parallel"
    assert profile["samples"] == 32
    assert profile["workers"] == 2
    assert profile["samples_per_sec"] > 0
    assert profile["batches"] >= 2
    assert 0.0 <= profile["worker_utilization"] <= 1.0


def test_profile_reports_inline_run_below_dispatch_floor(instance):
    graph, communities = instance
    with RICSampler(graph, communities, seed=1, workers=2) as sampler:
        sampler.sample_many(4)
        profile = sampler.last_profile()
    assert profile["mode"] == "serial"
    assert profile["workers"] == 2
    assert profile["worker_utilization"] is None


def test_serial_and_parallel_profiles_share_key_set(instance):
    """Consumers must never branch on the mode: an in-process and a
    parallel run report the same keys, in the same order."""
    graph, communities = instance
    serial = RICSampler(graph, communities, seed=1)
    serial.sample_many(16)
    serial_profile = serial.last_profile()
    with RICSampler(graph, communities, seed=1, workers=2) as sampler:
        sampler.sample_many(32)
        parallel_profile = sampler.last_profile()
    assert tuple(serial_profile) == PROFILE_FIELDS
    assert tuple(parallel_profile) == PROFILE_FIELDS
    assert serial_profile["mode"] == "serial"
    assert serial_profile["workers"] == 1
    assert parallel_profile["mode"] == "parallel"


def test_close_is_idempotent_and_allows_resampling(instance):
    graph, communities = instance
    sampler = RICSampler(graph, communities, seed=2, workers=2)
    sampler.sample_many(20)
    sampler.close()
    sampler.close()
    # A closed sampler lazily rebuilds its worker pool.
    assert len(sampler.sample_many(20)) == 20
    sampler.close()


def test_validation_errors(instance):
    graph, communities = instance
    with pytest.raises(SamplingError):
        RICSampler(graph, communities, workers=0)
    with pytest.raises(SamplingError):
        RICSampler(graph, communities, batch_size=0)
    with RICSampler(graph, communities, seed=1, workers=1) as sampler:
        with pytest.raises(SamplingError):
            sampler.sample_many(-1)
        assert sampler.sample_many(0) == []


# ------------------------------------------------------- solver plumbing


def test_solve_imc_engine_parallel_matches_serial(instance):
    graph, communities = instance
    kwargs = dict(k=3, solver=UBG(), seed=33, max_samples=600)
    serial = solve_imc(graph, communities, **kwargs)
    parallel = solve_imc(graph, communities, workers=2, **kwargs)
    assert parallel.selection.seeds == serial.selection.seeds
    assert parallel.num_samples == serial.num_samples
    assert parallel.selection.objective == serial.selection.objective


def test_library_defaults_sample_in_process(instance):
    # solve_imc and ExperimentConfig resolve workers=None to one
    # process; only the serving shards default to every core.
    graph, communities = instance
    events = []
    solve_imc(
        graph, communities, k=2, solver=UBG(), seed=3, max_samples=400,
        workers=None, progress=events.append,
    )
    pool = make_pool(
        graph, communities, ExperimentConfig(workers=None, pool_size=64)
    )
    profiles = (events[-1]["sampling_profile"], pool.sampler.last_profile())
    for profile in profiles:
        assert profile["mode"] == "serial"
        assert profile["workers"] == 1


def test_solve_imc_rejects_a_negative_sample_cap(instance):
    graph, communities = instance
    with pytest.raises(SolverError, match="max_samples must be >= 0"):
        solve_imc(
            graph, communities, k=2, solver=UBG(), seed=1, max_samples=-5
        )
    # A cap of 0 still runs the first stop stage.
    result = solve_imc(
        graph, communities, k=2, solver=UBG(), seed=1, max_samples=0
    )
    assert result.num_samples >= result.lambda_threshold


def test_solve_imc_rejects_zero_workers(instance):
    graph, communities = instance
    with pytest.raises(SamplingError):
        solve_imc(graph, communities, k=2, solver=UBG(), seed=1, workers=0)


def test_solve_imc_progress_carries_sampling_profile(instance):
    graph, communities = instance
    events = []
    solve_imc(
        graph,
        communities,
        k=2,
        solver=UBG(),
        seed=3,
        max_samples=400,
        workers=2,
        progress=events.append,
    )
    assert events
    profiles = [e["sampling_profile"] for e in events if e["sampling_profile"]]
    assert profiles, "parallel engine never reported a sampling profile"
    assert all("samples_per_sec" in p for p in profiles)
    # workers= alone selects the parallel engine.
    assert profiles[0]["mode"] == "parallel"
