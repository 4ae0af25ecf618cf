"""Property-based fuzzing of ``/solve`` payloads at the shard boundary.

Every body a client can send must end in a 200 or a typed error: a
:class:`~repro.errors.ReproError` subclass, which the HTTP handler maps
to a 4xx. Anything else would surface as a 500. The payloads go through
:meth:`ShardApp.handle_solve` on a tiny in-memory instance, mixing
well-formed fields with bad budgets (0, negative, above ``n``,
booleans), bad ``ci_width`` values (NaN, ±Infinity, ``true``, extreme
magnitudes), non-string scenario and solver names, unknown solvers and
non-object bodies. No input may grow the warm pool past its cap.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.errors import ReproError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.serving import ScenarioSpec, ShardApp, ShardStore
from repro.serving.shards import MAX_POOL_FACTOR, SOLVERS

pytestmark = pytest.mark.serve

NODES = 12
POOL_SIZE = 40

#: Values of any JSON type, for fields that expect another one.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
json_values = st.one_of(
    json_scalars,
    st.lists(json_scalars, max_size=2),
    st.dictionaries(st.text(max_size=3), json_scalars, max_size=2),
)

scenarios = st.one_of(st.just("nope"), json_values)
budgets = st.one_of(
    st.integers(min_value=-2, max_value=NODES + 2),
    st.sampled_from([10**9, 10**400, True, False]),
    json_values,
)
solvers = st.one_of(st.just("NoSuchSolver"), json_values)
ci_widths = st.one_of(
    st.sampled_from([0, -0.5, 1e-300, 0.25, 1e300, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    json_values,
)
VALID = {
    "scenario": st.just("tiny"),
    "budget": st.integers(min_value=1, max_value=NODES),
    "solver": st.sampled_from(SOLVERS),
}


def _one_field(name, values):
    """A valid payload with field ``name`` drawn from ``values``."""
    return st.fixed_dictionaries({**VALID, name: values})


payloads = st.one_of(
    st.fixed_dictionaries(
        VALID,
        optional={"ci_width": st.floats(min_value=1e-300, max_value=1e300)},
    ),
    _one_field("scenario", scenarios),
    _one_field("budget", budgets),
    _one_field("solver", solvers),
    _one_field("ci_width", ci_widths),
    st.fixed_dictionaries(
        {},
        optional={
            "scenario": st.one_of(st.just("tiny"), scenarios),
            "budget": budgets,
            "solver": st.one_of(st.sampled_from(SOLVERS), solvers),
            "ci_width": ci_widths,
        },
    ),
    json_values,
)
#: The boundary cases every run covers, each in an otherwise valid body.
EDGE_CASES = [
    ("budget", 0),
    ("budget", -1),
    ("budget", NODES + 1),
    ("budget", True),
    ("ci_width", math.nan),
    ("ci_width", math.inf),
    ("ci_width", -math.inf),
    ("ci_width", True),
    ("ci_width", 1e-300),
    ("ci_width", 1e300),
    ("ci_width", 10**400),
    ("scenario", 7),
    ("solver", 7),
    ("solver", "NoSuchSolver"),
]
NON_OBJECTS = [None, 3, "tiny", [], ["tiny", 2]]


def _examples(test):
    for name, value in EDGE_CASES:
        body = {"scenario": "tiny", "budget": 3, "solver": "UBG"}
        body[name] = value
        test = example(payload=body)(test)
    for body in NON_OBJECTS:
        test = example(payload=body)(test)
    return test


@pytest.fixture(scope="module")
def app():
    graph, blocks = planted_partition_graph(
        [4] * 3, p_in=0.7, p_out=0.05, directed=True, seed=3
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    spec = ScenarioSpec(
        name="tiny", dataset="facebook", seed=5, pool_size=POOL_SIZE
    )
    store = ShardStore(
        {spec.name: spec},
        instances={spec.name: (graph, communities)},
        workers=1,
        round_size=20,
    )
    app = ShardApp(store)
    yield app
    app.close()


@settings(max_examples=250, deadline=None, derandomize=True)
@_examples
@given(payload=payloads)
def test_every_payload_answers_200_or_a_typed_error(app, payload):
    try:
        status, body, _ = app.handle_solve(payload)
    except ReproError:
        pass
    else:
        assert status == 200
        answer = json.loads(body)
        assert 1 <= len(answer["seeds"]) <= payload["budget"] <= NODES
    shard = app.store.get("tiny")
    assert len(shard.pool) <= POOL_SIZE * MAX_POOL_FACTOR
