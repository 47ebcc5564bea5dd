"""Streamed simulation equals batch simulation (DESIGN.md section 7.1).

The empirical gate feeds a candidate schedule to the simulator a window at
a time and may stop it after any window.  That is exact only if the
simulator retires units in nondecreasing seq, so that a seq-prefix runs
exactly as it does inside the full run.  These properties check it on
random unit DAGs: feeding one statement instance at a time reproduces the
batch metrics bit for bit, and a run stopped after k instances reproduces
the batch run of those k instances.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.knl import small_machine
from repro.core.subcomputation import GatheredInput, SubResult, Subcomputation
from repro.errors import SimulationError
from repro.ir.program import Program
from repro.ir.statement import Access
from repro.sim.engine import Simulator

ARRAYS = ("A", "B")
ELEMENTS = 8


def _machine():
    machine = small_machine()
    program = Program("stream")
    for name in ARRAYS:
        program.declare(name, ELEMENTS)
    program.declare_on(machine)
    return machine


def _access(draw):
    return Access(
        draw(st.sampled_from(ARRAYS)), draw(st.integers(0, ELEMENTS - 1))
    )


@st.composite
def instance_dags(draw):
    """Statement instances as unit trees: children feed later units of
    their instance and the last unit stores.  Uids are a random
    permutation, so a final store may have a lower uid than its inputs."""
    shapes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=10))
    uids = iter(draw(st.permutations(range(sum(shapes)))))
    instances = []
    seq = 0
    for size in shapes:
        seq += draw(st.integers(1, 3))
        members = [next(uids) for _ in range(size)]
        consumers = [
            draw(st.integers(position + 1, size - 1))
            for position in range(size - 1)
        ]
        nodes = [draw(st.integers(0, 15)) for _ in range(size)]
        units = []
        for position, uid in enumerate(members):
            gathered = tuple(
                GatheredInput(_access(draw), draw(st.integers(0, 15)), 0)
                for _ in range(draw(st.integers(0, 3)))
            )
            sub_results = tuple(
                SubResult(members[child], nodes[child], 0)
                for child, consumer in enumerate(consumers)
                if consumer == position
            )
            units.append(
                Subcomputation(
                    uid=uid,
                    seq=seq,
                    node=nodes[position],
                    op="+",
                    op_count=len(gathered) + len(sub_results),
                    cost=draw(st.sampled_from((0.0, 1.0, 2.0, 10.0))),
                    gathered=gathered,
                    sub_results=sub_results,
                    store=_access(draw) if position == size - 1 else None,
                )
            )
        instances.append(draw(st.permutations(units)))
    return instances


@settings(max_examples=60)
@given(instance_dags(), st.randoms(use_true_random=False))
def test_fed_per_instance_equals_batch(instances, rng):
    units = [unit for instance in instances for unit in instance]
    rng.shuffle(units)
    batch = Simulator(_machine()).run(units)
    streamed = Simulator(_machine()).run(feeds=instances, stop=lambda m: False)
    assert streamed == batch


@settings(max_examples=60)
@given(instance_dags(), st.data())
def test_stopped_stream_equals_batch_of_prefix(instances, data):
    keep = data.draw(st.integers(1, len(instances)))
    seen = []

    def stop(prefix):
        seen.append(prefix.total_cycles)
        return len(seen) == keep

    streamed = Simulator(_machine()).run(feeds=instances, stop=stop)
    prefix = Simulator(_machine()).run(
        [unit for instance in instances[:keep] for unit in instance]
    )
    assert streamed == prefix
    # The running bound the stop predicate sees only grows.
    assert seen == sorted(seen)
    assert seen[-1] == prefix.total_cycles


def test_out_of_order_feed_rejected():
    def unit(uid, seq):
        return Subcomputation(
            uid=uid, seq=seq, node=0, op="+", op_count=0, cost=1.0,
            store=Access("A", uid),
        )

    with pytest.raises(SimulationError, match="seq order"):
        Simulator(_machine()).run(feeds=[[unit(0, 5)], [unit(1, 5)]])
