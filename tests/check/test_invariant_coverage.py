"""Every documented invariant runs somewhere.

DESIGN.md section 10.2 lists the checkers of ``repro.check.invariants``;
a checker nobody calls is documentation that silently checks nothing.
The meta-test below fails as soon as a public ``check_*`` loses its last
caller.  This module is also the caller of the harness-only
``check_balanced_loads``: a property test over random placement streams,
plus a planted-bug test.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import invariants
from repro.check.invariants import check_balanced_loads
from repro.core.balancer import LoadBalancer, op_cost
from repro.errors import CheckError

REPO = Path(__file__).resolve().parents[2]


def _public_checkers():
    tree = ast.parse(inspect.getsource(invariants))
    return sorted(
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    )


def _python_sources():
    for directory in ("src", "tests"):
        yield from (REPO / directory).rglob("*.py")


def test_every_public_checker_has_a_caller():
    checkers = _public_checkers()
    assert "check_balanced_loads" in checkers
    called = set()
    for path in _python_sources():
        text = path.read_text()
        for name in checkers:
            # A call, not the definition itself.
            if re.search(rf"(?<!def ){name}\(", text):
                called.add(name)
    assert sorted(set(checkers) - called) == []


@st.composite
def placement_streams(draw):
    """(node count, threshold, [(preference order, op)...])."""
    nodes = draw(st.integers(2, 16))
    threshold = draw(st.sampled_from([0.0, 0.05, 0.10, 0.25]))
    steps = draw(
        st.lists(
            st.tuples(st.permutations(range(nodes)), st.sampled_from("+-*/")),
            min_size=1,
            max_size=60,
        )
    )
    return nodes, threshold, steps


class TestBalancedLoads:
    @given(placement_streams())
    @settings(max_examples=60, deadline=None)
    def test_choose_keeps_loads_balanced(self, stream):
        """Placing every cost through ``choose`` keeps the loads within the
        threshold, up to one assignment's cost."""
        nodes, threshold, steps = stream
        balancer = LoadBalancer(nodes, threshold)
        slack = 0.0
        for preference, op in steps:
            cost = op_cost(op)
            slack = max(slack, cost)
            balancer.record(balancer.choose(list(preference), cost), cost)
            check_balanced_loads(balancer, slack_cost=slack)

    def test_fires_on_unbalanced_loads(self):
        balancer = LoadBalancer(4)
        balancer.record(0, 100.0)
        balancer.record(1, 10.0)
        with pytest.raises(CheckError, match="load balance broken"):
            check_balanced_loads(balancer, slack_cost=10.0)
