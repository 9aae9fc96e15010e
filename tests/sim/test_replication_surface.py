"""One functional-replication mechanism in the DES, not three copies of it.

The task farm, the data-parallel map and the farm of pipelines are one
pattern that differs in how tasks reach the workers.  FarmABC monitors
and actuates all three through :class:`FunctionalReplication`'s surface;
a shape that redefined part of it would fork what the manager observes
(blackout, snapshot, worker registry) from one shape to the next.
"""

import ast
from pathlib import Path

import repro
from repro.sim import SimFarm, SimFarmOfPipelines, SimMap
from repro.sim.farm import FunctionalReplication

#: the members the base owns and no replication shape may redefine
BASE_OWNED = (
    "add_worker",
    "_begin_blackout",
    "in_blackout",
    "snapshot",
    "force_snapshot",
    "num_workers",
    "secure_all",
    "submit",
    "notify_end_of_stream",
    "drained",
)

SIM = Path(repro.__file__).parent / "sim"


def _all_shapes():
    seen, todo = [], [FunctionalReplication]
    while todo:
        for sub in todo.pop().__subclasses__():
            seen.append(sub)
            todo.append(sub)
    return seen


def test_the_base_owns_the_surface():
    assert [m for m in BASE_OWNED if m not in vars(FunctionalReplication)] == []


def test_no_shape_redefines_a_base_member():
    shapes = _all_shapes()
    assert {SimFarm, SimMap, SimFarmOfPipelines} <= set(shapes)
    forked = {shape.__name__: sorted(set(BASE_OWNED) & set(vars(shape))) for shape in shapes}
    assert {name: members for name, members in forked.items() if members} == {}


def test_only_the_base_can_grow_a_simulated_mechanism():
    """A fourth shape written beside the base, not under it, would need
    its own ``add_worker``: exactly one class in ``repro.sim`` has one."""
    owners = [
        f"{path.name}:{node.name}"
        for path in sorted(SIM.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "add_worker"
            for item in node.body
        )
    ]
    assert owners == ["farm.py:FunctionalReplication"]
