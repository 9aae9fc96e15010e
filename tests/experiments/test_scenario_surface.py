"""One single-farm scenario and one command-line parser for the experiments.

EXT-LOAD, FAULT, MIGRATE and the hysteresis ablation are FIG3's
scenario plus one perturbation each: they build it through
``fig3.single_farm`` and sample it through ``fig3.run_sampled``.  A
module that imported the simulator, the resource pool, the task source
or the BS builder would be assembling the scenario a second time.

``python -m repro.experiments`` takes FIG4's parser and adds the keys:
an ``argv`` read any other way, or an option spelled out in
``__main__``, would be a second parser drifting from FIG4's checks.
"""

import ast
from pathlib import Path

import repro

EXPERIMENTS = Path(repro.__file__).parent / "experiments"

#: the modules that perturb the shared scenario instead of building one
PERTURBATIONS = ("loadspike", "failures", "migration", "ablation")
#: what building the scenario takes; only ``fig3`` may import it
SCENARIO_PARTS = {"Simulator", "ResourceManager", "TaskSource", "build_farm_bs"}


def _tree(module: str) -> ast.AST:
    return ast.parse((EXPERIMENTS / f"{module}.py").read_text())


def test_perturbations_do_not_build_the_scenario():
    imported = {
        module: sorted(
            alias.name.rsplit(".", 1)[-1]
            for node in ast.walk(_tree(module))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if alias.name.rsplit(".", 1)[-1] in SCENARIO_PARTS
        )
        for module in PERTURBATIONS
    }
    assert {m: names for m, names in imported.items() if names} == {}


def test_the_package_cli_reads_argv_only_through_the_shared_parser():
    tree = _tree("__main__")
    parse_calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "parse_intermixed_args"
    ]
    (call,) = parse_calls
    reads = [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "argv" and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "argv")
    ]
    assert reads == call.args, "argv is read outside the shared parser"
    options = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("--")
    ]
    assert options == [], "__main__ spells out an option of its own"
