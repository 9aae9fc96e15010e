"""repro — behavioural skeletons with autonomic management.

A from-scratch Python reproduction of *"Autonomic management of
non-functional concerns in distributed & parallel application
programming"* (Aldinucci, Danelutto, Kilpatrick — IPDPS 2009): the
behavioural-skeleton framework (⟨pattern, autonomic manager⟩ pairs), a
GCM-style component model, a JBoss-style rule engine, hierarchical and
multi-concern contract management, a deterministic discrete-event grid
substrate, and a live thread-based runtime.

Quickstart::

    from repro.core import build_farm_bs, MinThroughputContract
    from repro.sim import Simulator, ResourceManager, make_cluster
    from repro.sim.workload import TaskSource, ConstantWork

    sim = Simulator()
    pool = ResourceManager(make_cluster(16))
    bs = build_farm_bs(sim, pool, worker_work=5.0, initial_degree=1)
    TaskSource(sim, bs.farm.input, rate=0.8, work_model=ConstantWork(5.0))
    bs.assign_contract(MinThroughputContract(0.6))
    sim.run(until=600)                 # the manager grows the farm to 0.6 t/s

Sub-packages: :mod:`repro.core` (the contribution), :mod:`repro.sim`
(DES substrate), :mod:`repro.rules` (rule engine), :mod:`repro.
skeletons` (pattern algebra + cost models), :mod:`repro.gcm` (component
model), :mod:`repro.security` (the security concern), :mod:`repro.
runtime` (threads), :mod:`repro.experiments` (figure regeneration).
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

__all__ = ["core", "sim", "rules", "skeletons", "gcm", "security", "runtime", "experiments"]


def _lazy_exports(package: str, home: dict):
    """PEP 562 ``(__getattr__, __dir__)`` for a package whose exports
    resolve on first access: ``home`` maps each exported name to the
    submodule that defines it.  For the packages on a dist worker's
    import path, which must not pay for siblings it never touches
    (docs/ARCHITECTURE.md, "Worker import closure")."""

    def __getattr__(name: str):
        submodule = home.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)  # later accesses skip this hook
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__
