"""Every ``src/repro`` module is used by something that is not a test.

A module counts as used when a file under ``src/``, ``examples/`` or
``benchmarks/`` imports it (statically, absolute or relative), or
imports a name that a package's lazy-export table (``_HOME``) maps to
it.  Modules started as programs (``python -m ...``) are named in
``ENTRY_POINTS``.  A module that only its own tests import fails here,
so removed callers cannot leave dead code behind unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED = (SRC, ROOT / "examples", ROOT / "benchmarks")

#: modules run as programs rather than imported
ENTRY_POINTS = {
    "repro.experiments.__main__",
    "repro.obs.explain",
    "repro.obs.top",
    "repro.runtime.dist_worker",
}

#: modules with no caller left, kept until their own tests go with them
#: (ROADMAP item 13); each must still exist and still have no importer
PENDING_REMOVAL = {
    "repro.runtime.active_object",
    "repro.runtime.pipeline_runtime",
}


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def all_modules():
    return {module_name(p): p for p in (SRC / "repro").rglob("*.py")}


def lazy_tables(modules):
    """``{package: {exported name: submodule}}`` from each ``_HOME``."""
    tables = {}
    for name, path in modules.items():
        if path.name != "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_HOME" for t in node.targets)
            ):
                tables[name] = ast.literal_eval(node.value)
    return tables


def imported_by(path: Path, modules, tables):
    """The modules one file imports."""
    own = module_name(path) if SRC in path.parents else None
    package = (
        own if own is not None and path.name == "__init__.py" else own and own.rpartition(".")[0]
    )
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            for alias in node.names:
                found.add(f"{base}.{alias.name}")
                home = tables.get(base, {}).get(alias.name)
                if home is not None:
                    found.add(f"{base}.{home}")
    # importing a module imports every package above it
    found |= {name.rsplit(".", k)[0] for name in found for k in range(1, name.count(".") + 1)}
    found.discard(own)
    return found & set(modules)


def importers():
    modules = all_modules()
    tables = lazy_tables(modules)
    used = set()
    for root in SCANNED:
        for path in root.rglob("*.py"):
            used |= imported_by(path, modules, tables)
    return modules, used


def test_every_module_has_a_non_test_importer():
    modules, used = importers()
    orphans = set(modules) - used - ENTRY_POINTS
    assert orphans == PENDING_REMOVAL, sorted(orphans ^ PENDING_REMOVAL)


def test_the_named_lists_are_current():
    modules, used = importers()
    assert ENTRY_POINTS <= set(modules)
    assert PENDING_REMOVAL <= set(modules)
    assert not PENDING_REMOVAL & used
