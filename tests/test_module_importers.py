"""Every ``src/repro`` module is used by something that is not a test.

A module counts as used when a file under ``src/``, ``examples/`` or
``benchmarks/`` imports it (statically, absolute or relative), or
imports a name that a package's lazy-export table (``_HOME``) maps to
it.  Modules started as programs (``python -m ...``) are named in
``ENTRY_POINTS``.  A module that only its own tests import fails here,
so removed callers cannot leave dead code behind unnoticed.

The same import resolution derives which ``repro`` package imports
which, and holds that to the edge table in ``docs/ARCHITECTURE.md``:
an edge the table marks "deferred" must only ever be imported inside a
function body, so importing its package loads nothing more.
"""

import ast
import itertools
import re
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

#: the package-edge table this suite holds to the source
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"


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


def import_statements(tree, in_function=False):
    """``(node, in_function)`` for each import statement in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, in_function
        else:
            nested = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from import_statements(node, in_function or nested)


def resolved_imports(path: Path, tables):
    """``(names, in_function)`` per import statement of one file, each
    name absolute: the module, and for ``from`` imports every
    ``module.name`` plus the submodule a lazy export resolves to."""
    own = module_name(path) if SRC in path.parents else None
    package = (
        own if own is not None and path.name == "__init__.py" else own and own.rpartition(".")[0]
    )
    for node, in_function in import_statements(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield {alias.name for alias in node.names}, in_function
            continue
        base = node.module or ""
        if node.level:
            anchor = package.split(".")
            anchor = anchor[: len(anchor) - (node.level - 1)]
            base = ".".join(anchor + ([base] if base else []))
        names = {base}
        for alias in node.names:
            names.add(f"{base}.{alias.name}")
            home = tables.get(base, {}).get(alias.name)
            if home is not None:
                names.add(f"{base}.{home}")
        yield names, in_function


def imported_by(path: Path, modules, tables):
    """The modules one file imports."""
    found = set()
    for names, _ in resolved_imports(path, tables):
        found |= names
    # importing a module imports every package above it
    found |= {name.rsplit(".", k)[0] for name in found for k in range(1, name.count(".") + 1)}
    found.discard(module_name(path) if SRC in path.parents else None)
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
    assert not orphans, sorted(orphans)


def test_the_named_lists_are_current():
    assert ENTRY_POINTS <= set(all_modules())


def source_edges():
    """The ``repro`` sub-packages, and ``{(package, imported): deferred}``
    over every import under ``src/``: an edge is deferred when every
    import that makes it sits inside a function body."""
    packages = {p.name for p in (SRC / "repro").iterdir() if (p / "__init__.py").exists()}
    tables = lazy_tables(all_modules())
    edges = {}
    for package in packages:
        for path in (SRC / "repro" / package).rglob("*.py"):
            for names, in_function in resolved_imports(path, tables):
                targets = {n.split(".")[1] for n in names if n.startswith("repro.")}
                for target in targets & packages - {package}:
                    edges[package, target] = edges.get((package, target), True) and in_function
    return packages, edges


def documented_edges():
    """The packages, and ``{(package, imported): deferred}``, of the
    ``| package | imports |`` table in ARCHITECTURE.md."""
    lines = ARCHITECTURE.read_text().splitlines()
    rows = lines[lines.index("| package | imports |") + 2 :]
    packages, edges = set(), {}
    for row in itertools.takewhile(lambda line: line.startswith("|"), rows):
        sources, imports = row.strip("|").split("|")
        sources = re.findall(r"`(\w+)`", sources)
        packages.update(sources)
        if imports.strip() == "nothing":
            continue
        # commas inside a parenthesised note do not separate imports
        for item in re.split(r",(?![^(]*\))", imports):
            target = item.split()[0]
            edges.update({(source, target): "(deferred" in item for source in sources})
    return packages, edges


def test_package_edges_match_the_architecture_table():
    packages, edges = source_edges()
    documented_packages, documented = documented_edges()
    assert documented_packages == packages
    assert edges == documented, sorted(set(edges.items()) ^ set(documented.items()))
