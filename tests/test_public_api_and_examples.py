"""Smoke tests for the top-level public API and the runnable examples.

The examples are part of the deliverable; running their ``main()``
functions end to end (with captured output) guards against drift between
the library API and the documentation-level code users copy from.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg)
DOTTED_NAME = re.compile(r"repro(\.\w+)+")


def _references(path: Path, modules) -> set:
    """The ``(module, name)`` pairs of ``repro`` that a source file imports,
    reads as a module attribute, or spells as a whole dotted string (the
    way the end-to-end tracer names what it wraps)."""
    tree = ast.parse(path.read_text(), str(path))
    package = path.relative_to(ROOT / "src").parts[:-1] if ROOT / "src" in path.parents else ()
    aliases, found = {}, set()

    def walk(module, chain):
        for part in chain:
            if f"{module}.{part}" not in modules:
                found.add((module, part))
                return
            module = f"{module}.{part}"

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    aliases[alias.asname or "repro"] = alias.name if alias.asname else "repro"
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(package[: len(package) - node.level + 1] + tuple(filter(None, [base])))
            if base.split(".")[0] == "repro":
                for alias in node.names:
                    if f"{base}.{alias.name}" in modules:
                        aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
                    else:
                        found.add((base, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                chain.insert(0, node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                walk(aliases[node.value.id], chain)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_NAME.fullmatch(node.value):
                walk("repro", node.value.split(".")[1:])
    return found


def _used_exports(modules) -> set:
    """``(subpackage, name)`` pairs read outside the subpackage by
    ``src/``, ``benchmarks/`` or ``examples/``.  Tests are no users, and
    neither are the re-exports of ``repro/__init__.py``; an import from
    ``repro`` itself counts for every subpackage exporting the name."""
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]
    files += EXAMPLES_DIR.glob("*.py")
    used = set()
    for path in files:
        if path == ROOT / "src" / "repro" / "__init__.py":
            continue
        parts = path.relative_to(ROOT).parts
        own = parts[2] if parts[:2] == ("src", "repro") and len(parts) > 3 else None
        for module, name in _references(path, modules):
            owners = SUBPACKAGES if module == "repro" else module.split(".")[1:2]
            used.update((owner, name) for owner in owners if owner != own)
    return used


def _allow_list() -> set:
    """The names DESIGN.md §8 keeps exported without a user."""
    section = (ROOT / "DESIGN.md").read_text().split("**Kept paper artefacts.**")[1]
    return set(re.findall(r"`(repro\.\w+\.\w+)`", section.split("\n## ")[0]))


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_all_exports_resolve(self):
        # Every module of the package, so a deletion that leaves a stale
        # `__all__` string behind fails here (`__main__` would run the CLI).
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")
        ]
        assert len(modules) > 100
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.{name}"
        # ... and every subpackage export has a user outside its package
        # or a stated reason on DESIGN.md §8's allow-list, which lists
        # exactly the exports without a user.
        used = _used_exports({module.__name__ for module in modules})
        unused = {
            f"repro.{package}.{name}"
            for package in SUBPACKAGES
            for name in importlib.import_module(f"repro.{package}").__all__
            if (package, name) not in used
        }
        allowed = _allow_list()
        missing, stale = sorted(unused - allowed), sorted(allowed - unused)
        assert not missing, f"exported without a user or a DESIGN §8 reason: {missing}"
        assert not stale, f"stale DESIGN §8 allow-list entries: {stale}"

    def test_minimal_workflow_through_top_level_api(self):
        source = (
            repro.GraphBuilder()
            .node("a", 1)
            .node("b", 2)
            .edge("a", "r", "b")
            .build()
        )
        mapping = repro.GraphSchemaMapping([("r", "t.t")])
        target = repro.universal_solution(mapping, source)
        assert repro.is_solution(mapping, source, target)
        answers = repro.certain_answers(mapping, source, repro.rpq("t.t"))
        assert {(left.id, right.id) for left, right in answers} == {("a", "b")}

    def test_subpackages_importable(self):
        for module in (
            "repro.datagraph",
            "repro.regular",
            "repro.datapaths",
            "repro.query",
            "repro.gxpath",
            "repro.relational",
            "repro.core",
            "repro.reductions",
            "repro.workloads",
            "repro.experiments",
        ):
            assert importlib.import_module(module) is not None


def _load_example(name: str):
    """Import an example script as a module (examples are not a package)."""
    path = EXAMPLES_DIR / f"{name}.py"
    assert path.exists(), path
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    @pytest.mark.parametrize(
        "name,expected_fragment",
        [
            ("quickstart", "Who certainly knows whom"),
            ("social_network_integration", "Certainly knows (direct)"),
            ("provenance_exchange", "approximation recall"),
            ("property_graph_to_datagraph", "certain contacts"),
        ],
    )
    def test_example_runs_and_prints(self, capsys, name, expected_fragment):
        module = _load_example(name)
        module.main()
        output = capsys.readouterr().out
        assert expected_fragment in output
