"""Import layering of the package, read from the source with ``ast``.

Every import sits at module level, so importing a module shows all that it
depends on.  The library below ``scenario`` (mesh, model, blockops,
resolvent, spectral, dynamics, and checks, the table of ``verify``) acts on
assembled objects and never reaches up to the scenario documents or the
command line.  Only ``_linalg`` names the internals of the mirror split and
of the cosine-mode split: every other module asks it for a split solve or
eigensolve.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abclab"
MODULES = sorted(PACKAGE.glob("*.py"))
LOWER = ("mesh", "model", "blockops", "resolvent", "spectral", "dynamics", "checks")
UPPER = {"scenario", "cli"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_modules(node) -> set[str]:
    """Names of the abclab modules an import statement binds or reads from."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("abclab.")}
    if node.level == 0 and not (node.module or "").startswith("abclab"):
        return set()
    parts = (node.module or "").split(".")
    if node.level == 0:
        parts = parts[1:]
    return {parts[0]} if parts and parts[0] else {alias.name for alias in node.names}


def test_package_modules_found():
    assert {p.stem for p in MODULES} >= set(LOWER) | UPPER


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    lazy = sorted({f"{path.name}:{node.lineno}"
                   for fn in ast.walk(_tree(path))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert lazy == []


@pytest.mark.parametrize("name", LOWER)
def test_lower_layers_do_not_import_scenario_or_cli(name):
    tree = _tree(PACKAGE / f"{name}.py")
    upward = sorted({f"{name}.py:{node.lineno} -> {mod}"
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     for mod in _package_modules(node) & UPPER})
    assert upward == []


MIRROR_INTERNALS = {"mirror_blocks", "mirror_lift", "_mirror_coords",
                    "mode_blocks", "mode_lift", "_mode_eig", "_cosines",
                    "_mode_unblock", "_mode_solve"}


def _spelled(node) -> list[str]:
    """The identifiers a node spells: a name, an attribute, or imported names."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "_linalg"],
                         ids=lambda p: p.stem)
def test_only_linalg_names_the_mirror_split(path):
    named = sorted({f"{path.name}:{node.lineno} {name}"
                    for node in ast.walk(_tree(path))
                    for name in _spelled(node) if name in MIRROR_INTERNALS})
    assert named == []
