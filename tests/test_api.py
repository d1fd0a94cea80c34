"""The public API: each module's __all__ and the README's library example."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import phyllo

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = ["phyllo"] + [
    f"phyllo.{name}"
    for name in (
        "numerics", "geometry", "generator", "tessellation", "analysis", "export", "render", "cli"
    )
]


def _library_example() -> str:
    """The README's python block that imports from phyllo."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if "from phyllo import (" in b]
    return block


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_every_public_name_has_a_reader():
    # a public name is read outside the tests: by another module, a script,
    # the benchmark, the README or the package metadata
    unread = []
    for module in MODULES[1:]:
        own = ROOT / "src" / (module.replace(".", "/") + ".py")
        readers = [p for p in (ROOT / "src" / "phyllo").glob("*.py") if p != own]
        readers += [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
        readers += [README, ROOT / "pyproject.toml"]
        text = "\n".join(p.read_text(encoding="utf-8") for p in readers)
        unread += [
            f"{module}.{name}"
            for name in importlib.import_module(module).__all__
            if not re.search(rf"\b{re.escape(name)}\b", text)
        ]
    assert unread == []


def test_package_exports_the_readme_library_names():
    tree = ast.parse(_library_example())
    (imports,) = [
        node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "phyllo"
    ]
    assert sorted(alias.name for alias in imports.names) == sorted(phyllo.__all__)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    assert out.getvalue()
