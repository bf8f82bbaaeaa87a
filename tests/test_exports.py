import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mns

MODULES = ["mns", *sorted(info.name for info in pkgutil.iter_modules(mns.__path__, "mns."))]
SOURCES = sorted(Path(mns.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_defined(name):
    # a name left in __all__ after its definition moved or was deleted
    # breaks `import *`
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
    exec(f"from {name} import *", {})


def _defined(stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_helper_is_used():
    # a top-level _name of the package that nothing else in it reads is a
    # helper left behind by a refactor; a definition's own body does not count
    defined, used = {}, set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                elif isinstance(node, ast.alias):
                    ref = node.name
                else:
                    continue
                if ref not in names:
                    used.add(ref)
    assert defined
    assert {name: where for name, where in defined.items() if name not in used} == {}


def test_readme_library_usage_runs():
    # the fenced python block under "Library usage" runs as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library usage", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["result"].is_dfs
