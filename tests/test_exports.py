import importlib
import pkgutil
from pathlib import Path

import pytest

import mns

MODULES = ["mns", *sorted(info.name for info in pkgutil.iter_modules(mns.__path__, "mns."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_defined(name):
    # a name left in __all__ after its definition moved or was deleted
    # breaks `import *`
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_readme_library_usage_runs():
    # the fenced python block under "Library usage" runs as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library usage", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["result"].is_dfs
