import importlib
import pkgutil

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
