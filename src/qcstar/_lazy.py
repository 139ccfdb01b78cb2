"""Third-party modules loaded on first use, not when qcstar is imported."""

import importlib.util
import sys


def lazy_module(name: str):
    """The module called name, run on its first attribute access.

    A module already in sys.modules is returned as it is.  Otherwise a
    lazy one is registered there, so a later ``import name`` gets the
    same object, and the import's cost moves to the first attribute read.
    importlib.util.LazyLoader is not thread-safe before Python 3.12;
    qcstar runs single-threaded.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
