"""The package's export surface matches its modules.

An explicit ``from .module import name`` fails at import when ``name`` is
gone, but a stale string in a module's ``__all__`` only fails on a star
import; these tests catch both kinds of drift.
"""

import importlib
import pkgutil
import types

import pytest

import hmm_spde

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(hmm_spde.__path__))


def _module(name):
    return importlib.import_module(f"hmm_spde.{name}")


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_exist(name):
    module = _module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    # every public name of the package is one a submodule exports, and the
    # same object
    sources = {}
    for name in SUBMODULES:
        module = _module(name)
        for n in getattr(module, "__all__", ()):
            sources.setdefault(n, getattr(module, n))
    public = [n for n, v in vars(hmm_spde).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert public
    assert [n for n in public if n not in sources] == []
    assert [n for n in public if getattr(hmm_spde, n) is not sources[n]] == []


def test_star_import():
    namespace = {}
    exec("from hmm_spde import *", namespace)
    assert "run_hmm" in namespace and "run_micro" in namespace
