"""Every exported name resolves, in the package and in each submodule."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import crossmaps

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(crossmaps.__path__))


def test_star_import_binds_every_exported_name():
    # A stale name in crossmaps.__all__ makes the star import itself fail.
    namespace: dict = {}
    exec("from crossmaps import *", namespace)
    assert set(crossmaps.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", ["RelationType", "Severity", "SplitPolicy", "TargetSummary", "clean_key"])
def test_name_once_missing_from_the_package_resolves(name):
    assert name in crossmaps.__all__
    assert getattr(crossmaps, name) is getattr(importlib.import_module(f"crossmaps.{crossmaps._MODULE_OF[name]}"), name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_resolve(name):
    module = importlib.import_module(f"crossmaps.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
