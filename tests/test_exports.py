"""Every name that the package and its modules export resolves."""

import importlib
import pkgutil

import altschur


def test_every_exported_name_resolves():
    modules = [altschur] + [importlib.import_module(f"altschur.{m.name}") for m in pkgutil.iter_modules(altschur.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 8  # the package and the seven library modules
    missing = [f"{m.__name__}.{name}" for m in exporting for name in m.__all__ if not hasattr(m, name)]
    assert missing == []
