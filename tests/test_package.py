"""Tests for the names the package re-exports."""

import faradaymeter


def test_star_import_binds_only_the_re_exports():
    namespace = {}
    exec("from faradaymeter import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(faradaymeter.__all__)
    # no submodule and no __future__ feature, only what the submodules define
    for name, value in namespace.items():
        assert value.__module__.startswith("faradaymeter."), name


def test_every_public_re_export_is_listed():
    public = {
        name
        for name, value in vars(faradaymeter).items()
        if not name.startswith("_") and getattr(value, "__module__", "").startswith("faradaymeter.")
    }
    assert public == set(faradaymeter.__all__)
    assert len(faradaymeter.__all__) == len(set(faradaymeter.__all__))
