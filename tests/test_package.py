"""Tests for the names the package re-exports, and for those it no longer ships."""

import faradaymeter
from faradaymeter import protocol, qstate


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


def test_the_seven_qubit_reference_ships_only_in_the_tests():
    # its register, states, plate and reference-only helpers live in
    # tests/seven_qubit_reference.py
    moved = {"PHOTON_LABELS", "ATOM_LABELS", "FULL_REGISTER", "_SQRT_HALF", "_pair_state",
             "prepare_joint", "target_final_state", "reorder", "apply_single_qubit",
             "basis_amplitude"}
    assert moved.isdisjoint(vars(qstate))
    assert not hasattr(protocol, "QWP_HADAMARD")
    assert not hasattr(faradaymeter, "degraded_parity_probability")
