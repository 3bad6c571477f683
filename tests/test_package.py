"""The package's public names: one table, each name bound to its defining
module's object on first access."""

from importlib import import_module

import pytest

import stabscape

PUBLIC = {
    "codes": ["CodeInstance", "CodeSpec", "Defect", "ScaleParams", "SearchBudget", "Syndrome", "build_code",
              "check_frustration_free", "get_code", "registered_spec", "registry_names"],
    "defects": ["cluster_partition", "creation_operator", "dense_runs", "is_neutral", "localize", "min_dense_run",
                "scan_for_strings"],
    "lattice": ["LatticeGeometry", "QubitIndex"],
    "oracle": ["code_distance", "min_barrier_cluster", "min_barrier_logical"],
    "paths": ["ErrorPath", "energy_profile", "logical_zbar", "pyramid_operator", "pyramid_path", "verify_logical"],
    "pauli": ["PauliOperator"],
    "rg": ["box_counting_dimension", "level_histories", "syndrome_history", "track_charged_clusters"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_the_public_names():
    assert len(NAMES) == 34
    assert stabscape.__all__ == NAMES
    assert set(NAMES) <= set(dir(stabscape))


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_its_modules_object(module, name):
    assert getattr(stabscape, name) is getattr(import_module(f"stabscape.{module}"), name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stabscape import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {name: getattr(stabscape, name) for name in NAMES}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'stabscape' has no attribute 'no_such_name'"):
        stabscape.no_such_name


def test_scale_params_lives_in_codes():
    from stabscape import codes, defects

    assert stabscape.ScaleParams is codes.ScaleParams is defects.ScaleParams
