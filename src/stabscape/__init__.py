"""Energy-landscape toolkit for stabilizer-code Hamiltonians on periodic lattices.

``import stabscape`` loads no submodule: a public name's defining module is
imported on first access (PEP 562), so a caller pays only for the modules it
uses.
"""

from importlib import import_module

# The public names by defining submodule, each listed once.
_MODULES = {name: module for module, names in {
    "lattice": "LatticeGeometry QubitIndex",
    "pauli": "PauliOperator",
    "codes": "CodeInstance CodeSpec Defect ScaleParams SearchBudget Syndrome build_code check_frustration_free"
             " get_code registered_spec registry_names",
    "defects": "cluster_partition creation_operator dense_runs is_neutral localize min_dense_run scan_for_strings",
    "paths": "ErrorPath energy_profile logical_zbar pyramid_operator pyramid_path verify_logical",
    "oracle": "code_distance min_barrier_cluster min_barrier_logical",
    "rg": "box_counting_dimension level_histories syndrome_history track_charged_clusters",
}.items() for name in names.split()}

__all__ = sorted(_MODULES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's module on first access and keep the name here,
    so later reads are plain attribute lookups."""
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULES))
