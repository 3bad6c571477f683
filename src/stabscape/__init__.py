"""Energy-landscape toolkit for stabilizer-code Hamiltonians on periodic lattices."""

from types import ModuleType as _ModuleType

from .lattice import LatticeGeometry, QubitIndex
from .pauli import PauliOperator
from .codes import (
    CodeInstance,
    CodeSpec,
    Defect,
    Syndrome,
    build_code,
    check_frustration_free,
    get_code,
    registered_spec,
    registry_names,
)
from .defects import (
    ScaleParams,
    cluster_partition,
    creation_operator,
    dense_runs,
    is_neutral,
    localize,
    min_dense_run,
    scan_for_strings,
)
from .paths import (
    ErrorPath,
    energy_profile,
    logical_zbar,
    pyramid_operator,
    pyramid_path,
    verify_logical,
)
from .oracle import SearchBudget, code_distance, min_barrier_cluster, min_barrier_logical
from .rg import (
    box_counting_dimension,
    level_histories,
    syndrome_history,
    track_charged_clusters,
)

# the public names are the ones imported above, listed once
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))

__version__ = "0.1.0"
