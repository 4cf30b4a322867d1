"""torusflow: construct and certify vector fields whose symmetries are a torus.

The library builds complete fields on torus bundles whose automorphism
group is exactly the acting torus times the flow itself, and provides the
numerical diagnostics (commutant probes, limit-set classification, order
estimation, equidistribution and Haar averaging) used to certify them.
"""

import os as _os

# The BLAS/OpenMP pools are sized when NumPy is first imported, so
# TORUSFLOW_THREADS is mapped onto them before any submodule imports it;
# a variable already set wins.
if _threads := _os.environ.get("TORUSFLOW_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .construction import (
    ConstructionManifest,
    build_line_describing,
    build_planar_demo,
    build_s5,
    haar_average_field,
    haar_average_function,
)
from .fields import (
    FieldHandle,
    SingularFiber,
    connection_fields_s5,
    describing_field_s5,
    field_scale,
    fundamental_fields_s5,
    lie_bracket,
    line_model_fields,
    pushforward_residual,
    rational_relation,
    tau_s5,
    xi_plus_affine,
)
from .flow import (
    FlowError,
    IntegratorConfig,
    Trajectory,
    basin_census,
    classify_limit,
    equidistribution_discrepancy,
    estimate_order,
    flow_commutation_residual,
    integrate,
)
from .geometry import (
    Chart,
    base_projection_pi,
    embed_s5,
    in_triangle,
    sphere_normalize,
    torus_act_s5,
    wrap_angles,
)
from .radial import (
    NormalFormReport,
    RadialSolution,
    RadialSolverError,
    annulus_grid,
    normalize_lifted_field,
    solve_radial,
)
from .verify import (
    CommutantProbeReport,
    VerificationReport,
    commutant_basis_check,
    commutant_dimension_probe,
    conjugation_residual,
    verify_manifest,
)

__all__ = [name for name in dir() if not name.startswith("_")]
