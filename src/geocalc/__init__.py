"""Discrete geodesic calculus over deformation-energy models.

Discrete geodesics are minimizers of the time-discrete path energy
K * sum_k w(x_{k-1}, x_k) for a two-point energy w that locally
approximates squared geodesic distance.  From that single variational
principle the package derives discrete logarithm and exponential maps,
Schild's-ladder parallel transport, and a finite-difference connection,
together with flat, sphere-chart, embedded-hypersurface, and viscous-rod
backends, each evaluated over whole stacks of segments or points, a model
of any complex-analytic ``w`` alone (``energy_from_w``), a
convergence-study harness and a CLI.
"""

from .core import (
    ConsistencyReport,
    DiscretePath,
    DomainError,
    EnergyModel,
    EvaluationError,
    InvariantViolation,
    SolverError,
    as_path,
    as_point,
    check_consistency,
    energy_from_w,
    metric_from_energy,
)
from .geodesic import (
    ConstraintModel,
    GeodesicResult,
    LinearGauge,
    SolverConfig,
    discrete_energy,
    discrete_length,
    el_residual,
    project_onto_level_set,
    solve_geodesic,
    solve_geodesic_constrained,
    write_result_csv,
)
from .models import (
    CircleSdf,
    FlatEnergy,
    SphereChartEnergy,
    SphereSdf,
    flat_energy,
    sdf_spring_model,
    sphere_chart_energy,
    sphere_oracles,
)
from .operators import (
    TransportTrace,
    discrete_connection,
    discrete_exp,
    discrete_exp_path,
    discrete_log,
    exp2,
    inverse_transport,
    log2,
    parallel_transport,
    transport_step,
    write_traces_csv,
)
from .rods import (
    FullRodEnergy,
    RodCurve,
    SimplifiedRodEnergy,
    circle_rod,
    load_rod_csv,
    random_smooth_rod,
    rod_energy,
    rod_gauge,
    save_rod_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
