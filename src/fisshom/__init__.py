"""Effective flow and transport models for porous media coupled through thin
random vertical fissures.

Pipeline: stationary random paths drive the fissure geometry; the cell
problem on the fissure cross-section produces the tube drag constant, from
which the drag tensor and the interface permeability follow in closed form,
while the beds' own tensors are given; the limit flow
problem couples two Darcy half-spaces through a fissure transmission law; the
limit transport problem adds surface diffusion, advection, and an exchange
condition across the fissure layer.  The verify module closes the loop with
resolved-geometry sweeps.
"""

__version__ = "0.1.0"

from .stochastic import (  # noqa: F401
    ProcessParams,
    PhaseSequence,
    ErgodicStats,
    build_path,
    estimate_brackets,
)
from .fissure_transport import (  # noqa: F401
    FissureODEConfig,
    TransmissionCoeffs,
    transmission_coeffs,
    vertical_velocity,
)
from .cell import (  # noqa: F401
    compute_kstar,
    solve_poisson_cell,
)
from .fissures import (  # noqa: F401
    Fissure,
    GeometryParams,
    enumerate_fissures,
)
from .limit_flow import (  # noqa: F401
    FlowBC,
    FlowConfig,
    solve_limit_flow,
)
from .limit_transport import (  # noqa: F401
    TransportConfig,
    solve_limit_transport,
)
from .config import (  # noqa: F401
    ConfigError,
    ExperimentConfig,
    parse_config,
)
from .verify import run_sweep  # noqa: F401
