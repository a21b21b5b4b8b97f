"""Energy-conserving HBVM(k,s) integration for semi-discretized Hamiltonian PDEs.

Spatial semi-discretizations of the semilinear wave equation (finite
differences under periodic/Dirichlet/Neumann boundary conditions, and a
Fourier-Galerkin spectral variant) are exposed through a single Hamiltonian
system contract and integrated in time by HBVM(k,s) one-step methods, with
Stormer-Verlet compositions as explicit baselines and a CLI harness for the
conservation, convergence, and work-precision experiments.
"""

from .legendre import (
    QuadratureRule,
    HBVMTables,
    gauss_rule,
    hbvm_tables,
    shifted_legendre_eval,
    shifted_legendre_antiderivative,
)
from .systems import SkewStructure, SemiDiscreteSystem, hamiltonian_drift
from .integrator import (
    HBVMMethod,
    SolverConfig,
    StepDiagnostics,
    TrajectoryRecord,
    SolverError,
    StepFailure,
    Stepper,
    step,
    integrate,
    rk_tableau,
)
from .comparators import CompositionScheme, composition_scheme, stormer_verlet_step, composition_step
from . import wave_fd, wave_fourier, problems

__all__ = [
    "QuadratureRule",
    "HBVMTables",
    "gauss_rule",
    "hbvm_tables",
    "shifted_legendre_eval",
    "shifted_legendre_antiderivative",
    "SkewStructure",
    "SemiDiscreteSystem",
    "hamiltonian_drift",
    "HBVMMethod",
    "SolverConfig",
    "StepDiagnostics",
    "TrajectoryRecord",
    "SolverError",
    "StepFailure",
    "Stepper",
    "step",
    "integrate",
    "rk_tableau",
    "CompositionScheme",
    "composition_scheme",
    "stormer_verlet_step",
    "composition_step",
    "wave_fd",
    "wave_fourier",
    "problems",
]

__version__ = "0.1.0"
