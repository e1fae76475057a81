"""Two-qubit entanglement dynamics under dissipation and measurement feedback.

The package models a pair of exchange-coupled qubits as a four-level open
system: coherent entanglement oscillation, collective dephasing that kills
the concurrence exponentially, and a measurement-plus-feedback loop that
holds the pair arbitrarily close to a Bell state in steady state.
"""
from .errors import (
    DimensionMismatchError,
    EntdynError,
    InvalidStateError,
    LeakyStateError,
    NoConvergenceError,
    NonFiniteError,
    NonUniqueSteadyStateError,
    NotHermitianError,
    NotPSDError,
    OutsideBlochBallError,
    RequiresZeroYError,
    SingularMatrixError,
    StepUnderflowError,
)
from .evolution import TimeGrid, Trajectory, propagate_expm, propagate_ode, steady_state, unitary_evolve
from .feedback import (
    BlochSystem,
    FeedbackParams,
    SteadyState,
    SweepResult,
    bloch_eigenvalues,
    bloch_steady_state,
    bloch_system,
    concurrence_sweep,
    steady_state_closed_form,
    wm_full_generator,
    wm_subspace_generator,
)
from .generators import (
    ConstraintCheck,
    HamiltonianParams,
    PureDephasing,
    assemble_liouvillian,
    build_hamiltonian,
    check_dephasing_constraints,
    hamiltonian_superop,
    lindblad_dissipator_superop,
    phenomenological_superop,
    pure_dephasing_from_amplitudes,
)
from .quantum import (
    bell_state,
    bloch_from_density,
    concurrence,
    concurrence_2x2_embedded,
    density_from_bloch,
    density_from_pure,
    devectorize,
    embed_23,
    purity,
    restrict_23,
    validate_density,
    vectorize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "EntdynError",
    "DimensionMismatchError",
    "NotHermitianError",
    "NotPSDError",
    "NoConvergenceError",
    "SingularMatrixError",
    "InvalidStateError",
    "OutsideBlochBallError",
    "LeakyStateError",
    "NonUniqueSteadyStateError",
    "RequiresZeroYError",
    "StepUnderflowError",
    "NonFiniteError",
    # quantum
    "bell_state",
    "density_from_pure",
    "validate_density",
    "vectorize",
    "devectorize",
    "bloch_from_density",
    "density_from_bloch",
    "restrict_23",
    "embed_23",
    "purity",
    "concurrence",
    "concurrence_2x2_embedded",
    # generators
    "HamiltonianParams",
    "build_hamiltonian",
    "hamiltonian_superop",
    "lindblad_dissipator_superop",
    "phenomenological_superop",
    "PureDephasing",
    "pure_dephasing_from_amplitudes",
    "ConstraintCheck",
    "check_dephasing_constraints",
    "assemble_liouvillian",
    # evolution
    "TimeGrid",
    "Trajectory",
    "unitary_evolve",
    "propagate_expm",
    "propagate_ode",
    "steady_state",
    # feedback
    "FeedbackParams",
    "BlochSystem",
    "SteadyState",
    "SweepResult",
    "wm_full_generator",
    "wm_subspace_generator",
    "bloch_system",
    "bloch_steady_state",
    "bloch_eigenvalues",
    "steady_state_closed_form",
    "concurrence_sweep",
]
