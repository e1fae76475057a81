"""Exception types raised by the library.

Every numerical failure raises a subclass of EntdynError so callers (and the
command-line layer) can separate bad inputs from genuine numerical trouble.
"""


class EntdynError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(EntdynError):
    """Operands have incompatible or unexpected shapes."""


class NotHermitianError(EntdynError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSDError(EntdynError):
    """A matrix required to be positive semidefinite has a negative eigenvalue beyond tolerance."""


class NoConvergenceError(EntdynError):
    """An iterative kernel exhausted its budget without converging."""


class SingularMatrixError(EntdynError):
    """A linear system is singular or too ill-conditioned to solve reliably."""


class InvalidStateError(EntdynError):
    """A quantum state fails its normalization invariants."""


class OutsideBlochBallError(EntdynError):
    """A Bloch vector has norm greater than one beyond tolerance."""


class LeakyStateError(EntdynError):
    """A state carries population outside the subspace being extracted."""


class NonUniqueSteadyStateError(EntdynError):
    """The generator does not determine a unique normalizable steady state."""


class RequiresZeroYError(EntdynError):
    """A closed-form result is only valid without open-loop driving (y = 0)."""


class StepUnderflowError(EntdynError):
    """The adaptive integrator needs a step below the representable floor."""


class NonFiniteError(EntdynError):
    """A matrix operand, a scaled generator or a propagated state holds inf or NaN, or a step exponential is meaningless.

    Raised for non-finite input to the matrix checks in linalg, including an
    operator that overflowed while a generator was assembled, for a
    propagation that overflowed, and for a step exponential that misses
    the trace by more than the 1e-8 trace gate, as when the exponential
    of a stiff step has lost its digits to round-off.
    """
