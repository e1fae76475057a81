"""Two-qubit entanglement dynamics under dissipation and measurement feedback.

The package models a pair of exchange-coupled qubits as a four-level open
system: coherent entanglement oscillation, collective dephasing that kills
the concurrence exponentially, and a measurement-plus-feedback loop that
holds the pair arbitrarily close to a Bell state in steady state.
"""
from . import errors, evolution, feedback, generators, quantum
from .errors import *  # noqa: F403
from .evolution import *  # noqa: F403
from .feedback import *  # noqa: F403
from .generators import *  # noqa: F403
from .quantum import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)),
    *quantum.__all__,
    *generators.__all__,
    *evolution.__all__,
    *feedback.__all__,
]
