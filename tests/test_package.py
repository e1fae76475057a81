import contextlib
import io
import re
from pathlib import Path

import entdyn

README = Path(__file__).resolve().parents[1] / "README.md"

# the public names of the package before __all__ was derived from its submodules
NAMES_KEPT = """
__version__ EntdynError DimensionMismatchError NotHermitianError NotPSDError
NoConvergenceError SingularMatrixError InvalidStateError OutsideBlochBallError
LeakyStateError NonUniqueSteadyStateError RequiresZeroYError StepUnderflowError
NonFiniteError bell_state density_from_pure validate_density vectorize devectorize
bloch_from_density density_from_bloch restrict_23 embed_23 purity concurrence
concurrence_2x2_embedded HamiltonianParams build_hamiltonian hamiltonian_superop
lindblad_dissipator_superop phenomenological_superop PureDephasing
pure_dephasing_from_amplitudes ConstraintCheck check_dephasing_constraints
assemble_liouvillian TimeGrid Trajectory unitary_evolve propagate_expm propagate_ode
steady_state FeedbackParams BlochSystem SteadyState SweepResult wm_full_generator
wm_subspace_generator bloch_system bloch_steady_state bloch_eigenvalues
steady_state_closed_form concurrence_sweep
""".split()


def test_every_exported_name_resolves():
    for name in entdyn.__all__:
        assert hasattr(entdyn, name), name


def test_no_duplicate_exports():
    assert len(entdyn.__all__) == len(set(entdyn.__all__))


def test_earlier_exports_kept():
    assert len(NAMES_KEPT) == 53
    assert set(NAMES_KEPT) <= set(entdyn.__all__)


def test_readme_quick_start_runs():
    # the README's python block, found from this file, so any working directory will do
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    closed_form, propagated = map(float, out.getvalue().split())
    assert abs(closed_form - propagated) <= 1e-12
