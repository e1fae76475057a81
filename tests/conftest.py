"""Suite-wide settings: Hypothesis keeps its files inside the checkout.

Hypothesis writes its example database and its caches under the working
directory by default, so a run from outside the checkout would leave a
.hypothesis directory there. Both go to <checkout>/.hypothesis instead.
"""
from pathlib import Path

HYPOTHESIS_HOME = Path(__file__).resolve().parent.parent / ".hypothesis"

try:
    import hypothesis
except ImportError:
    pass
else:
    from hypothesis.configuration import set_hypothesis_home_dir
    from hypothesis.database import DirectoryBasedExampleDatabase

    set_hypothesis_home_dir(HYPOTHESIS_HOME)
    hypothesis.settings.register_profile(
        "checkout", database=DirectoryBasedExampleDatabase(str(HYPOTHESIS_HOME / "examples"))
    )
    hypothesis.settings.load_profile("checkout")
