"""Fresh-interpreter probes and the environment stamp.

Set-up time is what a CLI user pays once per process: start Python,
import the package and finish one minimal task of each scenario. Probes
run one at a time, each in a new interpreter that finds the package
through the absolute ``src`` path, so they work from any working directory.
"""
from __future__ import annotations

import ctypes
import glob
import hashlib
import importlib.metadata
import os
import platform
import statistics
import subprocess
import sys
import time

PROBE_TIMEOUT_S = 60

#: what the reference interpreter runs, see speed.REFERENCE_IMPORT_S
REFERENCE_CODE = "import numpy"


def _run(args: list[str], src: str, cwd: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc


def setup_times(code: str, src: str, cwd: str, runs: int) -> list[tuple[float, float]]:
    """(probe, reference) wall seconds for ``runs`` pairs of fresh interpreters.

    The probe executes ``code``; the reference, started just before it,
    only imports numpy and so tracks how fast the host starts interpreters
    and loads extension modules at that moment. One unrecorded probe runs
    first, so that byte-compiling the sources once is not counted.
    """
    _run(["-c", code], src, cwd)
    pairs = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _run(["-c", REFERENCE_CODE], src, cwd)
        t1 = time.perf_counter()
        _run(["-c", code], src, cwd)
        pairs.append((time.perf_counter() - t1, t1 - t0))
    return pairs


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds for numpy, scipy.linalg (with the scipy package) and entdyn's own modules.

    ``-X importtime`` prints one line per module after its imports, indented
    by nesting depth. A group's time is the cumulative time of its
    outermost members, so nested members are not counted twice.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(own), int(cumulative)))
    groups = {"numpy": {"numpy"}, "scipy_linalg": {"scipy", "scipy.linalg"}}
    totals = {"numpy": 0, "scipy_linalg": 0, "entdyn": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, own, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        above = {a for _, a in ancestors}
        for group, members in groups.items():
            if name in members and not (above & members):
                totals[group] += cumulative
        if name == "entdyn" or name.startswith("entdyn."):
            totals["entdyn"] += own
        ancestors.append((depth, name))
    return {k: v * 1e-6 for k, v in totals.items()}


def import_breakdown(module: str, src: str, cwd: str, runs: int) -> dict[str, float]:
    """Median per group over ``runs`` interpreters started with ``-X importtime``."""
    samples = [
        parse_importtime(_run(["-X", "importtime", "-c", f"import {module}"], src, cwd).stderr)
        for _ in range(runs)
    ]
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _openblas(libdir: str) -> dict:
    """Runtime OpenBLAS configuration and thread count of a wheel's bundled library."""
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                return {"config": get_config().decode(), "threads": int(get_threads())}
    return {"config": None, "threads": None}


def _git_commit(root: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def source_digest(src: str) -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "entdyn", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, src: str, seed: int) -> dict:
    """Versions, processor count, BLAS threads, seed and code identity of this run."""
    import numpy

    stamp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
    }
    numpy_blas = _openblas(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs"))
    stamp["openblas_numpy"] = numpy_blas["config"]
    stamp["blas_threads_numpy"] = numpy_blas["threads"]
    if "scipy.linalg" in sys.modules:
        scipy_dir = os.path.dirname(sys.modules["scipy"].__file__)
        scipy_blas = _openblas(os.path.join(scipy_dir, os.pardir, "scipy.libs"))
        stamp["openblas_scipy"] = scipy_blas["config"]
        stamp["blas_threads_scipy"] = scipy_blas["threads"]
    return stamp
