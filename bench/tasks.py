"""Seeded task pools for the three benchmark workloads, and their execution.

A task is one closed-loop request: a CLI invocation run in-process through
``entdyn.cli.main``, or one library cross-check of a parameter set. The
pool for a seed is a fixed, deterministic list of tasks; a run executes it
pass after pass until its time budget is spent. Because every run executes
every task of its pool at least once, the set of failing inputs, and with it
the failure count, depends on the seed alone and not on how many tasks fit
into the run.

Tasks come in fixed rounds whose order is shuffled by the seed. The round
composition is fixed so that every run sees the same mix of cheap and
expensive tasks, which keeps the percentiles inside one cluster of
latencies instead of on the edge between two.
"""
from __future__ import annotations

import contextlib
import io
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("trajectory", "grid", "crosscheck")

#: tail percentile reported as task_tail_ms. Each is the highest percentile
#: that keeps at least ten tasks beyond it in a run of the default length.
TAIL_PERCENTILE = {"trajectory": 75, "grid": 90, "crosscheck": 90}

#: speed.py kernel each workload's task times are scaled by: the one whose
#: time tracks the workload's own hot code through a host's slow spells
SPEED_KERNEL = {"trajectory": "numpy", "grid": "interpreter", "crosscheck": "numpy"}

#: full-size and tiny (self-test) problem sizes, and the rounds in a pool.
#: A full trajectory or crosscheck pool takes about 11 s on the reference
#: host and a grid pool about 25 s, so a run of run_seconds executes each
#: at least once; grid's larger pool gives its median more distinct inputs.
SIZES = {
    "full": {"steps": 2000, "points": 401, "rounds": {"trajectory": 3, "grid": 16, "crosscheck": 160}},
    "tiny": {"steps": 20, "points": 9, "rounds": {"trajectory": 1, "grid": 1, "crosscheck": 1}},
}


@dataclass(frozen=True)
class Task:
    """One generated request with everything the oracle needs to judge it."""

    kind: str
    argv: tuple = ()
    params: dict = field(default_factory=dict)
    expect_rc: int = 0
    items: int = 0


@dataclass
class Outcome:
    """What a task returned: exit code and captured stderr, or library values."""

    rc: int | None = None
    stderr: str = ""
    values: dict | None = None
    exception: str | None = None
    #: function names on the traceback of a library error, innermost last
    raised_in: tuple = ()


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _signed_log_uniform(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * _log_uniform(rng, lo, hi))


def _flag(name: str, value) -> list[str]:
    return [f"--{name}", repr(float(value)) if isinstance(value, float) else str(value)]


def _cli(kind: str, params: dict, expect_rc: int = 0, items: int = 0, extra=()) -> Task:
    argv = [kind]
    for name, value in params.items():
        if name == "y" and isinstance(value, tuple):
            for y in value:
                argv += _flag("y", y)
        else:
            argv += _flag(name.replace("_", "-"), value)
    argv += list(extra)
    return Task(kind, tuple(argv), params, expect_rc, items)


def _trajectory_round(rng, size: dict) -> list[Task]:
    # Two fig-nogo tasks per six put the p75 tail a few tasks inside the
    # slowest cluster rather than on its edge.
    steps = size["steps"]
    rows = steps + 1
    tasks = []
    for _ in range(2):
        params = {
            "m": _log_uniform(rng, 0.1, 100.0),
            "f": _log_uniform(rng, 0.1, 100.0),
            "gamma": _log_uniform(rng, 0.1, 100.0),
            "mu": float(rng.uniform(-5.0, 5.0)),
            "y": float(rng.uniform(-5.0, 5.0)),
            "t_max": 10.0,
            "steps": steps,
        }
        tasks.append(_cli("evolve", params, items=rows))
    for _ in range(2):
        ys = tuple(_signed_log_uniform(rng, 0.1, 10.0) for _ in range(3))
        params = {"gamma": _log_uniform(rng, 0.1, 2.0), "y": ys, "t_max": 20.0, "steps": steps}
        tasks.append(_cli("fig-nogo", params, items=3 * rows))
    params = {
        "a": float(rng.uniform(-5.0, 5.0)),
        "y": _signed_log_uniform(rng, 0.1, 5.0),
        "sign": int(rng.choice((-1, 1))),
        "t_max": float(np.pi),
        "steps": steps,
    }
    tasks.append(_cli("fig1", params, items=rows))
    tasks.append(_cli("fig2", {"gamma": _log_uniform(rng, 0.1, 10.0), "t_max": 5.0, "steps": steps}, items=rows))
    return tasks


def _steady_params(rng, y_zero: bool) -> dict:
    return {
        "m": _log_uniform(rng, 0.1, 100.0),
        "f": _log_uniform(rng, 0.1, 100.0),
        "gamma": _log_uniform(rng, 0.1, 100.0),
        "mu": float(rng.uniform(-5.0, 5.0)),
        "y": 0.0 if y_zero else float(rng.uniform(-5.0, 5.0)),
    }


#: keys each grid scenario rejects, for the out-of-scenario rejection task
_FOREIGN_KEYS = (("fig4", "mu"), ("sweep", "y"), ("steady", "points"), ("fig4", "steps"))


def _grid_round(rng, size: dict) -> list[Task]:
    points = size["points"]
    rows = points * points
    sweep = {
        "gamma": _log_uniform(rng, 0.01, 10.0),
        "mu": float(rng.uniform(-5.0, 5.0)),
        "m_max": _log_uniform(rng, 1.0, 1000.0),
        "f_max": _log_uniform(rng, 1.0, 1000.0),
        "points": points,
    }
    fig4 = {
        "gamma": _log_uniform(rng, 0.01, 10.0),
        "m_max": _log_uniform(rng, 1.0, 1000.0),
        "f_max": _log_uniform(rng, 1.0, 1000.0),
        "points": points,
    }
    scenario, key = _FOREIGN_KEYS[int(rng.integers(len(_FOREIGN_KEYS)))]
    # Three successful steady tasks per eight put the median inside their
    # cluster; two grid tasks per eight put p90 inside the slower of them.
    tasks = [
        _cli("sweep", sweep, items=rows),
        _cli("fig4", fig4, items=rows),
        *(_cli("steady", _steady_params(rng, y_zero), items=1) for y_zero in (True, False, True)),
        _cli("fig4", {"gamma": 0.0, "points": points}, expect_rc=1),
        _cli(scenario, {}, expect_rc=1, extra=_flag(key, 3)),
        _cli(
            "steady",
            {"m": 0.0, "f": 0.0, "gamma": 0.0, "mu": float(rng.uniform(-5.0, 5.0))},
            expect_rc=2,
        ),
    ]
    return tasks


def _crosscheck_round(rng, size: dict) -> list[Task]:
    tasks = []
    for y_zero in (True, False):
        params = {
            "m": _log_uniform(rng, 0.1, 100.0),
            "f": _log_uniform(rng, 0.1, 100.0),
            "gamma": _log_uniform(rng, 0.1, 100.0),
            "mu": float(rng.uniform(-5.0, 5.0)),
            "y": 0.0 if y_zero else float(rng.uniform(-5.0, 5.0)),
        }
        tasks.append(Task("crosscheck", (), params, 0, 1))
    return tasks


_ROUNDS = {"trajectory": _trajectory_round, "grid": _grid_round, "crosscheck": _crosscheck_round}


def pool(workload: str, seed: int, size: str = "full") -> list[Task]:
    """The workload's tasks for this seed: whole rounds, each in a seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    dims = SIZES[size]
    tasks = []
    for _ in range(dims["rounds"][workload]):
        batch = _ROUNDS[workload](rng, dims)
        tasks += [batch[k] for k in rng.permutation(len(batch))]
    return tasks


def warmup_tasks(workload: str) -> list[Task]:
    """One small task of each kind the workload runs, to finish lazy set-up before timing."""
    return _ROUNDS[workload](np.random.default_rng(0), {"steps": 10, "points": 5})


def setup_probe_code(workload: str, out: str) -> str:
    """Source for a fresh interpreter: import, then one minimal task of each scenario used.

    Every workload imports ``entdyn.cli``, the cost a CLI user pays, before
    its first task. Output files go to ``out``.
    """
    if workload == "crosscheck":
        return (
            "import entdyn.cli\n"
            "import entdyn as ed\n"
            "p = ed.FeedbackParams(m=1.0, f=1.0, mu=0.5, gamma=1.0)\n"
            "g = ed.wm_full_generator(p)\n"
            "r0 = ed.vectorize(ed.density_from_pure(ed.bell_state()))\n"
            "grid = ed.TimeGrid(0.0, 2.0, 3)\n"
            "ed.propagate_expm(g, r0, grid); ed.propagate_ode(g, r0, grid)\n"
            "ed.steady_state(ed.wm_subspace_generator(p))\n"
            "ed.bloch_steady_state(ed.bloch_system(p)); ed.steady_state_closed_form(p)\n"
        )
    if workload == "trajectory":
        runs = [[kind, "--steps", "10"] for kind in ("evolve", "fig-nogo", "fig1", "fig2")]
    else:
        runs = [["sweep", "--points", "5"], ["fig4", "--points", "5"], ["steady"]]
    runs = [argv + ["--out", out] for argv in runs]
    return (
        "import sys\n"
        "from entdyn.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(1)\n"
    )


class Executor:
    """Runs tasks against the entdyn package, looking every entry point up at call time.

    Late lookup matters: the tracer replaces module attributes, and a
    reference bound here at import would bypass it.
    """

    def __init__(self, entdyn, workdir: str):
        self.ed = entdyn
        self.csv_path = os.path.join(workdir, "task.csv")

    def run(self, task: Task) -> Outcome:
        if task.kind == "crosscheck":
            return self._crosscheck(task)
        return self._cli(task)

    def _cli(self, task: Task) -> Outcome:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv_path)
        err = io.StringIO()
        out = Outcome()
        with contextlib.redirect_stderr(err):
            try:
                out.rc = self.ed.cli.main(list(task.argv) + ["--out", self.csv_path])
            except Exception:
                out.exception = traceback.format_exc()
        out.stderr = err.getvalue()
        return out

    def _crosscheck(self, task: Task) -> Outcome:
        ed = self.ed
        p = task.params
        out = Outcome()
        try:
            params = ed.FeedbackParams(m=p["m"], f=p["f"], mu=p["mu"], gamma=p["gamma"], y=p["y"])
            gen = ed.wm_full_generator(params)
            r0 = ed.vectorize(ed.density_from_pure(ed.bell_state()))
            grid = ed.TimeGrid(0.0, 2.0, 3)
            by_expm = ed.propagate_expm(gen, r0, grid)
            by_ode = ed.propagate_ode(gen, r0, grid)
            rho = ed.steady_state(ed.wm_subspace_generator(params))
            values = {
                "expm_states": by_expm.states,
                "ode_states": by_ode.states,
                "steady_bloch": ed.bloch_from_density(rho),
                "bloch_fixed_point": ed.bloch_steady_state(ed.bloch_system(params)),
                "steady_concurrence": ed.concurrence_2x2_embedded(rho),
                "steady_purity": ed.purity(rho),
            }
            if p["y"] == 0:
                closed = ed.steady_state_closed_form(params)
                values["closed_concurrence"] = closed.concurrence
                values["closed_purity"] = closed.purity
            out.values = values
        except ed.EntdynError as exc:
            out.exception = f"{type(exc).__name__}: {exc}"
            out.raised_in = tuple(frame.name for frame in traceback.extract_tb(exc.__traceback__))
        except Exception:
            out.exception = traceback.format_exc()
        return out
