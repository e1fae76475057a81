"""Self-tests of the benchmark: tiny workloads, the oracle, seeding and the tracer.

    python3 -m pytest bench/test_bench.py
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
import probe
import run
import tasks
from spans import LAYERS, Tracer, public_functions

entdyn = run.load_package()


def _known_defect(failure: str) -> bool:
    # Dormand-Prince states can drift 1e-10 off Hermitian, which passes the
    # concurrence gate but not hermitian_eig's default inside sqrt_psd.
    return failure.startswith("crosscheck ") and "known defect: NotHermitianError" in failure


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_tiny_workload_has_no_failures(workload, tmp_path):
    result = run.measure(entdyn, workload, 3, 0.3, False, tmp_path, size="tiny", probes=1)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert [f for f in result["failures"] if not _known_defect(f)] == []
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload, tmp_path):
    result = run.measure(entdyn, workload, 3, 0.3, True, tmp_path, size="tiny", probes=1)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["trace.tasks"]["value"] >= 1
    if workload == "grid":
        assert result["metrics"]["linalg.expm.calls"]["value"] == 0
    else:
        assert result["metrics"]["linalg.expm.calls"]["value"] > 0


def _run_first(executor, kind, expect_rc=0):
    task = next(t for t in tasks.pool("grid", 5, "tiny") if t.kind == kind and t.expect_rc == expect_rc)
    return task, executor.run(task)


def test_oracle_accepts_then_flags_a_perturbed_csv_value(tmp_path):
    executor = tasks.Executor(entdyn, str(tmp_path))
    task, outcome = _run_first(executor, "sweep")
    assert oracle.check_cli(task, outcome, executor.csv_path).ok
    path = Path(executor.csv_path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    fields[2] = f"{float(fields[2]) * (1 + 1e-6):.9g}"
    lines[5] = ",".join(fields) + "\n"
    path.write_text("".join(lines))
    verdict = oracle.check_cli(task, outcome, executor.csv_path)
    assert not verdict.ok and verdict.wrong and "concurrence" in verdict.reason


def test_oracle_flags_missing_rows_and_non_finite_values(tmp_path):
    executor = tasks.Executor(entdyn, str(tmp_path))
    task, outcome = _run_first(executor, "fig4")
    path = Path(executor.csv_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert oracle.check_cli(task, outcome, executor.csv_path).wrong
    lines[3] = lines[3].replace(lines[3].split(",")[2], "nan", 1)
    path.write_text("".join(lines))
    assert oracle.check_cli(task, outcome, executor.csv_path).wrong


def test_oracle_flags_wrong_exit_codes_and_tracebacks(tmp_path):
    executor = tasks.Executor(entdyn, str(tmp_path))
    task, outcome = _run_first(executor, "fig4", expect_rc=1)
    assert outcome.rc == 1 and oracle.check_cli(task, outcome, executor.csv_path).ok
    accepted = replace(outcome, rc=0)
    assert oracle.check_cli(task, accepted, executor.csv_path).wrong
    refused = replace(outcome, rc=2, stderr="entdyn: numerical failure: x\n")
    assert oracle.check_cli(replace(task, expect_rc=0), refused, executor.csv_path).wrong
    crashed = replace(outcome, rc=None, exception="Traceback ...\nValueError: boom\n")
    assert oracle.check_cli(task, crashed, executor.csv_path).wrong


def test_oracle_exempts_only_the_known_crosscheck_defect():
    task = tasks.pool("crosscheck", 1, "tiny")[0]
    defect = tasks.Outcome(
        exception="NotHermitianError: drift 2e-10", raised_in=("concurrence", "sqrt_psd", "hermitian_eig")
    )
    verdict = oracle.check_crosscheck(task, defect)
    assert not verdict.ok and not verdict.wrong
    for other in (
        replace(defect, raised_in=("steady_state", "hermitian_eig")),
        replace(defect, exception="NotPSDError: eigenvalue -1e-6", raised_in=("concurrence", "sqrt_psd")),
        replace(defect, exception="StepUnderflowError: step 1e-300"),
    ):
        assert oracle.check_crosscheck(task, other).wrong


def test_crosscheck_records_where_a_library_error_was_raised(tmp_path):
    executor = tasks.Executor(entdyn, str(tmp_path))
    task = tasks.pool("crosscheck", 1, "tiny")[0]
    bad = replace(task, params=dict(task.params, m=0.0, f=0.0, gamma=0.0))
    outcome = executor.run(bad)
    assert outcome.exception is not None and outcome.raised_in
    assert oracle.check_crosscheck(bad, outcome).wrong


def test_failures_count_each_pool_task_once():
    pool = tasks.pool("crosscheck", 1, "tiny")
    defect = oracle.Verdict(False, False, "known defect: NotHermitianError")

    def record(index, verdict):
        return run.Record(pool[index], index, 0.0, 1.0, False, verdict)

    passes = [record(0, oracle.OK), record(1, defect)] * 3
    bad, reasons, wrong = run.failures(passes)
    assert [r.index for r in bad] == [1] and len(reasons) == 1 and not wrong
    _, reasons, wrong = run.failures(passes + [record(0, defect)])
    assert wrong and "1 of 4 executions failed" in reasons[0]


def test_same_seed_gives_the_same_tasks():
    for workload in tasks.WORKLOADS:
        assert tasks.pool(workload, 7) == tasks.pool(workload, 7)
        assert tasks.pool(workload, 7) != tasks.pool(workload, 8)


def test_tracer_patches_every_binding_and_restores_them():
    originals = public_functions()
    assert {name.split(".")[0] for name, _ in originals.values()} == set(LAYERS)
    modules = [m for n, m in sys.modules.items() if n == "entdyn" or n.startswith("entdyn.")]

    def bound_originals():
        return sum(id(v) in originals for m in modules for v in vars(m).values())

    before = bound_originals()
    tracer = Tracer()
    with tracer:
        assert bound_originals() == 0
        assert entdyn.evolution.expm is entdyn.linalg.expm
    assert bound_originals() == before


def test_spans_give_calls_and_self_time(tmp_path):
    executor = tasks.Executor(entdyn, str(tmp_path))
    task = next(t for t in tasks.pool("trajectory", 1, "tiny") if t.kind == "evolve")
    tracer = Tracer()
    with tracer:
        assert oracle.check_cli(task, executor.run(task), executor.csv_path).ok
    stats = tracer.function_stats()
    samples = task.params["steps"] + 1
    assert stats["linalg.expm"]["calls"] == samples
    assert stats["quantum.concurrence"]["calls"] == samples
    assert stats["cli.main"]["calls"] == 1
    assert all(s["self_s"] >= 0 and s["self_s"] <= s["total_s"] + 1e-12 for s in stats.values())
    cols = tracer.columns()
    assert cols["parent"][0] == -1 and np.all(cols["parent"][1:] >= 0)


def test_importtime_groups_count_outermost_members_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |         scipy",
        "import time:        20 |         50 |       scipy.linalg",
        "import time:        10 |        210 |     entdyn.linalg",
        "import time:         5 |        215 |   entdyn",
    ])
    assert probe.parse_importtime(text) == pytest.approx({"numpy": 150e-6, "scipy_linalg": 50e-6, "entdyn": 15e-6})


def test_benchmark_file_lists_the_metrics_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(tasks.WORKLOADS)
