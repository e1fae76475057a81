#!/usr/bin/env python3
"""entdyn benchmark: seeded workloads through the public API, checked against references.

    python3 bench/run.py --workload {trajectory,grid,crosscheck} --seed N --seconds S --trace {0,1}

Run from anywhere; the package is loaded from the ``src`` directory next to
this one. One process drives a closed loop with one client: each task
starts when the previous one returns. The seed's task pool runs pass after
pass until the summed task time, scaled to reference machine speed (see
speed.py), reaches ``--seconds``, and always for at least one whole pass;
checking outputs is not timed. ``attempted`` and ``failed`` count the
distinct tasks of the pool, so they depend on the seed alone.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every task runs twice, untraced then traced, and the
last line carries the per-layer metrics from the traced runs and the
tracing overhead. Each run also writes its full result, with the
environment stamp, to ``.bench_out/`` in the repository root, and a traced
run writes its spans there.
"""
import os

if __name__ == "__main__":
    # No BLAS worker threads, so a run has one busy thread and the same thread
    # count on every machine; set before numpy loads. One CPU for the whole
    # run, so the speed sampler (speed.py) time-slices with the task thread
    # instead of running beside it, and the probes inherit the same CPU.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import probe  # noqa: E402
import tasks  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from speed import REFERENCE_IMPORT_S, SpeedSampler  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh interpreters timed for setup_s, and started with -X importtime
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3

#: a run also stops after this multiple of --seconds of wall time, which
#: bounds its length when the host is much slower than the reference
WALL_LIMIT = 1.25

END_TO_END = {
    "setup_s": "s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; see README.md for the end-to-end metric each should move
PER_LAYER = {
    "linalg.expm.calls": "count",
    "linalg.expm.calls_per_item": "count",
    "linalg.expm.self_ms_per_task": "ms",
    "linalg.hermitian_eig.calls_per_item": "count",
    "quantum.concurrence.calls_per_item": "count",
    "quantum.concurrence.self_ms_per_task": "ms",
    "quantum.validate_density.self_ms_per_task": "ms",
    "evolution.propagate_expm.self_ms_per_task": "ms",
    "evolution.propagate_ode.self_ms_per_task": "ms",
    "evolution.steady_state.self_ms_per_task": "ms",
    "feedback.wm_full_generator.us_per_call": "us",
    "cli.parse_config.self_ms_per_task": "ms",
    **{f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in
       (("calls", "count"), ("self_ms_per_task", "ms"), ("errors", "count"))},
    "setup.numpy_s": "s",
    "setup.scipy_linalg_s": "s",
    "setup.entdyn_s": "s",
    "crosscheck.route_gap_max": "1",
    "crosscheck.steady_gap_max": "1",
    "trace.overhead_ratio": "ratio",
    "trace.tasks": "count",
}


def load_package():
    """Import entdyn from this checkout's sources, never from an installed copy."""
    if not (SRC / "entdyn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no entdyn sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import entdyn
    import entdyn.cli  # noqa: F401

    if Path(entdyn.__file__).resolve().parent != SRC / "entdyn":
        raise SystemExit(f"bench: imported entdyn from {entdyn.__file__}, not {SRC}")
    return entdyn


@dataclass
class Record:
    """One executed task: when it ran, whether it was traced, and the oracle's verdict."""

    task: tasks.Task
    #: position of the task in the pool; repeated passes share it
    index: int
    start: float
    end: float
    traced: bool
    verdict: oracle.Verdict

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def items(self) -> int:
        return self.task.items if self.verdict.ok else 0


def judge(task, outcome, executor) -> oracle.Verdict:
    if task.kind == "crosscheck":
        return oracle.check_crosscheck(task, outcome)
    return oracle.check_cli(task, outcome, executor.csv_path)


def execute(executor, task, tracer=None, task_id=-1):
    if tracer is not None:
        tracer.task_id = task_id
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        outcome = executor.run(task)
        t1 = time.perf_counter()
    return t0, t1, outcome


def run_tasks(workload, seed, seconds, executor, speed, tracer=None, size="full") -> list[Record]:
    """Closed loop over the seeded pool, pass after pass, until the task
    time, scaled to reference speed, reaches ``seconds``; a run then holds
    about the same number of tasks however busy the host is, up to the
    WALL_LIMIT cap. The first pass always runs to its end, so every task of
    the pool is judged at least once.

    With a tracer, each task runs untraced and then traced, so the overhead
    compares identical work.
    """
    for task in tasks.warmup_tasks(workload):
        executor.run(task)
    records: list[Record] = []
    spent = 0.0
    deadline = time.perf_counter() + WALL_LIMIT * seconds
    pool = tasks.pool(workload, seed, size)
    for task_id, index in enumerate(itertools.cycle(range(len(pool)))):
        if task_id >= len(pool) and (spent >= seconds or time.perf_counter() > deadline):
            break
        task = pool[index]
        for traced in (False, True) if tracer is not None else (False,):
            t0, t1, outcome = execute(executor, task, tracer if traced else None, task_id)
            spent += (t1 - t0) * speed.scale(t0, t1)
            records.append(Record(task, index, t0, t1, traced, judge(task, outcome, executor)))
    return records


def failures(records) -> tuple[list[Record], list[str], bool]:
    """The distinct pool tasks that failed, a reason for each, and whether any was wrong.

    A task fails when any of its executions failed. Executions of one task
    that disagree on whether it passed make it wrong: the computation is
    deterministic, so its verdict must be too.
    """
    by_index: dict[int, list[Record]] = {}
    for r in records:
        by_index.setdefault(r.index, []).append(r)
    bad, reasons, wrong = [], [], False
    for index in sorted(by_index):
        runs = by_index[index]
        failed = [r for r in runs if not r.verdict.ok]
        if not failed:
            continue
        first = failed[0]
        reason = first.verdict.reason
        if len(failed) < len(runs):
            reason = f"{len(failed)} of {len(runs)} executions failed: {reason}"
        wrong = wrong or len(failed) < len(runs) or any(r.verdict.wrong for r in failed)
        bad.append(first)
        reasons.append(f"{first.task.kind} {' '.join(first.task.argv) or first.task.params}: {reason}")
    return bad, reasons, wrong


def end_to_end(workload, records, setup, speed) -> dict:
    """End-to-end metrics, with times scaled to reference host speed (see speed.py)."""
    raw = np.array([r.latency for r in records])
    lat = raw * np.array([speed.scale(r.start, r.end) for r in records]) * 1e3
    setup_scaled = [probe_s / ref_s * REFERENCE_IMPORT_S for probe_s, ref_s in setup]
    tail = tasks.TAIL_PERCENTILE[workload]
    items = sum(r.items for r in records)
    busy = float(lat.sum()) * 1e-3
    values = {
        "setup_s": statistics.median(setup_scaled),
        "task_p50_ms": float(np.percentile(lat, 50)),
        "task_tail_ms": float(np.percentile(lat, tail)),
        "items_per_s": items / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; raw {statistics.median(s for s, _ in setup):.4g} s",
        "task_p50_ms": f"n={lat.size}; raw {np.percentile(raw, 50) * 1e3:.4g} ms",
        "task_tail_ms": (
            f"p{tail}, n={lat.size}, {int(np.sum(lat > values['task_tail_ms']))} beyond; "
            f"raw {np.percentile(raw, tail) * 1e3:.4g} ms"
        ),
        "items_per_s": f"{items} items in {busy:.3f} s of scaled task time; raw {items / raw.sum():.6g} 1/s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return {k: {"value": v, "unit": END_TO_END[k], "note": notes[k]} for k, v in values.items()}


def latency_by_kind(records) -> dict:
    """Task count and median latency in ms per task kind, for reading a result."""
    kinds = {}
    for r in records:
        kinds.setdefault(f"{r.task.kind} rc={r.task.expect_rc}", []).append(r.latency * 1e3)
    return {k: {"n": len(v), "median_ms": statistics.median(v)} for k, v in sorted(kinds.items())}


def per_layer(records, tracer, imports) -> dict:
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    fs = tracer.function_stats()
    n_tasks = max(len(traced), 1)
    items = max(sum(r.items for r in traced), 1)

    def fn(name, key):
        return fs.get(name, {}).get(key, 0)

    values = {}
    for metric in PER_LAYER:
        prefix, _, stat = metric.rpartition(".")
        if stat == "calls_per_item":
            values[metric] = fn(prefix, "calls") / items
        elif stat == "us_per_call":
            values[metric] = fn(prefix, "total_s") * 1e6 / max(fn(prefix, "calls"), 1)
        elif prefix in LAYERS:
            members = [s for name, s in fs.items() if name.startswith(prefix + ".")]
            if stat == "self_ms_per_task":
                values[metric] = sum(s["self_s"] for s in members) * 1e3 / n_tasks
            else:
                values[metric] = sum(s[stat] for s in members)
        elif stat == "self_ms_per_task":
            values[metric] = fn(prefix, "self_s") * 1e3 / n_tasks
        elif stat == "calls":
            values[metric] = fn(prefix, "calls")
    gaps = np.array([r.verdict.gaps for r in records if r.verdict.gaps] or [(0.0, 0.0)])
    values.update({
        "setup.numpy_s": imports["numpy"],
        "setup.scipy_linalg_s": imports["scipy_linalg"],
        "setup.entdyn_s": imports["entdyn"],
        "crosscheck.route_gap_max": float(gaps[:, 0].max()),
        "crosscheck.steady_gap_max": float(gaps[:, 1].max()),
        "trace.overhead_ratio": sum(r.latency for r in plain) / sum(r.latency for r in traced),
        "trace.tasks": len(traced),
    })
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def stress_check(workload, fs) -> tuple[bool, str]:
    """Whether the traced run shows the workload loading the layer it was chosen for."""
    layer_self = {layer: sum(s["self_s"] for n, s in fs.items() if n.startswith(layer + ".")) for layer in LAYERS}
    total = sum(layer_self.values()) or 1.0
    share = {layer: v / total for layer, v in layer_self.items()}
    if workload == "trajectory":
        core = share["linalg"] + share["quantum"] + share["evolution"]
        return core > 0.5 and share["cli"] < 0.15, (
            f"linalg+quantum+evolution {core:.1%} of entdyn self time, cli {share['cli']:.1%}"
        )
    if workload == "grid":
        top = max(share, key=share.get)
        expm_calls = fs["linalg.expm"]["calls"]
        return top == "cli" and expm_calls == 0, (
            f"largest layer {top} ({share[top]:.1%}), linalg.expm calls {expm_calls}"
        )
    top = max(fs, key=lambda n: fs[n]["self_s"])
    return top == "evolution.propagate_ode", f"largest function self time: {top}"


def measure(entdyn, workload, seed, seconds, trace, workdir, size="full", probes=None) -> dict:
    """Run one workload and return metrics, counts, failures and the environment stamp.

    ``size`` and ``probes`` (fresh interpreters per probe kind) let the
    self-tests run a workload small; the benchmark uses the defaults.
    """
    executor = tasks.Executor(entdyn, str(workdir))
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        imports = probe.import_breakdown("entdyn.cli", str(SRC), str(workdir), probes or IMPORTTIME_RUNS)
        tracer = Tracer()
        with SpeedSampler(tasks.SPEED_KERNEL[workload]) as speed:
            records = run_tasks(workload, seed, seconds, executor, speed, tracer, size)
        result["metrics"] = per_layer(records, tracer, imports)
        result["stress_check"] = stress_check(workload, tracer.function_stats())
        OUT.mkdir(exist_ok=True)
        np.savez(OUT / f"spans-{workload}.npz", names=np.array(tracer.names), **tracer.columns())
    else:
        code = tasks.setup_probe_code(workload, str(workdir / "probe.csv"))
        setup = probe.setup_times(code, str(SRC), str(workdir), probes or SETUP_RUNS)
        with SpeedSampler(tasks.SPEED_KERNEL[workload]) as speed:
            records = run_tasks(workload, seed, seconds, executor, speed, None, size)
        result["metrics"] = end_to_end(workload, records, setup, speed)
    bad, reasons, wrong = failures(records)
    result.update({
        "attempted": len({r.index for r in records}),
        "failed": len(bad),
        "executions": len(records),
        "correct": not wrong,
        "latency_by_kind": latency_by_kind([r for r in records if not r.traced]),
        "failures": reasons,
        "speed": speed.summary(),
        "env": probe.environment(str(ROOT), str(SRC), seed),
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    entdyn = load_package()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(entdyn, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"entdyn benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"tasks: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.4g}; "
          f"{result['executions']} executions")
    for reason in result["failures"][:5]:
        print(f"  failed: {reason}")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']:6s} {m.get('note', '')}")
    if "stress_check" in result:
        ok, detail = result["stress_check"]
        print(f"stress check ({args.workload}): {'holds' if ok else 'DOES NOT HOLD'}: {detail}")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    summary = {
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
