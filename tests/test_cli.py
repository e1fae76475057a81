import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entdyn
from entdyn import cli
from entdyn.evolution import TimeGrid, unitary_evolve
from entdyn.generators import HamiltonianParams, build_hamiltonian
from helpers import read_csv, reference_csv


#: argv that the command line or the library refuses as invalid input (exit 1)
REJECTED = {
    "gamma-nan": "fig2 --gamma nan",
    "mu-nan": "sweep --mu nan",
    "second-y-inf": "fig-nogo --y 1 --y inf",
    "sign-two": "fig1 --sign 2",
    "t-max-inf": "fig1 --t-max inf",
    "m-max-inf": "fig4 --m-max inf",
    "c-nan": "evolve --c nan",
    "y-inf": "steady --y inf",
    "sweep-gamma-zero": "sweep --gamma 0",
    "negative-rate": "fig2 --gamma -1",
    "zero-steps": "fig1 --steps 0",
    "single-grid-point": "sweep --points 1",
    "grid-ceiling-below-floor": "fig4 --m-max 0.05",
    "multiple-couplings": "evolve --y 1 --y 2",
    "empty-y-list": "fig-nogo --config {dir}/empty-y.conf",
    # 7.1 PiB lies beyond a 47-bit address space, so the allocation fails at
    # once on any host; a size that could really be allocated is never tried
    "steps-beyond-memory": "fig1 --steps 1000000000000000",
    "points-beyond-memory": "sweep --points 1000000000000000",
}

#: config files the REJECTED argv name, written into the test's directory
CONFIG_FILES = {"empty-y.conf": "y = ,\n"}


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out


class TestTrajectoryScenarios:
    def test_oscillation_rows(self, tmp_path):
        code, out = run(tmp_path, "fig1", "--t-max", "3.1416", "--steps", "200")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "concurrence"]
        assert len(rows) == 201
        quarter = rows[50]
        assert abs(quarter[0] - 0.7854) <= 1e-4
        assert abs(quarter[1] - 1.0) <= 1e-6
        for t, c in rows:
            assert abs(c - abs(np.sin(2 * t))) <= 1e-6

    def test_oscillation_sign_convention_irrelevant(self, tmp_path):
        _, plus = run(tmp_path, "fig1", "--steps", "40", name="plus.csv")
        _, minus = run(tmp_path, "fig1", "--steps", "40", "--sign", "-1", name="minus.csv")
        _, rows_plus = read_csv(plus)
        _, rows_minus = read_csv(minus)
        for a, b in zip(rows_plus, rows_minus):
            assert abs(a[1] - b[1]) <= 1e-9

    def test_decay_rows(self, tmp_path):
        code, out = run(tmp_path, "fig2", "--t-max", "5", "--steps", "100")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "concurrence"]
        assert len(rows) == 101
        assert abs(rows[20][0] - 1.0) <= 1e-12
        assert abs(rows[20][1] - 0.367879) <= 1e-6
        for t, c in rows:
            assert abs(c - np.exp(-t)) <= 1e-6

    def test_drive_only_decay(self, tmp_path):
        code, out = run(tmp_path, "fig-nogo")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["y", "t", "concurrence", "bloch_norm"]
        seen = sorted({row[0] for row in rows})
        assert seen == [0.5, 1.0, 5.0]
        for y in seen:
            final = [row for row in rows if row[0] == y][-1]
            assert final[1] == 20.0
            assert final[2] < 1e-6
            assert final[3] < 1e-6

    def test_drive_only_without_dephasing_notes_no_fixed_point(self, tmp_path, capsys):
        # at gamma = 0 the Bloch matrix is a pure rotation: no unique fixed point
        code, out = run(tmp_path, "fig-nogo", "--gamma", "0")
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 * 201
        assert np.all(np.isfinite(rows))
        err = capsys.readouterr().err.splitlines()
        note = "no unique Bloch fixed point (gamma = 0: pure rotation)"
        assert err[:3] == [f"fig-nogo y={y}: {note}" for y in ("0.5", "1", "5")]
        assert len(err) == 4

    @pytest.mark.parametrize(
        "argv, ys",
        [
            ((), ("0.5", "1", "5")),
            (("--y", "7e5", "--gamma", "1e-9"), ("700000",)),
            (("--y", "8.68e8", "--gamma", "1.16e-4", "--t-max", "1", "--steps", "2000"), ("8.68e+08",)),
        ],
    )
    def test_drive_only_notes_the_origin_without_a_solve(self, tmp_path, capsys, argv, ys):
        # with gamma > 0 and y != 0 the fixed point is the origin by the model,
        # even where the Bloch matrix is too ill-conditioned to solve
        code, _ = run(tmp_path, "fig-nogo", *argv)
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err[:-1] == [f"fig-nogo y={y}: |Bloch fixed point| = 0.000e+00" for y in ys]
        assert err[-1].startswith("fig-nogo: wrote ")

    def test_drive_only_rejects_zero_coupling(self, tmp_path):
        code, _ = run(tmp_path, "fig-nogo", "--y", "0")
        assert code == 1

    def test_non_finite_propagation_is_a_numerical_failure(self, tmp_path, capsys):
        code, out = run(tmp_path, "evolve", "--t-max", "1e300", "--steps", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("entdyn: numerical failure: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("steady", "--m", "1e308", "--f", "1e308"),
            ("evolve", "--m", "1e308", "--f", "1e308"),
            ("evolve", "--c", "1e308"),
            ("steady", "--mu", "1e308"),
            ("steady", "--gamma", "1e308"),
            ("evolve", "--mu", "1e308"),
            ("evolve", "--gamma", "1e308"),
            ("fig-nogo", "--gamma", "1e308"),
            ("fig-nogo", "--y", "1", "--y", "1e308"),
            ("steady", "--y", "1e308"),
            ("steady", "--f", "1e308", "--gamma", "1.05"),
        ],
    )
    def test_overflowing_generator_is_a_numerical_failure(self, tmp_path, capsys, argv):
        # a RuntimeWarning would reach stderr outside pytest; here it raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("entdyn: numerical failure: ")
        assert "Traceback" not in err

    def test_norm_drift_names_first_drifting_sample(self, tmp_path, capsys, monkeypatch):
        # a sample's trace is its norm squared, so the concurrence's 1e-8
        # trace gate stops a norm drift of 2e-8 at the first drifting sample
        finite = entdyn.evolution._require_finite

        def drifting(states, times):
            states[3] *= 1.0 + 2e-8
            states[5] *= 1.0 - 3e-8
            finite(states, times)

        monkeypatch.setattr(entdyn.evolution, "_require_finite", drifting)
        code, out = run(tmp_path, "fig1", "--steps", "10")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["entdyn: numerical failure: trace 1.000000040000 deviates from 1 beyond 1.0e-08"]
        assert not out.exists()

    def test_trace_drift_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        filled = entdyn.evolution._filled_by_doubling

        def drifting(*args):
            return filled(*args) * (1.0 + 1e-7)

        monkeypatch.setattr(entdyn.evolution, "_filled_by_doubling", drifting)
        code, out = run(tmp_path, "evolve", "--steps", "10")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("entdyn: numerical failure: trace 1.0000001")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, propagations",
        [
            (("evolve", "--steps", "10"), 1),
            (("fig2", "--steps", "10"), 1),
            (("fig-nogo",), 3),
            (("fig1", "--steps", "10"), 1),
        ],
    )
    def test_each_propagation_is_gated_once(self, tmp_path, monkeypatch, argv, propagations):
        split = entdyn.quantum._two_level_blocks
        calls = []

        def counting(stack):
            calls.append(len(stack))
            return split(stack)

        monkeypatch.setattr(entdyn.quantum, "_two_level_blocks", counting)
        code, _ = run(tmp_path, *argv)
        assert code == 0
        assert len(calls) == propagations

    def test_fast_oscillation_keeps_norm(self, tmp_path):
        code, _ = run(tmp_path, "fig1", "--y", "1e9")
        assert code == 0
        h = build_hamiltonian(HamiltonianParams(a=1.0, b=1.0, c=0.5e9))
        v0 = np.array([0, 1, 0, 0], dtype=complex)
        traj = unitary_evolve(h, v0, TimeGrid(0.0, np.pi, 201))
        assert np.max(np.abs(traj.observables["norm"] - 1.0)) <= 1e-12

    def test_stiff_feedback_keeps_trace(self, tmp_path):
        # without the trace projection, 200 steps of expm at rates 1e8 drift
        # 5.8e-8 in trace, past the 1e-8 trace gate of the concurrence
        code, out = run(tmp_path, "evolve", "--m", "1e8", "--f", "1e8", "--gamma", "1e-8")
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 201
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize(
        "argv",
        [("--y=-2.72e8", "--gamma", "0.007"), ("--y=-9.43e7", "--gamma", "0.00458"), ("--y=-2.72e8", "--gamma", "3.86e-6")],
    )
    def test_stiff_drive_stays_hermitian_over_2000_steps(self, tmp_path, argv):
        # without the Hermiticity projection of the step exponential these
        # samples drifted 1.000e-8 off Hermitian, just past the concurrence's Hermiticity gate
        code, out = run(tmp_path, "fig-nogo", *argv, "--t-max", "10", "--steps", "2000")
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2001

    def test_stiff_feedback_stays_positive_over_2000_steps(self, tmp_path):
        # the 16x16 step exponential's 2000th power reached an eigenvalue of
        # -1.003e-9 here; the touched 4x4 sector stays positive at the same floor
        assert entdyn.quantum._PSD_CLIP == 1e-9
        argv = ["evolve", "--m", "1e8", "--f", "1e8", "--gamma", "1e-8", "--steps", "2000"]
        code, out = run(tmp_path, *argv)
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2001
        config = cli.parse_config(argv)
        table = cli._SCENARIOS["evolve"][0](config.values)
        assert table["concurrence"].min() >= 1.0 - 1e-12

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 7.9])
    def test_decay_is_exponential_to_relative_round_off(self, gamma):
        # values down to exp(-39.5) = 7e-18, where an eigensolver's absolute
        # round-off would swamp them
        runner = cli._SCENARIOS["fig2"][0]
        table = runner({"gamma": gamma, "t_max": 5.0, "steps": 2000})
        exact = np.exp(-gamma * table["t"])
        assert np.max(np.abs(table["concurrence"] / exact - 1.0)) <= 1e-12

    def test_evolve_settles_to_fixed_point(self, tmp_path):
        code, out = run(tmp_path, "evolve", "--t-max", "8", "--steps", "80")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "concurrence", "purity"]
        assert abs(rows[-1][1] - 2.0 / 3.0) <= 1e-3
        assert abs(rows[-1][2] - 13.0 / 18.0) <= 1e-3


class TestGridScenarios:
    def test_strong_feedback_cell(self, tmp_path):
        code, out = run(tmp_path, "fig4")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["m", "f", "concurrence", "log10_one_minus_concurrence"]
        assert len(rows) == 81 * 81
        best = min(rows, key=lambda row: abs(row[0] - 100.0) + abs(row[1] - 100.0))
        assert best[2] >= 0.99
        assert abs(best[3] - np.log10(1.0 - best[2])) <= 1e-6

    def test_sweep_with_splitting(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--points", "5", "--mu", "1")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["m", "f", "concurrence", "purity", "log10_one_minus_concurrence"]
        assert len(rows) == 25
        for row in rows:
            assert abs(row[3] - 0.5 * (1 + row[2] ** 2)) <= 1e-6

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig4", "--gamma", "1e-300"),
            ("sweep", "--mu", "1e200"),
            ("sweep", "--m-max", "1e300", "--f-max", "1e300"),
            ("fig4", "--gamma", "5e-324"),
        ],
        ids=["fig4-gamma-1e-300", "sweep-mu-1e200", "sweep-rates-1e300", "fig4-gamma-5e-324"],
    )
    def test_extreme_rates_give_finite_rows(self, tmp_path, capsys, argv):
        # a RuntimeWarning would reach stderr outside pytest; here it raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, *argv, "--points", "21")
        assert code == 0
        assert len(capsys.readouterr().err.splitlines()) == 1
        _, rows = read_csv(out)
        assert len(rows) == 21 * 21
        assert np.all(np.isfinite(rows))
        table = np.array(rows)
        assert np.all((table[:, 2] >= 0) & (table[:, 2] <= 1))
        assert np.all(table[:, -1] <= 0)


class TestCsvWriter:
    def test_number_format(self, tmp_path):
        values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, 123456789.5]
        out = tmp_path / "edge.csv"
        assert cli._write_csv(str(out), {f"c{k}": [v] for k, v in enumerate(values)}) == 1
        assert out.read_text().splitlines()[1] == (
            "nan,inf,-inf,-0,4.94065646e-324,1.79769313e+308,0.333333333,123456790"
        )

    def test_grid_rows_in_c_order_m_outer(self, tmp_path, monkeypatch):
        # blocks smaller than one grid row still give one row per (m, f) pair
        monkeypatch.setattr(cli, "_WRITE_BLOCK", 2)
        code, out = run(tmp_path, "sweep", "--points", "4", "--m-max", "10", "--f-max", "1000")
        assert code == 0
        _, rows = read_csv(out)
        m_grid = sorted({row[0] for row in rows})
        f_grid = sorted({row[1] for row in rows})
        assert [(row[0], row[1]) for row in rows] == [(m, f) for m in m_grid for f in f_grid]
        assert len(m_grid) == len(f_grid) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            "fig1", "fig2", "fig-nogo", "fig4", "evolve", "steady", "sweep",
            "fig1 --a 0.3 --y 1e9", "fig-nogo --gamma 0", "steady --y 0.5",
            "steady --m 1e12 --f 1e12", "sweep --points 9 --mu 2 --gamma 0.3 --m-max 50",
            "fig4 --gamma 1e-300 --points 21",
        ],
    )
    def test_scenario_bytes_match_reference_writer(self, tmp_path, argv):
        config = cli.parse_config(argv.split())
        table = cli._SCENARIOS[config.scenario][0](config.values)
        out = tmp_path / "out.csv"
        cli._write_csv(str(out), table)
        assert out.read_bytes() == reference_csv(table)

    def test_small_tables_skip_the_kernel(self, tmp_path, monkeypatch):
        # the choice follows the number of values, not of rows
        kernel_shapes = []
        monkeypatch.setattr(cli, "_format_block", lambda block: kernel_shapes.append(block.shape) or b"")
        for rows, columns in ((21, 2), (1, 12), (40, 3), (16, 12)):
            table = {f"c{k}": np.arange(rows) for k in range(columns)}
            cli._write_csv(str(tmp_path / "small.csv"), table)
        assert kernel_shapes == [(40, 3), (16, 12)]

    @pytest.mark.parametrize(
        "value",
        [
            1234567895.0, 999999999.5, 99999999.95, 9.9999999995e-5, np.nextafter(1e9, 0),
            1e-4, 1e-5, 100.5, -0.0, 5e-324, np.finfo(float).max,
            0.0, 1.0, 0.1, 1e8, 1e9, 1e16, 1e22, 1e23, 1e-290, 1e290,
            np.nextafter(1e-290, 0), np.nextafter(1e290, np.inf), -123456789.5, 2.5e-300,
        ],
    )
    def test_named_values(self, value):
        for v in (value, -value):
            assert cli._format_block(np.array([[v]])) == b"%.9g\n" % v

    def test_seeded_doubles_match_percent(self, tmp_path):
        # mantissas in [1, 10) at every decimal exponent a double reaches,
        # plus exact ties at the tenth digit and their neighbours, which
        # the kernel hands to "%"
        rng = np.random.default_rng(20261018)
        size = 1_000_000
        with np.errstate(over="ignore", under="ignore"):
            spread = rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-320, 309, size).astype(float)
        scales = 10.0 ** rng.integers(-12, 12, 20_000).astype(float)
        ties = (rng.integers(10**8, 10**9, 20_000) + 0.5) * scales
        values = np.concatenate([spread, ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
        values *= rng.choice([-1.0, 1.0], values.size)
        table = {f"c{k}": column for k, column in enumerate(values.reshape(4, -1))}
        out = tmp_path / "doubles.csv"
        assert cli._write_csv(str(out), table) == values.size // 4
        assert out.read_bytes() == reference_csv(table)

    def test_fig4_is_sweep_at_zero_splitting_without_purity(self, tmp_path):
        argv = ("--points", "9", "--gamma", "0.3", "--m-max", "50")
        _, fig4 = run(tmp_path, "fig4", *argv, name="fig4.csv")
        _, sweep = run(tmp_path, "sweep", *argv, "--mu", "0", name="sweep.csv")
        lines = sweep.read_text().splitlines(keepends=True)
        dropped = "".join(",".join(line.split(",")[:3] + line.split(",")[4:]) for line in lines)
        assert fig4.read_bytes() == dropped.encode("ascii")


class TestSteadyScenario:
    def test_closed_form_columns_match(self, tmp_path):
        code, out = run(tmp_path, "steady")
        assert code == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert abs(row["concurrence"] - 2.0 / 3.0) <= 1e-9
        assert abs(row["purity"] - 13.0 / 18.0) <= 1e-9
        assert abs(row["concurrence"] - row["concurrence_closed_form"]) <= 1e-9
        assert abs(row["purity"] - row["purity_closed_form"]) <= 1e-9

    def test_closed_form_absent_with_coupling(self, tmp_path):
        code, out = run(tmp_path, "steady", "--y", "0.5")
        assert code == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert np.isnan(row["concurrence_closed_form"])
        assert np.isnan(row["purity_closed_form"])

    @pytest.mark.parametrize("rate", ["1e9", "1e12"])
    def test_extreme_feedback_rates(self, tmp_path, rate):
        code, out = run(tmp_path, "steady", "--m", rate, "--f", rate)
        assert code == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert abs(row["concurrence"] - row["concurrence_closed_form"]) <= 1e-6

    @pytest.mark.parametrize("rate", ["1e-310", "1e-320"])
    def test_subnormal_rates(self, tmp_path, capsys, rate):
        # numpy's complex division by a subnormal power of two overflowed here
        argv = ["steady", "--m", rate, "--f", rate, "--gamma", rate]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, *argv)
            table = cli._SCENARIOS["steady"][0](cli.parse_config(argv).values)
        assert code == 0
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert len(read_csv(out)[1]) == 1
        assert abs(table["concurrence"] - table["concurrence_closed_form"]) <= 1e-12

    def test_svd_failure_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError leaves the library as NoConvergenceError, an EntdynError
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        code, out = run(tmp_path, "steady")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["entdyn: numerical failure: singular value solver failed: SVD did not converge"]
        assert not out.exists()

    def test_degenerate_point_exits_two(self, tmp_path):
        code, _ = run(tmp_path, "steady", "--f", "0")
        assert code == 2


class TestConfigHandling:
    def test_deterministic_output(self, tmp_path):
        _, first = run(tmp_path, "fig2", name="a.csv")
        _, second = run(tmp_path, "fig2", name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_flag_overrides_file_overrides_default(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("m = 1\nf = 3  # file value\n")
        code, out = run(tmp_path, "steady", "--config", str(config), "--m", "2")
        assert code == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["m"] == 2.0
        assert row["f"] == 3.0
        assert row["gamma"] == 1.0

    @pytest.mark.parametrize("argv", list(REJECTED.values()), ids=list(REJECTED))
    def test_invalid_input_rejected(self, tmp_path, capsys, argv):
        # a RuntimeWarning would reach stderr outside pytest; here it raises
        for name, text in CONFIG_FILES.items():
            (tmp_path / name).write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, *argv.format(dir=tmp_path).split())
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("entdyn: error: ")
        assert not out.exists()

    def test_empty_list_error_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("y = ,\n")
        code, _ = run(tmp_path, "fig-nogo", "--config", str(config))
        assert code == 1
        assert capsys.readouterr().err == "entdyn: error: y must list at least one value\n"

    @pytest.mark.parametrize(
        "scenario, target",
        [
            pytest.param("fig1", "", id=""),
            pytest.param("fig1", "no/such/dir/x.csv", id="no/such/dir/x.csv"),
            # fig-nogo has stderr notes of its own, which must not precede the error
            pytest.param("fig-nogo", "missing/dir/x.csv", id="fig-nogo-missing/dir/x.csv"),
        ],
    )
    def test_unwritable_output_rejected(self, tmp_path, capsys, scenario, target):
        assert cli.main([scenario, "--steps", "4", "--out", str(tmp_path / target)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("entdyn: error: ")

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("zeta = 3\n")
        code, _ = run(tmp_path, "fig2", "--config", str(config))
        assert code == 1

    def test_duplicate_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("gamma = 1\ngamma = 2\n")
        code, _ = run(tmp_path, "fig2", "--config", str(config))
        assert code == 1

    def test_missing_config_file_rejected(self, tmp_path):
        code, _ = run(tmp_path, "fig2", "--config", str(tmp_path / "nope.conf"))
        assert code == 1

    def test_foreign_parameter_rejected(self, tmp_path):
        code, _ = run(tmp_path, "fig1", "--mu", "1")
        assert code == 1

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["fig1", "--steps", "4"]) == 0
        assert (tmp_path / "fig1.csv").exists()

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "scenarios" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "scenario, key",
        [("steady", "mu"), ("steady", "y"), ("evolve", "a"), ("evolve", "b"), ("evolve", "c"), ("fig-nogo", "y")],
    )
    @pytest.mark.parametrize("value", ["-1e-5", "-2.5E+1", "-.5e0"])
    def test_negative_exponent_value_as_its_own_token(self, tmp_path, scenario, key, value):
        extra = ["--steps", "4"] if scenario != "steady" else []
        code, spaced = run(tmp_path, scenario, f"--{key}", value, *extra, name="spaced.csv")
        assert code == 0
        code, joined = run(tmp_path, scenario, f"--{key}={value}", *extra, name="joined.csv")
        assert code == 0
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-1e+308"])
    def test_non_finite_or_huge_negative_token_reaches_the_library(self, tmp_path, capsys, value):
        code, _ = run(tmp_path, "steady", "--mu", value)
        code_joined, _ = run(tmp_path, "steady", f"--mu={value}")
        assert code == code_joined
        spaced, joined = capsys.readouterr().err.splitlines()
        assert spaced == joined
        assert "expected one argument" not in spaced

    def test_parser_is_built_once(self):
        cli.parse_config(["steady", "--m", "2"])
        cli.parse_config(["fig2"])
        assert cli._build_parser.cache_info().misses == 1

    def test_help_text_is_pinned(self, monkeypatch):
        # every flag, its help and the epilog, as an 80-column terminal shows them
        monkeypatch.setenv("COLUMNS", "80")
        expected = (Path(__file__).parent / "data" / "help.txt").read_text(encoding="utf-8")
        assert cli._build_parser().format_help() == expected


def child_env() -> dict:
    # A child runs outside the repo, where a relative PYTHONPATH such as `src`
    # resolves to nothing, so it is given the absolute directory that holds
    # the entdyn this suite imported, ahead of any existing entries.
    env = dict(os.environ)
    package_root = str(Path(entdyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cli.csv"
        result = subprocess.run(
            [sys.executable, "-m", "entdyn", "fig1", "--steps", "10", "--out", str(out)],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "wrote" in result.stderr
        assert result.stdout == ""
        assert out.exists()

    def test_no_scenario_loads_scipy(self, tmp_path):
        runs = []
        for scenario, (_, defaults, _) in sorted(cli._SCENARIOS.items()):
            size = ["--steps", "10"] if "steps" in defaults else ["--points", "5"] if "points" in defaults else []
            runs.append([scenario, *size, "--out", f"{scenario}.csv"])
        script = (
            "import sys\n"
            "from entdyn.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'scipy' not in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr

    def test_propagating_scenarios_run_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes every import of scipy fail, as
        # in an environment where it is not installed
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from entdyn.cli import main\n"
            "for scenario in ('evolve', 'fig-nogo', 'fig2'):\n"
            "    assert main([scenario, '--steps', '10', '--out', scenario + '.csv']) == 0, scenario\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
