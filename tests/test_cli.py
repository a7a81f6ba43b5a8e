import csv
import hashlib
import json
import math
import sys
import warnings

import pytest

from conftest import read_labeled_csv
from transfer_knn import harness, transfer
from transfer_knn.cli import MAX_GRID_POINTS, MAX_THREADS, main, parse_grid, run
from transfer_knn.distributions import family_from_spec
from transfer_knn.errors import MAX_DIMENSION, ConfigError
from transfer_knn.rates import RateParams, theoretical_rate

PAIR = {
    "source": {"family": "pareto", "alpha": 1.0, "sigma": 1.0},
    "target": {"family": "pareto", "alpha": 1.0, "sigma": 1.0},
}

# The README rates example: accelerated.
RATES = {"gamma": 1.0, "s": 0.2, "beta": 1.0, "d": 1, "n": 1e4, "m": 1e5}

EXPERIMENT = {
    "source": None,
    "target": {"family": "uniform", "a": 0.0, "b": 1.0},
    "f_star": {"name": "parabola"},
    "noise": {"type": "gaussian", "sigma_e": 0.5},
    "estimator": {"beta": 1.0, "d": 1},
    "n_grid": [0],
    "m_grid": [32, 64],
    "reps": 2,
    "n_test": 64,
    "seed": 77,
}

# A 2-D sweep whose larger cell's reps start first on two threads.
SWEEP_2D = {
    "source": {"family": "product_pareto", "alpha": 1.0, "sigma": 1.0, "d": 2},
    "target": {"family": "product_pareto", "alpha": 2.0, "sigma": 1.0, "d": 2},
    "f_star": {"name": "constant", "value": 0.25, "d": 2},
    "noise": {"type": "gaussian", "sigma_e": 0.5},
    "estimator": {"beta": 1.0, "d": 2},
    "n_grid": [256, 1024],
    "m_grid": [64],
    "reps": 3,
    "n_test": 200,
    "seed": 3,
}


# A heavy-tailed d = 2 pair whose draws lie far enough apart that their
# squared distances overflow.
HEAVY_2D = {
    "source": {"family": "product_pareto", "alpha": 0.015, "sigma": 1.0, "d": 2},
    "target": {"family": "product_pareto", "alpha": 0.015, "sigma": 1.0, "d": 2},
    "f_star": {"name": "constant", "value": 0.25, "d": 2},
    "noise": {"type": "gaussian", "sigma_e": 0.5},
    "estimator": {"beta": 1.0, "d": 2},
    "n_test": 50,
    "seed": 1,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    """The rows of a CSV the CLI wrote, header first, each a list of fields."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestGridParsing:
    def test_three_part(self):
        grid = parse_grid("0:1:0.05", "g")
        assert len(grid) == 21 and grid[0] == 0.0
        assert math.isclose(grid[-1], 1.0)

    def test_two_part_defaults_step_one(self):
        assert parse_grid("2:6", "g") == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_end_included_on_step(self):
        grid = parse_grid("0:0.3:0.1", "g")
        assert len(grid) == 4

    def test_end_excluded_off_step(self):
        grid = parse_grid("0:0.25:0.1", "g")
        assert len(grid) == 3

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_grid("1:2:0", "g")
        with pytest.raises(ConfigError):
            parse_grid("abc", "g")

    def test_point_limit(self):
        # The count is checked before the list is built.
        assert len(parse_grid(f"1:{MAX_GRID_POINTS}", "g")) == MAX_GRID_POINTS
        too_many = f"'g': {MAX_GRID_POINTS + 1} points exceed the limit of {MAX_GRID_POINTS}"
        with pytest.raises(ConfigError, match=too_many):
            parse_grid(f"0:{MAX_GRID_POINTS}", "g")


class TestTransferCommand:
    def test_csv_output(self, tmp_path):
        cfg = write_json(tmp_path / "pair.json", PAIR)
        out = tmp_path / "out"
        code = run(
            ["transfer", "--config", cfg, "--gamma-grid", "0:1:0.05", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "transfer.csv").read_text().splitlines()
        assert lines[0] == "gamma,value,method,error_estimate,converged"
        assert lines[1] == "0.0,1.0,closed_form,0.0,true"
        assert len(lines) == 22
        assert any(",inf," in ln and ln.endswith("false") for ln in lines)

    def test_csv_round_trip(self, tmp_path):
        cfg = write_json(tmp_path / "pair.json", PAIR)
        out = tmp_path / "out"
        argv = ["transfer", "--config", cfg, "--gamma-grid", "0:0.4:0.1", "--out", str(out)]
        assert run(argv) == 0
        rows = read_csv(out / "transfer.csv")
        assert rows[0] == ["gamma", "value", "method", "error_estimate", "converged"]
        assert len(rows) == 6
        assert float(rows[1][1]) == 1.0

    def test_target_past_the_source_support_reads_divergent(self, tmp_path):
        # Exp(1) puts mass beyond 100, where the Uniform(0, 100) density is 0.
        pair = {
            "source": {"family": "uniform", "a": 0, "b": 100},
            "target": {"family": "exponential", "lambda": 1.0},
        }
        cfg = write_json(tmp_path / "pair.json", pair)
        out = tmp_path / "out"
        argv = ["transfer", "--config", cfg, "--gamma-grid", "0:1:0.5", "--out", str(out)]
        assert run(argv) == 0
        rows = [row for row in read_csv(out / "transfer.csv")[1:] if float(row[0]) > 0]
        assert len(rows) == 2
        assert all(row[-1] == "false" for row in rows)

    def test_dimension_mismatch_names_target(self, tmp_path, capsys):
        pair = dict(
            PAIR, source={"family": "product_pareto", "alpha": 1, "sigma": 1, "d": 2}
        )
        cfg = write_json(tmp_path / "pair.json", pair)
        out = tmp_path / "out"
        argv = ["transfer", "--config", cfg, "--gamma-grid", "0:1:0.5", "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "config field 'target'" in err and "Traceback" not in err
        assert not list(out.glob("*"))

    def test_closed_form_beyond_a_float_exits_two_naming_gamma(self, tmp_path, capsys):
        # T(Exp(1e-300), Exp(1), 2) = 1e600 is finite, but no float holds it.
        pair = {
            "source": {"family": "exponential", "lambda": 1e-300},
            "target": {"family": "exponential", "lambda": 1.0},
        }
        cfg = write_json(tmp_path / "pair.json", pair)
        out = tmp_path / "out"
        argv = ["transfer", "--config", cfg, "--gamma-grid", "0:2", "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "numeric failure:" in err and "gamma=2.0" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_quadrature_beyond_a_float_exits_two_naming_gamma(self, tmp_path, capsys):
        # T = (1e300)^gamma on a bounded support passes the largest float
        # from gamma = 1.0276 on; the quadrature clamp read it as 1.014e304.
        pair = {
            "source": {"family": "uniform", "a": 0, "b": 1e300},
            "target": {"family": "uniform", "a": 0, "b": 1},
        }
        cfg = write_json(tmp_path / "pair.json", pair)
        out = tmp_path / "out"
        grid = ["--gamma-grid", "1:1.1:0.05"]
        argv = ["transfer", "--config", cfg, *grid, "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "numeric failure: T at gamma=1.05 is finite" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))


LOG_PARETO_PAIR = {
    "source": {"family": "log_pareto", "a": 1.0, "b": 1.0, "c": 0.0},
    "target": {"family": "log_pareto", "a": 1.0, "b": 1.0, "c": 2.0},
}


class TestTransferGrid:
    """transfer evaluates its grid only up to the first divergent gamma, and
    writes what evaluating every gamma from an empty memo writes."""

    def test_stops_at_the_first_divergence(self, tmp_path, monkeypatch):
        calls = []
        evaluate = transfer.transfer_value

        def counted(P, Q, gamma):
            calls.append(gamma)
            return evaluate(P, Q, gamma)

        monkeypatch.setattr(transfer, "transfer_value", counted)
        cfg = write_json(tmp_path / "pair.json", LOG_PARETO_PAIR)
        argv = ["transfer", "--config", cfg, "--gamma-grid", "0:1:0.01"]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 0
        # 52 calls: T is finite up to gamma 0.5 and read divergent from 0.51 on.
        assert calls == [i * 0.01 for i in range(52)]

    @pytest.mark.parametrize(
        "pair, grid, gammas",
        [
            (LOG_PARETO_PAIR, "0:1:0.01", [i * 0.01 for i in range(101)]),
            (
                {
                    "source": {"family": "exponential", "lambda": 2.0},
                    "target": {"family": "exponential", "lambda": 1.0},
                },
                "0:1:0.05",
                [i * 0.05 for i in range(21)],
            ),
            (
                {
                    "source": {"family": "uniform", "a": 0.0, "b": 1.0},
                    "target": {"family": "uniform", "a": 0.0, "b": 2.0},
                },
                "0:1:0.25",
                [i * 0.25 for i in range(5)],
            ),
        ],
        ids=["log_pareto", "exponential_closed_form", "uncovered_uniform"],
    )
    def test_bytes_equal_a_cold_loop(self, tmp_path, pair, grid, gammas):
        cfg = write_json(tmp_path / "pair.json", pair)
        out = tmp_path / "out"
        assert run(["transfer", "--config", cfg, "--gamma-grid", grid, "--out", str(out)]) == 0
        P, Q = (family_from_spec(pair[side], side) for side in ("source", "target"))
        lines = ["gamma,value,method,error_estimate,converged"]
        for g in gammas:
            transfer._pair_memo.cache_clear()
            e = transfer.transfer_value(P, Q, g)
            flag = "true" if e.converged else "false"
            lines.append(f"{e.gamma!r},{e.value!r},{e.method},{e.error_estimate!r},{flag}")
        assert lines[-1].endswith(",false")
        assert (out / "transfer.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


class TestRatesCommand:
    # Supercritical with m = 1e5 past the window edge n^(gamma/s) = 100.
    FULL_WEDGE = {"gamma": 0.4, "s": 0.8, "beta": 1.0, "d": 1, "n": 1e4, "m": 1e5,
                  "mode": "full"}

    @staticmethod
    def report(tmp_path, body):
        """rates.csv's header and its one row, for a config body."""
        cfg = write_json(tmp_path / "r.json", body)
        out = tmp_path / "out"
        assert run(["rates", "--config", cfg, "--out", str(out)]) == 0
        header, row = read_csv(out / "rates.csv")
        return header, row

    def test_accelerated_report(self, tmp_path):
        header, row = self.report(tmp_path, RATES)
        rep = dict(zip(header, row))
        assert rep["regime"] == "accelerated"
        exps = float(rep["source_exp"]) + float(rep["target_exp"])
        assert abs(exps - float(rep["r_beta"])) <= 1e-12

    @pytest.mark.parametrize(
        "body, flags",
        [
            pytest.param(RATES, "", id="accelerated"),
            pytest.param(dict(FULL_WEDGE, transfer_p=2.0, transfer_q=3.0), "", id="wedge"),
            pytest.param(
                dict(FULL_WEDGE, transfer_p=2.0),
                "target term omitted: no transfer value",
                id="wedge-no-transfer_q",
            ),
            # n m = 1e400 passes the largest float; the rate does not.
            pytest.param(
                dict(FULL_WEDGE, gamma=0.3, n=1e200, m=1e200, transfer_p=2.0, transfer_q=3.0),
                "",
                id="n-m-past-a-float",
            ),
        ],
    )
    def test_flags_column(self, tmp_path, body, flags):
        header, row = self.report(tmp_path, body)
        assert len(header) == len(row) == 17
        assert header[-1] == "flags" and row[-1] == flags
        assert math.isfinite(float(dict(zip(header, row))["rate"]))

    def test_wedge_with_empty_source_names_transfer_q(self, tmp_path, capsys):
        # With n = 0 only the target term can give the rate, so only the
        # missing transfer_q is at fault.
        cfg = write_json(tmp_path / "r.json", dict(self.FULL_WEDGE, n=0, transfer_p=2.0))
        out = tmp_path / "out"
        assert run(["rates", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config field 'transfer_q'" in err and "transfer_p" not in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_unknown_field_exits_one(self, tmp_path):
        cfg = write_json(tmp_path / "r.json", {"gamma": 1.0, "bogus": 2})
        out = tmp_path / "out"
        assert run(["rates", "--config", cfg, "--out", str(out)]) == 1
        assert not list(out.glob("*"))


class TestPhaseCommand:
    def test_nm_grid(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "phase",
                "--fix",
                "gamma=1,s=0.2",
                "--log-n",
                "2:6",
                "--log-m",
                "2:6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        cells = (out / "phase.csv").read_text().splitlines()
        assert cells[0] == "n,m,configuration,regime,source_exp,target_exp,rate"
        assert len(cells) == 26
        # acceleration cone topology: n <= m <= n^(gamma/s) and nowhere else
        for line in cells[1:]:
            n, m, _, regime = line.split(",")[:4]
            n, m = float(n), float(m)
            assert (regime == "accelerated") == (n <= m <= n**5.0)
        lines = (out / "phase_lines.csv").read_text().splitlines()
        names = {ln.split(",")[0] for ln in lines[1:]}
        assert names == {"a(s)", "b(s)", "I", "M"}

    def test_gamma_s_grid(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "phase",
                "--fix",
                "n=1000,m=100000",
                "--gamma-axis",
                "0.8:1.6:0.4",
                "--s-axis",
                "0.1:0.9:0.4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        body = (out / "phase.csv").read_text().splitlines()
        assert body[0].startswith("gamma,s,")

    @pytest.mark.parametrize(
        "axes, flags",
        [
            (["--fix", "n=1e4,m=1e5", "--gamma-axis", "0.001:1:0.001",
              "--s-axis", "0.001:1:0.001"], "--gamma-axis, --s-axis"),
            (["--fix", "gamma=1,s=0.2", "--log-n", "0:3:0.001",
              "--log-m", "0:3:0.01"], "--log-n, --log-m"),
        ],
    )
    def test_table_past_the_cell_limit_exits_one(self, tmp_path, capsys, axes, flags):
        # Each axis is within the point limit; their product is not.
        out = tmp_path / "out"
        assert run(["phase", *axes, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config field '{flags}': " in err
        assert f"cells exceed the limit of {MAX_GRID_POINTS}" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_bad_fix_keys(self, tmp_path):
        out = tmp_path / "out"
        assert (
            run(["phase", "--fix", "gamma=1,m=7", "--out", str(out)]) == 1
        )

    @staticmethod
    def oracle_rows(cells):
        """phase.csv's body for (axis1, axis2, RateParams) cells, by
        theoretical_rate, which test_rates checks against its references."""
        lines = []
        for v1, v2, params in cells:
            rep = theoretical_rate(params)
            a1, a2, src, tgt, rate = map(
                repr, (v1, v2, rep.source_exp, rep.target_exp, rep.rate_value)
            )
            lines.append(f"{a1},{a2},{rep.configuration},{rep.regime},{src},{tgt},{rate}")
        return lines

    def test_nm_grid_matches_theoretical_rate(self, tmp_path):
        out = tmp_path / "out"
        argv = ["phase", "--fix", "gamma=1,s=0.2", "--beta", "0.5", "--d", "2"]
        argv += ["--log-n", "0:6:0.5", "--log-m=-1:7:0.5", "--out", str(out)]
        assert run(argv) == 0
        log_n, log_m = parse_grid("0:6:0.5", "n"), parse_grid("-1:7:0.5", "m")
        cells = [
            (10.0**a, 10.0**b, RateParams(1.0, 0.2, 0.5, 2, 10.0**a, 10.0**b))
            for a in log_n
            for b in log_m
        ]
        body = (out / "phase.csv").read_text().splitlines()[1:]
        assert body == self.oracle_rows(cells)
        assert {line.split(",")[3] for line in body} == {"wedge", "accelerated"}

    def test_gamma_s_grid_matches_theoretical_rate(self, tmp_path):
        out = tmp_path / "out"
        argv = ["phase", "--fix", "n=1000,m=100000", "--gamma-axis", "0.1:2:0.1"]
        argv += ["--s-axis", "0.05:1.5:0.05", "--out", str(out)]
        assert run(argv) == 0
        gammas = parse_grid("0.1:2:0.1", "gamma")
        ss = parse_grid("0.05:1.5:0.05", "s")
        cells = [
            (g, s, RateParams(g, s, 1.0, 1, 1000.0, 100000.0)) for g in gammas for s in ss
        ]
        body = (out / "phase.csv").read_text().splitlines()[1:]
        assert body == self.oracle_rows(cells)
        assert {line.split(",")[3] for line in body} == {"wedge", "accelerated"}


class TestSweepCommand:
    @pytest.mark.parametrize(
        "body, threads",
        [pytest.param(EXPERIMENT, "3", id="1d"), pytest.param(SWEEP_2D, "2", id="2d")],
    )
    def test_deterministic_csv(self, tmp_path, body, threads):
        cfg = write_json(tmp_path / "e.json", body)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert run(["sweep", "--config", cfg, "--out", str(out2), "--threads", threads]) == 0
        assert (out1 / "sweep_reps.csv").read_bytes() == (out2 / "sweep_reps.csv").read_bytes()
        assert (out1 / "sweep_aggregate.csv").read_bytes() == (
            out2 / "sweep_aggregate.csv"
        ).read_bytes()

    def test_pool_sized_by_the_reps(self, tmp_path, monkeypatch):
        # Four threads on two reps: a pool of two, and the one-thread bytes.
        sizes = []
        pool = harness.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", recording)
        cfg = write_json(tmp_path / "e.json", dict(EXPERIMENT, m_grid=[32]))
        out1, out4 = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert run(["sweep", "--config", cfg, "--out", str(out4), "--threads", "4"]) == 0
        assert sizes == [2]
        for name in ("sweep_reps.csv", "sweep_aggregate.csv"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

    @pytest.mark.parametrize("value", [MAX_THREADS + 1, 100000])
    def test_threads_above_limit_rejected(self, tmp_path, capsys, monkeypatch, value):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        cfg = write_json(tmp_path / "e.json", EXPERIMENT)
        out = tmp_path / "out"
        argv = ["sweep", "--config", cfg, "--out", str(out), "--threads", str(value)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "config field '--threads'" in err
        assert f"{value} exceeds the limit of {MAX_THREADS}" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("reps", [50_001, 1e5])
    def test_reps_above_limit_rejected(self, tmp_path, capsys, monkeypatch, reps):
        # Two cells of that many reps: refused before any task is listed or run.
        def no_rep(*args, **kwargs):
            raise AssertionError("a rep was run")

        monkeypatch.setattr(harness, "_run_rep", no_rep)
        cfg = write_json(tmp_path / "e.json", {**EXPERIMENT, "reps": reps})
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert "config field 'reps'" in err
        assert f"{2 * int(reps)} cells x reps exceed the limit of {MAX_GRID_POINTS}" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_json(tmp_path / "e.json", EXPERIMENT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["sweep", "--config", cfg, "--out", str(out2), "--seed", "123"]) == 0
        assert (out1 / "sweep_reps.csv").read_bytes() != (out2 / "sweep_reps.csv").read_bytes()

    def test_malformed_json_no_partial_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert run(["sweep", "--config", bad.as_posix(), "--out", str(out)]) == 1
        assert not list(out.glob("*"))

    def test_unknown_config_field_named(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "e.json", dict(EXPERIMENT, typo_field=1))
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "typo_field" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_rep_failure_exits_two_naming_cell(self, tmp_path, capsys, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise FloatingPointError("overflow in the density step")

        monkeypatch.setattr(harness, "fit", failing_fit)
        cfg = write_json(tmp_path / "e.json", EXPERIMENT)
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 2
        err = capsys.readouterr().err
        assert "cell (n=0, m=32), rep 0" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_overflowing_draw_exits_two_naming_source(self, tmp_path, capsys):
        # Exp(1e-308)'s quantile passes the largest float from u = 0.834
        # on, so rep 0 of seed 1 draws an infinite source point, silently.
        body = dict(
            EXPERIMENT,
            source={"family": "exponential", "lambda": 1e-308},
            n_grid=[10],
            m_grid=[0],
            seed=1,
        )
        cfg = write_json(tmp_path / "e.json", body)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert (
            "cell (n=10, m=0), rep 0: source coordinates must be finite" in err
        )
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_overflowing_label_sum_exits_two_naming_source(self, tmp_path, capsys):
        body = dict(
            EXPERIMENT,
            source={"family": "uniform", "a": 0.0, "b": 1.0},
            f_star={"name": "constant", "value": 1e308},
            n_grid=[64],
            m_grid=[0],
            reps=1,
        )
        cfg = write_json(tmp_path / "e.json", body)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert (
            "cell (n=64, m=0), rep 0: source labels must be finite, "
            "with a finite sum of |y|" in err
        )
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_overflowing_risk_exits_two_naming_cell(self, tmp_path, capsys):
        # Labels and their sums are finite, but squared errors near 1e400 are not.
        body = dict(
            EXPERIMENT,
            source={"family": "uniform", "a": 0.0, "b": 1.0},
            noise={"type": "gaussian", "sigma_e": 1e200},
            n_grid=[64],
            m_grid=[0],
            n_test=100,
            seed=1,
        )
        cfg = write_json(tmp_path / "e.json", body)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "cell (n=64, m=0), rep 0: the mean squared prediction error is inf" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_zero_cell_rejected_at_parse_time(self, tmp_path, capsys):
        grids = dict(
            EXPERIMENT,
            source={"family": "uniform", "a": 0.0, "b": 1.0},
            n_grid=[0, 8],
            m_grid=[0, 8],
        )
        cfg = write_json(tmp_path / "e.json", grids)
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "field 'n_grid, m_grid'" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "override, field",
        [
            pytest.param({"reps": 2.5}, "reps", id="reps=2.5"),
            pytest.param({"reps": True}, "reps", id="reps=true"),
            pytest.param({"n_test": "64"}, "n_test", id="n_test=str"),
            pytest.param({"seed": 7.5}, "seed", id="seed=7.5"),
            pytest.param({"seed": -1}, "seed", id="seed=-1"),
            pytest.param({"m_grid": [32, 64.5]}, "m_grid", id="m_grid=64.5"),
            pytest.param({"m_grid": [32, True]}, "m_grid", id="m_grid=true"),
            pytest.param({"m_grid": 32}, "m_grid", id="m_grid=scalar"),
            pytest.param({"n_grid": [0.5]}, "n_grid", id="n_grid=0.5"),
            pytest.param({"estimator": {"beta": 1.0, "d": 1.5}}, "estimator.d", id="d=1.5"),
            pytest.param(
                {"f_star": {"name": "zero", "d": 1.5}}, "f_star.d", id="f_star.d=1.5"
            ),
            pytest.param(
                {"target": {"family": "product_pareto", "alpha": 1.0, "sigma": 1.0,
                            "d": "2"}},
                "target.d",
                id="target.d=str",
            ),
        ],
    )
    def test_non_integer_field_exits_one_naming_it(self, tmp_path, capsys, override, field):
        cfg = write_json(tmp_path / "e.json", dict(EXPERIMENT, **override))
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"field '{field}'" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_integral_floats_read_as_integers(self, tmp_path):
        floats = dict(EXPERIMENT, m_grid=[32.0, 64.0], reps=2.0, n_test=64.0, seed=77.0)
        outs = []
        for name, body in (("ints", EXPERIMENT), ("floats", floats)):
            out = tmp_path / name
            assert run(["sweep", "--config", write_json(tmp_path / f"{name}.json", body),
                        "--out", str(out)]) == 0
            outs.append(out)
        for name in ("sweep_reps.csv", "sweep_aggregate.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "command, sizes",
    [
        ("simulate", {"n": 200, "m": 200}),
        ("sweep", {"n_grid": [200], "m_grid": [200], "reps": 1}),
    ],
)
def test_distance_overflow_exits_two(tmp_path, capsys, command, sizes):
    cfg = write_json(tmp_path / "heavy.json", dict(HEAVY_2D, **sizes))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numeric failure:" in err and "squared distances overflow" in err
    assert "Traceback" not in err
    assert not list(out.glob("*"))


class TestSimulateCommand:
    CONFIG = {
        "source": {"family": "exponential", "lambda": 2.0},
        "target": {"family": "exponential", "lambda": 1.0},
        "f_star": {"name": "parabola"},
        "noise": {"type": "gaussian", "sigma_e": 0.25},
        "estimator": {"beta": 1.0, "d": 1},
        "n": 64,
        "m": 32,
        "n_test": 16,
        "seed": 5,
    }

    def test_artifacts(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", self.CONFIG)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "predictions.csv", "train_source.csv", "train_target.csv"
        ]
        preds = (out / "predictions.csv").read_text().splitlines()
        assert preds[0] == "x_1,y_hat,k_p,k_q,p_hat,q_hat"
        assert len(preds) == 17

    # sha256 of each artifact of a CONFIG run, as written by the
    # per-file CSV writers that OutputStager.write_rows replaced.
    DIGESTS = {
        "train_source.csv": "e2cc9aaf6fb0cfcd701b0dcf3be975c15ddcbd0b1520c2022c349380da4731f3",
        "train_target.csv": "79a37ef231616c371b157f05023d8c8eb0728debe8f41bb576be20969fff37ac",
        "predictions.csv": "0bbf3eb6c2b8146b144c4add581ff730e98ee57d6d7a636781e3ff2c72ed1f94",
    }

    def test_artifacts_match_pinned_digests(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", self.CONFIG)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_train_csv_parses_back(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", self.CONFIG)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        X, y = read_labeled_csv(out / "train_source.csv")
        assert X.shape == (64, 1) and y.shape == (64,)

    @pytest.mark.parametrize(
        "override, field",
        [
            pytest.param({"n_test": -3}, "n_test", id="n_test=-3"),
            pytest.param({"n_test": 0}, "n_test", id="n_test=0"),
            pytest.param({"m": -5}, "m", id="m=-5"),
            pytest.param({"n": 0, "m": 0}, "n, m", id="n=m=0"),
            pytest.param(
                {"estimator": {"beta": 1.0, "d": 1, "tau": 2.0}}, "estimator.tau", id="tau"
            ),
            pytest.param({"estimator": {"beta": None, "d": 1}}, "estimator.beta", id="beta=null"),
            pytest.param(
                {"noise": {"sigma_e": 0.25, "alpha_se": 1.0}}, "noise.alpha_se", id="alpha_se"
            ),
            pytest.param({"noise": {"sigma_e": 0.25, "nu": 1.0}}, "noise.nu", id="nu"),
            pytest.param({"noise": {"sigma_e": None}}, "noise.sigma_e", id="sigma_e=null"),
            pytest.param({"m": 20.7}, "m", id="m=20.7"),
            pytest.param({"n_test": True}, "n_test", id="n_test=true"),
            pytest.param({"n": "64"}, "n", id="n=str"),
            pytest.param({"seed": 5.5}, "seed", id="seed=5.5"),
            pytest.param({"seed": -1}, "seed", id="seed=-1"),
            pytest.param({"estimator": {"beta": 1.0, "d": True}}, "estimator.d", id="d=true"),
        ],
    )
    def test_bad_field_exits_one_naming_it(self, tmp_path, capsys, override, field):
        cfg = write_json(tmp_path / "sim.json", dict(self.CONFIG, **override))
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"field '{field}'" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "override",
        [
            pytest.param({"noise": {"type": "gaussian", "sigma_e": 1e308}}, id="labels-inf"),
            # Finite labels whose sum overflows a float.
            pytest.param({"f_star": {"name": "constant", "value": 1e308}}, id="sum-inf"),
        ],
    )
    def test_rejected_sample_exits_two(self, tmp_path, capsys, override):
        # The labels or their sum are not finite, so fit rejects them, as
        # in a sweep rep; an overflowing draw says so through that message
        # alone.
        cfg = write_json(tmp_path / "sim.json", dict(self.CONFIG, **override))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert (
            "numeric failure: estimator failed on the drawn samples: "
            "source labels must be finite, with a finite sum of |y|" in err
        )
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_ell_past_the_float_range_is_past_the_sample(self, tmp_path):
        # ell_factor * log(n m) is inf at 1e308; any ell beyond both samples
        # gives the same outputs.
        outs = []
        for factor in (1e300, 1e308):
            body = dict(self.CONFIG, estimator={"beta": 1.0, "d": 1, "ell_factor": factor})
            out = tmp_path / str(factor)
            assert run(["simulate", "--config", write_json(tmp_path / "sim.json", body),
                        "--out", str(out)]) == 0
            outs.append(out)
        for name in ("train_source.csv", "train_target.csv", "predictions.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_integral_floats_read_as_integers(self, tmp_path):
        floats = dict(self.CONFIG, n=64.0, m=32.0, n_test=16.0, seed=5.0)
        outs = []
        for name, body in (("ints", self.CONFIG), ("floats", floats)):
            out = tmp_path / name
            assert run(["simulate", "--config", write_json(tmp_path / f"{name}.json", body),
                        "--out", str(out)]) == 0
            outs.append(out)
        for name in ("train_source.csv", "train_target.csv", "predictions.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestDimensionMismatch:
    """estimator.d must match source, target and f_star at parse time."""

    PRODUCT_PAIR = {
        "source": {"family": "product_pareto", "alpha": 1.0, "sigma": 1.0, "d": 2},
        "target": {"family": "product_pareto", "alpha": 2.0, "sigma": 1.0, "d": 2},
    }
    CASES = {
        # a 1-D regression function on a 2-D problem
        "f_star": dict(
            PRODUCT_PAIR,
            f_star={"name": "parabola"},
            estimator={"beta": 1.0, "d": 2},
        ),
        # a 1-D estimator on a 2-D pair
        "source": dict(
            PRODUCT_PAIR,
            f_star={"name": "constant", "value": 0.25, "d": 2},
            estimator={"beta": 1.0, "d": 1},
        ),
    }

    @staticmethod
    def config_for(command, case):
        body = dict(TestDimensionMismatch.CASES[case], noise={"sigma_e": 0.5}, seed=3)
        if command == "sweep":
            return dict(body, n_grid=[64], m_grid=[64], reps=1, n_test=16)
        return dict(body, n=64, m=64, n_test=16)

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    @pytest.mark.parametrize("case", ["f_star", "source"])
    def test_exits_one_naming_field(self, tmp_path, capsys, command, case):
        cfg = write_json(tmp_path / "c.json", self.config_for(command, case))
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"field '{case}'" in err and "estimator.d" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))


class TestCheckRegularityCommand:
    @pytest.mark.parametrize(
        "body, want",
        [
            pytest.param(
                {"distribution": {"family": "pareto", "alpha": 1.0, "sigma": 1.0},
                 "x_points": 10, "r_points": 5},
                {"theta": "8.0"},  # 2 (1 + 1/sigma)^(alpha+1)
                id="pareto-10x5",
            ),
            # The README example, on the default 50 x 20 grid.
            pytest.param(
                {"distribution": {"family": "exponential", "lambda": 1.0}},
                {"n_checked": "1000"},
                id="readme-exponential",
            ),
            # The largest grid check-regularity takes.
            pytest.param(
                {"distribution": {"family": "pareto", "alpha": 1.0, "sigma": 1.0},
                 "x_points": 1000, "r_points": MAX_GRID_POINTS // 1000},
                {"n_checked": str(MAX_GRID_POINTS)},
                id="pareto-at-the-cap",
            ),
        ],
    )
    def test_pass_report(self, tmp_path, body, want):
        cfg = write_json(tmp_path / "reg.json", body)
        out = tmp_path / "out"
        assert run(["check-regularity", "--config", cfg, "--out", str(out)]) == 0
        rep = dict(read_csv(out / "regularity.csv")[1:])
        assert rep["passed"] == "true"
        assert want.items() <= rep.items()

    def test_fail_report(self, tmp_path):
        cfg = write_json(
            tmp_path / "reg.json",
            {"distribution": {"family": "exponential", "lambda": 1.0},
             "theta": 1.01, "x_points": 8, "r_points": 5},
        )
        out = tmp_path / "out"
        assert run(["check-regularity", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "regularity.csv").read_text()
        assert "passed,false" in body
        failures = (out / "regularity_failures.csv").read_text().splitlines()
        assert len(failures) > 1

    @pytest.mark.parametrize(
        "override, field",
        [
            pytest.param({"x_points": "abc"}, "x_points", id="x_points=abc"),
            pytest.param({"x_points": 0}, "x_points", id="x_points=0"),
            pytest.param({"r_points": 0}, "r_points", id="r_points=0"),
            # the (x, r) grid is capped at MAX_GRID_POINTS before any quantile
            pytest.param(
                {"x_points": 10**15}, "x_points, r_points", id="x_points-over-the-cap"
            ),
            pytest.param(
                {"x_points": 3000, "r_points": 3000}, "x_points, r_points",
                id="grid-over-the-cap",
            ),
            pytest.param({"theta": "x"}, "theta", id="theta=x"),
            pytest.param({"theta": -1}, "theta", id="theta=-1"),
            # every quantile of Pareto(1e-300, 1) overflows to inf
            pytest.param(
                {"distribution": {"family": "pareto", "alpha": 1e-300, "sigma": 1.0}},
                "distribution",
                id="ppf-overflow",
            ),
            # the quantiles from u = 0.75 on lie beyond the ppf bracket cap
            pytest.param(
                {"distribution": {"family": "log_pareto", "a": 1, "b": 0.05, "c": 0},
                 "theta": 10},
                "distribution",
                id="ppf-bracket-cap",
            ),
            # the built-in theta of each overflows a float
            pytest.param(
                {"distribution": {"family": "pareto", "alpha": 300, "sigma": 1e-300}},
                "theta",
                id="pareto-theta-overflow",
            ),
            pytest.param(
                {"distribution": {"family": "exponential", "lambda": 1e300}},
                "theta",
                id="exponential-theta-overflow",
            ),
            # a d >= 2 family is refused before its missing theta is looked up
            pytest.param(
                {"distribution": {"family": "product_pareto", "alpha": 1.0, "sigma": 1.0,
                                  "d": 2}},
                "distribution",
                id="product-pareto-no-theta",
            ),
        ],
    )
    def test_bad_field_exits_one_naming_it(self, tmp_path, capsys, override, field):
        body = {"distribution": {"family": "pareto", "alpha": 1.0, "sigma": 1.0}}
        cfg = write_json(tmp_path / "reg.json", dict(body, **override))
        out = tmp_path / "out"
        assert run(["check-regularity", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"field '{field}'" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_quantile_beyond_bracket_cap_names_its_level(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "reg.json",
            {"distribution": {"family": "log_pareto", "a": 1, "b": 0.05, "c": 0},
             "theta": 10},
        )
        assert run(["check-regularity", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "x grid: quantile u = 0.75 lies beyond" in capsys.readouterr().err

    def test_given_theta_skips_the_built_in_value(self, tmp_path):
        # The built-in theta of this family overflows; a given one is used as is.
        cfg = write_json(
            tmp_path / "reg.json",
            {"distribution": {"family": "exponential", "lambda": 1e300},
             "theta": 4.0, "x_points": 4, "r_points": 3},
        )
        out = tmp_path / "out"
        assert run(["check-regularity", "--config", cfg, "--out", str(out)]) == 0
        assert "theta,4.0" in (out / "regularity.csv").read_text().splitlines()


class TestTooLargeToAllocate:
    # numpy refuses 10**15 doubles (7.11 PiB) before it allocates anything.
    HUGE = 10**15

    @pytest.mark.parametrize(
        "command, body, message",
        [
            pytest.param(
                "simulate", dict(TestSimulateCommand.CONFIG, n_test=HUGE),
                "numeric failure: out of memory: ", id="simulate-n_test",
            ),
            pytest.param(
                "sweep",
                dict(EXPERIMENT, source=EXPERIMENT["target"], n_grid=[HUGE], m_grid=[0]),
                f"cell (n={HUGE}, m=0), rep 0: ", id="sweep-n_grid",
            ),
            pytest.param(
                "sweep", dict(EXPERIMENT, n_test=HUGE),
                "cell (n=0, m=32), rep 0: ", id="sweep-n_test",
            ),
        ],
    )
    def test_exits_two(self, tmp_path, capsys, command, body, message):
        cfg = write_json(tmp_path / "c.json", body)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Unable to allocate" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))


class TestArgvHandling:
    def test_unknown_flag_exits_one(self, tmp_path):
        assert run(["transfer", "--nonsense"]) == 1

    def test_unknown_command_exits_one(self):
        assert run(["explode"]) == 1

    @pytest.mark.parametrize(
        "argv, body, code, message",
        [
            pytest.param(["rates"], RATES, 0, "", id="0"),
            pytest.param(["sweep", "--seed", "3"], [1], 1, "config field 'config'", id="1"),
            # T(Exp(1e-300), Exp(1), 2) = 1e600 is finite, but no float holds it.
            pytest.param(
                ["transfer", "--gamma-grid", "0:2"],
                {"source": {"family": "exponential", "lambda": 1e-300},
                 "target": {"family": "exponential", "lambda": 1.0}},
                2,
                "numeric failure:",
                id="2",
            ),
        ],
    )
    def test_main_exits_with_the_code(self, tmp_path, capsys, monkeypatch, argv, body, code,
                                      message):
        cfg = write_json(tmp_path / "c.json", body)
        out = tmp_path / "out"
        monkeypatch.setattr(
            sys, "argv", ["transfer-knn", *argv, "--config", cfg, "--out", str(out)]
        )
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


REGULARITY = {
    "distribution": {"family": "pareto", "alpha": 1.0, "sigma": 1.0},
    "x_points": 4,
    "r_points": 3,
}
# A valid config per config-reading subcommand, with its other arguments.
CONFIG_COMMANDS = {
    "transfer": (PAIR, ["--gamma-grid", "0:0.2:0.1"]),
    "rates": (RATES, []),
    "simulate": (TestSimulateCommand.CONFIG, []),
    "sweep": (EXPERIMENT, ["--seed", "3"]),
    "check-regularity": (REGULARITY, []),
}
NON_NORMALISABLE = {"family": "log_pareto", "a": 1, "b": 1e-6, "c": 0}
# A LogPareto whose normaliser (2^-1100 / 1100) underflows to 0 in quadrature.
UNRESOLVED = {"family": "log_pareto", "a": 1, "b": 1100, "c": 0}
# A ProductPareto one past the largest dimension a config may name.
HUGE_D_PRODUCT = {"family": "product_pareto", "alpha": 1, "sigma": 1, "d": MAX_DIMENSION + 1}
# Pareto densities whose scale alpha / sigma underflows to 0 or overflows.
BAD_SCALES = {
    "underflow": {"family": "pareto", "alpha": 1e-300, "sigma": 1e300},
    "overflow": {"family": "pareto", "alpha": 1e300, "sigma": 1e-300},
    "product_underflow": {"family": "product_pareto", "alpha": 1e-300, "sigma": 1e300, "d": 2},
    # A Uniform whose width b - a overflows, so its density 1 / (b - a) is 0.
    "wide": {"family": "uniform", "a": -1e308, "b": 1e308},
}
# A float field of each config, as a dotted path.
FLOAT_FIELDS = {
    "transfer": "source.alpha",
    "rates": "gamma",
    "simulate": "noise.sigma_e",
    "sweep": "estimator.beta",
    "check-regularity": "theta",
}


def with_field(body, path, value):
    """A deep copy of body with the dotted path set to value."""
    body = json.loads(json.dumps(body))
    *parents, leaf = path.split(".")
    obj = body
    for key in parents:
        obj = obj[key]
    obj[leaf] = value
    return body


def short(value):
    text = repr(value)
    return text if len(text) <= 24 else text[:21] + "..."


def bad_config_cases():
    cases = []
    for command in CONFIG_COMMANDS:
        for top in (3, [1], None):
            cases.append(
                pytest.param(command, top, "config", id=f"{command}-top={top!r}")
            )
        base, field = CONFIG_COMMANDS[command][0], FLOAT_FIELDS[command]
        for value in (True, "1.0", math.nan, math.inf):
            cases.append(
                pytest.param(
                    command,
                    with_field(base, field, value),
                    field,
                    id=f"{command}-{field}={value!r}",
                )
            )
    edits = [
        ("sweep", "f_star.foo", 1, "f_star.foo"),
        ("simulate", "f_star.foo", 1, "f_star.foo"),
        ("sweep", "f_star", {"name": "constant", "value": "abc"}, "f_star.value"),
        ("simulate", "f_star", {"name": "constant", "value": "abc"}, "f_star.value"),
        ("sweep", "f_star.name", ["zero"], "f_star.name"),
        ("transfer", "source.family", ["pareto"], "source.family"),
        ("rates", "transfer_p", [1], "transfer_p"),
        # A transfer value T(P, Q, gamma) is positive for every pair.
        ("rates", "transfer_p", -2.0, "transfer_p"),
        ("rates", "transfer_q", 0, "transfer_q"),
        ("rates", "mode", ["full"], "mode"),
        ("rates", "n", 10**400, "n"),
        # A LogPareto whose density does not normalise
        ("transfer", "source", NON_NORMALISABLE, "source"),
        ("transfer", "target", NON_NORMALISABLE, "target"),
        ("sweep", "target", NON_NORMALISABLE, "target"),
        # ExperimentConfig range checks
        ("sweep", "reps", 0, "reps"),
        ("sweep", "n_test", 0, "n_test"),
        ("sweep", "m_grid", [64, 32], "m_grid"),
        ("sweep", "m_grid", [], "m_grid"),
        ("sweep", "n_grid", [5], "source"),
        # RateParams range checks
        ("rates", "gamma", -1, "gamma"),
        ("rates", "s", 0, "s"),
        ("rates", "beta", 2, "beta"),
        ("rates", "d", 0, "d"),
        ("rates", "d", 10**400, "d"),
        ("rates", "m", -1, "m"),
        # A d whose row of d float64 values no array can address
        ("transfer", "source", dict(HUGE_D_PRODUCT, d=10**30), "source.d"),
        ("check-regularity", "distribution", HUGE_D_PRODUCT, "distribution.d"),
        ("sweep", "f_star", {"name": "zero", "d": 10**30}, "f_star.d"),
        ("simulate", "f_star", {"name": "zero", "d": MAX_DIMENSION + 1}, "f_star.d"),
        ("sweep", "estimator.d", 10**30, "estimator.d"),
        ("simulate", "estimator.d", MAX_DIMENSION + 1, "estimator.d"),
    ]
    for command, path, value, field in edits:
        body = with_field(CONFIG_COMMANDS[command][0], path, value)
        cases.append(
            pytest.param(command, body, field, id=f"{command}-{path}={short(value)}")
        )
    # A LogPareto normaliser that quadrature does not resolve
    for command, field in (("transfer", "source"), ("check-regularity", "distribution")):
        body = with_field(CONFIG_COMMANDS[command][0], field, UNRESOLVED)
        cases.append(
            pytest.param(command, body, field, id=f"{command}-{field}=unresolved")
        )
    for command, field, scale in (
        ("transfer", "source", "underflow"),
        ("transfer", "target", "underflow"),
        ("transfer", "source", "overflow"),
        ("transfer", "source", "product_underflow"),
        ("check-regularity", "distribution", "underflow"),
        ("transfer", "source", "wide"),
        ("transfer", "target", "wide"),
        ("simulate", "source", "wide"),
        ("check-regularity", "distribution", "wide"),
    ):
        body = with_field(CONFIG_COMMANDS[command][0], field, BAD_SCALES[scale])
        cases.append(
            pytest.param(command, body, field, id=f"{command}-{field}=scale_{scale}")
        )
    return cases


class TestBadConfig:
    """Every config-reading subcommand names the leaf field at fault."""

    @pytest.mark.parametrize("command, body, field", bad_config_cases())
    def test_exits_one_naming_field(self, tmp_path, capsys, command, body, field):
        cfg = write_json(tmp_path / "c.json", body)
        out = tmp_path / "out"
        extra = CONFIG_COMMANDS[command][1]
        assert run([command, "--config", cfg, "--out", str(out)] + extra) == 1
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))


class TestFlags:
    PHASE = ["phase", "--fix", "gamma=1,s=0.2", "--log-n", "2:3", "--log-m", "2:3"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--d", "0"),
            # d does not fit in a float
            pytest.param("--d", str(10**400), id="--d-10**400"),
            ("--beta", "2"),
            ("--log-n", "nan:3"),
            # 10^v overflows a float
            ("--log-n", "0:400:100"),
            ("--log-m", "300:310:5"),
            # 10^v underflows to 0; a negative start needs the --flag=value form
            ("--log-n", "-400:0:100"),
            ("--log-m", "-330:0:10"),
            # transfer's grid: a negative gamma is rejected before any gamma runs
            ("--gamma-grid", "-1:1:0.5"),
            # a point count that overflows a float
            ("--gamma-grid", "0:1e300:1e-300"),
            ("--log-m", "0:1e300:1e-300"),
            # a point count past the limit, refused before the grid is built
            ("--gamma-grid", "0:1:1e-12"),
            ("--log-n", "0:1:1e-12"),
        ],
    )
    def test_phase_names_the_flag(self, tmp_path, capsys, flag, value):
        argv = self.PHASE
        if flag == "--gamma-grid":
            argv = ["transfer", "--config", write_json(tmp_path / "c.json", PAIR)]
        out = tmp_path / "out"
        assert run(argv + [f"{flag}={value}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config field '{flag}'" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command in ("transfer", "rates", "phase", "check-regularity")
            for flag in ("--seed", "--threads")
        ]
        + [("simulate", "--threads")],
    )
    def test_seed_and_threads_only_where_read(self, tmp_path, capsys, command, flag):
        argv = self.valid_argv(tmp_path, command)
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 0
        assert run(argv + ["--out", str(tmp_path / "o2"), flag, "2"]) == 1
        err = capsys.readouterr().err
        assert "config field 'argv'" in err and flag in err
        assert not (tmp_path / "o2").exists()

    def valid_argv(self, tmp_path, command):
        """A command line that command runs, without --out."""
        if command == "phase":
            return list(self.PHASE)
        body, extra = CONFIG_COMMANDS[command]
        return [command, "--config", write_json(tmp_path / "c.json", body)] + extra

    def rejects_argument(self, tmp_path, capsys, command, flag, value):
        argv = self.valid_argv(tmp_path, command)
        assert run(argv + ["--out", str(tmp_path / "out"), flag, value]) == 1
        err = capsys.readouterr().err
        assert "config field 'argv'" in err and flag in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, value",
        [
            (command, value)
            for command in (
                "transfer", "rates", "phase", "simulate", "sweep", "check-regularity"
            )
            for value in ("csv", "json")
        ],
    )
    def test_has_no_format(self, tmp_path, capsys, command, value):
        # Every subcommand writes CSV only.
        self.rejects_argument(tmp_path, capsys, command, "--format", value)

    def test_rates_has_no_mode(self, tmp_path, capsys):
        # The config's mode field is the one way to pick full mode.
        self.rejects_argument(tmp_path, capsys, "rates", "--mode", "full")

    @pytest.mark.parametrize("command, value", [("sweep", "0"), ("sweep", "-3")])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command, value):
        body, extra = CONFIG_COMMANDS[command]
        argv = [command, "--config", write_json(tmp_path / "c.json", body)] + extra
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out), "--threads", value]) == 1
        err = capsys.readouterr().err
        assert "config field '--threads'" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))
