import re
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from frontdoor_lab import cli, frontdoor_estimator
from frontdoor_lab.cli import main
from frontdoor_lab.dataset import dataset_from_csv
from frontdoor_lab.frontdoor_estimator import effect_from_csv
from frontdoor_lab.runconfig import load_config
from frontdoor_lab.scm_sim import oracle_ace, population_from_csv
from frontdoor_lab.spline_smooth import spline_fit_from_text

CONFIG_TEXT = """\
# small smoke-test run
seed = 9
n = 1200
m = 2
grid = -2:2:9
subsample = 300
"""


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full small-scale run via the CLI, shared by the read-only tests."""
    out = tmp_path_factory.mktemp("run")
    config = out / "config.txt"
    config.write_text(CONFIG_TEXT + f"out = {out}\n")
    for command in ("simulate", "impute", "estimate", "plot", "evaluate"):
        extra = ["--save-models"] if command == "estimate" else []
        assert main([command, "--config", str(config)] + extra) == 0
    return out


@pytest.fixture(scope="module")
def run_m3(tmp_path_factory):
    """A small run imputed and estimated with m = 3."""
    out = tmp_path_factory.mktemp("run_m3")
    config = out / "config.txt"
    config.write_text(f"seed = 2\nn = 600\nm = 3\ngrid = -1:1:3\nout = {out}\n")
    for command in ("simulate", "impute", "estimate"):
        assert main([command, "--config", str(config)]) == 0
    return out


class TestPipelineArtifacts:
    def test_all_files_present(self, pipeline_dir):
        expected = [
            "population.csv", "observed.csv", "run_config.txt",
            "completed_01.csv", "completed_02.csv", "imputation_diagnostics.csv",
            "imputation_trace.csv", "effect_mi.csv", "effect_cc.csv", "evaluation.csv",
            "scatter_matrix.svg", "true_vs_conditional.svg", "estimated_effects.svg",
        ]
        for name in expected:
            assert (pipeline_dir / name).exists(), name

    def test_observed_row_count_and_na_tokens(self, pipeline_dir):
        lines = (pipeline_dir / "observed.csv").read_text().splitlines()
        assert len(lines) == 1 + 1200
        assert any("NA" in line for line in lines[1:])

    def test_completed_copies_are_complete(self, pipeline_dir):
        data = dataset_from_csv(pipeline_dir / "completed_01.csv")
        assert data.is_complete()

    def test_chain_trace_has_one_row_per_chain_cycle_and_variable(self, pipeline_dir):
        lines = (pipeline_dir / "imputation_trace.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "chain,cycle,variable,mean,sd"
        rows = [line.split(",") for line in lines[1:] if line]
        cycles = load_config(pipeline_dir / "run_config.txt").cycles
        expected = [
            [str(chain), str(cycle), variable]
            for chain in (1, 2)
            for cycle in range(1, cycles + 1)
            for variable in ("x", "z")
        ]
        assert [row[:3] for row in rows] == expected
        means = {row[2]: float(row[3]) for row in rows if row[0] == "2"}
        completed = dataset_from_csv(pipeline_dir / "completed_02.csv")
        observed = dataset_from_csv(pipeline_dir / "observed.csv")
        # the last cycle's means are those of the imputed cells of the copy
        assert means["z"] == float(np.mean(completed.z_star[~observed.m_z]))
        assert means["x"] == float(np.mean(completed.x_star[~observed.m_x]))

    def test_effect_csv_readable_and_method_tagged(self, pipeline_dir):
        mi, oracle = effect_from_csv(pipeline_dir / "effect_mi.csv")
        cc, _ = effect_from_csv(pipeline_dir / "effect_cc.csv")
        assert mi.method.value == "MultipleImputation"
        assert cc.method.value == "CompleteCase"
        assert mi.per_imputation_ace.shape == (2, 9)
        assert len(oracle) == 9

    def test_saved_models_round_trip(self, pipeline_dir):
        from frontdoor_lab.spline_smooth import additive_fit_from_text, predict

        mediator = spline_fit_from_text(
            (pipeline_dir / "models" / "mediator_01.txt").read_text()
        )
        assert mediator.basis.degree == 3
        outcome = additive_fit_from_text(
            (pipeline_dir / "models" / "outcome_01.txt").read_text()
        )
        assert len(outcome.terms) == 2
        points = np.column_stack([np.linspace(-1, 1, 5), np.linspace(0, 1, 5)])
        assert np.all(np.isfinite(predict(outcome, points)))

    def test_save_models_reuses_the_fitted_pairs(self, run_m3, tmp_path, monkeypatch):
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        calls = []
        fit_pair = frontdoor_estimator.fit_pair

        def counted(*args, **kwargs):
            calls.append(1)
            return fit_pair(*args, **kwargs)

        monkeypatch.setattr(frontdoor_estimator, "fit_pair", counted)
        monkeypatch.setattr(cli, "fit_pair", counted, raising=False)
        config = ["--config", str(run_m3 / "config.txt"), "--out", str(run)]
        assert main(["estimate", "--save-models"] + config) == 0
        assert len(calls) == 3 + 1  # one pair per completed copy plus the complete-case pair
        saved = sorted(path.name for path in (run / "models").iterdir())
        kinds = ("mediator", "outcome")
        assert saved == [f"{kind}_{i:02d}.txt" for kind in kinds for i in (1, 2, 3)]
        for name in ("effect_mi.csv", "effect_cc.csv"):
            assert (run / name).read_bytes() == (run_m3 / name).read_bytes(), name

    def test_svgs_are_well_formed_xml(self, pipeline_dir):
        for name in ("scatter_matrix.svg", "true_vs_conditional.svg", "estimated_effects.svg"):
            root = ET.fromstring((pipeline_dir / name).read_text())
            assert root.tag.endswith("svg")

    def test_scatter_layer_has_subsample_points(self, pipeline_dir):
        text = (pipeline_dir / "true_vs_conditional.svg").read_text()
        match = re.search(r'<g class="scatter-points">(.*?)</g>', text, re.S)
        assert match is not None
        assert len(re.findall("<circle", match.group(1))) == 300

    def test_cc_gap_consistent_between_plot_data_and_evaluation(self, pipeline_dir):
        cc, oracle = effect_from_csv(pipeline_dir / "effect_cc.csv")
        signed = float(np.mean(cc.pooled_ace - oracle))
        rows = (pipeline_dir / "evaluation.csv").read_text().splitlines()[1:]
        cc_errors = [float(r.split(",")[5]) for r in rows]
        assert signed == pytest.approx(float(np.mean(cc_errors)), abs=1e-12)


class TestEvaluateOutput:
    def test_report_lines(self, pipeline_dir, capsys):
        config = pipeline_dir / "config.txt"
        assert main(["evaluate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "method=mi" in out and "method=cc" in out
        assert re.search(r"cc_overestimates=(true|false)", out)
        assert "imputed_z_pooled_mean=" in out

    def test_imputed_mean_from_diagnostics(self, pipeline_dir, tmp_path, capsys):
        # the line impute's diagnostics give must equal the mean over the
        # completed copies, which evaluate no longer reads
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        masked = ~dataset_from_csv(run / "observed.csv").m_z
        true_mean = float(np.mean(population_from_csv(run / "population.csv").z[masked]))
        pooled = float(np.mean([
            np.mean(dataset_from_csv(path).z_star[masked])
            for path in sorted(run.glob("completed_*.csv"))
        ]))
        expected = (
            f"imputed_z_pooled_mean={pooled:.4f} true_masked_z_mean={true_mean:.4f} "
            f"gap={pooled - true_mean:+.4f}"
        )
        for path in run.glob("completed_*.csv"):
            path.unlink()
        config = ["--config", str(pipeline_dir / "config.txt"), "--out", str(run)]
        assert main(["evaluate"] + config) == 0
        assert expected in capsys.readouterr().out.splitlines()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = tmp_path / f"{name}.txt"
            config.write_text(
                f"seed = 3\nn = 500\nm = 2\ngrid = -1:1:5\nout = {out}\n"
            )
            assert main(["simulate", "--config", str(config)]) == 0
            assert main(["impute", "--config", str(config)]) == 0
            assert main(["estimate", "--config", str(config)]) == 0
            assert main(["evaluate", "--config", str(config)]) == 0
            assert main(["plot", "--config", str(config)]) == 0
            runs.append(out)
        names = sorted(path.name for path in runs[0].glob("*.csv"))
        assert names == sorted(path.name for path in runs[1].glob("*.csv"))
        assert len(names) == 9
        figures = sorted(path.name for path in runs[0].glob("*.svg"))
        assert figures == sorted(path.name for path in runs[1].glob("*.svg"))
        assert len(figures) == 3
        for name in names + figures:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


class TestSimulate:
    def test_tiny_run_row_count(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--n", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rows=10" in out
        assert len((tmp_path / "observed.csv").read_text().splitlines()) == 11

    def test_missingness_rates_printed(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--n", "5000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"x_missing=([0-9.]+) z_missing=([0-9.]+)", out)
        assert match
        assert 0.0 < float(match.group(1)) < 0.2
        assert 0.0 < float(match.group(2)) < 0.25


class TestIdentify:
    def test_builtin_reports(self, capsys):
        assert main(["identify"]) == 0
        out = capsys.readouterr().out
        assert "identifiable: true" in out
        assert "child Z: bidirected path to X: false" in out
        assert "mar value=X indicator=M_X: holds=true unconditional=false" in out
        assert "mar value=Z indicator=M_Z: holds=true unconditional=false" in out

    def test_confounded_mediator_graph(self, tmp_path, capsys):
        graph = tmp_path / "broken.graph"
        graph.write_text(
            "node U latent\nnode X observed\nnode Z observed\nnode Y observed\n"
            "edge U X\nedge U Y\nedge U Z\nedge X Z\nedge Z Y\n"
        )
        assert main(["identify", "--graph", str(graph)]) == 0
        assert "identifiable: false" in capsys.readouterr().out

    def test_missing_graph_file(self, tmp_path, capsys):
        code = main(["identify", "--graph", str(tmp_path / "nope.graph")])
        assert code == 3
        assert "error: input-missing:" in capsys.readouterr().err

    def test_malformed_graph_file(self, tmp_path, capsys):
        graph = tmp_path / "bad.graph"
        graph.write_text("node A observed\nedge A\n")
        assert main(["identify", "--graph", str(graph)]) == 2
        assert "error: invalid-input:" in capsys.readouterr().err


class TestErrorPaths:
    def test_impute_without_observed(self, tmp_path, capsys):
        assert main(["impute", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: input-missing:")
        assert "observed.csv" in err

    def test_population_not_read_by_impute_or_estimate(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text(f"seed = 4\nn = 600\nm = 2\ngrid = -1:1:3\nout = {tmp_path}\n")
        assert main(["simulate", "--config", str(config)]) == 0
        (tmp_path / "population.csv").unlink()
        assert main(["impute", "--config", str(config)]) == 0
        assert main(["estimate", "--config", str(config)]) == 0

    def test_corrupt_completed_file(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(f"seed = 5\nn = 600\nm = 2\ngrid = -1:1:3\nout = {tmp_path}\n")
        assert main(["simulate", "--config", str(config)]) == 0
        assert main(["impute", "--config", str(config)]) == 0
        (tmp_path / "completed_02.csv").write_text("garbage,header\n1,2\n")
        assert main(["estimate", "--config", str(config)]) == 2
        assert "error: invalid-input:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name, corrupt",
        [
            ("impute", "observed.csv", lambda cells: ["abc"] + cells[1:]),
            ("evaluate", "population.csv", lambda cells: cells[:2] + ["abc"] + cells[3:]),
            ("evaluate", "effect_mi.csv", lambda cells: cells[:1] + ["oops"] + cells[2:]),
            ("evaluate", "effect_cc.csv", lambda cells: cells[:3]),
            ("impute", "observed.csv", lambda cells: ["nan"] + cells[1:]),
        ],
        ids=[
            "dataset-bad-cell", "population-bad-cell", "effect-bad-cell", "effect-short-row",
            "dataset-nonfinite-cell",
        ],
    )
    def test_malformed_csv_body(self, pipeline_dir, tmp_path, capsys, command, name, corrupt):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        lines = (run / name).read_text().splitlines()
        lines[1] = ",".join(corrupt(lines[1].split(",")))
        (run / name).write_text("\n".join(lines) + "\n")
        config = ["--config", str(pipeline_dir / "config.txt"), "--out", str(run)]
        assert main([command] + config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert name in err and "line 2" in err

    @pytest.mark.parametrize(
        "line",
        [
            "n_knots = 3",
            "grid = -3:3:-1",
            "grid = -3:3:0",
            "grid = nan:1:5",
            "grid = -3:inf:5",
            "grid = 3:-3:5",
            "subsample = 0",
            "subsample = -1",
            "m = 1",
            "cycles = 0",
            "donors = 0",
            "mediator_draws = 0",
            "distribution_draws = -1",
        ],
        ids=[
            "n_knots_3", "grid_count_negative", "grid_count_zero", "grid_lo_nan",
            "grid_hi_inf", "grid_lo_above_hi", "subsample_0", "subsample_negative",
            "m_1", "cycles_0", "donors_0", "mediator_draws_0", "distribution_draws_negative",
        ],
    )
    def test_config_value_no_stage_can_use(self, tmp_path, capsys, line):
        out = tmp_path / "run"
        config = tmp_path / "config.txt"
        config.write_text(f"n = 600\nm = 2\nout = {out}\n{line}\n")
        assert main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid-input:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, name, content",
        [
            ("simulate", "config.txt", b"seed = 1\nout = caf\xe9\n"),
            ("identify", "bad.graph", b"node A observed\n\xff\n"),
            ("impute", "observed.csv", b"\xff\xfex,z,y\r\n1.0,2.0,3.0\r\n"),
        ],
        ids=["config", "graph", "observed_csv"],
    )
    def test_input_not_utf8(self, tmp_path, capsys, command, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        source = {
            "simulate": ["--config", str(path)],
            "identify": ["--graph", str(path)],
            "impute": [],  # reads observed.csv from --out
        }[command]
        assert main([command, "--out", str(tmp_path)] + source) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert name in err and "not UTF-8" in err

    @pytest.mark.parametrize("m", [4, 2], ids=["m_above", "m_below"])
    def test_evaluate_m_disagrees_with_effect_file(self, run_m3, capsys, m):
        config = ["--config", str(run_m3 / "config.txt"), "--m", str(m)]
        assert main(["evaluate"] + config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert "effect_mi.csv" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("flux_capacitance = 12\n")
        assert main(["simulate", "--config", str(config)]) == 2
        assert "error: invalid-input:" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # complete-case threshold cannot be met at this sample size
        config = tmp_path / "config.txt"
        config.write_text(f"seed = 6\nn = 150\nm = 2\ngrid = -1:1:3\nout = {tmp_path}\n")
        assert main(["simulate", "--config", str(config)]) == 0
        assert main(["impute", "--config", str(config)]) == 0
        assert main(["estimate", "--config", str(config)]) == 4
        assert "error: numeric-failure:" in capsys.readouterr().err


class TestFlagPrecedence:
    def test_later_stages_use_the_recorded_run(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text(
            f"seed = 8\nn = 600\nm = 2\ngrid = -1:1:3\nsigma_z = 0.5\nout = {tmp_path}\n"
        )
        assert main(["simulate", "--config", str(config)]) == 0
        for command in ("impute", "estimate"):
            assert main([command, "--out", str(tmp_path)]) == 0
        _, oracle = effect_from_csv(tmp_path / "effect_mi.csv")
        recorded = load_config(config)
        assert np.array_equal(oracle, oracle_ace(recorded.scm, recorded.grid_values()))
        assert len(list(tmp_path.glob("completed_*.csv"))) == 2

    def test_config_and_flags_override_the_recorded_run(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["simulate", "--out", str(run), "--n", "600", "--m", "2"]) == 0
        config = tmp_path / "config.txt"
        config.write_text("m = 3\n")
        assert main(["impute", "--config", str(config), "--out", str(run)]) == 0
        assert "wrote 3 completed datasets" in capsys.readouterr().out
        assert main(["impute", "--config", str(config), "--out", str(run), "--m", "2"]) == 0
        assert "wrote 2 completed datasets" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "given, named",
        [
            (["--seed", "2"], "seed = 2 (recorded: 1)"),
            (["--n", "900"], "n = 900 (recorded: 600)"),
            (["--config", "sigma_z = 0.5\n"], "sigma_z = 0.5"),
        ],
        ids=["seed_flag", "n_flag", "mechanism_key_in_config"],
    )
    def test_a_value_contradicting_the_recorded_run_exits_2(
        self, tmp_path, capsys, given, named
    ):
        run = tmp_path / "run"
        assert main(["simulate", "--out", str(run), "--n", "600", "--m", "2", "--seed", "1"]) == 0
        assert main(["impute", "--out", str(run)]) == 0
        capsys.readouterr()
        if given[0] == "--config":
            config = tmp_path / "config.txt"
            config.write_text(given[1])
            given = ["--config", str(config)]
        assert main(["estimate", "--out", str(run)] + given) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input: contradicts the run recorded in")
        assert named in err
        assert not (run / "effect_mi.csv").exists()

    def test_values_equal_to_the_recorded_run_pass(self, tmp_path):
        run = tmp_path / "run"
        assert main(["simulate", "--out", str(run), "--n", "600", "--m", "2", "--seed", "1"]) == 0
        config = tmp_path / "config.txt"
        config.write_text("seed = 1\nn = 600\nsigma_z = 0.1\n")  # 0.1: the default
        assert main(["impute", "--out", str(run), "--config", str(config), "--n", "600"]) == 0

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(f"seed = 7\nn = 800\nout = {tmp_path / 'from_config'}\n")
        override = tmp_path / "flag_out"
        assert main([
            "simulate", "--config", str(config), "--n", "20", "--out", str(override),
        ]) == 0
        assert "rows=20" in capsys.readouterr().out
        assert (override / "observed.csv").exists()
        assert not (tmp_path / "from_config").exists()
