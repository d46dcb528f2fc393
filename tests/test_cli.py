import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from frontdoor_lab import cli, frontdoor_estimator, spline_smooth
from frontdoor_lab._seeds import mix_seed
from frontdoor_lab.cli import main
from frontdoor_lab.dataset import Dataset, dataset_from_csv
from frontdoor_lab.figures import scatter_matrix_svg
from frontdoor_lab.frontdoor_estimator import effect_from_csv
from frontdoor_lab.runconfig import load_config
from frontdoor_lab.scm_sim import oracle_ace, population_from_csv
from frontdoor_lab.spline_smooth import AdditiveFit, PenalizedSplineFit, fit_from_json, predict

CONFIG_TEXT = """\
# small smoke-test run
seed = 9
n = 1200
m = 2
grid = -2:2:9
subsample = 300
"""


def run_stage(argv):
    """Run one stage in-process: it exits 0, and impute and estimate report
    that every fit converged.  Its output still reaches sys.stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    sys.stdout.write(out.getvalue())
    assert code == 0
    if argv[0] in ("impute", "estimate"):
        assert out.getvalue().splitlines()[-1] == "nonconverged_fits=0"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full small-scale run via the CLI, shared by the read-only tests."""
    out = tmp_path_factory.mktemp("run")
    config = out / "config.txt"
    config.write_text(CONFIG_TEXT + f"out = {out}\n")
    for command in ("simulate", "impute", "estimate", "plot", "evaluate"):
        extra = ["--save-models"] if command == "estimate" else []
        run_stage([command, "--config", str(config)] + extra)
    return out


@pytest.fixture(scope="module")
def run_m3(tmp_path_factory):
    """A small run imputed and estimated with m = 3."""
    out = tmp_path_factory.mktemp("run_m3")
    config = out / "config.txt"
    config.write_text(f"seed = 2\nn = 600\nm = 3\ngrid = -1:1:3\nout = {out}\n")
    for command in ("simulate", "impute", "estimate"):
        run_stage([command, "--config", str(config)])
    return out


@pytest.fixture(scope="module")
def imputed_run(tmp_path_factory):
    """A small run through impute, with nothing estimated yet."""
    out = tmp_path_factory.mktemp("imputed")
    config = out / "config.txt"
    config.write_text(f"seed = 5\nn = 600\nm = 2\ngrid = -1:1:3\nout = {out}\n")
    for command in ("simulate", "impute"):
        run_stage([command, "--config", str(config)])
    return out


class TestPipelineArtifacts:
    def test_all_files_present(self, pipeline_dir):
        expected = [
            "population.csv", "observed.csv", "run_config.txt",
            "completed_01.csv", "completed_02.csv", "imputation_diagnostics.csv",
            "imputation_trace.csv", "effects.csv", "evaluation.csv",
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
        # each curve's columns carry its method's prefix
        header = (pipeline_dir / "effects.csv").read_text().splitlines()[0].split(",")
        assert header[2:7] == ["mi_pooled_ace", "mi_ace_1", "mi_ace_2", "mi_q05", "mi_q95"]
        assert header[7:] == ["cc_ace", "cc_q05", "cc_q95"]
        mi, cc, oracle = effect_from_csv(pipeline_dir / "effects.csv")
        assert mi.per_imputation_ace.shape == (2, 9)
        assert cc.per_imputation_ace.shape == (1, 9)
        assert len(oracle) == 9

    def test_saved_models_round_trip(self, pipeline_dir):
        mediator = fit_from_json((pipeline_dir / "models" / "mediator_01.json").read_text())
        assert isinstance(mediator, PenalizedSplineFit) and mediator.basis.degree == 3
        outcome = fit_from_json((pipeline_dir / "models" / "outcome_01.json").read_text())
        assert isinstance(outcome, AdditiveFit) and len(outcome.terms) == 2
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
        run_stage(["estimate", "--save-models"] + config)
        assert len(calls) == 3 + 1  # one pair per completed copy plus the complete-case pair
        saved = sorted(path.name for path in (run / "models").iterdir())
        kinds = ("mediator", "outcome")
        assert saved == [f"{kind}_{i:02d}.json" for kind in kinds for i in (1, 2, 3)]
        assert (run / "effects.csv").read_bytes() == (run_m3 / "effects.csv").read_bytes()

    # with one cycle, the 3 copies' outcome fits and the complete-case one do not converge
    @pytest.mark.parametrize("cap, count", [(None, 0), (1, 3 + 1)], ids=["default", "one_cycle"])
    def test_estimate_counts_nonconverged_fits(
        self, run_m3, tmp_path, monkeypatch, capsys, cap, count
    ):
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        if cap is not None:
            # one backfitting cycle with a zero tolerance: no outcome fit converges
            monkeypatch.setattr(spline_smooth, "BACKFIT_MAX_CYCLES", cap)
            monkeypatch.setattr(spline_smooth, "BACKFIT_TOL", 0.0)
        config = ["--config", str(run_m3 / "config.txt"), "--out", str(run)]
        assert main(["estimate"] + config) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"nonconverged_fits={count}"

    # with one cycle, none of the 3 fits of each of the 3 chains' 10 cycles converges
    @pytest.mark.parametrize(
        "cap, count", [(None, 0), (1, 3 * 3 * 10)], ids=["default", "one_cycle"]
    )
    def test_impute_counts_nonconverged_fits(
        self, run_m3, tmp_path, monkeypatch, capsys, cap, count
    ):
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        if cap is not None:
            monkeypatch.setattr(spline_smooth, "BACKFIT_MAX_CYCLES", cap)
            monkeypatch.setattr(spline_smooth, "BACKFIT_TOL", 0.0)
        config = ["--config", str(run_m3 / "config.txt"), "--out", str(run)]
        assert main(["impute"] + config) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"nonconverged_fits={count}"

    def test_svgs_are_well_formed_xml(self, pipeline_dir):
        for name in ("scatter_matrix.svg", "true_vs_conditional.svg", "estimated_effects.svg"):
            root = ET.fromstring((pipeline_dir / name).read_text())
            assert root.tag.endswith("svg")

    def test_scatter_matrix_of_a_subsample_with_no_observed_x(self):
        data = Dataset(x_star=np.array([np.nan]), z_star=np.array([0.5]), y_star=np.array([1.0]))
        root = ET.fromstring(scatter_matrix_svg(data, subsample=1, seed=1))
        assert root.tag.endswith("svg")

    def test_scatter_layer_has_subsample_points(self, pipeline_dir):
        text = (pipeline_dir / "true_vs_conditional.svg").read_text()
        match = re.search(r'<g class="scatter-points">(.*?)</g>', text, re.S)
        assert match is not None
        assert len(re.findall("<circle", match.group(1))) == 300

    def test_cc_gap_consistent_between_plot_data_and_evaluation(self, pipeline_dir):
        _, cc, oracle = effect_from_csv(pipeline_dir / "effects.csv")
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
        # the verdict is the sign of the complete-case error on [-2, 2]
        signed = re.search(r"method=cc region=\[-2,2\] .* mean_signed_error=(\S+)", out)
        assert f"cc_overestimates={str(float(signed.group(1)) > 0).lower()}" in out

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

    def test_run_with_nothing_missing(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(
            "n = 400\nm = 2\ncycles = 1\nmiss_x_a = 50\nmiss_x_b = 0\n"
            f"miss_z_a = 50\nmiss_z_b = 0\nout = {tmp_path}\n"
        )
        for command in ("simulate", "impute", "estimate"):
            run_stage([command, "--config", str(config)])
        # nothing was imputed, so impute's diagnostics table holds only its header
        assert len((tmp_path / "imputation_diagnostics.csv").read_text().splitlines()) == 1
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "method=mi" in out and "cc_overestimates=" in out
        assert "imputed_z_pooled_mean" not in out
        assert main(["plot", "--config", str(config)]) == 0

    def test_without_population(self, run_m3, tmp_path, capsys):
        # population.csv is the one optional input: without it only the curves are compared
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        (run / "population.csv").unlink()
        assert main(["evaluate", "--out", str(run)]) == 0
        out = capsys.readouterr().out
        assert "cc_overestimates=" in out
        assert "imputed_z_pooled_mean" not in out
        assert (run / "evaluation.csv").exists()

    @pytest.mark.parametrize("name", ["imputation_diagnostics.csv", "observed.csv"])
    def test_population_without_another_input(self, run_m3, tmp_path, capsys, name):
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        (run / name).unlink()
        assert main(["evaluate", "--out", str(run)]) == 3
        assert capsys.readouterr().err == f"error: input-missing: {run / name}\n"
        assert not (run / "evaluation.csv").exists()

    def test_population_checks_come_before_the_diagnostics(self, run_m3, tmp_path, capsys):
        # a population.csv with one changed y cell is reported even when the
        # diagnostics table is missing too
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        (run / "imputation_diagnostics.csv").unlink()
        population = run / "population.csv"
        lines = population.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = repr(float(cells[3]) + 1.0)  # the y cell, after u, x and z
        lines[1] = ",".join(cells)
        population.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--out", str(run)]) == 2
        expected = (
            f"error: invalid-input: {population} is not the population of "
            f"{run / 'observed.csv'}: an observed cell differs\n"
        )
        assert capsys.readouterr().err == expected

    def test_no_grid_point_in_the_inner_region(self, run_m3, tmp_path, capsys):
        # with no grid point in [-2, 2] the region summaries are nan, and so
        # is the verdict drawn from them
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        config = tmp_path / "c.txt"
        config.write_text("grid = 2.5:3:3\n")
        for command in ("estimate", "evaluate"):
            run_stage([command, "--config", str(config), "--out", str(run)])
        lines = capsys.readouterr().out.splitlines()
        region = [line for line in lines if "region=[-2,2]" in line]
        assert len(region) == 2 and all("max_abs_error=nan" in line for line in region)
        assert "cc_overestimates=nan" in lines
        assert "mi_between_sd_max=nan mi_pooled_se_max=nan" in lines

    def test_between_imputation_spread(self, run_m3, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        assert main(["evaluate", "--out", str(run)]) == 0
        lines = capsys.readouterr().out.splitlines()
        per_copy = effect_from_csv(run / "effects.csv")[0].per_imputation_ace
        header, *rows = (run / "evaluation.csv").read_text().splitlines()
        assert header.split(",")[-1] == "mi_between_sd"
        between_sd = np.array([float(row.split(",")[-1]) for row in rows])
        variance = np.var(per_copy, axis=0, ddof=1)
        assert np.allclose(between_sd**2, variance, rtol=1e-12, atol=0)
        sd_max = float(np.max(between_sd))  # the whole grid lies in [-2, 2]
        expected = f"mi_between_sd_max={sd_max:.4f} mi_pooled_se_max={sd_max / np.sqrt(3):.4f}"
        assert lines[-2] == expected


class TestRerunWithFewerImputations:
    def test_impute_leaves_no_copy_of_the_larger_run(self, run_m3, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        config = tmp_path / "c.txt"
        config.write_text("cycles = 3\n")
        run_stage(["impute", "--out", str(run), "--m", "2", "--config", str(config)])
        assert sorted(path.name for path in run.glob("completed_*.csv")) == [
            "completed_01.csv",
            "completed_02.csv",
        ]
        capsys.readouterr()
        # the recorded run still says m = 3, and its third copy is gone
        assert main(["estimate", "--out", str(run), "--save-models"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: input-missing:") and "completed_03.csv" in err

    def test_evaluate_pools_the_first_copies_of_a_larger_imputation(
        self, run_m3, tmp_path, capsys
    ):
        # imputed at m = 3, then estimated and evaluated at m = 2: the
        # diagnostics table's third copy is left out of the pooled mean
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        run_stage(["estimate", "--out", str(run), "--m", "2"])
        capsys.readouterr()
        assert main(["evaluate", "--out", str(run), "--m", "2"]) == 0
        masked = ~dataset_from_csv(run / "observed.csv").m_z
        pooled = float(np.mean([
            np.mean(dataset_from_csv(run / f"completed_0{k}.csv").z_star[masked])
            for k in (1, 2)
        ]))
        assert f"imputed_z_pooled_mean={pooled:.4f} " in capsys.readouterr().out

    def test_estimate_leaves_no_model_of_the_larger_run(self, run_m3, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        run_stage(["estimate", "--out", str(run), "--save-models"])
        assert len(list((run / "models").iterdir())) == 3 + 3
        # a model file of an older version, which wrote text
        (run / "models" / "outcome_03.txt").write_text("additive_fit\n")
        run_stage(["estimate", "--out", str(run), "--m", "2", "--save-models"])
        saved = sorted(path.name for path in (run / "models").iterdir())
        kinds = ("mediator", "outcome")
        assert saved == [f"{kind}_{i:02d}.json" for kind in kinds for i in (1, 2)]


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
            run_stage(["impute", "--config", str(config)])
            run_stage(["estimate", "--config", str(config)])
            assert main(["evaluate", "--config", str(config)]) == 0
            assert main(["plot", "--config", str(config)]) == 0
            runs.append(out)
        names = sorted(path.name for path in runs[0].glob("*.csv"))
        assert names == sorted(path.name for path in runs[1].glob("*.csv"))
        assert len(names) == 8
        figures = sorted(path.name for path in runs[0].glob("*.svg"))
        assert figures == sorted(path.name for path in runs[1].glob("*.svg"))
        assert len(figures) == 3
        for name in names + figures:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_stage_seeds_derive_from_the_run_seed(self, run_m3, tmp_path, monkeypatch):
        # cli maps the run seed to each stage's seed: one per stage, and one
        # per estimate, the same on every run
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        settings = {}

        def recorded(name, function):
            def wrapper(*args, **kwargs):
                settings[name] = kwargs
                return function(*args, **kwargs)

            return wrapper

        for name in ("run_mice", "complete_case_effect", "estimate_effect"):
            monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
        config = ["--config", str(run_m3 / "config.txt"), "--out", str(run)]
        run_stage(["impute"] + config)
        run_stage(["estimate"] + config)
        seeds = {name: kwargs["seed"] for name, kwargs in settings.items()}
        assert seeds == {
            "run_mice": mix_seed(2, "impute"),
            "complete_case_effect": mix_seed(2, "estimate", "cc"),
            "estimate_effect": mix_seed(2, "estimate", "mi"),
        }
        assert len(set(seeds.values())) == 3
        assert settings["run_mice"]["m"] == 3
        for name in ("completed_01.csv", "completed_03.csv", "effects.csv"):
            assert (run / name).read_bytes() == (run_m3 / name).read_bytes(), name


class TestStartup:
    def test_package_root_imports_each_export_on_first_use(self):
        # PEP 562: the root names each export once and imports its module only
        # when the name is first read, so a bare import loads no numerical library
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys\n"
            "import frontdoor_lab\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
            "star = {}\n"
            "exec('from frontdoor_lab import *', star)\n"
            "del star['__builtins__']\n"
            "print(sorted(star) == frontdoor_lab.__all__ == sorted(set(frontdoor_lab.__all__)))\n"
            "print(len(frontdoor_lab.__all__), [name for name, value in star.items()\n"
            "    if not value.__module__.startswith('frontdoor_lab.')\n"
            "    or getattr(sys.modules[value.__module__], name) is not value\n"
            "    or getattr(frontdoor_lab, name) is not value])\n"
            "from frontdoor_lab import cli\n"
            "print(cli is sys.modules['frontdoor_lab.cli'],\n"
            "    set(frontdoor_lab.__all__) <= set(dir(frontdoor_lab)))\n"
            "try:\n"
            "    frontdoor_lab.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "[]",
            "True",
            "46 []",
            "True True",
            "module 'frontdoor_lab' has no attribute 'no_such_name'",
        ]

    def test_run_config_loads_no_pipeline_module(self):
        # RunConfig checks its own bounds and cli derives the stage seeds, so
        # reading a config loads neither the imputation nor the estimation module
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys, frontdoor_lab.runconfig\n"
            "pipeline = ('frontdoor_lab.mi_engine', 'frontdoor_lab.frontdoor_estimator')\n"
            "print([name for name in pipeline if name in sys.modules])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @staticmethod
    def run_stages(tmp_path, prologue: str):
        """Run the six stages at n = 400 in one fresh interpreter that first
        executes ``prologue``; after the import and after each stage it prints
        a line ``scipy after <when>: <sorted loaded scipy modules>``."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        config = tmp_path / "tiny.txt"
        config.write_text(
            f"seed = 3\nn = 400\nm = 2\ncycles = 1\ngrid = -1:1:3\nout = {tmp_path}\n"
        )
        probe = (
            "import sys\n"
            f"{prologue}\n"
            "from frontdoor_lab.cli import main\n"
            "def loaded(when):\n"
            "    names = [m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m]]\n"
            "    print('scipy after', when + ':', sorted(names))\n"
            "loaded('import')\n"
            "for stage in ('simulate', 'identify', 'impute', 'estimate', 'evaluate', 'plot'):\n"
            "    args = [stage] if stage == 'identify' else [stage, '--config', sys.argv[1]]\n"
            "    assert main(args) == 0, stage\n"
            "    loaded(stage)\n"
        )
        return subprocess.run(
            [sys.executable, "-c", probe, str(config)],
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_import_and_stages_leave_scipy_unloaded(self, tmp_path):
        # numpy is the one run-time dependency: no scipy module, not even the
        # package itself, is loaded by the import or by any stage
        done = self.run_stages(tmp_path, "")
        assert done.returncode == 0, done.stderr
        reports = [line for line in done.stdout.splitlines() if line.startswith("scipy after ")]
        assert reports == [
            f"scipy after {when}: []"
            for when in ("import", "simulate", "identify", "impute", "estimate", "evaluate", "plot")
        ]

    def test_stages_run_where_scipy_cannot_be_imported(self, tmp_path):
        # None in sys.modules makes every scipy import raise ImportError, as
        # on an install without SciPy; no network or second environment needed
        done = self.run_stages(tmp_path, "sys.modules['scipy'] = None")
        assert done.returncode == 0, done.stderr


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

    def test_treatment_the_graph_lacks(self, capsys):
        assert main(["identify", "--treatment", "Q"]) == 0
        out = capsys.readouterr().out
        assert out.count("treatment: Q\nidentifiable: n/a (treatment not in graph)\n") == 2

    def test_latent_child_of_the_treatment(self, tmp_path, capsys):
        graph = tmp_path / "latent_child.graph"
        graph.write_text(
            "node X observed\nnode L latent\nnode Y observed\nedge X L\nedge L Y\n"
        )
        assert main(["identify", "--graph", str(graph)]) == 0
        out = capsys.readouterr().out
        assert "children: L\nidentifiable: false\n  child L: latent, blocks identification\n" in out

    def test_missing_graph_file(self, tmp_path, capsys):
        code = main(["identify", "--graph", str(tmp_path / "nope.graph")])
        assert code == 3
        assert "error: input-missing:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--config", "/nonexistent"], ["--seed", "9"], ["--n", "5"], ["--m", "3"], ["--out", "x"]],
        ids=["config", "seed", "n", "m", "out"],
    )
    def test_flags_it_does_not_read_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["identify"] + flag)
        assert exc.value.code == 2

    def test_malformed_graph_file(self, tmp_path, capsys):
        graph = tmp_path / "bad.graph"
        graph.write_text("node A observed\nedge A\n")
        assert main(["identify", "--graph", str(graph)]) == 2
        assert "error: invalid-input:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("node A observed\nedge A\n", " line 2: cannot parse 'edge A'"),
            ("node A observed\nedge A B\n", ": edge endpoint not declared: 'B'"),
        ],
        ids=["line", "graph"],
    )
    def test_graph_errors_name_the_file(self, tmp_path, capsys, text, detail):
        graph = tmp_path / "bad.graph"
        graph.write_text(text, encoding="utf-8")
        assert main(["identify", "--graph", str(graph)]) == 2
        assert capsys.readouterr().err == f"error: invalid-input: {graph}{detail}\n"


class TestErrorPaths:
    def test_impute_without_observed(self, tmp_path, capsys):
        assert main(["impute", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: input-missing:")
        assert "observed.csv" in err

    @pytest.mark.parametrize(
        "argv, obstacle, kind, code, named",
        [
            ("simulate --config {t}/x", "x", "dir", 2, "x"),
            ("identify --graph {t}/x", "x", "dir", 2, "x"),
            ("simulate --out {t}/x", "x", "file", 2, "x"),
            ("simulate --out {t}/x/sub", "x", "file", 2, "x/sub"),
            ("simulate --out {t}/run", "run/run_config.txt", "dir", 2, "run/run_config.txt"),
            ("impute --out {t}/run", "run/observed.csv", "dir", 2, "run/observed.csv"),
            ("estimate --save-models --out {t}/run", "run/models", "file", 2, "run/models"),
            ("evaluate --out {t}/run", "run/evaluation.csv", "dir", 2, "run/evaluation.csv"),
            ("plot --out {t}/run", "run/scatter_matrix.svg", "dir", 2, "run/scatter_matrix.svg"),
            ("impute --out {t}/x", "x", "file", 2, "x/observed.csv"),
            ("estimate --out {t}/x", "x", "file", 2, "x/observed.csv"),
            ("evaluate --out {t}/x", "x", "file", 2, "x/effects.csv"),
            ("plot --out {t}/x", "x", "file", 2, "x/observed.csv"),
            ("simulate --config {t}/x/cfg --out {t}/run", "x", "file", 2, "x/cfg"),
            ("impute --config {t}/x/cfg --out {t}/run", "x", "file", 2, "x/cfg"),
        ],
        ids=[
            "config_is_dir", "graph_is_dir", "simulate_out_is_file",
            "simulate_out_under_file", "record_is_dir",
            "observed_is_dir", "models_is_file", "evaluation_is_dir", "svg_is_dir",
            "impute_out_is_file", "estimate_out_is_file", "evaluate_out_is_file",
            "plot_out_is_file", "simulate_config_under_file", "impute_config_under_file",
        ],
    )
    def test_os_failure_is_one_error_line(
        self, run_m3, tmp_path, capsys, argv, obstacle, kind, code, named
    ):
        # a path the stage cannot use ends in one error line that names it:
        # an absent path exits 3, any other OS failure 2, a path through a
        # regular file (such as FILE/observed.csv) among them, and no
        # exception escapes main
        shutil.copytree(run_m3, tmp_path / "run")
        path = tmp_path / obstacle
        if path.is_file():
            path.unlink()
        if kind == "dir":
            path.mkdir()
        else:
            path.write_text("")
        assert main([arg.format(t=tmp_path) for arg in argv.split()]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        label = {2: "invalid-input", 3: "input-missing"}[code]
        assert line.startswith(f"error: {label}: ") and line.endswith(str(tmp_path / named))

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_stdout_closed_by_its_reader(self, run_m3, tmp_path, unbuffered):
        # like `evaluate | head -n 0`: the reader is gone before the stage prints,
        # so every file is written first and the stage exits 0 in silence
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for command in ("evaluate", "plot"):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "frontdoor_lab.cli", command, "--out", str(run)],
                    stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
                )
            finally:
                os.close(write_end)
            assert (done.returncode, done.stderr) == (0, b"")
        names = ("evaluation.csv", "scatter_matrix.svg", "true_vs_conditional.svg",
                 "estimated_effects.svg")
        assert all((run / name).is_file() for name in names)

    def test_population_not_read_by_impute_or_estimate(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text(f"seed = 4\nn = 600\nm = 2\ngrid = -1:1:3\nout = {tmp_path}\n")
        assert main(["simulate", "--config", str(config)]) == 0
        (tmp_path / "population.csv").unlink()
        run_stage(["impute", "--config", str(config)])
        run_stage(["estimate", "--config", str(config)])

    def test_corrupt_completed_file(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(f"seed = 5\nn = 600\nm = 2\ngrid = -1:1:3\nout = {tmp_path}\n")
        assert main(["simulate", "--config", str(config)]) == 0
        run_stage(["impute", "--config", str(config)])
        (tmp_path / "completed_02.csv").write_text("garbage,header\n1,2\n")
        assert main(["estimate", "--config", str(config)]) == 2
        assert "error: invalid-input:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, detail",
        [
            ("observed", ": an observed cell differs from observed.csv"),
            ("dropped", " holds 599 rows, but observed.csv holds 600"),
            ("imputed", " still has missing cells"),
        ],
        ids=["observed", "dropped", "imputed"],
    )
    def test_completed_copy_not_of_the_observed_data(self, imputed_run, tmp_path, capsys,
                                                     change, detail):
        # a copy edited after impute: one observed cell changed, its last row
        # dropped, or one imputed cell set back to NA
        run = tmp_path / "run"
        shutil.copytree(imputed_run, run)
        copy = run / "completed_02.csv"
        observed = (run / "observed.csv").read_text().splitlines()
        lines = copy.read_text().splitlines()
        if change == "dropped":
            del lines[-1]
        else:
            row = next(i for i, line in enumerate(observed) if i > 0
                       and line.startswith("NA,") == (change == "imputed"))
            cells = lines[row].split(",")
            cells[0] = "NA" if change == "imputed" else repr(float(cells[0]) + 1.0)
            lines[row] = ",".join(cells)
        copy.write_text("\r\n".join(lines) + "\r\n")
        assert main(["estimate", "--out", str(run), "--save-models"]) == 2
        assert capsys.readouterr().err == f"error: invalid-input: {copy}{detail}\n"
        assert not (run / "effects.csv").exists()
        assert not (run / "models").exists()

    @pytest.mark.parametrize(
        "command, name, corrupt",
        [
            ("impute", "observed.csv", lambda cells: ["abc"] + cells[1:]),
            ("evaluate", "population.csv", lambda cells: cells[:2] + ["abc"] + cells[3:]),
            ("evaluate", "effects.csv", lambda cells: cells[:2] + ["oops"] + cells[3:]),
            ("evaluate", "effects.csv", lambda cells: cells[:3]),
            ("impute", "observed.csv", lambda cells: ["nan"] + cells[1:]),
            ("evaluate", "effects.csv", lambda cells: cells[:-5] + ["nan"] + cells[-4:]),
            ("evaluate", "effects.csv", lambda cells: cells[:-1] + ["inf"]),
            ("evaluate", "effects.csv", lambda cells: cells[:1] + ["-inf"] + cells[2:]),
            ("evaluate", "population.csv", lambda cells: cells[:2] + ["inf"] + cells[3:]),
            (
                "evaluate", "imputation_diagnostics.csv",
                lambda cells: cells[:3] + ["nan"] + cells[4:],
            ),
        ],
        ids=[
            "dataset-bad-cell", "population-bad-cell", "effect-bad-cell", "effect-short-row",
            "dataset-nonfinite-cell", "effect-nan-q05", "effect-inf-q95",
            "effect-inf-oracle", "population-nonfinite-cell", "diagnostics-nonfinite-mean",
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
            "x_prime_low = -1e308\nx_prime_high = 1e308",
            "x_prime_low = 3",
            "sigma_z = 1e308",
            "u_coef = 4e307",
            "out =",
        ],
        ids=[
            "n_knots_3", "grid_count_negative", "grid_count_zero", "grid_lo_nan",
            "grid_hi_inf", "grid_lo_above_hi", "subsample_0", "subsample_negative",
            "m_1", "cycles_0", "donors_0",
            "x_prime_width_overflows", "x_prime_low_above_high", "sigma_z_overflows",
            "missingness_index_overflows",
            "out_empty",
        ],
    )
    def test_config_value_no_stage_can_use(self, tmp_path, capsys, monkeypatch, line):
        # an empty out would name the working directory, so the run starts there
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "run"
        config = tmp_path / "config.txt"
        config.write_text(f"n = 600\nm = 2\nout = {out}\n{line}\n")
        assert main(["simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        if line.startswith("x_prime"):  # the error names both bounds, either may be at fault
            assert "x_prime_low must be below x_prime_high" in err
        assert [path.name for path in tmp_path.iterdir()] == ["config.txt"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["sigma_z", "u_coef", "x_prime_low", "miss_x_a", "miss_z_b"])
    def test_non_finite_mechanism_value(self, tmp_path, capsys, key, value):
        out = tmp_path / "run"
        config = tmp_path / "config.txt"
        config.write_text(f"n = 600\nm = 2\nout = {out}\n{key} = {value}\n")
        assert main(["simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert f"{key} must be finite" in err
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
            "simulate": ["--out", str(tmp_path), "--config", str(path)],
            "identify": ["--graph", str(path)],
            "impute": ["--out", str(tmp_path)],  # reads observed.csv from --out
        }[command]
        assert main([command] + source) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert name in err and "not UTF-8" in err

    @pytest.mark.parametrize("m", [4, 2], ids=["m_above", "m_below"])
    def test_evaluate_m_disagrees_with_effect_file(self, run_m3, capsys, m):
        config = ["--config", str(run_m3 / "config.txt"), "--m", str(m)]
        assert main(["evaluate"] + config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert "effects.csv" in err

    def test_evaluate_population_of_another_size(self, pipeline_dir, tmp_path, capsys):
        # as when population.csv of an n = 2000 run is copied into an n = 3000 run
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        lines = (run / "population.csv").read_text().splitlines()
        (run / "population.csv").write_text("\n".join(lines[:-1]) + "\n")
        written = (run / "evaluation.csv").read_bytes()
        assert main(["evaluate", "--out", str(run)]) == 2
        expected = (
            f"error: invalid-input: {run / 'population.csv'} holds 1199 rows, "
            f"but {run / 'observed.csv'} holds 1200\n"
        )
        assert capsys.readouterr().err == expected
        assert (run / "evaluation.csv").read_bytes() == written

    @pytest.mark.parametrize("swap", ["another_run", "x", "z", "y"])
    def test_evaluate_population_of_another_run(self, pipeline_dir, tmp_path, capsys, swap):
        # the population.csv of a seed-10 run of the same size, or this run's
        # with one cell moved that observed.csv also holds
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        population = run / "population.csv"
        if swap == "another_run":
            other = tmp_path / "other"
            assert main(["simulate", "--out", str(other), "--seed", "10", "--n", "1200"]) == 0
            shutil.copy(other / "population.csv", population)
        else:
            observed = (run / "observed.csv").read_text().splitlines()
            column = "xzy".index(swap)
            row = next(i for i, line in enumerate(observed) if "NA" not in line and i > 0)
            lines = population.read_text().splitlines()
            cells = lines[row].split(",")
            cells[column + 1] = repr(float(cells[column + 1]) + 1.0)  # after the u column
            lines[row] = ",".join(cells)
            population.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        written = (run / "evaluation.csv").read_bytes()
        assert main(["evaluate", "--out", str(run)]) == 2
        expected = (
            f"error: invalid-input: {population} is not the population of "
            f"{run / 'observed.csv'}: an observed cell differs\n"
        )
        assert capsys.readouterr().err == expected
        assert (run / "evaluation.csv").read_bytes() == written

    def test_evaluate_diagnostics_of_fewer_copies(self, run_m3, tmp_path, capsys):
        # impute reran with m = 2 after estimate at m = 3
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        run_stage(["impute", "--out", str(run), "--m", "2"])
        capsys.readouterr()
        assert main(["evaluate", "--out", str(run)]) == 2
        expected = (
            f"error: invalid-input: {run / 'imputation_diagnostics.csv'} holds imputed "
            f"mediator means of copies [1, 2], but {run / 'effects.csv'} holds "
            "imputations 1..3\n"
        )
        assert capsys.readouterr().err == expected
        assert not (run / "evaluation.csv").exists()

    def test_evaluate_diagnostics_repeating_a_copy(self, run_m3, tmp_path, capsys):
        # copy 2's imputed mediator row replaced by copy 1's: still three rows
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        path = run / "imputation_diagnostics.csv"
        lines = path.read_bytes().decode().split("\r\n")
        imputed_z = [
            i for i, line in enumerate(lines) if line.startswith("z,") and ",imputed," in line
        ]
        assert [lines[i].split(",")[1] for i in imputed_z] == ["1", "2", "3"]
        lines[imputed_z[1]] = lines[imputed_z[0]]
        path.write_bytes("\r\n".join(lines).encode())
        assert main(["evaluate", "--out", str(run)]) == 2
        expected = (
            f"error: invalid-input: {path} holds imputed mediator means of copies "
            f"[1, 1, 3], but {run / 'effects.csv'} holds imputations 1..3\n"
        )
        assert capsys.readouterr().err == expected
        assert not (run / "evaluation.csv").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("seed = 3\nflux_capacitance = 12\n")
        assert main(["simulate", "--config", str(config)]) == 2
        expected = f"error: invalid-input: {config} line 2: unknown key 'flux_capacitance'\n"
        assert capsys.readouterr().err == expected

    def test_config_value_error_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("seed = 3\nm = 1\n")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        expected = f"error: invalid-input: {config}: m must be >= 2, got 1\n"
        assert capsys.readouterr().err == expected
        assert [path.name for path in tmp_path.iterdir()] == ["config.txt"]

    @pytest.mark.parametrize(
        "key, value",
        [("mediator_draws", 1), ("distribution_draws", 0)],
        ids=["mediator_draws", "distribution_draws"],
    )
    def test_recorded_config_error_names_the_record(self, run_m3, tmp_path, capsys, key, value):
        # keys no longer read, each of which sat at line 9 of older records
        run = tmp_path / "run"
        shutil.copytree(run_m3, run)
        record = run / "run_config.txt"
        lines = record.read_text().splitlines(keepends=True)
        record.write_text("".join([*lines[:8], f"{key} = {value}\n", *lines[8:]]))
        files = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        assert main(["estimate", "--out", str(run)]) == 2
        expected = f"error: invalid-input: {record} line 9: unknown key '{key}'\n"
        assert capsys.readouterr().err == expected
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == files

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # complete-case threshold cannot be met at this sample size
        config = tmp_path / "config.txt"
        config.write_text(f"seed = 6\nn = 150\nm = 2\ngrid = -1:1:3\nout = {tmp_path}\n")
        assert main(["simulate", "--config", str(config)]) == 0
        run_stage(["impute", "--config", str(config)])
        # and it fails before any completed copy is fitted or a model file replaced
        calls = []
        monkeypatch.setattr(frontdoor_estimator, "fit_pair", lambda *a: calls.append(1))
        monkeypatch.setattr(cli, "fit_pair", lambda *a: calls.append(1), raising=False)
        assert main(["estimate", "--save-models", "--config", str(config)]) == 4
        assert "error: numeric-failure: complete-case" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "models").exists()


class TestFlagPrecedence:
    def test_later_stages_use_the_recorded_run(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text(
            f"seed = 8\nn = 600\nm = 2\ngrid = -1:1:3\nsigma_z = 0.5\nout = {tmp_path}\n"
        )
        assert main(["simulate", "--config", str(config)]) == 0
        for command in ("impute", "estimate"):
            run_stage([command, "--out", str(tmp_path)])
        _, _, oracle = effect_from_csv(tmp_path / "effects.csv")
        recorded = load_config(config)
        assert np.array_equal(oracle, oracle_ace(recorded.scm, recorded.grid_values()))
        assert len(list(tmp_path.glob("completed_*.csv"))) == 2

    def test_config_and_flags_override_the_recorded_run(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["simulate", "--out", str(run), "--n", "600", "--m", "2"]) == 0
        config = tmp_path / "config.txt"
        config.write_text("m = 3\n")
        run_stage(["impute", "--config", str(config), "--out", str(run)])
        assert "wrote 3 completed datasets" in capsys.readouterr().out
        run_stage(["impute", "--config", str(config), "--out", str(run), "--m", "2"])
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
        run_stage(["impute", "--out", str(run)])
        capsys.readouterr()
        if given[0] == "--config":
            config = tmp_path / "config.txt"
            config.write_text(given[1])
            given = ["--config", str(config)]
        assert main(["estimate", "--out", str(run)] + given) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input: contradicts the run recorded in")
        assert named in err
        assert not (run / "effects.csv").exists()

    def test_simulate_refuses_a_directory_recorded_for_another_run(self, tmp_path, capsys):
        run = tmp_path / "r"
        flags = ["--out", str(run), "--n", "600", "--m", "2"]
        for command in (["simulate", "--seed", "1"], ["impute"], ["estimate"]):
            run_stage(command + flags)
        names = ("population.csv", "observed.csv", "run_config.txt")
        before = {name: (run / name).read_bytes() for name in names}
        capsys.readouterr()
        assert main(["simulate", "--seed", "2"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input: contradicts the run recorded in")
        assert "seed = 2 (recorded: 1)" in err
        assert {name: (run / name).read_bytes() for name in names} == before
        # repeating the record, or naming none of its keys, reruns the recorded run
        for again in (["--seed", "1"], []):
            assert main(["simulate"] + again + flags) == 0
            assert {name: (run / name).read_bytes() for name in names} == before
        assert main(["evaluate"] + flags) == 0

    def test_values_equal_to_the_recorded_run_pass(self, tmp_path):
        run = tmp_path / "run"
        assert main(["simulate", "--out", str(run), "--n", "600", "--m", "2", "--seed", "1"]) == 0
        config = tmp_path / "config.txt"
        config.write_text("seed = 1\nn = 600\nsigma_z = 0.1\n")  # 0.1: the default
        run_stage(["impute", "--out", str(run), "--config", str(config), "--n", "600"])

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
