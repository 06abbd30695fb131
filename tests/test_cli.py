import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentbounds
from momentbounds import cli
from momentbounds.cli import EXPERIMENTS, load_config, main, run
from momentbounds.errors import ConfigError, DegenerateCell, NegativeShiftedRate
from momentbounds.vanilla import check_decreasing_convex, smile_curves


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return path


def smile_config(**overrides):
    payload = {
        "schema_version": 1,
        "experiment": "VanillaSmile",
        "output": "smile",
        "parameters": {
            "forward": 1.0,
            "root_variances": [0.01, 0.04],
            "strikes": {"start": 0.5, "stop": 2.0, "count": 16},
            "expiry": 1.0,
        },
    }
    payload.update(overrides)
    return payload


class TestConfigValidation:
    def test_round_trip(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json", smile_config()))
        assert config.experiment == "VanillaSmile"
        assert config.output == "smile"

    def test_unknown_top_level_key(self, tmp_path):
        payload = smile_config()
        payload["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            load_config(write_config(tmp_path / "c.json", payload))

    def test_unknown_parameter_key(self, tmp_path):
        payload = smile_config()
        payload["parameters"]["typo"] = 3
        with pytest.raises(ConfigError, match="typo"):
            load_config(write_config(tmp_path / "c.json", payload))

    def test_wrong_schema_version(self, tmp_path):
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_config(tmp_path / "c.json", smile_config(schema_version=2)))

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="experiment"):
            load_config(write_config(tmp_path / "c.json", smile_config(experiment="Nope")))

    def test_parameter_range_checked_up_front(self, tmp_path):
        payload = smile_config()
        payload["parameters"]["root_variances"] = [1.5]
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.json", payload))

    def test_output_must_be_plain_stem(self, tmp_path):
        with pytest.raises(ConfigError, match="output"):
            load_config(write_config(tmp_path / "c.json", smile_config(output="a/b")))

    def test_grid_spec_validated(self, tmp_path):
        payload = smile_config()
        payload["parameters"]["strikes"] = {"start": 0.5, "stop": 2.0}
        with pytest.raises(ConfigError, match="count"):
            load_config(write_config(tmp_path / "c.json", payload))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_tolerance_override(self, tmp_path):
        payload = smile_config(tolerances={"psd": 1e-9})
        config = load_config(write_config(tmp_path / "c.json", payload))
        assert config.tolerances.psd == 1e-9
        assert config.tolerances.eig == 1e-12


class TestRun:
    def test_outputs_and_manifest(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json", smile_config()))
        manifest_path = run(config, tmp_path / "out")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["experiment"] == "VanillaSmile"
        assert manifest["config_sha256"] == config.sha256
        assert manifest["outputs"] == ["smile.csv"]
        csv_path = tmp_path / "out" / "smile.csv"
        text = csv_path.read_text()
        assert text.splitlines()[0] == "nu,strike,bound,implied_vol,cdf"
        assert "\r" not in text
        # 12 significant digits in scientific notation.
        first_value = text.splitlines()[1].split(",")[2]
        mantissa = first_value.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 12

    def test_rerun_is_byte_identical(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json", smile_config()))
        run(config, tmp_path / "a")
        run(config, tmp_path / "b")
        assert (tmp_path / "a" / "smile.csv").read_bytes() == (
            tmp_path / "b" / "smile.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "smile_manifest.json").read_bytes() == (
            tmp_path / "b" / "smile_manifest.json"
        ).read_bytes()

    def test_refine_factors_once_per_partition(self, tmp_path, factor_calls):
        payload = {
            "schema_version": 1,
            "experiment": "FlatRefine",
            "output": "flat",
            "parameters": {
                "forward": 1.0,
                "sigma": 0.3,
                "partitions": [[], [0.8, 1.25], [0.6, 0.9, 1.1, 1.5]],
                "eval_strikes": {"start": 0.5, "stop": 2.0, "count": 13},
            },
        }
        config = load_config(write_config(tmp_path / "c.json", payload))
        run(config, tmp_path / "out")
        # Flat partitions are solved per cell in closed form, with no factor.
        assert len(factor_calls) == 0

    def test_infinite_vol_uses_sentinel(self, tmp_path):
        payload = smile_config(sentinel="NA")
        payload["parameters"]["root_variances"] = [1.0]
        config = load_config(write_config(tmp_path / "c.json", payload))
        run(config, tmp_path / "out")
        text = (tmp_path / "out" / "smile.csv").read_text()
        assert ",NA," in text

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        payload = {
            "schema_version": 1,
            "experiment": "CapletBound",
            "output": "caplet",
            "parameters": {
                "discount_rate": 0.01,
                "periods": 5,
                "period_index": 5,
                "swap_rate": -0.05,
                "root_variance": 0.04,
                "correlations": [0.99],
                "shift": 0.0,
                "strikes": {"start": 0.0, "stop": 0.04, "count": 5},
            },
        }
        config = load_config(write_config(tmp_path / "c.json", payload))
        with pytest.raises(Exception):
            run(config, tmp_path / "out")
        assert not (tmp_path / "out" / "caplet.csv").exists()
        assert not (tmp_path / "out" / "caplet_manifest.json").exists()


    def linear_refine_config(self, strike_sets):
        return {
            "schema_version": 1,
            "experiment": "LinearRefine",
            "output": "x",
            "parameters": {
                "forward": 1.0,
                "sigma": 0.2,
                "strike_sets": strike_sets,
                "eval_strikes": {"start": 0.6, "stop": 1.6, "count": 6},
            },
        }

    def test_failed_rerun_leaves_no_stale_outputs(self, tmp_path):
        good = self.linear_refine_config([[0.8, 1.2]])
        good = load_config(write_config(tmp_path / "a.json", good))
        run(good, tmp_path / "out")
        assert (tmp_path / "out" / "x_manifest.json").exists()
        # Hat strikes 50x the forward carry no mass: the re-run fails and
        # must not leave the first run's manifest describing a missing CSV.
        bad = self.linear_refine_config([[1.0, 50.0, 60.0]])
        bad = load_config(write_config(tmp_path / "b.json", bad))
        with pytest.raises(DegenerateCell):
            run(bad, tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []

    def test_config_error_leaves_earlier_outputs(self, tmp_path):
        config = load_config(write_config(tmp_path / "a.json", smile_config()))
        run(config, tmp_path / "out")
        before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        # A config error is raised as the config loads, before a run starts:
        # a re-run of the same output stem keeps the earlier outputs.
        bad = write_config(tmp_path / "b.json", with_parameters(smile_config(), forward=0.0))
        with pytest.raises(ConfigError):
            load_config(bad)
        assert main(["--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before

    def test_rerun_replaces_outputs(self, tmp_path):
        payload = smile_config()
        run(load_config(write_config(tmp_path / "a.json", payload)), tmp_path / "out")
        payload["parameters"]["root_variances"] = [0.09]
        config = load_config(write_config(tmp_path / "b.json", payload))
        run(config, tmp_path / "out")
        run(config, tmp_path / "fresh")
        for name in ("smile.csv", "smile_manifest.json"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "out" / name).read_bytes() == fresh

    def test_smile_csv_equals_per_curve_smile_curve(self, tmp_path):
        payload = smile_config()
        payload["parameters"]["root_variances"] = [0.0025, 0.04, 0.09]
        payload["parameters"]["expiry"] = 0.75
        run(load_config(write_config(tmp_path / "c.json", payload)), tmp_path / "out")
        strikes = np.linspace(0.5, 2.0, 16)
        lines = ["nu,strike,bound,implied_vol,cdf"]
        for nu in payload["parameters"]["root_variances"]:
            (curve,) = smile_curves(1.0, [nu], strikes, 0.75)
            for row in zip(curve.strikes, curve.bounds, curve.implied_vols, curve.cdf):
                lines.append(",".join(f"{v:.11e}" for v in (nu, *row)))
        assert (tmp_path / "out" / "smile.csv").read_text() == "\n".join(lines) + "\n"


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def plan_arrays(value):
    """Every numpy array in a plan, also inside lists, dicts and the
    library's values."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    elif dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif not isinstance(value, (list, tuple)):
        return []
    return [array for item in value for array in plan_arrays(item)]


class TestLoadedPlan:
    """A run executes the plan ``load_config`` built, and never prepares it
    again."""

    def test_every_experiment_is_shipped(self):
        shipped = {json.loads(path.read_text())["experiment"] for path in SHIPPED_CONFIGS}
        assert shipped == set(EXPERIMENTS)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_loaded_config_reruns_without_prepare(self, tmp_path, monkeypatch, path):
        config = load_config(path)

        def refuse(parameters):
            raise AssertionError("prepare called by run")

        for name, experiment in EXPERIMENTS.items():
            monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(experiment, prepare=refuse))
        run(config, tmp_path / "first")
        run(config, tmp_path / "second")
        monkeypatch.undo()
        run(load_config(path), tmp_path / "fresh")
        assert outputs(tmp_path / "first") == outputs(tmp_path / "fresh")
        assert outputs(tmp_path / "second") == outputs(tmp_path / "fresh")

    @pytest.mark.parametrize(
        "path", [*SHIPPED_CONFIGS, "explicit-grids"], ids=lambda p: getattr(p, "stem", p)
    )
    def test_plan_arrays_are_read_only(self, tmp_path, path):
        if path == "explicit-grids":
            payload = refine_config(
                "LinearRefine", strike_sets=[[], [0.8, 1.2]], eval_strikes=[0.9, 1.1]
            )
            path = write_config(tmp_path / "c.json", payload)
        arrays = plan_arrays(load_config(path).plan)
        assert arrays
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_plan_is_kept_out_of_equality_and_repr(self, tmp_path):
        path = write_config(tmp_path / "c.json", smile_config())
        first, second = load_config(path), load_config(path)
        assert first == second and first.plan is not second.plan
        assert "plan" not in repr(first)


class TestExperimentOutputs:
    def test_refine_summaries_record_convergence(self, tmp_path):
        payload = {
            "schema_version": 1,
            "experiment": "FlatRefine",
            "output": "refine",
            "parameters": {
                "forward": 1.0,
                "sigma": 0.4,
                "expiry": 1.0,
                "partitions": [[], [0.5, 1.0, 1.5, 2.0, 2.5]],
                "eval_strikes": {"start": 0.6, "stop": 2.0, "count": 8},
            },
        }
        config = load_config(write_config(tmp_path / "c.json", payload))
        manifest = json.loads(run(config, tmp_path / "out").read_text())
        summary = manifest["summary"]
        assert summary["reference_dominated"] is True
        assert 0.0 < summary["convergence_ratio"] < 1.0

    def test_caplet_cdf_summary_locates_switches(self, tmp_path):
        payload = {
            "schema_version": 1,
            "experiment": "CapletCdf",
            "output": "cdf",
            "parameters": {
                "discount_rate": 0.01,
                "periods": 10,
                "period_index": 10,
                "swap_rate": 0.02,
                "sigma": 0.4,
                "correlation": 0.995,
                "shifts": [0.0, 1.0],
                "strikes": {"start": -1.02, "stop": 0.02, "count": 105},
            },
        }
        config = load_config(write_config(tmp_path / "c.json", payload))
        manifest = json.loads(run(config, tmp_path / "out").read_text())
        switches = manifest["summary"]["switch_strikes"]
        assert len(switches["alpha=0"]) == 1
        assert len(switches["alpha=1"]) == 1
        assert abs(switches["alpha=0"][0] - 0.0) < 0.011
        assert abs(switches["alpha=1"][0] + 1.0) < 0.011
        masses = manifest["summary"]["point_mass_at_zero"]
        assert masses["alpha=0"] > 1e-6
        assert abs(masses["alpha=1"]) < 1e-6

    def test_every_emitted_bound_column_passes_shape_check(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json", smile_config()))
        run(config, tmp_path / "out")
        rows = (tmp_path / "out" / "smile.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        for nu in np.unique(data[:, 0]):
            block = data[data[:, 0] == nu]
            check_decreasing_convex(block[:, 1], block[:, 2])


class TestMainEntry:
    def test_list_experiments(self, capsys):
        assert main(["--list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(EXPERIMENTS)

    def test_validate_only(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", smile_config())
        assert main(["--config", str(path), "--validate-only"]) == 0

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: IOError:")

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", smile_config(schema_version=9))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ConfigError:")

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "experiment": "CapletBound",
            "output": "caplet",
            "parameters": {
                "discount_rate": 0.01,
                "periods": 5,
                "period_index": 5,
                "swap_rate": -0.05,
                "root_variance": 0.04,
                "correlations": [0.99],
                "shift": 0.0,
                "strikes": {"start": 0.0, "stop": 0.04, "count": 5},
            },
        }
        path = write_config(tmp_path / "c.json", payload)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: NegativeShiftedRate:")
        assert "\n" not in err.strip("\n") or err.count("\n") == 1

    def test_successful_run_prints_manifest_path(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", smile_config())
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "smile_manifest.json" in capsys.readouterr().out


def caplet_config(**parameters):
    payload = {
        "schema_version": 1,
        "experiment": "CapletBound",
        "output": "caplet",
        "parameters": {
            "discount_rate": 0.01,
            "periods": 5,
            "period_index": 5,
            "swap_rate": 0.02,
            "root_variance": 0.04,
            "correlations": [0.99],
            "strikes": {"start": 0.0, "stop": 0.04, "count": 5},
        },
    }
    payload["parameters"].update(parameters)
    return payload


def with_parameters(payload, **parameters):
    payload["parameters"].update(parameters)
    return payload


def experiment_config(experiment, parameters):
    return {"schema_version": 1, "experiment": experiment, "output": "x", "parameters": parameters}


STRIKES = {"start": 0.5, "stop": 2.0, "count": 7}


def fx_config(**parameters):
    defaults = {"forward": 1.0, "nu1": 0.04, "nu2": 0.04, "correlations": [0.5], "strikes": STRIKES}
    return experiment_config("FxCross", {**defaults, **parameters})


def refine_config(experiment, **parameters):
    defaults = {"forward": 1.0, "sigma": 0.4, "eval_strikes": STRIKES}
    return experiment_config(experiment, {**defaults, **parameters})


def local_attain_config(**parameters):
    defaults = {"forward": 1.0, "root_variance": 0.01, "strikes": STRIKES}
    return experiment_config("LocalAttain", {**defaults, **parameters})


class TestExitCodes:
    """One exit code per class of bad config: 2 for a config error, 3 for a
    numerical error, 4 for an I/O error, and never a traceback."""

    @pytest.mark.parametrize(
        "payload, message",
        [
            (with_parameters(smile_config(), typo=3), "typo"),
            (
                with_parameters(
                    smile_config(), strikes={"start": 0.5, "stop": math.inf, "count": 5}
                ),
                "finite",
            ),
            (with_parameters(smile_config(), forward=math.nan), "finite"),
            (with_parameters(smile_config(), forward=10**400), "finite"),
            (caplet_config(correlations=[math.nan]), "finite"),
            (
                with_parameters(
                    smile_config(), strikes={"start": 0.5, "stop": 2.0, "count": 10**11}
                ),
                "at most",
            ),
            (caplet_config(periods=10**11), "at most"),
            # Ranges the library's own values check as the config is loaded.
            (with_parameters(smile_config(), root_variances=[0.01, 1.5]), "got 1.5"),
            (with_parameters(smile_config(), strikes=[1.0, 0.5]), "strictly increasing"),
            (with_parameters(smile_config(), forward=0.0), "positive, got 0.0"),
            (fx_config(correlations=[0.5, 1.5]), "got 1.5"),
            (fx_config(nu2=-0.1), "root-variances"),
            (refine_config("LinearRefine", strike_sets=[[], [1.0]]), "at least 2"),
            (refine_config("FlatRefine", partitions=[[1.0, 0.5]]), "strictly increasing"),
            (caplet_config(strikes=[0.02, 0.01, 0.03]), "strictly increasing"),
            (caplet_config(period_index=1), "period_index"),
            (local_attain_config(root_variance=1.0), "strictly inside"),
            (
                experiment_config(
                    "GlobalAttain", {"root_variances": {"start": 0.0, "stop": 1.2, "count": 7}}
                ),
                "got 1.2",
            ),
            # Ranges only the run used to check.
            (with_parameters(smile_config(), strikes=[1.0]), "at least 2"),
            (refine_config("FlatRefine", partitions=[[1.0]], eval_strikes=[1.0]), "at least 2"),
            (caplet_config(strikes=[0.01, 0.02]), "at least 3"),
            (refine_config("FlatRefine", partitions=[[1.0]], sigma=0.0), "sigma must be positive"),
            (
                refine_config("LinearRefine", strike_sets=[[0.8, 1.2]], sigma=0.0),
                "sigma must be positive",
            ),
        ],
        ids=[
            "unknown-key",
            "infinite-grid-end",
            "nan-number",
            "integer-beyond-float",
            "nan-in-list",
            "oversize-count",
            "oversize-periods",
            "smile-nu-above-one",
            "decreasing-strikes",
            "zero-forward",
            "fx-correlation-above-one",
            "fx-negative-nu2",
            "one-strike-linear-set",
            "decreasing-flat-boundaries",
            "decreasing-caplet-strikes",
            "caplet-period-index-one",
            "local-attain-nu-one",
            "global-attain-grid-above-one",
            "one-strike-smile",
            "one-eval-strike-refine",
            "two-strike-caplet",
            "zero-sigma-flat-refine",
            "zero-sigma-linear-refine",
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, payload, message):
        path = write_config(tmp_path / "c.json", payload)
        for mode in (["--validate-only"], ["--out", str(tmp_path / "out")]):
            assert main(["--config", str(path), *mode]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ConfigError:")
            assert message in err

    def test_inconsistent_moments_exit_3(self, tmp_path, capsys):
        # A valid config that fails numerically: hat strikes 50-70x the
        # forward carry no probability mass under the lognormal model.
        payload = {
            "schema_version": 1,
            "experiment": "LinearRefine",
            "output": "x",
            "parameters": {
                "forward": 1.0,
                "sigma": 0.2,
                "strike_sets": [[50.0, 60.0, 70.0]],
                "eval_strikes": {"start": 0.6, "stop": 1.6, "count": 6},
            },
        }
        path = write_config(tmp_path / "c.json", payload)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: DegenerateCell:")
        assert not (tmp_path / "out" / "x.csv").exists()

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"psd": -0.5},
            {"psd": -1e-300},
            {"eig": -2.0},
            {"eig": -1e-300},
            {"eig": 1.0},
            {"eig": 2.0},
        ],
    )
    def test_under_reporting_tolerances_exit_2(self, tmp_path, capsys, tolerances):
        # A negative psd or an eig outside [0, 1) would let the engine drop
        # positive eigenvalues or add negative ones, under-reporting the bound.
        payload = smile_config(tolerances=tolerances)
        path = write_config(tmp_path / "c.json", payload)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: invalid tolerances:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("first_slice_bad", [True, False])
    def test_multi_slice_caplet_error_order(
        self, tmp_path, capsys, monkeypatch, first_slice_bad
    ):
        # The slices' vols are inverted in one call after the scans, yet a
        # vol error of the first slice still wins over a scan error of the
        # second, as it did when each slice was inverted after its scan.
        real_scan = cli.caplet_cdf_scan
        calls = []

        def scan(slice_, n, strikes, tol):
            calls.append(slice_)
            if len(calls) == 2:
                raise NegativeShiftedRate("second slice")
            result = real_scan(slice_, n, strikes, tol)
            # Half the bound is below intrinsic in the money, but still
            # decreasing and convex.
            if first_slice_bad:
                return dataclasses.replace(result, bounds=0.5 * result.bounds)
            return result

        monkeypatch.setattr(cli, "caplet_cdf_scan", scan)
        path = write_config(tmp_path / "c.json", caplet_config(correlations=[0.99, 0.995]))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
        expected = "PriceOutsideArbitrageBounds" if first_slice_bad else "NegativeShiftedRate"
        assert capsys.readouterr().err.startswith(f"error: {expected}:")

    def test_unwritable_output_exit_4(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", smile_config())
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["--config", str(path), "--out", str(blocker / "out")]) == 4
        assert capsys.readouterr().err.startswith("error: IOError:")


def test_import_and_runs_load_no_scipy(tmp_path):
    """Only hat-partition sweeps need scipy (``scipy.linalg``, imported when
    they run); importing the CLI, and running a caplet or smile config, load
    no scipy module."""
    source_root = Path(momentbounds.__file__).resolve().parents[1]
    configs = source_root.parent / "configs"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(source_root), os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys\n"
        "from momentbounds import cli\n"
        "def report():\n"
        "    print('scipy modules:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "report()\n"
        "for config in sys.argv[2:]:\n"
        "    assert cli.main(['--config', config, '--out', sys.argv[1]]) == 0\n"
        "report()\n"
    )
    runs = [str(configs / "caplet_cdf.json"), str(configs / "vanilla_smile.json")]
    result = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path), *runs],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    reports = [line for line in result.stdout.splitlines() if line.startswith("scipy modules:")]
    assert reports == ["scipy modules: []"] * 2
