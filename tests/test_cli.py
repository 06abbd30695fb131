import contextlib
import csv
import dataclasses
import errno
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import momentbounds
from momentbounds import cli
from momentbounds import vanilla as vanilla_module
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
        # The tolerances are engine constants; a config cannot override them.
        payload = smile_config(tolerances={"psd": 1e-9})
        with pytest.raises(ConfigError, match="unknown key\\(s\\) in config: tolerances"):
            load_config(write_config(tmp_path / "c.json", payload))


class TestRun:
    def test_outputs_and_manifest(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json", smile_config()))
        manifest_path = run(config, tmp_path / "out")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["experiment"] == "VanillaSmile"
        assert manifest["config_sha256"] == config.sha256
        assert manifest["outputs"] == ["smile.csv"]
        assert manifest["tolerances"] == {"eig": 1e-12, "psd": 1e-10}
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

    def test_caplet_assembles_and_factors_each_slice_once(self, tmp_path, factor_calls, assemble_calls):
        # Name kept from when each basket assembled and factored its Q: the
        # basket, built at load, now holds Q's invariants in closed form, and
        # the sweep, the point mass and the vol inversion read them.
        run(load_config(CONFIG_DIR / "caplet_cdf.json"), tmp_path / "out")
        assert (len(assemble_calls), len(factor_calls)) == (0, 0)

    def test_infinite_vol_uses_sentinel(self, tmp_path):
        payload = smile_config()
        payload["parameters"]["root_variances"] = [1.0]
        config = load_config(write_config(tmp_path / "c.json", payload))
        run(config, tmp_path / "out")
        text = (tmp_path / "out" / "smile.csv").read_text()
        assert ",inf," in text

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "caplet_cdf_scan", failing_caplet_scan)
        config = load_config(write_config(tmp_path / "c.json", caplet_config()))
        with pytest.raises(NegativeShiftedRate):
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
            curve = smile_curves(1.0, [nu], strikes, 0.75)
            for row in zip(curve.strikes, *curve.bounds, *curve.implied_vols, *curve.cdf):
                lines.append(",".join(f"{v:.11e}" for v in (nu, *row)))
        assert (tmp_path / "out" / "smile.csv").read_text() == "\n".join(lines) + "\n"

    def test_smile_scaled_by_a_power_of_two_keeps_vol_and_cdf_columns(self, tmp_path):
        # The shipped smile with its forward and strikes times 2^20: the
        # prices scale exactly, so the vol and CDF cells keep their text.
        payload = json.loads((CONFIG_DIR / "vanilla_smile.json").read_text())
        run(load_config(write_config(tmp_path / "c.json", payload)), tmp_path / "plain")
        parameters = payload["parameters"]
        parameters["forward"] *= 2.0**20
        for end in ("start", "stop"):
            parameters["strikes"][end] *= 2.0**20
        run(load_config(write_config(tmp_path / "c.json", payload)), tmp_path / "scaled")
        columns = []
        for out in ("plain", "scaled"):
            with open(tmp_path / out / f"{payload['output']}.csv", encoding="ascii", newline="") as handle:
                header, *rows = csv.reader(handle)
            columns.append([[row[header.index(name)] for row in rows] for name in ("implied_vol", "cdf")])
        assert columns[0] == columns[1]


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def no_space_left(fd, data):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestWriter:
    """A run writes its outputs through ``os``: it makes a missing output
    directory, finishes short writes and closes every file it opens."""

    def test_csv_path_occupied_by_a_directory_exits_4(self, tmp_path, capsys):
        # The earlier run's manifest goes too, though the CSV path cannot be
        # unlinked.
        path = write_config(tmp_path / "c.json", smile_config())
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        (tmp_path / "out" / "smile.csv").unlink()
        (tmp_path / "out" / "smile.csv").mkdir()
        capsys.readouterr()
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: IOError:")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "smile_manifest.json").exists()

    def test_missing_nested_output_directory_is_created(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json", smile_config()))
        run(config, tmp_path / "flat")
        nested = tmp_path / "a" / "b" / "c"
        manifest = run(config, str(nested))
        assert isinstance(manifest, Path)
        assert manifest == nested / "smile_manifest.json"
        assert outputs(nested) == outputs(tmp_path / "flat")

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        config = load_config(CONFIG_DIR / "caplet_cdf.json")
        run(config, tmp_path / "whole")
        write = os.write
        calls = []

        def short_write(fd, data):
            calls.append(len(data))
            return write(fd, data[:4093])

        monkeypatch.setattr(cli.os, "write", short_write)
        run(config, tmp_path / "short")
        monkeypatch.undo()
        assert len(calls) > 2
        assert outputs(tmp_path / "short") == outputs(tmp_path / "whole")

    def test_failed_write_exits_4_and_leaves_no_outputs(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path / "c.json", smile_config())
        run(load_config(path), tmp_path / "out")
        monkeypatch.setattr(cli.os, "write", no_space_left)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 4
        monkeypatch.undo()
        assert capsys.readouterr().err.startswith("error: IOError: [Errno 28] No space left on device")
        assert outputs(tmp_path / "out") == {}

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts the descriptors in /proc/self/fd")
    def test_repeated_runs_leak_no_file_descriptor(self, tmp_path, monkeypatch):
        # -X dev's ResourceWarning sees unclosed file objects, not raw
        # descriptors, so they are counted.
        config = load_config(write_config(tmp_path / "c.json", smile_config()))
        run(config, tmp_path / "out")
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(10):
            run(config, tmp_path / "out")
        monkeypatch.setattr(cli.os, "write", no_space_left)
        for _ in range(10):
            with pytest.raises(OSError):
                run(config, tmp_path / "out")
        monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == before


class TestOneShapeCheckPerJob:
    """Each runner with several curves checks all of them in one call."""

    @pytest.mark.parametrize(
        "name, curves",
        [
            ("fx_cross.json", 6),
            ("caplet_bound.json", 6),
            ("caplet_cdf.json", 3),
            ("flat_refine.json", None),
            ("linear_refine.json", None),
        ],
    )
    def test_one_call_per_job(self, tmp_path, monkeypatch, name, curves):
        calls = []
        check = cli.check_decreasing_convex

        def counting(strikes, values, label="bound curve"):
            calls.append((np.shape(values), label))
            check(strikes, values, label)

        monkeypatch.setattr(cli, "check_decreasing_convex", counting)
        manifest = run(load_config(CONFIG_DIR / name), tmp_path)
        with open(manifest.with_name(json.loads(manifest.read_text())["outputs"][0])) as handle:
            header = handle.readline().strip().split(",")
        ((shape, labels),) = calls
        if curves is None:  # each refined bound, then the Black reference, named by its column
            assert list(labels) == header[1:]
            curves = len(header) - 1
        assert shape[0] == len(labels) == curves

    def test_smile_job_checks_its_curves_once(self, tmp_path, monkeypatch):
        calls = []
        check = vanilla_module.check_decreasing_convex

        def counting(strikes, values, label="bound curve"):
            calls.append(np.shape(values))
            check(strikes, values, label)

        monkeypatch.setattr(vanilla_module, "check_decreasing_convex", counting)
        run(load_config(CONFIG_DIR / "vanilla_smile.json"), tmp_path)
        assert calls == [(4, 23)]


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

    def test_numerical_error_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "caplet_cdf_scan", failing_caplet_scan)
        path = write_config(tmp_path / "c.json", caplet_config())
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
            "sigma": 0.4,
            "correlations": [0.99],
            "strikes": {"start": 0.0, "stop": 0.04, "count": 5},
        },
    }
    payload["parameters"].update(parameters)
    return payload


def failing_caplet_scan(baskets, strikes):
    # A numerical failure of the run: load_config already rejects a config
    # whose shifted swap rates the real scan would refuse.
    raise NegativeShiftedRate("shifted swap rates must be positive")


def caplet_cdf_config(**parameters):
    payload = json.loads((CONFIG_DIR / "caplet_cdf.json").read_text())
    payload["parameters"].update(parameters)
    return payload


def caplet_bound_config(**parameters):
    payload = json.loads((CONFIG_DIR / "caplet_bound.json").read_text())
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
            (fx_config(nu2=-0.1), "root-variance must lie in [0, 1], got -0.1"),
            (refine_config("LinearRefine", strike_sets=[[], [1.0]]), "at least 2"),
            (refine_config("FlatRefine", partitions=[[1.0, 0.5]]), "strictly increasing"),
            (caplet_config(strikes=[0.02, 0.01, 0.03]), "strictly increasing"),
            (caplet_config(period_index=1), "period_index"),
            # A shifted swap rate a run would refuse, and a vol spelling
            # other than sigma.
            (caplet_config(swap_rate=-0.05), "shifted swap rates (-0.05, -0.05) must be positive"),
            (
                caplet_cdf_config(swap_rate=-0.05, shifts=[0.0, 0.5]),
                "shifted swap rates (-0.05, -0.05) must be positive",
            ),
            (caplet_config(root_variance=0.04), "unknown key(s) in parameters: root_variance"),
            # Two slices whose summary entries would share one label.
            (
                caplet_bound_config(correlations=[0.9999991, 0.9999992]),
                "0.9999991 and 0.9999992 share the summary label rho=0.999999",
            ),
            (caplet_cdf_config(shifts=[0.5, 0.5]), "0.5 and 0.5 share the summary label alpha=0.5"),
            (local_attain_config(root_variance=1.0), "strictly inside"),
            # The tolerances are engine constants, not config knobs.
            (smile_config(tolerances={"psd": 1e-10, "eig": 1e-12}), "tolerances"),
            (local_attain_config(attain_tol=1e-9), "attain_tol"),
            (
                experiment_config(
                    "GlobalAttain", {"root_variances": {"start": 0.0, "stop": 1.2, "count": 7}}
                ),
                "got 1.2",
            ),
            # Ranges only the run used to check.
            (with_parameters(smile_config(), strikes=[1.0]), "at least 2"),
            (fx_config(strikes=[1.0]), "at least 2"),
            (local_attain_config(strikes=[1.0]), "at least 2"),
            (refine_config("FlatRefine", partitions=[[1.0]], eval_strikes=[1.0]), "at least 2"),
            (caplet_config(strikes=[0.01, 0.02]), "at least 3"),
            (refine_config("FlatRefine", partitions=[[1.0]], sigma=0.0), "sigma must be positive"),
            (
                refine_config("LinearRefine", strike_sets=[[0.8, 1.2]], sigma=0.0),
                "sigma must be positive",
            ),
            # sigma^2 T overflows, and the moments' closed forms turn NaN.
            (
                refine_config("FlatRefine", partitions=[[0.8, 1.2]], sigma=1.7e308),
                "sigma^2 * expiry finite",
            ),
            (
                refine_config("LinearRefine", strike_sets=[[0.8, 1.2]], forward=1e-12, sigma=1e300),
                "sigma^2 * expiry finite",
            ),
            # Infinities are always written inf: a sentinel is no config key,
            # whether it once was the default or would have broken a row.
            (smile_config(sentinel="inf"), "unknown key(s) in config: sentinel"),
            (smile_config(sentinel="x,y\nz"), "unknown key(s) in config: sentinel"),
            (smile_config(sentinel='"inf"'), "unknown key(s) in config: sentinel"),
            (smile_config(sentinel="inf\r"), "unknown key(s) in config: sentinel"),
            (smile_config(sentinel="in\0f"), "unknown key(s) in config: sentinel"),
            (smile_config(sentinel="\ud800"), "unknown key(s) in config: sentinel"),
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
            "caplet-negative-shifted-rate",
            "caplet-cdf-negative-shifted-rate",
            "caplet-root-variance-key",
            "caplet-correlation-labels-collide",
            "caplet-cdf-shift-labels-collide",
            "local-attain-nu-one",
            "tolerances-block",
            "local-attain-attain-tol",
            "global-attain-grid-above-one",
            "one-strike-smile",
            "one-strike-fx-cross",
            "one-strike-local-attain",
            "one-eval-strike-refine",
            "two-strike-caplet",
            "zero-sigma-flat-refine",
            "zero-sigma-linear-refine",
            "overflowing-variance-flat-refine",
            "overflowing-variance-linear-refine",
            "sentinel-key",
            "sentinel-comma-newline",
            "sentinel-quote",
            "sentinel-carriage-return",
            "sentinel-nul",
            "sentinel-lone-surrogate",
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
        "payload, code, message",
        [
            # A hat function of sigma 50 carries no mass: exit 3, with no
            # density taken where exp underflows to 0 on the way.
            (
                refine_config("LinearRefine", sigma=50.0, strike_sets=[[0.5, 1.0, 1.5, 2.0]]),
                3,
                "error: DegenerateCell:",
            ),
            # A hat strike near the float maximum: a * stdev overflows where
            # the density is zero, and the hat carries no mass.
            (
                refine_config("LinearRefine", sigma=1.0, strike_sets=[[1.0, 1.7e308]]),
                3,
                "error: DegenerateCell:",
            ),
            # A flat cell of sigma 80 with price mass at zero probability,
            # named by its edges; the cell (0.8, 1.2) is dropped first.
            (
                refine_config("FlatRefine", sigma=80.0, partitions=[[0.8, 1.2]]),
                3,
                "error: DegenerateCell: partition cell (1.2, inf) holds price mass at numerically zero probability\n",
            ),
            # (1 + r)^-n divides by zero at r = -1.
            (caplet_config(discount_rate=-1.0), 2, "error: ConfigError:"),
            # A swap rate near the float maximum: the forward rate is formed
            # without an overflow, and the basket's invariants overflow.
            (caplet_bound_config(swap_rate=1.7e308), 2, "error: ConfigError: invalid parameters for CapletBound: caplet"),
            (caplet_cdf_config(swap_rate=1.7e308), 2, "error: ConfigError: invalid parameters for CapletCdf: caplet"),
            # A strike grid wider than the float range.
            (
                caplet_cdf_config(strikes={"start": -1e308, "stop": 1e308, "count": 5}),
                2,
                "error: ConfigError: invalid parameters for CapletCdf: parameters.strikes spans -1e+308 to 1e+308",
            ),
            # f * k and (f - k)^2 overflow unless the bound is scaled.
            (with_parameters(smile_config(), forward=1e300), 0, ""),
            # A subnormal stdev: the edges' standardised logs overflow to +-inf.
            (refine_config("FlatRefine", sigma=5e-324, partitions=[[2.0, 1e300]]), 0, ""),
            # A caplet strike near the float maximum: P = S L S^T overflows
            # unless each sweep row is solved in units of its largest quantity.
            (caplet_cdf_config(strikes=[0.01, 0.02, 1.7e308]), 0, ""),
            # Strikes 1e-9 apart: the values' roundoff over the step exceeds
            # SHAPE_TOL, and the shape check allows for it.
            (
                with_parameters(
                    smile_config(),
                    root_variances=[0.0025, 0.01, 0.04, 0.09],
                    strikes=[1.0 + i * 1e-9 for i in range(10)],
                ),
                0,
                "",
            ),
        ],
        ids=[
            "sigma-50-linear-refine",
            "hat-strike-near-float-max",
            "sigma-80-flat-refine",
            "discount-rate-minus-one",
            "caplet-bound-swap-rate-near-float-max",
            "caplet-cdf-swap-rate-near-float-max",
            "caplet-cdf-grid-wider-than-the-float-range",
            "smile-forward-1e300",
            "subnormal-sigma-flat-refine",
            "caplet-cdf-strike-near-float-max",
            "smile-strikes-1e-9-apart",
        ],
    )
    def test_extreme_configs_warn_nothing(self, tmp_path, capsys, payload, code, message):
        path = write_config(tmp_path / "c.json", payload)
        mode = ["--validate-only"] if code == 2 else ["--out", str(tmp_path / "out")]
        # Recorded, not shown: a partition cell the run drops warns by design.
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", str(path), *mode]) == code
        assert capsys.readouterr().err.startswith(message)

    def test_far_negative_caplet_strikes_bound_minus_strike(self, tmp_path):
        # Strikes near minus the float maximum run without an overflow, and
        # the bound is -k: the forward is far below the last digit written.
        strikes = [-1.7e308, -1.6e308, -1.5e308]
        path = write_config(tmp_path / "c.json", caplet_config(strikes=strikes))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "caplet.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [float(row["strike"]) for row in rows] == strikes
        for row in rows:
            assert float(row["bound"]) == pytest.approx(-float(row["strike"]), rel=1e-12, abs=0.0)

    def test_far_caplet_strikes_keep_the_positive_eigenvalue(self, tmp_path):
        # The far-strike slice of test_markets (nu = 0.15, rho = 0.995): its
        # bound is 4.837264906565e-3 at every strike from 1e10 to 1e20, the
        # one positive eigenvalue of P, 5e-19 of ||P|| at 1e16.
        sigma = 2.0 * math.sqrt(-math.log(0.85))  # root-variance 0.15
        payload = caplet_config(
            periods=10, period_index=10, sigma=sigma, correlations=[0.995], strikes=[1e10, 1e13, 1e16]
        )
        path = write_config(tmp_path / "c.json", payload)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "caplet.csv", encoding="utf-8", newline="") as handle:
            bounds = [float(row["bound"]) for row in csv.DictReader(handle)]
        assert bounds == pytest.approx([4.837264906565e-3] * 3, rel=1e-11, abs=0.0)

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
        # No config sets a tolerance, so none of them reaches the engine.
        payload = smile_config(tolerances=tolerances)
        path = write_config(tmp_path / "c.json", payload)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: unknown key(s) in config: tolerances")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("first_slice_bad", [True, False])
    def test_multi_slice_caplet_error_order(
        self, tmp_path, capsys, monkeypatch, first_slice_bad
    ):
        # Every slice is scanned in one sweep and shape-checked before the
        # slices' vols invert in one call, so a shape error of the second
        # slice wins, also over a vol error of the first.
        real_scan = cli.caplet_cdf_scan
        calls = []

        def scan(baskets, strikes):
            calls.append(baskets)
            result = real_scan(baskets, strikes)
            bounds = result.bounds.copy()
            # Half the bound is below intrinsic in the money, but still
            # decreasing and convex.
            if first_slice_bad:
                bounds[0] *= 0.5
            bounds[1] = bounds[1, ::-1]
            return dataclasses.replace(result, bounds=bounds)

        monkeypatch.setattr(cli, "caplet_cdf_scan", scan)
        path = write_config(tmp_path / "c.json", caplet_config(correlations=[0.99, 0.995]))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert [len(baskets) for baskets in calls] == [2]
        err = capsys.readouterr().err
        assert err.startswith("error: ShapeViolation: caplet bound (alpha=0.0, rho=0.995) increases")

    def test_unwritable_output_exit_4(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", smile_config())
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["--config", str(path), "--out", str(blocker / "out")]) == 4
        assert capsys.readouterr().err.startswith("error: IOError:")


# Values a mutated numeric leaf takes: edges of the ranges the library
# checks, and values that overflow, underflow or round next to 1.  The
# integers stay integers, so an integer leaf keeps its type.
FUZZ_VALUES = [0, 1, -1, 0.5, 2, 3, 100, 1e6, 1e15, 1e-300, -1e-300, 5e-324, 1e-15, 1e-8, 1e300]
FUZZ_VALUES += [1.0 + 1e-15, 1.0 - 1e-15, 0.999999999]


def numeric_leaves(value, path=()):
    """Paths to the numbers (not booleans) inside ``value``, in document order."""
    if isinstance(value, dict):
        return [leaf for key in value for leaf in numeric_leaves(value[key], path + (key,))]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in numeric_leaves(item, path + (i,))]
    return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def mutated(payload, picks):
    """A copy of ``payload`` with each pick ``(leaf, value)`` applied to its
    parameters.  ``leaf`` is an index into the numeric leaves, taken modulo
    their count, or the name of the key that holds the leaf; a name that no
    leaf has is skipped."""
    payload = json.loads(json.dumps(payload))
    leaves = numeric_leaves(payload["parameters"])
    for leaf, value in picks:
        paths = [leaves[leaf % len(leaves)]] if isinstance(leaf, int) else [p for p in leaves if p[-1] == leaf]
        for *parents, key in paths:
            node = payload["parameters"]
            for step in parents:
                node = node[step]
            node[key] = value
    return payload


class TestMutatedShippedConfigs:
    """Each shipped config, with one to three numeric leaves set to edge
    values, ends in exit code 0, 2, 3 or 4 without a warning.  A config that
    validates never exits 2, and every exit-0 output is strict and finite,
    apart from the diverging implied-vol sentinel."""

    @pytest.mark.parametrize("name", [path.name for path in SHIPPED_CONFIGS])
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(picks=st.lists(st.tuples(st.integers(0, 99), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3))
    # A subnormal sigma sqrt(T), where the hat density's z overflows, and a
    # daycount so small that the caplet basket's invariants overflow.
    @example(picks=[("sigma", 5e-324)])
    @example(picks=[("daycount", 1e-300)])
    # A two-state model whose high state lies above the float range.
    @example(picks=[("forward", 1e300), ("start", 4e299), ("stop", 1e308)])
    # Float-edge attainment scans: strike steps too short to resolve a slope,
    # f cos(2 theta) + k above the float range, and an out-of-the-money form
    # that overflows where it is not taken.
    @example(picks=[("forward", 1e300), ("start", 1e-300), ("stop", 1e-200)])
    @example(picks=[("forward", 1e308), ("root_variance", 1.0 - 1e-15), ("start", 4e299), ("stop", 1e308)])
    @example(picks=[("forward", 1.7e308), ("root_variance", 1e-15), ("start", 5e-324), ("stop", 1e308)])
    # A daycount whose annuity overflows.
    @example(picks=[("daycount", 1.7e308)])
    # A swap rate whose forward-rate inversion overflows unless scaled.
    @example(picks=[("swap_rate", 1.7e308)])
    # A start/stop grid whose span overflows.
    @example(picks=[("start", -1e308), ("stop", 1e308)])
    def test_exit_codes_and_outputs(self, name, picks):
        payload = mutated(json.loads((CONFIG_DIR / name).read_text()), picks)
        # A dropped-cell UserWarning is the library's own report, recorded
        # here out of the log; a RuntimeWarning fails the test.
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            path = write_config(Path(tmp) / "c.json", payload)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                valid = main(["--config", str(path), "--validate-only"])
                code = main(["--config", str(path), "--out", str(Path(tmp) / "out")])
            assert valid in (0, 2)
            assert code in (0, 2, 3, 4)
            assert (code == 2) == (valid == 2)
            if code == 0:
                manifest = strict_json((Path(tmp) / "out" / f"{payload['output']}_manifest.json").read_text())
                with open(Path(tmp) / "out" / manifest["outputs"][0], encoding="ascii", newline="") as handle:
                    header, *rows = csv.reader(handle)
                assert rows and all(len(row) == len(header) for row in rows)
                for column, cells in zip(header, zip(*rows)):
                    values = np.array(cells, dtype=float)
                    sentinel = np.isposinf(values) if column == "implied_vol" else False
                    assert np.all(np.isfinite(values) | sentinel), column


def test_import_and_runs_load_no_scipy(tmp_path):
    """Only hat-partition sweeps need scipy (``scipy.linalg``, imported when
    they run); importing the CLI, and running a caplet or smile config, load
    no scipy module.  Importing the CLI and loading every shipped config
    builds none of the lazy tables (the Bachelier start, the Gauss-Legendre
    rules): a run that needs one builds it."""
    source_root = Path(momentbounds.__file__).resolve().parents[1]
    configs = source_root.parent / "configs"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(source_root), os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys\n"
        "from pathlib import Path\n"
        "from momentbounds import cli, models\n"
        "for config in sorted(Path(sys.argv[2]).glob('*.json')):\n"
        "    cli.load_config(config)\n"
        "tables = (models._normal_start_table, models._gl_rule)\n"
        "assert [table.cache_info().currsize for table in tables] == [0, 0]\n"
        "def report():\n"
        "    print('scipy modules:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "report()\n"
        "for config in sys.argv[3:]:\n"
        "    assert cli.main(['--config', config, '--out', sys.argv[1]]) == 0\n"
        "report()\n"
    )
    runs = [str(configs / "caplet_cdf.json"), str(configs / "vanilla_smile.json")]
    result = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path), str(configs), *runs],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    reports = [line for line in result.stdout.splitlines() if line.startswith("scipy modules:")]
    assert reports == ["scipy modules: []"] * 2


def strict_json(text):
    """Parse JSON as a strict parser would: NaN and Infinity are errors."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def cli_subprocess(args, env=None):
    source_root = Path(momentbounds.__file__).resolve().parents[1]
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([str(source_root), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "momentbounds.cli", *args],
        env=env,
        capture_output=True,
        timeout=120,
    )


class TestEncodings:
    """Configs are read, and outputs written, as UTF-8 whatever the locale."""

    def test_config_that_is_not_utf8_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(json.dumps(smile_config(output="smile-OUT")).encode().replace(b"OUT", b"\xff"))
        result = cli_subprocess(["--config", str(path), "--validate-only"])
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(b"error: ConfigError: config is not valid UTF-8")

    def test_output_stem_without_a_file_name_in_the_locale_exits_2(self, tmp_path):
        # The C locale's file-system encoding is ASCII, so the stem "smile-é"
        # names no file there: a config error, not a traceback.
        path = tmp_path / "c.json"
        path.write_bytes(json.dumps(smile_config(output="smile-é"), ensure_ascii=False).encode())
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        result = cli_subprocess(["--config", str(path), "--out", str(tmp_path / "out")], env)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(b"error: ConfigError: 'output'")
        assert b"Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()


class TestStrictOutputs:
    def test_single_correlation_fx_cross_writes_null(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.json", fx_config(correlations=[0.5])))
        manifest = strict_json(run(config, tmp_path / "out").read_text())
        assert manifest["summary"] == {"max_bound_increase_with_rho": None}

    def test_non_finite_summary_value_exits_3(self, tmp_path, capsys, monkeypatch):
        execute = EXPERIMENTS["FxCross"].execute

        def infinite_summary(plan):
            columns, values, summary = execute(plan)
            return columns, values, {"max_bound_increase_with_rho": math.inf}

        monkeypatch.setitem(
            EXPERIMENTS, "FxCross", dataclasses.replace(EXPERIMENTS["FxCross"], execute=infinite_summary)
        )
        path = write_config(tmp_path / "c.json", fx_config())
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: NonFiniteResult: summary value is not finite")
        assert not list((tmp_path / "out").iterdir())

    def test_non_finite_bound_curve_exits_3(self, tmp_path, capsys, monkeypatch):
        def overflowing_bounds(f, nu, k):
            return np.full(np.broadcast(f, nu, k).shape, math.inf)

        monkeypatch.setattr(cli, "vanilla_bounds", overflowing_bounds)
        path = write_config(tmp_path / "c.json", fx_config())
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: NonFiniteResult: fx bound (rho=0.5) is inf")
        assert not list((tmp_path / "out").iterdir())

    # Sentinels the config once accepted: a 30-character and a non-ASCII one.
    @pytest.mark.parametrize("sentinel", ["∞", "no finite implied vol exists!!"])
    @pytest.mark.parametrize("count", [16, 64])  # below and above the array switch
    def test_every_row_has_the_header_fields(self, tmp_path, sentinel, count):
        payload = smile_config(sentinel=sentinel)
        payload["parameters"]["root_variances"] = [1.0, 0.04]
        payload["parameters"]["strikes"]["count"] = count
        with pytest.raises(ConfigError, match="unknown key\\(s\\) in config: sentinel"):
            load_config(write_config(tmp_path / "c.json", payload))
        del payload["sentinel"]
        config = load_config(write_config(tmp_path / "c.json", payload))
        run(config, tmp_path / "out")
        assert all(path.read_bytes().isascii() for path in (tmp_path / "out").iterdir())
        with open(tmp_path / "out" / "smile.csv", encoding="ascii", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert len(rows) == 2 * count
        assert all(len(row) == len(header) for row in rows)
        assert [row[3] for row in rows[:count]] == ["inf"] * count


def reference_csv(columns, values):
    """The table formatted cell by cell, as every table was before the array
    kernel: the bytes the writer must reproduce."""
    cells = [cli._format_column(column) for column in values]
    return ("\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n").encode()


def writer_tables(values, width, integer):
    """Two tables of the values, one below the array kernel's switch and one
    at or above it; each column is the values rotated by its index.  With
    ``integer``, two int64 columns follow: wide integers and small ones."""
    switch = cli._ARRAY_MIN_CELLS
    columns = width + 2 * integer
    for rows in (max(1, min(len(values), (switch - 1) // columns)), max(len(values), -(-switch // columns))):
        column = np.resize(np.array(values, dtype=float), rows)
        table = [np.roll(column, j) for j in range(width)]
        if integer:
            table.append(np.arange(rows, dtype=np.int64) * -12345678901 + 7)
            table.append(np.resize(np.array(SMALL_INTEGERS, dtype=np.int64), rows))
        yield [f"c{j}" for j in range(columns)], table


POWERS_OF_TEN = [
    float(np.nextafter(float(f"1e{p}"), toward))
    for p in (-308, -300, -279, -278, -100, -12, -1, 0, 1, 11, 12, 16, 22, 23, 100, 278, 279, 300, 308)
    for toward in (-math.inf, 0.0, math.inf)
]

ORDINARY = [1.5, 9.0, -0.07, 640.0, 3.141592653589793, 2.718281828459045e-7, -6.02214076e23]

TIES = [1000000000005.0, 1000000000015.0, -1000000000025.0, 100000000001.5, 12345678901.25]

EDGES = [9.9999999999995, 9.99999999999949, -9.9999999999995e-5, 999999999999.5, 1e300, -1e-300, 5e-324]

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]

ZEROS = [0.0, -0.0, 0.0, 7.0, -0.0, -0.25]

# Counts the kernel writes from its table, on both sides of each digit count
# and of the table's end, and integers it leaves to the reference.
SMALL_INTEGERS = [0, 1, 9, 10, 99, 100, 998, 999, 1000, 1001, 12345, -1, -999]


def assert_writer_matches_reference(values, width, integer):
    for columns, table in writer_tables(values, width, integer):
        assert cli._csv_bytes(columns, table) == reference_csv(columns, table)


class TestCsvWriter:
    """The array kernel writes the bytes of the per-cell reference."""

    @settings(deadline=None, max_examples=200)
    @given(
        values=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=80),
        width=st.integers(1, 6),
        integer=st.booleans(),
    )
    @example(values=ORDINARY, width=2, integer=False)
    @example(values=TIES, width=2, integer=False)
    @example(values=POWERS_OF_TEN, width=3, integer=False)
    @example(values=EDGES, width=1, integer=True)
    @example(values=SPECIALS, width=4, integer=True)
    @example(values=ZEROS, width=2, integer=True)
    def test_writer_matches_per_cell_reference(self, values, width, integer):
        assert_writer_matches_reference(values, width, integer)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_caplet_cdf_table_needs_no_cell_by_cell_text(self, monkeypatch, dtype):
        # The shape of a CapletCdf table: lead shifts with a zero, strikes,
        # bounds, vols and cdfs in [0, 1] with zeros, and a count column.
        # Every float has a short decimal expansion, so none is a near tie.
        rows = 3 * 129
        strikes = np.tile(np.arange(-16, 113) / 1024, 3)
        cdf = np.clip(strikes * 8, 0.0, 1.0)
        cdf[1::7] = -0.0
        values = [np.repeat([0.0, -0.015625, 0.03125], 129), strikes, (rows - np.arange(rows)) / 4096]
        values += [np.resize([0.0, 0.0078125, 0.25], rows), cdf, np.arange(rows).astype(dtype) % 4]
        columns = ["alpha", "strike", "bound", "implied_normal_vol", "cdf", "positive_eigenvalues"]
        assert rows * len(columns) >= cli._ARRAY_MIN_CELLS
        expected = reference_csv(columns, values)
        formatted = []
        reference = cli._format_column

        def counting(column):
            formatted.append(len(column))
            return reference(column)

        monkeypatch.setattr(cli, "_format_column", counting)
        assert cli._csv_bytes(columns, values) == expected
        assert formatted == []

    def test_writer_matches_at_both_ends_of_every_binade(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        tops = np.append(np.nextafter(powers[1:], 0.0), sys.float_info.max)
        values = np.concatenate([powers, -tops])
        assert_writer_matches_reference(values.tolist(), 4, False)

    @pytest.mark.parametrize("rows", [2, cli._ARRAY_MIN_CELLS])  # below and above the array switch
    def test_infinities_keep_their_sign(self, rows):
        signed = np.resize([-math.inf, math.inf], rows)
        text = cli._csv_bytes(["a", "b"], [signed, np.arange(rows, dtype=float)])
        cells = [line.split(b",")[0] for line in text.splitlines()[1:]]
        assert cells == [b"-inf", b"inf"] * (rows // 2)

    @pytest.mark.parametrize(
        "mutation",
        ["tie margin 0", "no exponent correction"],
    )
    def test_property_catches_a_broken_kernel(self, monkeypatch, mutation):
        if mutation == "tie margin 0":
            monkeypatch.setattr(cli, "_TIE_MARGIN", 0.0)
        else:
            source = inspect.getsource(cli._kernel_slots)
            correction = "e -= a < _POWERS[e + _POWER_OFFSET]"
            assert correction in source
            namespace = dict(vars(cli))
            exec(compile(source.replace(correction, "pass"), cli.__file__, "exec"), namespace)
            monkeypatch.setattr(cli, "_kernel_slots", namespace["_kernel_slots"])
        with pytest.raises(AssertionError):
            for values in (ORDINARY, TIES, POWERS_OF_TEN, EDGES):
                assert_writer_matches_reference(values, 2, False)
