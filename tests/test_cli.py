import json
from unittest import mock

import numpy as np
import pytest

from rwasim import __version__, compiler, photon_stats
from rwasim.calibration import pair_response
from rwasim.cli import DEVICE_ENV_VAR, main
from rwasim.compiler import random_base_device
from rwasim.device import (VoltageConfig, build_hamiltonian, default_device,
                           save_device_spec)
from rwasim.evolution import unitary
from rwasim.manifest import read_manifest
from rwasim.subcircuits import SubcircuitPair, effective_reflectivity


def run(*argv):
    return main(list(argv))


@pytest.fixture
def device_file(tmp_path):
    path = tmp_path / "device.yaml"
    save_device_spec(default_device(), path)
    return str(path)


def write_device(tmp_path, text: str) -> str:
    """Path of a device YAML holding `text`."""
    path = tmp_path / "device.yaml"
    path.write_text(text)
    return str(path)


def refused(argv, out, capsys) -> str:
    """stderr of `argv` run into `out`, which must exit 3 and leave no `out`."""
    assert run(*argv, "--out", str(out)) == 3
    assert not out.exists()
    return capsys.readouterr().err


class TestSimulate:
    def test_zero_voltage_power_csv(self, tmp_path):
        out = tmp_path / "run"
        assert run("simulate", "--input-guide", "1", "--out", str(out)) == 0
        lines = (out / "powers.csv").read_text().splitlines()
        assert lines[0] == ",".join(f"P{m}" for m in range(1, 12))
        powers = [float(x) for x in lines[1].split(",")]
        assert sum(powers) == pytest.approx(1.0, abs=1e-9)

    def test_profile_rows(self, tmp_path):
        out = tmp_path / "run"
        assert run("simulate", "--profile", "200", "--out", str(out)) == 0
        assert len((out / "profile.csv").read_text().splitlines()) == 201

    def test_invalid_voltage_file(self, tmp_path):
        bad = tmp_path / "volts.txt"
        bad.write_text("0 " * 22 + "\n")  # 22 entries but one over limit
        bad.write_text(" ".join(["0"] * 21 + ["99"]))
        out = tmp_path / "run"
        code = run("simulate", "--voltages", str(bad), "--out", str(out))
        assert code == 3

    def test_wrong_voltage_count(self, tmp_path):
        bad = tmp_path / "volts.txt"
        bad.write_text("1 2 3")
        assert run("simulate", "--voltages", str(bad),
                   "--out", str(tmp_path / "x")) == 3

    @pytest.mark.parametrize("field,value", [
        ("coupling_length", "null"), ("voltage_limit", "[1, 2]"), ("n_guides", "2.7"),
        ("beta_sensitivity", "[1, 2, 3]"), ("beta_sensitivity", "[[1, 2], [3, 4]]"),
    ])
    def test_ill_typed_device_field_is_validation_error(self, tmp_path, capsys,
                                                         field, value):
        # null and lists crashed with a TypeError traceback; 2.7 ran 2 guides;
        # a sensitivity that is neither a matrix nor triplets is named too
        device = tmp_path / "device.yaml"
        device.write_text(f"{field}: {value}\n")
        out = tmp_path / "run"
        assert run("simulate", "--device", str(device), "--out", str(out)) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("", "is empty"), ("- 1\n- 2\n", "device document is not a mapping"),
        ("a: [1, 2\n", "cannot parse"),
    ], ids=["empty", "list", "unparsable"])
    def test_unusable_device_file_refused(self, tmp_path, capsys, text, message):
        argv = ["simulate", "--device", write_device(tmp_path, text)]
        assert message in refused(argv, tmp_path / "run", capsys)

    def test_input_guide_out_of_range(self, tmp_path, capsys):
        err = refused(["simulate", "--profile", "10", "--input-guide", "12"],
                      tmp_path / "run", capsys)
        assert "input_guide 12 out of range 1..11" in err

    def test_eigensolver_failure_is_numerical_exit(self, tmp_path, monkeypatch,
                                                   capsys):
        # LinAlgError is a ValueError, which alone would give exit code 3
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        for solver in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, solver, fail)
        out = tmp_path / "run"
        assert run("simulate", "--out", str(out)) == 4
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "run"
        run("simulate", "--out", str(out))
        man = read_manifest(out / "manifest.json")
        assert man["command"] == "simulate"
        assert "powers.csv" in man["outputs"]
        for name in man["outputs"]:
            assert (out / name).exists()


class TestMap:
    def test_smoke_grid(self, tmp_path):
        out = tmp_path / "run"
        assert run("map", "--electrodes", "1,4", "--range=-2,2",
                   "--step", "2", "--out", str(out)) == 0
        lines = (out / "map.csv").read_text().splitlines()
        assert lines[0] == "v_a,v_b,eta,leak_in1,leak_in2"
        assert len(lines) == 10  # 3x3 grid
        meta = json.loads((out / "map_meta.json").read_text())
        assert meta["electrode_a"] == 1

    def test_default_grid_dimensions(self, tmp_path):
        # default range is +/-10 V, so a 5 V step gives 5 points per axis
        out = tmp_path / "run"
        assert run("map", "--electrodes", "1,4", "--step", "5",
                   "--out", str(out)) == 0
        lines = (out / "map.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 5

    def test_out_of_limit_range(self, tmp_path):
        code = run("map", "--electrodes", "1,4", "--range=-20,20",
                   "--out", str(tmp_path / "x"))
        assert code == 3

    def test_summary(self, tmp_path, capsys):
        assert run("map", "--electrodes", "1,4", "--step", "0.5",
                   "--out", str(tmp_path / "run")) == 0
        assert capsys.readouterr().out.splitlines() == [
            "mean leakage over map: 51.508%",
            "50/50 point: v1=-0.50 V, v4=-3.50 V (eta=0.5002)",
            "eta=0.0: v1=+5.21 V at v4=+10.00 V",
            "eta=0.5: v1=-8.86 V at v4=+10.00 V",
            "eta=1.0: v1=-10.00 V at v4=+10.00 V (clamped)",
        ]

    def test_electrode_out_of_range(self, tmp_path, capsys):
        err = refused(["map", "--electrodes", "1,40"], tmp_path / "run", capsys)
        assert "electrode 40 out of range 1..22" in err

    def test_device_coupling_past_the_phase_bound_refused(self, tmp_path, capsys):
        # exited 3 after numpy's overflow warnings, with "eta: contains
        # non-finite entries", which names no device field
        device = write_device(tmp_path, "base_coupling: [%s]\n" % ", ".join(
            ["5.0e+306"] * 10))
        err = refused(["map", "--electrodes", "1,4", "--step", "5", "--device", device],
                      tmp_path / "run", capsys)
        assert err.startswith("error: base_coupling too large")

    def test_step_must_divide_range(self, tmp_path, capsys):
        # 0.3 V steps cannot span 2 V; a 0.2857 V grid would not match the
        # step the manifest records
        out = tmp_path / "run"
        assert run("map", "--electrodes", "1,4", "--range=-1,1", "--step", "0.3",
                   "--out", str(out)) == 2
        assert "step that divides" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--electrodes", "1.7,4"), ("--electrodes", "a,4"), ("--electrodes", "1,inf"),
        ("--range", "-2,b"),
    ])
    def test_malformed_numbers_are_usage_errors(self, tmp_path, capsys, flag, value):
        # int() would truncate 1.7 to electrode 1 while argv records 1.7
        out = tmp_path / "run"
        argv = {"--electrodes": "1,4", "--range": "-2,2", flag: value}
        assert run("map", "--electrodes", argv["--electrodes"],
                   f"--range={argv['--range']}", "--step", "2",
                   "--out", str(out)) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("electrodes,step,reason", [
        ("1,4", "4", "slice needs >= 3 points, got 2"),
        ("21,22", "1", "reflectivity slope"),  # electrode 22 drives nothing
    ])
    def test_summary_without_fit(self, tmp_path, capsys, electrodes, step, reason):
        assert run("map", "--electrodes", electrodes, "--range=-2,2",
                   "--step", step, "--out", str(tmp_path / "run")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("no linear fit at v") and reason in lines[2]


class TestHom:
    def test_balanced_noiseless_fit(self, tmp_path):
        out = tmp_path / "run"
        assert run("hom", "--eta", "0.5", "--scan=-0.5,0.5,0.01",
                   "--noiseless", "--fit", "--out", str(out)) == 0
        fit = json.loads((out / "dipfit.json").read_text())
        assert fit["a2"] == pytest.approx(1.0, abs=1e-6)

    def test_eta_one_flat(self, tmp_path):
        out = tmp_path / "run"
        assert run("hom", "--eta", "1.0", "--scan=-0.5,0.5,0.01",
                   "--noiseless", "--fit", "--out", str(out)) == 0
        fit = json.loads((out / "dipfit.json").read_text())
        assert abs(fit["a2"]) < 1e-3

    def test_missing_scan_is_usage_error(self, tmp_path):
        assert run("hom", "--eta", "0.5", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("scan", ["-0.6,0.6,0.25", "-0.5,0.5,2", "0.5,-0.5,0.1",
                                      "-0.5,0.5,0", "-0.5,0.5",
                                      "-0.5,x,0.1"])
    def test_scan_step_must_divide_range(self, tmp_path, scan):
        # 0.25 mm steps cannot span 1.2 mm; the rest are empty or malformed
        out = tmp_path / "run"
        assert run("hom", "--eta", "0.5", f"--scan={scan}", "--out", str(out)) == 2
        assert not out.exists()

    def test_scan_grid_keeps_step(self, tmp_path):
        out = tmp_path / "run"
        assert run("hom", "--eta", "0.5", "--scan=-0.6,0.6,0.01", "--noiseless",
                   "--out", str(out)) == 0
        lines = (out / "scan.csv").read_text().splitlines()[1:]
        delays = np.array([float(line.split(",")[0]) for line in lines])
        assert delays.size == 121 and (delays[0], delays[-1]) == (-0.6, 0.6)
        np.testing.assert_allclose(np.diff(delays), 0.01, rtol=0, atol=1e-15)

    def test_fit_failure_is_numerical_exit(self, tmp_path, monkeypatch, capsys):
        # a noiseless full dip needs more than the 10 evaluations this allows
        monkeypatch.setattr(photon_stats, "MAX_FIT_ITERATIONS", 1)
        out = tmp_path / "run"
        assert run("hom", "--eta", "0.5", "--scan=-0.5,0.5,0.01",
                   "--noiseless", "--fit", "--out", str(out)) == 4
        assert "residual norm" in capsys.readouterr().err
        assert not (out / "dipfit.json").exists()
        assert not (out / "manifest.json").exists()

    def test_device_driven_eta(self, device_file, tmp_path):
        out = tmp_path / "run"
        assert run("hom", "--device", device_file, "--pair", "1",
                   "--scan=-0.5,0.5,0.02", "--noiseless",
                   "--out", str(out)) == 0
        eta = read_manifest(out / "manifest.json")["params"]["eta"]
        spec = default_device()
        assert eta == pair_response(spec, SubcircuitPair(1), np.zeros((1, 22)))[0][0]
        u = unitary(build_hamiltonian(spec, VoltageConfig.zeros(22)),
                    spec.coupling_length)
        assert abs(eta - effective_reflectivity(u, SubcircuitPair(1))) <= 1e-12

    @pytest.mark.parametrize("pair", [1, 4, 10])
    def test_device_eta_at_voltages_equals_full_unitary(self, tmp_path, pair):
        volts = np.random.default_rng(pair).uniform(-10.0, 10.0, 22)
        path = tmp_path / "v.txt"
        path.write_text(" ".join(map(repr, volts.tolist())))
        out = tmp_path / "run"
        assert run("hom", "--voltages", str(path), "--pair", str(pair),
                   "--scan=-0.5,0.5,0.02", "--noiseless",
                   "--out", str(out)) == 0
        # the map's path exactly, and the full unitary's to 1e-12
        eta = read_manifest(out / "manifest.json")["params"]["eta"]
        spec = default_device()
        assert eta == pair_response(spec, SubcircuitPair(pair), volts[None])[0][0]
        u = unitary(build_hamiltonian(spec, VoltageConfig(volts)),
                    spec.coupling_length)
        assert abs(eta - effective_reflectivity(u, SubcircuitPair(pair))) <= 1e-12

    @pytest.mark.parametrize("flags,name", [
        (["--width", "inf", "--fit"], "coherence_width"),
        (["--width", "1e300"], "coherence_width"),
        (["--slope", "nan"], "slope"),
        (["--center", "nan"], "dip_center"),
        (["--center", "inf"], "dip_center"),
        (["--baseline", "inf"], "baseline_rate"),
        (["--width", "1e-160"], "coherence_width"),
        (["--baseline", "1e308", "--slope", "1e308"], "baseline_rate and slope"),
        (["--baseline", "1e308", "--slope", "1e308", "--noiseless", "--fit"], "counts"),
        (["--baseline", "1e-300", "--fit"], "counts"),
        (["--baseline", "5e152", "--noiseless", "--fit"], "counts"),
        (["--baseline", "1e153", "--noiseless", "--fit"], "counts"),
        (["--baseline", "1.3e153", "--noiseless", "--fit"], "counts"),
    ])
    def test_non_finite_scan_parameters_exit_3(self, tmp_path, capsys, flags, name):
        # each once exited 0 with a flat or all-zero scan (the last fitted
        # visibility 1.0 +/- 0.0 to it), died with an OverflowError
        # traceback, exited 3 with numpy's Poisson message or exited 4 after
        # overflow warnings in the fit; a warning would fail here too, as
        # pytest raises it
        out = tmp_path / "run"
        assert run("hom", "--eta", "0.5", "--scan=-0.6,0.6,0.01", *flags,
                   "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith(f"error: {name} must be")
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--pair", "0"], "pair 0 out of range 1..10"),
        (["--eta", "0.5", "--slope=-1e6"], "model mean went negative"),
    ], ids=["pair-0", "negative-mean"])
    def test_refused_scan_exits_3(self, tmp_path, capsys, flags, message):
        err = refused(["hom", *flags, "--scan=-0.6,0.6,0.01"], tmp_path / "run", capsys)
        assert message in err

    def test_device_length_past_the_phase_bound_refused(self, tmp_path, capsys):
        # exited 0 on phases near 1e20 rad
        device = write_device(tmp_path, "coupling_length: 1.0e+20\n")
        err = refused(["hom", "--device", device, "--scan=-0.6,0.6,0.01"],
                      tmp_path / "run", capsys)
        assert err.startswith("error: coupling_length too long")

    @pytest.mark.parametrize("eta", ["0.5", "0.5,1.0,0.25"])
    @pytest.mark.parametrize("flag", ["--device", "--pair", "--voltages"])
    def test_eta_excludes_device_flags(self, device_file, tmp_path, capsys, eta, flag):
        # each value would fail if it were read: pair 99 does not exist and
        # the voltages file holds 3 of the device's 22
        volts = tmp_path / "v.txt"
        volts.write_text("0 0 0\n")
        value = {"--device": device_file, "--pair": "99", "--voltages": str(volts)}[flag]
        out = tmp_path / "run"
        assert run("hom", "--eta", eta, flag, value, "--scan=-0.6,0.6,0.01",
                   "--out", str(out)) == 2
        assert f"--eta excludes {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestHomSweep:
    ARGS = ("--scan=-0.6,0.6,0.01", "--baseline", "10000", "--seed", "3")

    @staticmethod
    def rows(out):
        lines = (out / "visibility_sweep.csv").read_text().splitlines()
        assert lines[0] == ("eta,ideal_visibility,fitted_visibility,"
                            "visibility_error,n_max,n_min")
        return [[float(x) for x in line.split(",")] for line in lines[1:]]

    def test_grid_ends_at_one(self, tmp_path, capsys):
        # np.arange(0.5, 1.0125, 0.025) ends at 1.0000000000000004, which
        # ideal_visibility rejects
        out = tmp_path / "run"
        assert run("hom", "--eta", "0.5,1.0,0.025", *self.ARGS, "--out", str(out)) == 0
        etas = [row[0] for row in self.rows(out)]
        assert len(etas) == 21
        assert etas[0] == 0.5 and etas[-1] == 1.0
        assert all(0.0 <= eta <= 1.0 for eta in etas)
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 21 and printed[-1].startswith("eta=1.000  ideal=0.0000")
        man = read_manifest(out / "manifest.json")
        assert man["params"]["eta"] == etas
        assert man["outputs"] == ["visibility_sweep.csv"]

    @pytest.mark.parametrize("etas", ["0.5,1.1,0.1", "-0.1,0.5,0.1", "nan,1,0.1"])
    def test_grid_outside_unit_interval_is_usage_error(self, tmp_path, capsys, etas):
        out = tmp_path / "run"
        assert run("hom", f"--eta={etas}", *self.ARGS, "--out", str(out)) == 2
        assert "--eta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("etas", ["0.5,1.0,0.3", "0.5,0.6,0.6", "0.7,0.7,0.1",
                                      "0.5,1", "0.5,x,0.1"])
    def test_grid_step_must_divide_range(self, tmp_path, capsys, etas):
        # 0.3 does not divide 0.5, 0.6 > 2 * 0.1 would round to one point, and
        # a one-point grid is written --eta 0.7
        out = tmp_path / "run"
        assert run("hom", "--eta", etas, *self.ARGS, "--out", str(out)) == 2
        assert "--eta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noiseless", [False, True])
    def test_matches_reference_loop(self, tmp_path, noiseless):
        flags = ["--noiseless"] if noiseless else []
        out = tmp_path / "run"
        assert run("hom", "--eta", "0.2,0.8,0.2", *self.ARGS, *flags,
                   "--out", str(out)) == 0
        delays = np.linspace(-0.6, 0.6, 121)
        expected = []
        for i, eta in enumerate(np.linspace(0.2, 0.8, 4).tolist()):
            scan = photon_stats.simulate_hom_scan(
                eta, delays, 1e4, noise_seed=None if noiseless else 3 + i)
            fit = photon_stats.fit_hom_dip(scan)
            expected.append([eta, photon_stats.ideal_visibility(eta), fit.visibility,
                             fit.visibility_error,
                             *photon_stats.dip_extrema(fit, scan)])
        assert self.rows(out) == expected

    def test_flat_point_does_not_sink_sweep(self, tmp_path):
        # the eta = 1 scan (noise seed 1) has no dip; with the dip width
        # unbounded its fit ran off to a4 >> span and failed the whole sweep
        out = tmp_path / "run"
        assert run("hom", "--eta", "0.9,1.0,0.1", "--scan=-0.6,0.6,0.01",
                   "--baseline", "10000", "--seed", "0", "--out", str(out)) == 0
        flat = self.rows(out)[1]
        assert flat[0] == 1.0 and 0.0 <= flat[2] <= 3 * flat[3]

    def test_replay_reproduces_bytes(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("hom", "--eta", "0.5,1.0,0.1", *self.ARGS, "--out", str(first)) == 0
        assert run("replay", str(first / "manifest.json"), "--out", str(second)) == 0
        for name in ("visibility_sweep.csv", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestCompile:
    def test_unknown_config(self, tmp_path):
        assert run("compile", "--config", "9", "--gates", "XX",
                   "--out", str(tmp_path / "x")) == 2

    def test_bad_gates(self, tmp_path):
        assert run("compile", "--config", "2", "--gates", "XYZ",
                   "--out", str(tmp_path / "x")) == 2

    def test_small_compile_run(self, tmp_path):
        out = tmp_path / "run"
        assert run("compile", "--config", "2", "--gates", "XX",
                   "--restarts", "2", "--seed", "1", "--out", str(out)) == 0
        doc = json.loads((out / "result.json").read_text())
        assert len(doc["best_voltages"]) == 22
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "restart,objective,best_so_far"
        assert len(trace) == 3

    def test_random_device(self, tmp_path):
        out = tmp_path / "run"
        assert run("compile", "--config", "2", "--gates", "XH", "--restarts", "1",
                   "--seed", "3", "--random-device", "--lengths", "24",
                   "--out", str(out)) == 0
        doc = json.loads((out / "result_24mm.json").read_text())
        expected = compiler.sweep_chip_length(
            random_base_device(seed=3), compiler.preset_config("config2"),
            (compiler.gate_target("X"), compiler.gate_target("H")), [24.0],
            restarts=1, seed=3)[0][1]
        assert doc["objective"] == expected.objective
        assert read_manifest(out / "manifest.json")["inputs"] == {}

    def test_random_device_excludes_device(self, device_file, tmp_path):
        assert run("compile", "--config", "2", "--gates", "XX", "--random-device",
                   "--device", device_file, "--out", str(tmp_path / "x")) == 2

    def test_malformed_lengths_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("compile", "--config", "2", "--gates", "XX", "--restarts", "1",
                   "--lengths", "10,x", "--out", str(out)) == 2
        assert "--lengths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lengths,clash", [
        ("24.0000001,24.0000002", ["24.0000001", "24.0000002"]),
        ("24,24", ["24, 24"]),
        ("10,24,10.0000001", ["10, 10.0000001"]),
    ])
    def test_lengths_sharing_output_names_are_usage_error(self, tmp_path, capsys,
                                                          lengths, clash):
        # both lengths wrote result_24mm.json, the second over the first,
        # and the manifest listed each name twice
        out = tmp_path / "run"
        with mock.patch.object(compiler, "optimize_parallel_gates",
                               wraps=compiler.optimize_parallel_gates) as spy:
            assert run("compile", "--config", "2", "--gates", "XX",
                       "--restarts", "3", "--lengths", lengths,
                       "--out", str(out)) == 2
        assert spy.call_count == 0
        err = capsys.readouterr().err
        assert all(x in err for x in clash)
        assert not out.exists()

    def test_length_sweep_files(self, tmp_path):
        out = tmp_path / "run"
        assert run("compile", "--config", "2", "--gates", "XX",
                   "--restarts", "1", "--lengths", "10,100,200",
                   "--out", str(out)) == 0
        for tag in ("10mm", "100mm", "200mm"):
            assert (out / f"result_{tag}.json").exists()
            assert (out / f"trace_{tag}.csv").exists()

    def test_result_records_every_restart(self, tmp_path):
        out = tmp_path / "run"
        assert run("compile", "--config", "2", "--gates", "XX", "--restarts", "3",
                   "--seed", "4", "--out", str(out)) == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["restart_nit"]) == 3
        assert result["objective"] == min(result["restart_trace"])

    def test_config_beyond_the_device_electrodes(self, tmp_path, capsys):
        device = write_device(tmp_path, "n_electrodes: 8\n")
        err = refused(["compile", "--config", "3", "--gates", "XX", "--device", device],
                      tmp_path / "run", capsys)
        assert "electrode 9 out of range 1..8" in err

    def test_device_length_past_the_phase_bound_refused(self, tmp_path, capsys):
        # exited 0 after an overflow warning, with every restart at status 2
        device = write_device(tmp_path, "coupling_length: 1.0e+250\n")
        err = refused(["compile", "--config", "2", "--gates", "XH", "--restarts", "2",
                       "--device", device], tmp_path / "run", capsys)
        assert err.startswith("error: coupling_length too long")

    def test_compile_that_takes_no_step_refused(self, tmp_path, capsys):
        # inside the phase bound, yet exited 0 with both restarts at status 2
        # after 0 iterations
        device = write_device(tmp_path, "coupling_length: 9.0e+14\n")
        err = refused(["compile", "--config", "2", "--gates", "XH", "--restarts", "2",
                       "--device", device], tmp_path / "run", capsys)
        assert err.startswith("error: no restart took a step")
        assert "coupling_length 9e+14 mm" in err and "rho L = 4.212e+15 rad" in err

    def test_invalid_length_leaves_no_out(self, tmp_path, capsys):
        # the length is checked before the first compile, and --out is made
        # only by the first output
        out = tmp_path / "run"
        assert run("compile", "--config", "2", "--gates", "XX",
                   "--lengths", "0", "--out", str(out)) == 3
        assert "coupling_length" in capsys.readouterr().err
        assert not out.exists()


class TestSeed:
    @pytest.mark.parametrize("argv", [
        ["compile", "--config", "2", "--gates", "XX", "--restarts", "2", "--seed", "-1"],
        ["compile", "--config", "2", "--gates", "XX", "--restarts", "2",
         "--random-device", "--seed", "-3"],
        ["hom", "--eta", "0.5", "--scan=-0.6,0.6,0.01", "--seed", "-1"],
        ["hom", "--eta", "0.2,0.4,0.1", "--scan=-0.6,0.6,0.01", "--seed", "-2"],
        # the seed goes unused here, but a negative one is still refused
        ["hom", "--eta", "0.5", "--scan=-0.6,0.6,0.01", "--noiseless", "--seed", "-1"],
        ["compile", "--config", "2", "--gates", "XX", "--seed", "x"],
    ], ids=["compile", "random-device", "hom", "hom-sweep", "hom-noiseless",
            "not-a-number"])
    def test_seed_must_be_non_negative_integer(self, tmp_path, capsys, argv):
        # numpy refused a negative seed after parsing, naming no flag
        out = tmp_path / "run"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "non-negative integer" in err
        assert not out.exists()

    def test_zero_seed_accepted(self, tmp_path):
        assert run("hom", "--eta", "0.5", "--scan=-0.6,0.6,0.01", "--seed", "0",
                   "--out", str(tmp_path / "run")) == 0


class TestLoss:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("loss", "--modes", "11", "--out", str(out)) == 0
        captured = capsys.readouterr().out
        assert "2.2" in captured
        assert (out / "loss.csv").exists()

    def test_single_mode_error(self, tmp_path):
        assert run("loss", "--modes", "1", "--out", str(tmp_path / "x")) == 3

    @pytest.mark.parametrize("flags", [
        ["--per-mzi", "nan"], ["--per-mzi", "-1"], ["--per-mzi", "inf"],
        ["--db-per-cm", "-2"], ["--db-per-cm", "nan"],
        ["--length-cm", "inf"], ["--length-cm", "nan"]])
    def test_non_finite_or_negative_loss_refused(self, tmp_path, capsys, flags):
        out = tmp_path / "run"
        assert run("loss", "--modes", "4", *flags, "--out", str(out)) == 3
        assert "a finite real >= 0" in capsys.readouterr().err
        assert not (out / "loss.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--modes", "11", "--per-mzi", "1e308"], "Clements loss of 11 modes"),
        (["--modes", "11", "--db-per-cm", "1e308"], "WA loss of 2.4 cm"),
        (["--modes", "3000000000", "--per-mzi", "1e300"], "Clements loss of 3000000000"),
        (["--modes", "1" + "0" * 400],
         "error: n_modes must be a finite real, got 1" + "0" * 400 + "\n")],
        ids=["per-mzi-1e308", "db-per-cm-1e308", "3e9-modes", "401-digit-modes"])
    def test_loss_that_is_not_a_finite_float_refused(self, tmp_path, capsys, flags,
                                                      message):
        # finite inputs whose product overflows: inf was printed and written,
        # or, past a float's range, a traceback ended the run with exit 1
        out = tmp_path / "run"
        assert run("loss", *flags, "--out", str(out)) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReplay:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--unitary", "--profile", "20"],
        ["map", "--electrodes", "1,4", "--range=-2,2", "--step", "2"],
        ["hom", "--eta", "0.7", "--scan=-0.5,0.5,0.02", "--seed", "12", "--fit"],
        ["compile", "--config", "2", "--gates", "XX", "--restarts", "1",
         "--lengths", "10,24"],
        ["loss", "--modes", "500000000"],
    ], ids=lambda argv: argv[0])
    def test_replay_reproduces_every_output(self, tmp_path, argv):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(*argv, "--out", str(first)) == 0
        assert run("replay", str(first / "manifest.json"),
                   "--out", str(second)) == 0
        outputs = read_manifest(first / "manifest.json")["outputs"]
        assert len(outputs) >= 2 or argv[0] == "loss"
        for name in outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        # --out holds the manifest and the outputs it lists, nothing else
        for out in (first, second):
            assert sorted(p.name for p in out.iterdir()) == sorted(
                outputs + ["manifest.json"])

    @pytest.mark.parametrize("version,argv", [
        pytest.param("0.0.1", ["loss", "--modes", "4"], id="other_version"),
        # 0.3.0 builds maps with a batched eigensolver, whose values differ
        # from 0.2.0's in the last digits
        pytest.param("0.2.0", ["map", "--electrodes", "1,4", "--range=-2,2",
                               "--step", "2"], id="0.2.0-map"),
        # 0.4.0 fits with the exact Jacobian, which moves 0.3.0's fitted a2
        # by about 1e-9
        pytest.param("0.3.0", ["hom", "--eta", "0.7", "--scan=-0.5,0.5,0.02",
                               "--seed", "12", "--fit"], id="0.3.0-fit"),
        # 0.5.0 moves the fit's starting dip centre and records input hashes
        pytest.param("0.4.0", ["loss", "--modes", "4"], id="0.4.0-manifest"),
        # 0.6.0 steps the restarts in lockstep and adds restart_nit to
        # result.json
        pytest.param("0.5.0", ["compile", "--config", "2", "--gates", "XX",
                               "--restarts", "1"], id="0.5.0-compile"),
        # 0.7.0 takes eta from the map's power rule, which moves a
        # device-driven eta in its last digit
        pytest.param("0.6.0", ["hom", "--device", "DEVICE", "--scan=-0.5,0.5,0.02",
                               "--noiseless"], id="0.6.0-hom"),
        # 0.8.0 scores the reported result with the restarts' own kernel, which
        # moves result.json's objective and metrics in their last digits
        pytest.param("0.7.0", ["compile", "--config", "2", "--gates", "XX",
                               "--restarts", "3", "--seed", "4"], id="0.7.0-compile"),
        # 0.10.0 bounds the fitted dip centre and width to the scan, which
        # moves fitted values in their last digits
        pytest.param("0.9.0", ["hom", "--eta", "0.5,1.0,0.25", "--scan=-0.6,0.6,0.01",
                               "--seed", "2"], id="0.9.0-sweep"),
        # 0.11.0 fits with the grid-seeded Levenberg-Marquardt solver, which
        # moves fitted values in their last digits
        pytest.param("0.10.0", ["hom", "--eta", "0.7", "--scan=-0.6,0.6,0.01",
                                "--seed", "12", "--fit"], id="0.10.0-fit"),
        # 0.12.0 compiles with the batched bound-constrained L-BFGS in numpy,
        # which moves compiled voltages and adds restart_reason to result.json
        pytest.param("0.11.0", ["compile", "--config", "2", "--gates", "XX",
                                "--restarts", "3", "--seed", "4"], id="0.11.0-compile"),
        # 0.13.0 takes gate targets as power splits, so the H split is exactly
        # 0.5, which moves H-target compiles in their last digits
        pytest.param("0.12.0", ["compile", "--config", "2", "--gates", "XH",
                                "--restarts", "3", "--seed", "4"], id="0.12.0-compile"),
        # 0.14.0 scores the pairs' 4x4 block of U with a real adjoint, which
        # moves compiled objectives and traces in their last digits
        pytest.param("0.13.0", ["compile", "--config", "2", "--gates", "XH",
                                "--restarts", "3", "--seed", "4"], id="0.13.0-compile"),
        # 0.15.0 forms U from eigenvalues and minors, which moves map cells
        # and simulated powers in their last digits
        pytest.param("0.14.0", ["map", "--electrodes", "1,4", "--range=-2,2",
                                "--step", "2"], id="0.14.0-map"),
        pytest.param("0.14.0", ["simulate"], id="0.14.0-simulate"),
        # 0.16.0 searches on sum (r^2 + eps r), polishes the near-best restarts
        # on sum r^2 and adds a stop reason, which moves compiled voltages
        pytest.param("0.15.0", ["compile", "--config", "2", "--gates", "XH",
                                "--restarts", "3", "--seed", "4"], id="0.15.0-compile"),
        # 0.17.0 forms a single U from eigenvectors again, which moves
        # simulated powers and unitaries in their last digits
        pytest.param("0.16.0", ["simulate", "--unitary"], id="0.16.0-simulate"),
        # 0.18.0 stops each restart's search once an iteration lowers f_eps by
        # at most 1e-6 relative, which moves compiled voltages and traces
        pytest.param("0.17.0", ["compile", "--config", "2", "--gates", "XH",
                                "--restarts", "3", "--seed", "4"], id="0.17.0-compile"),
        # 0.19.0 stops a restart's search once f_eps has stalled above a floor,
        # which moves compiled traces and adds a stop reason
        pytest.param("0.18.0", ["compile", "--config", "2", "--gates", "XH",
                                "--restarts", "3", "--seed", "4"], id="0.18.0-compile"),
        # 0.20.0 forms the kernel's block, objective and adjoint in real
        # arithmetic, which moves compiled objectives, voltages and traces
        pytest.param("0.19.0", ["compile", "--config", "2", "--gates", "XH",
                                "--restarts", "3", "--seed", "4"], id="0.19.0-compile"),
        # 0.21.0 forms each voltage row's products with the sensitivities
        # alone, which moves map cells and compiles on devices that tie a
        # guide or coupling to several electrodes
        pytest.param("0.20.0", ["map", "--electrodes", "1,4", "--range=-2,2",
                                "--step", "2"], id="0.20.0-map"),
    ])
    def test_replay_refuses_old_version(self, device_file, tmp_path, capsys,
                                        version, argv):
        first = tmp_path / "first"
        argv = [device_file if tok == "DEVICE" else tok for tok in argv]
        assert run(*argv, "--out", str(first)) == 0
        manifest = first / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["version"] = version
        manifest.write_text(json.dumps(doc))
        second = tmp_path / "second"
        capsys.readouterr()
        assert run("replay", str(manifest), "--out", str(second)) == 3
        err = capsys.readouterr().err
        assert version in err and __version__ in err
        assert not second.exists()

    def test_replay_keeps_device_from_environment(self, tmp_path, monkeypatch):
        device = tmp_path / "random.yaml"
        save_device_spec(random_base_device(seed=3), device)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(DEVICE_ENV_VAR, "random.yaml")
        first = tmp_path / "first"
        assert run("simulate", "--out", str(first)) == 0
        monkeypatch.delenv(DEVICE_ENV_VAR)
        second, default = tmp_path / "second", tmp_path / "default"
        assert run("replay", str(first / "manifest.json"), "--out", str(second)) == 0
        assert run("simulate", "--out", str(default)) == 0
        powers = (first / "powers.csv").read_bytes()
        assert (second / "powers.csv").read_bytes() == powers
        assert (default / "powers.csv").read_bytes() != powers
        man = read_manifest(first / "manifest.json")
        assert man["argv"][-2:] == ["--device", str(device)]
        assert list(man["inputs"]) == [str(device)]

    def test_replay_ignores_device_from_environment(self, tmp_path, monkeypatch):
        # a run on the built-in device replays on the built-in device
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("simulate", "--out", str(first)) == 0
        device = tmp_path / "random.yaml"
        save_device_spec(random_base_device(seed=3), device)
        monkeypatch.setenv(DEVICE_ENV_VAR, str(device))
        assert run("replay", str(first / "manifest.json"), "--out", str(second)) == 0
        powers = (first / "powers.csv").read_bytes()
        assert (second / "powers.csv").read_bytes() == powers
        third = tmp_path / "third"
        assert run("simulate", "--out", str(third)) == 0  # a new run reads it
        assert (third / "powers.csv").read_bytes() != powers

    def test_replay_refuses_edited_input(self, device_file, tmp_path, capsys):
        volts = tmp_path / "volts.txt"
        volts.write_text(" ".join(["1"] * 22))
        first = tmp_path / "first"
        assert run("simulate", "--device", device_file, "--voltages", str(volts),
                   "--out", str(first)) == 0
        inputs = read_manifest(first / "manifest.json")["inputs"]
        assert sorted(inputs) == sorted([device_file, str(volts)])
        assert all(len(digest) == 64 for digest in inputs.values())
        save_device_spec(default_device().with_length(30.0), device_file)
        second = tmp_path / "second"
        capsys.readouterr()
        assert run("replay", str(first / "manifest.json"), "--out", str(second)) == 3
        assert device_file in capsys.readouterr().err
        assert not second.exists()

    def test_out_given_with_equals_sign_is_not_recorded(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("simulate", "--profile", "5", f"--out={first}") == 0
        manifest = read_manifest(first / "manifest.json")
        assert not any(tok.startswith("--out") for tok in manifest["argv"])
        assert run("replay", str(first / "manifest.json"), "--out", str(second)) == 0
        for name in manifest["outputs"] + ["manifest.json"]:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda doc, path: json.dumps([doc]),
        lambda doc, path: json.dumps({**doc, "argv": "simulate"}),
        lambda doc, path: json.dumps({**doc, "argv": ["simulate", 3]}),
        lambda doc, path: json.dumps({**doc, "inputs": []}),
        lambda doc, path: json.dumps({**doc, "argv": ["replay", str(path)]}),
        lambda doc, path: json.dumps(doc)[:-1],
        lambda doc, path: "[" * 10_000 + "]" * 10_000,
    ], ids=["list", "argv_string", "argv_number", "inputs_list", "replays_itself",
            "not_json", "nested_too_deep"])
    def test_replay_refuses_what_is_not_a_manifest(self, tmp_path, capsys, edit):
        first = tmp_path / "first"
        assert run("loss", "--modes", "4", "--out", str(first)) == 0
        manifest = first / "manifest.json"
        manifest.write_text(edit(json.loads(manifest.read_text()), manifest))
        capsys.readouterr()
        err = refused(["replay", str(manifest)], tmp_path / "second", capsys)
        [line] = err.splitlines()
        assert line.startswith("error: ") and str(manifest) in line

    @pytest.mark.parametrize("out_tokens", [
        lambda out: ["--ou", str(out)],
        lambda out: [f"--o={out}"],
    ], ids=["prefix", "prefix_with_equals_sign"])
    def test_abbreviated_out_is_not_recorded(self, tmp_path, out_tokens):
        short, full = tmp_path / "short", tmp_path / "full"
        assert run("simulate", *out_tokens(short)) == 0
        assert run("simulate", "--out", str(full)) == 0
        assert ((short / "manifest.json").read_bytes()
                == (full / "manifest.json").read_bytes())
