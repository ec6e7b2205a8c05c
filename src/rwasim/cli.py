"""Command-line front end.

Subcommands: simulate, map, hom, compile, loss, replay.  Each run writes
its outputs plus a manifest.json into --out; `replay <manifest>` re-runs
the recorded command into a fresh directory, and refuses a manifest written
by another rwasim version or one whose input files have changed since.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 numerical
failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, calibration, compiler, evolution
from . import device as device_mod
from . import photon_stats
from .device import DeviceSpec, VoltageConfig
from .csvio import write_csv
from .evolution import NumericalFailureError
from .manifest import MANIFEST_NAME, RunManifest, file_sha256, read_manifest
from .photon_stats import FitFailureError
from .subcircuits import SubcircuitPair, effective_reflectivity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

DEVICE_ENV_VAR = "RWASIM_DEVICE"


class UsageError(Exception):
    pass


def _load_device(args, argv: list[str]) -> tuple[DeviceSpec, list[str]]:
    """Resolve --device, then $RWASIM_DEVICE, then the built-in default.

    A device named by the environment is appended to `argv` as --device with
    its resolved path, so the manifest replays it without the variable.
    `args.env_device` holds the variable's value; `main` leaves it None on
    replay.
    """
    path = args.device
    if path is None:
        path = args.env_device
        if path is None:
            return device_mod.default_device(), []
        path = str(Path(path).resolve())
        argv += ["--device", path]
    return device_mod.load_device_spec(path), [path]


def _load_voltages(path: str | None, spec: DeviceSpec) -> VoltageConfig:
    if path is None:
        return VoltageConfig.zeros(spec.n_electrodes)
    text = Path(path).read_text().replace(",", " ")
    values = np.array([float(tok) for tok in text.split()])
    if values.size != spec.n_electrodes:
        raise device_mod.DeviceSpecError(
            f"{path}: {values.size} voltages, expected {spec.n_electrodes}"
        )
    return VoltageConfig(values)


def _parse_floats(text: str, flag: str, *counts: int) -> list[float]:
    """Comma-separated numbers, as many as one of `counts` (any if none)."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    if not values or counts and len(values) not in counts:
        expected = " or ".join(map(str, counts)) or "one or more"
        raise UsageError(f"{flag} expects {expected} comma-separated numbers, "
                         f"got {text!r}")
    return values


def _uniform_grid(lo: float, hi: float, step: float, flag: str) -> np.ndarray:
    try:
        return calibration.uniform_grid(lo, hi, step)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _write_manifest(out_dir: Path, command: str, argv: list[str],
                    inputs: list[str], params: dict, seed: int | None,
                    outputs: list[str]) -> None:
    RunManifest(
        command=command, argv=tuple(argv),
        inputs={path: file_sha256(path) for path in inputs},
        params=params, seed=seed, outputs=tuple(outputs),
    ).write(out_dir / MANIFEST_NAME)


# -- subcommands -------------------------------------------------------------

def _cmd_simulate(args, argv) -> int:
    spec, inputs = _load_device(args, argv)
    volts = _load_voltages(args.voltages, spec)
    if args.voltages:
        inputs.append(args.voltages)
    h = device_mod.build_hamiltonian(spec, volts)
    u = evolution.unitary(h, spec.coupling_length)
    powers = evolution.output_power(u, args.input_guide)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = ["powers.csv"]
    evolution.powers_to_csv(powers, out / "powers.csv")
    if args.unitary:
        evolution.unitary_to_csv(u, out / "unitary.csv")
        outputs.append("unitary.csv")
    if args.profile is not None:
        profile = evolution.propagation_profile(
            h, spec.coupling_length, n_steps=args.profile,
            input_guide=args.input_guide,
        )
        evolution.profile_to_csv(profile, out / "profile.csv")
        outputs.append("profile.csv")
    _write_manifest(out, "simulate", argv, inputs,
                    {"input_guide": args.input_guide, "profile": args.profile},
                    None, outputs)
    return EXIT_OK


def _cmd_map(args, argv) -> int:
    spec, inputs = _load_device(args, argv)
    electrodes = _parse_floats(args.electrodes, "--electrodes", 2)
    if not all(x.is_integer() for x in electrodes):
        raise UsageError(f"--electrodes expects two integers, got {args.electrodes!r}")
    ea, eb = (int(x) for x in electrodes)
    lo, hi = _parse_floats(args.range, "--range", 2)
    grid = _uniform_grid(lo, hi, args.step, "--range/--step")
    fixed = _load_voltages(args.fixed, spec)
    if args.fixed:
        inputs.append(args.fixed)
    lut = calibration.build_lookup_map(
        spec, SubcircuitPair(args.pair), ea, eb, grid, grid,
        fixed_voltages=fixed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    calibration.map_to_csv(lut, out / "map.csv")
    calibration.map_metadata_to_json(lut, out / "map_meta.json")
    _write_manifest(out, "map", argv, inputs,
                    {"pair": args.pair, "electrodes": [ea, eb],
                     "range": [lo, hi], "step": args.step},
                    None, ["map.csv", "map_meta.json"])
    _print_map_summary(lut)
    return EXIT_OK


def _print_map_summary(lut: calibration.LookupMap) -> None:
    """Mean leakage, the 50/50 cell, and gate voltages from a linear fit
    along electrode a at the electrode-b voltage that leaks least."""
    ea, eb = lut.electrode_a, lut.electrode_b
    balanced = calibration.solve_voltage(lut, target_eta=0.5)
    print(f"mean leakage over map: {lut.mean_leakage.mean():.3f}%")
    print(f"50/50 point: v{ea}={balanced.v_a:+.2f} V, v{eb}={balanced.v_b:+.2f} V "
          f"(eta={balanced.eta:.4f})")
    best_b = lut.grid_b[np.argmin(lut.leakage_in1.min(axis=0))]
    try:
        gates = calibration.gate_voltages_by_linear_fit(lut, fixed_v_b=best_b)
    except calibration.FlatCurveError as exc:
        print(f"no linear fit at v{eb}={best_b:+.2f} V: {exc}")
        return
    for gate in gates:
        flag = " (clamped)" if gate.clamped else ""
        print(f"eta={gate.target_eta:.1f}: v{ea}={gate.voltage:+.2f} V "
              f"at v{eb}={best_b:+.2f} V{flag}")


def _hom_point(args, delays, eta: float, index: int, fit: bool):
    """Scan `index` of a run (noise seed --seed + index) and its fit or None."""
    scan = photon_stats.simulate_hom_scan(
        eta, delays, args.baseline, slope=args.slope,
        dip_center=args.center, coherence_width=args.width,
        noise_seed=None if args.noiseless else args.seed + index,
    )
    return scan, photon_stats.fit_hom_dip(scan) if fit else None


def _cmd_hom(args, argv) -> int:
    """One scan at a given or device eta, or with --eta LO,HI,STEP a fitted
    scan per grid point, tabulated in visibility_sweep.csv."""
    inputs: list[str] = []
    etas = [] if args.eta is None else _parse_floats(args.eta, "--eta", 1, 3)
    if len(etas) == 3:
        etas = _uniform_grid(*etas, "--eta").tolist()
        if not 0.0 <= etas[0] <= etas[-1] <= 1.0:
            raise UsageError(f"--eta grid points must lie in [0, 1], "
                             f"got {args.eta!r}")
    elif not etas:
        spec, inputs = _load_device(args, argv)
        volts = _load_voltages(args.voltages, spec)
        if args.voltages:
            inputs.append(args.voltages)
        h = device_mod.build_hamiltonian(spec, volts)
        u = evolution.unitary(h, spec.coupling_length)
        etas = [effective_reflectivity(u, SubcircuitPair(args.pair))]

    delays = _uniform_grid(*_parse_floats(args.scan, "--scan", 3), "--scan")
    out = Path(args.out)
    if len(etas) == 1:
        scan, fit = _hom_point(args, delays, etas[0], 0, args.fit)
        out.mkdir(parents=True, exist_ok=True)
        photon_stats.scan_to_csv(scan, out / "scan.csv")
        outputs = ["scan.csv"]
        if fit is not None:
            fit.to_json(out / "dipfit.json")
            outputs.append("dipfit.json")
    else:
        rows = []
        for i, eta in enumerate(etas):
            scan, fit = _hom_point(args, delays, eta, i, True)
            ideal = photon_stats.ideal_visibility(eta)
            rows += [eta, ideal, fit.visibility, fit.visibility_error,
                     *photon_stats.dip_extrema(fit, scan)]
            print(f"eta={eta:.3f}  ideal={ideal:.4f}  "
                  f"fit={fit.visibility:.4f} +/- {fit.visibility_error:.4f}")
        out.mkdir(parents=True, exist_ok=True)
        outputs = ["visibility_sweep.csv"]
        write_csv(out / outputs[0], ["eta", "ideal_visibility", "fitted_visibility",
                                     "visibility_error", "n_max", "n_min"], [rows])
    _write_manifest(out, "hom", argv, inputs,
                    {"eta": etas if len(etas) > 1 else etas[0],
                     "scan": args.scan, "baseline": args.baseline,
                     "slope": args.slope, "noiseless": args.noiseless},
                    args.seed, outputs)
    return EXIT_OK


def _cmd_compile(args, argv) -> int:
    if not args.random_device:
        spec, inputs = _load_device(args, argv)
    elif args.device:
        raise UsageError("--random-device and --device exclude each other")
    else:
        spec, inputs = compiler.random_base_device(seed=args.seed), []
    name = args.config if args.config.startswith("config") else f"config{args.config}"
    try:
        config = compiler.preset_config(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    if len(args.gates) != 2 or any(g not in compiler.GATE_ETAS for g in args.gates):
        raise UsageError(
            f"--gates expects two letters from {sorted(compiler.GATE_ETAS)}, "
            f"got {args.gates!r}"
        )
    targets = (compiler.gate_target(args.gates[0]),
               compiler.gate_target(args.gates[1]))

    lengths = args.lengths and _parse_floats(args.lengths, "--lengths")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    if lengths:
        results = compiler.sweep_chip_length(
            spec, config, targets, lengths,
            restarts=args.restarts, seed=args.seed,
        )
        for length, result in results:
            tag = f"{length:g}mm"
            result.to_json(out / f"result_{tag}.json")
            compiler.trace_to_csv(result.restart_trace, out / f"trace_{tag}.csv")
            outputs += [f"result_{tag}.json", f"trace_{tag}.csv"]
    else:
        result = compiler.optimize_parallel_gates(
            spec, config, targets, restarts=args.restarts, seed=args.seed,
        )
        result.to_json(out / "result.json")
        compiler.trace_to_csv(result.restart_trace, out / "trace.csv")
        outputs = ["result.json", "trace.csv"]
    _write_manifest(out, "compile", argv, inputs,
                    {"config": name, "gates": args.gates,
                     "restarts": args.restarts, "lengths": args.lengths,
                     "random_device": args.random_device},
                    args.seed, outputs)
    return EXIT_OK


def _cmd_loss(args, argv) -> int:
    report = analysis.loss_report(
        args.modes, per_mzi_db=args.per_mzi,
        wa_length_cm=args.length_cm, db_per_cm=args.db_per_cm,
    )
    print(report.to_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "loss.csv")
    _write_manifest(out, "loss", argv, [],
                    {"modes": args.modes, "per_mzi": args.per_mzi,
                     "length_cm": args.length_cm, "db_per_cm": args.db_per_cm},
                    None, ["loss.csv"])
    return EXIT_OK


def _cmd_replay(args, _argv) -> int:
    man = read_manifest(args.manifest)
    if man.version != __version__:
        print(f"error: {args.manifest} was written by rwasim {man.version}; "
              f"this is rwasim {__version__}, whose outputs may differ. "
              "Refusing to replay.", file=sys.stderr)
        return EXIT_VALIDATION
    for path, digest in man.inputs.items():
        if file_sha256(path) != digest:
            print(f"error: input {path} has changed since the recorded run "
                  "(SHA-256 differs). Refusing to replay.", file=sys.stderr)
            return EXIT_VALIDATION
    return main(list(man.argv) + ["--out", args.out], replay=True)


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwasim",
        description="Reconfigurable waveguide array simulator and compiler",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--device", help="device spec YAML (default: built-in)")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="classical powers and propagation")
    add_common(p)
    p.add_argument("--voltages", help="text file of electrode voltages")
    p.add_argument("--input-guide", type=int, default=1)
    p.add_argument("--profile", type=int, metavar="STEPS",
                   help="also emit an intensity profile with STEPS z samples")
    p.add_argument("--unitary", action="store_true",
                   help="also emit the transfer unitary CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("map", help="build a reflectivity/leakage lookup map")
    add_common(p)
    p.add_argument("--pair", type=int, default=1,
                   help="lower guide of the subcircuit pair")
    p.add_argument("--electrodes", required=True, metavar="A,B")
    p.add_argument("--range", default="-10,10", metavar="LO,HI")
    p.add_argument("--step", type=float, default=0.5,
                   help="grid step in volts; must divide HI - LO")
    p.add_argument("--fixed", help="text file of fixed electrode voltages")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("hom", help="synthesize (and fit) a HOM delay scan")
    add_common(p)
    p.add_argument("--eta", metavar="ETA|LO,HI,STEP",
                   help="coupler reflectivity, or a grid of them to sweep into "
                        "visibility_sweep.csv (skips device)")
    p.add_argument("--pair", type=int, default=1)
    p.add_argument("--voltages")
    p.add_argument("--scan", required=True, metavar="LO,HI,STEP",
                   help="delay grid in mm; STEP must divide HI - LO")
    p.add_argument("--baseline", type=float, default=1000.0)
    p.add_argument("--slope", type=float, default=0.0)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--width", type=float,
                   default=photon_stats.DEFAULT_COHERENCE_SIGMA_MM)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--fit", action="store_true")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("compile", help="optimize voltages for parallel gates")
    add_common(p)
    p.add_argument("--config", required=True,
                   help="1, 2, 3 or config1/config2/config3")
    p.add_argument("--gates", required=True, help="two of X, H, I (e.g. XX)")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lengths", help="comma list of chip lengths in mm")
    p.add_argument("--random-device", action="store_true",
                   help="draw the base beta and coupling from --seed instead "
                        "of loading a device")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("loss", help="architecture loss comparison")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--per-mzi", type=float, default=analysis.PER_MZI_DB_DEFAULT)
    p.add_argument("--length-cm", type=float, default=2.4)
    p.add_argument("--db-per-cm", type=float,
                   default=analysis.WA_DB_PER_CM_DEFAULT)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_replay)

    return parser


def _strip_out(argv: list[str]) -> list[str]:
    """Remove the --out pair so replayed runs can retarget their directory."""
    result = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
            continue
        if tok == "--out":
            skip = True
            continue
        if tok.startswith("--out="):
            continue
        result.append(tok)
    return result


def main(argv: list[str] | None = None, *, replay: bool = False) -> int:
    """Run one subcommand; `replay` runs a recorded argv, whose device is
    fully named by it, so $RWASIM_DEVICE is not read."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    args.env_device = None if replay else os.environ.get(DEVICE_ENV_VAR)
    try:
        return args.func(args, _strip_out(list(argv)))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, IndexError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FitFailureError, NumericalFailureError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
