"""Command-line front end.

Subcommands: simulate, map, hom, compile, loss, replay.  Only `compile`
optimises, so only it imports `compiler`; the other commands start without
it.  No rwasim module imports scipy.  Each run computes its results before
the first output creates --out, so a failed run leaves no directory; a run
that succeeds writes its outputs plus a manifest.json.
`replay <manifest>` re-runs the recorded command into a fresh directory;
`manifest` says what a run records and which manifests a replay refuses.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 numerical
failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, calibration, evolution
from . import device as device_mod
from . import photon_stats
from .device import DeviceSpec, VoltageConfig
from .csvio import write_csv, write_json
from .manifest import Run, replay_argv
from .photon_stats import FitFailureError
from .subcircuits import GATE_ETAS, SubcircuitPair

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

DEVICE_ENV_VAR = "RWASIM_DEVICE"


class UsageError(Exception):
    pass


def _load_device(args, run: Run) -> DeviceSpec:
    """Resolve --device, then $RWASIM_DEVICE, then the built-in default.

    A device named by the environment is appended to the run's argv as
    --device with its resolved path, so the manifest replays it without the
    variable.  `args.env_device` holds the variable's value; `main` leaves it
    None on replay.
    """
    path = args.device
    if path is None:
        path = args.env_device
        if path is None:
            return device_mod.default_device()
        path = str(Path(path).resolve())
        run.argv += ["--device", path]
    run.input(path)
    return device_mod.load_device_spec(path)


def _load_voltages(path: str | None, spec: DeviceSpec, run: Run) -> VoltageConfig:
    if path is None:
        return VoltageConfig.zeros(spec.n_electrodes)
    run.input(path)
    text = Path(path).read_text().replace(",", " ")
    return VoltageConfig(device_mod.frozen_array(
        [float(tok) for tok in text.split()], f"{path}: voltages", (spec.n_electrodes,)))


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


# -- subcommands -------------------------------------------------------------
# Each takes the parsed args and the Run that records it, writes its outputs
# through `run.output` once everything they hold is computed, and returns
# the params for the manifest, which `main` writes.

def _cmd_simulate(args, run: Run) -> dict:
    spec = _load_device(args, run)
    volts = _load_voltages(args.voltages, spec, run)
    h = device_mod.build_hamiltonian(spec, volts)
    u = evolution.unitary(h, spec.coupling_length)
    profile = None if args.profile is None else evolution.propagation_profile(
        h, spec.coupling_length, n_steps=args.profile, input_guide=args.input_guide,
    )
    evolution.powers_to_csv(evolution.output_power(u, args.input_guide),
                            run.output("powers.csv"))
    if args.unitary:
        evolution.unitary_to_csv(u, run.output("unitary.csv"))
    if profile is not None:
        evolution.profile_to_csv(profile, run.output("profile.csv"))
    return {"input_guide": args.input_guide, "profile": args.profile}


def _cmd_map(args, run: Run) -> dict:
    spec = _load_device(args, run)
    electrodes = _parse_floats(args.electrodes, "--electrodes", 2)
    if not all(x.is_integer() for x in electrodes):
        raise UsageError(f"--electrodes expects two integers, got {args.electrodes!r}")
    ea, eb = (int(x) for x in electrodes)
    lo, hi = _parse_floats(args.range, "--range", 2)
    grid = _uniform_grid(lo, hi, args.step, "--range/--step")
    lut = calibration.build_lookup_map(
        spec, SubcircuitPair(args.pair), ea, eb, grid, grid,
        fixed_voltages=_load_voltages(args.fixed, spec, run),
    )
    _print_map_summary(lut)
    calibration.map_to_csv(lut, run.output("map.csv"))
    write_json(run.output("map_meta.json"), calibration.map_metadata(lut))
    return {"pair": args.pair, "electrodes": [ea, eb], "range": [lo, hi],
            "step": args.step}


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


def _cmd_hom(args, run: Run) -> dict:
    """One scan at a given or device eta, or with --eta LO,HI,STEP a fitted
    scan per grid point, tabulated in visibility_sweep.csv.  --eta replaces
    the device, so it excludes the flags that pick one."""
    given = [f"--{name}" for name in ("device", "pair", "voltages")
             if getattr(args, name) is not None]
    if args.eta is not None and given:
        raise UsageError(f"--eta excludes {', '.join(given)}")
    etas = [] if args.eta is None else _parse_floats(args.eta, "--eta", 1, 3)
    if len(etas) == 3:
        etas = _uniform_grid(*etas, "--eta").tolist()
        if not 0.0 <= etas[0] <= etas[-1] <= 1.0:
            raise UsageError(f"--eta grid points must lie in [0, 1], "
                             f"got {args.eta!r}")
    elif not etas:
        spec = _load_device(args, run)
        volts = _load_voltages(args.voltages, spec, run)
        pair = SubcircuitPair(1 if args.pair is None else args.pair)
        [eta], _, _ = calibration.pair_response(spec, pair, volts.volts[None])
        etas = [float(eta)]

    delays = _uniform_grid(*_parse_floats(args.scan, "--scan", 3), "--scan")
    scans = [photon_stats.simulate_hom_scan(
        eta, delays, args.baseline, slope=args.slope, dip_center=args.center,
        coherence_width=args.width,
        noise_seed=None if args.noiseless else args.seed + i,
    ) for i, eta in enumerate(etas)]
    if len(etas) == 1:
        fit = photon_stats.fit_hom_dip(scans[0]) if args.fit else None
        photon_stats.scan_to_csv(scans[0], run.output("scan.csv"))
        if fit is not None:
            write_json(run.output("dipfit.json"), fit.to_dict())
    else:
        fits = photon_stats.fit_hom_dips(scans)
        rows = []
        for eta, scan, fit in zip(etas, scans, fits):
            ideal = photon_stats.ideal_visibility(eta)
            rows += [eta, ideal, fit.visibility, fit.visibility_error,
                     *photon_stats.dip_extrema(fit, scan)]
            print(f"eta={eta:.3f}  ideal={ideal:.4f}  "
                  f"fit={fit.visibility:.4f} +/- {fit.visibility_error:.4f}")
        write_csv(run.output("visibility_sweep.csv"),
                  ["eta", "ideal_visibility", "fitted_visibility",
                   "visibility_error", "n_max", "n_min"], [rows])
    return {"eta": etas if len(etas) > 1 else etas[0], "scan": args.scan,
            "baseline": args.baseline, "slope": args.slope,
            "noiseless": args.noiseless}


def _cmd_compile(args, run: Run) -> dict:
    # imported here so that only compile pays for loading the compiler
    from . import compiler

    if not args.random_device:
        spec = _load_device(args, run)
    elif args.device:
        raise UsageError("--random-device and --device exclude each other")
    else:
        spec = compiler.random_base_device(seed=args.seed)
    name = args.config if args.config.startswith("config") else f"config{args.config}"
    try:
        config = compiler.preset_config(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    if len(args.gates) != 2 or any(g not in GATE_ETAS for g in args.gates):
        raise UsageError(f"--gates expects two letters from {sorted(GATE_ETAS)}, "
                         f"got {args.gates!r}")
    targets = (compiler.gate_target(args.gates[0]),
               compiler.gate_target(args.gates[1]))

    lengths = args.lengths and _parse_floats(args.lengths, "--lengths")
    if lengths:
        tags = [f"_{length:g}mm" for length in lengths]
        clash = [text.strip() for text, tag in zip(args.lengths.split(","), tags)
                 if tags.count(tag) > 1]
        if clash:
            raise UsageError(f"--lengths {', '.join(clash)} share output names; "
                             "lengths must differ in 6 significant digits")
        swept = compiler.sweep_chip_length(spec, config, targets, lengths,
                                           restarts=args.restarts, seed=args.seed)
        results = [(tag, result) for tag, (_, result) in zip(tags, swept)]
    else:
        results = [("", compiler.optimize_parallel_gates(
            spec, config, targets, restarts=args.restarts, seed=args.seed))]
    for tag, result in results:
        write_json(run.output(f"result{tag}.json"), result.to_dict())
        compiler.trace_to_csv(result.restart_trace, run.output(f"trace{tag}.csv"))
    return {"config": name, "gates": args.gates, "restarts": args.restarts,
            "lengths": args.lengths, "random_device": args.random_device}


def _cmd_loss(args, run: Run) -> dict:
    report = analysis.loss_report(
        args.modes, per_mzi_db=args.per_mzi,
        wa_length_cm=args.length_cm, db_per_cm=args.db_per_cm,
    )
    print(report.to_text())
    report.to_csv(run.output("loss.csv"))
    return {"modes": args.modes, "per_mzi": args.per_mzi,
            "length_cm": args.length_cm, "db_per_cm": args.db_per_cm}


# -- parser ------------------------------------------------------------------

def _seed(text: str) -> int:
    """--seed's type: numpy's generators take only non-negative seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


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
                        "visibility_sweep.csv, in place of the device's; "
                        "excludes --device, --pair and --voltages")
    p.add_argument("--pair", type=int,
                   help="lower guide of the device's subcircuit pair (default 1)")
    p.add_argument("--voltages")
    p.add_argument("--scan", required=True, metavar="LO,HI,STEP",
                   help="delay grid in mm; STEP must divide HI - LO")
    p.add_argument("--baseline", type=float, default=1000.0)
    p.add_argument("--slope", type=float, default=0.0)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--width", type=float,
                   default=photon_stats.DEFAULT_COHERENCE_SIGMA_MM)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--fit", action="store_true")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("compile", help="optimize voltages for parallel gates")
    add_common(p)
    p.add_argument("--config", required=True,
                   help="1, 2, 3 or config1/config2/config3")
    p.add_argument("--gates", required=True, help="two of X, H, I (e.g. XX)")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--lengths", help="comma list of chip lengths in mm")
    p.add_argument("--random-device", action="store_true",
                   help="draw the base beta and coupling from --seed instead "
                        "of loading a device")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("loss", help="architecture loss comparison")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--per-mzi", type=float, default=analysis.PER_MZI_DB_DEFAULT)
    p.add_argument("--length-cm", type=float, default=analysis.WA_LENGTH_CM_DEFAULT)
    p.add_argument("--db-per-cm", type=float,
                   default=analysis.WA_DB_PER_CM_DEFAULT)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=".")

    return parser


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
        if args.command == "replay":
            return main(replay_argv(args.manifest, args.out), replay=True)
        run = Run(args.out, argv)
        run.write(args.command, args.func(args, run), getattr(args, "seed", None))
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # before ValueError, which LinAlgError subclasses
    except (FitFailureError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, IndexError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
