"""Golden bytes for every CSV the package writes.

Each writer gets -0.0, the smallest subnormal, 0.1 and integral floats, which
must come out as "-0", "4.9406564584124654e-324", "0.10000000000000001" and
"2": 17 significant digits, so every float reads back to the same value.
Integer columns keep their full decimal digits.
"""
import numpy as np

from rwasim.analysis import loss_report
from rwasim.calibration import LookupMap, map_to_csv
from rwasim.cli import main
from rwasim.compiler import trace_to_csv
from rwasim.evolution import (
    IntensityProfile,
    TransferUnitary,
    powers_to_csv,
    profile_to_csv,
    unitary_to_csv,
)
from rwasim.photon_stats import HomScan, scan_to_csv

SUB = 5e-324
FIXED = np.zeros(22)  # a hand-built map's other electrodes
SUB_TEXT = "4.9406564584124654e-324"
TENTH = "0.10000000000000001"


def written(tmp_path, write, value) -> str:
    path = tmp_path / "out.csv"
    write(value, path)
    return path.read_bytes().decode()


def test_powers(tmp_path):
    assert written(tmp_path, powers_to_csv, np.array([-0.0, SUB, 0.1, 2.0])) == (
        "P1,P2,P3,P4\n"
        f"-0,{SUB_TEXT},{TENTH},2\n"
    )


def test_unitary(tmp_path):
    u = TransferUnitary(matrix=np.array([[complex(-0.0, SUB), 0.1 + 2j],
                                         [complex(3.0, -0.0), complex(1 / 3, -0.1)]]))
    assert written(tmp_path, unitary_to_csv, u) == (
        "re_1_1,im_1_1,re_1_2,im_1_2,re_2_1,im_2_1,re_2_2,im_2_2\n"
        f"-0,{SUB_TEXT},{TENTH},2,3,-0,0.33333333333333331,-{TENTH}\n"
    )


def test_profile(tmp_path):
    profile = IntensityProfile(
        z_points=np.array([-0.0, 0.1, 24.0]),
        intensities=np.array([[SUB, 1.0], [0.1, 0.9], [-0.0, 2.0]]),
    )
    assert written(tmp_path, profile_to_csv, profile) == (
        "z_mm,P1,P2\n"
        f"-0,{SUB_TEXT},1\n"
        f"{TENTH},{TENTH},0.90000000000000002\n"
        "24,-0,2\n"
    )


def test_trace(tmp_path):
    assert written(tmp_path, trace_to_csv, np.array([0.1, -0.0, SUB, 2.0])) == (
        "restart,objective,best_so_far\n"
        f"0,{TENTH},{TENTH}\n"
        "1,-0,-0\n"
        f"2,{SUB_TEXT},-0\n"
        "3,2,-0\n"
    )


def test_scan(tmp_path):
    scan = HomScan(delays=np.array([-1.0, -0.0, SUB, 0.1]),
                   counts=np.array([0.0, SUB, 0.1, 3.0]))
    assert written(tmp_path, scan_to_csv, scan) == (
        "delay_mm,counts\n"
        "-1,0\n"
        f"-0,{SUB_TEXT}\n"
        f"{SUB_TEXT},{TENTH}\n"
        f"{TENTH},3\n"
    )


def test_map(tmp_path):
    lut = LookupMap(
        electrode_a=1, electrode_b=4,
        grid_a=np.array([-0.0, SUB]), grid_b=np.array([-10.0, 0.1]),
        eta=np.array([[0.0, 1.0], [SUB, 0.1]]),
        leakage_in1=np.array([[100.0, -0.0], [SUB, 0.1]]),
        leakage_in2=np.array([[2.0, 0.1], [0.0, 7.0]]),
        input_guides=(1, 2), fixed_voltages=FIXED,
    )
    assert written(tmp_path, map_to_csv, lut) == (
        "v_a,v_b,eta,leak_in1,leak_in2\n"
        "-0,-10,0,100,2\n"
        f"-0,{TENTH},1,-0,{TENTH}\n"
        f"{SUB_TEXT},-10,{SUB_TEXT},{SUB_TEXT},0\n"
        f"{SUB_TEXT},{TENTH},{TENTH},{TENTH},7\n"
    )


def test_map_grid_columns_as_one_format_per_value(tmp_path):
    # the grid columns are formatted once per grid value, not once per row:
    # every line must still read as one %.17g of each of its five values
    rng = np.random.default_rng(0)
    grid_a, grid_b = np.array([-0.0, SUB, 0.1]), np.array([-1 / 3, -0.0, SUB, 0.1])
    eta = rng.uniform(0.0, 1.0, (3, 4))
    leak1, leak2 = rng.uniform(0.0, 100.0, (2, 3, 4))
    lut = LookupMap(electrode_a=1, electrode_b=4, grid_a=grid_a, grid_b=grid_b,
                    eta=eta, leakage_in1=leak1, leakage_in2=leak2, input_guides=(1, 2),
                    fixed_voltages=FIXED)
    assert written(tmp_path, map_to_csv, lut) == "v_a,v_b,eta,leak_in1,leak_in2\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g,%.17g\n" % (va, vb, eta[ia, ib], leak1[ia, ib], leak2[ia, ib])
        for ia, va in enumerate(grid_a) for ib, vb in enumerate(grid_b))


def test_loss(tmp_path):
    assert written(tmp_path, lambda r, p: r.to_csv(p), loss_report(11)) == (
        "n_modes,mzi_count,mzi_depth,clements_loss_db,wa_length_cm,wa_loss_db\n"
        "11,55,11,2.2000000000000002,2.3999999999999999,0.23999999999999999\n"
    )


def test_loss_keeps_large_integer_counts(tmp_path):
    # 5e8 modes need about 1.25e17 MZIs, more digits than %.17g keeps exactly
    out = tmp_path / "run"
    assert main(["loss", "--modes", "500000000", "--out", str(out)]) == 0
    assert (out / "loss.csv").read_bytes().decode() == (
        "n_modes,mzi_count,mzi_depth,clements_loss_db,wa_length_cm,wa_loss_db\n"
        "500000000,124999999750000000,500000000,100000000,"
        "2.3999999999999999,0.23999999999999999\n"
    )
