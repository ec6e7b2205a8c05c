import math
import re

import pytest

from rwasim.analysis import BENDING_NOTE, clements_loss, loss_report, wa_loss


class TestClementsLoss:
    def test_eleven_modes(self):
        count, depth, total = clements_loss(11)
        assert count == 55
        assert depth == 11
        assert total == pytest.approx(2.2)

    def test_two_modes(self):
        count, depth, total = clements_loss(2)
        assert count == 1
        assert total == pytest.approx(0.4)

    def test_zero_per_mzi(self):
        _, _, total = clements_loss(8, per_mzi_db=0.0)
        assert total == 0.0

    def test_too_few_modes(self):
        with pytest.raises(ValueError):
            clements_loss(1)

    @pytest.mark.parametrize("per_mzi", [math.nan, math.inf, -math.inf, -0.2])
    def test_non_finite_or_negative_loss_rejected(self, per_mzi):
        with pytest.raises(ValueError, match="per-MZI loss"):
            clements_loss(4, per_mzi_db=per_mzi)

    @pytest.mark.parametrize("n_modes,per_mzi", [(11, 1e308), (3_000_000_000, 1e300)])
    def test_total_that_is_not_a_finite_float_rejected(self, n_modes, per_mzi):
        # each input is finite, but their product overflows a float
        with pytest.raises(ValueError, match=f"Clements loss of {n_modes} modes"):
            clements_loss(n_modes, per_mzi_db=per_mzi)

    def test_mode_count_past_float_range_refused_by_name(self):
        # n_modes * per_mzi_db raised Python's OverflowError, which named
        # neither argument, before the total reached its check
        with pytest.raises(ValueError, match="n_modes must be a finite real, got 1000"):
            clements_loss(10**400)

    def test_monotone_in_modes(self):
        counts, totals = zip(*(
            (clements_loss(n)[0], clements_loss(n)[2]) for n in range(2, 30)
        ))
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert all(a < b for a, b in zip(totals, totals[1:]))


class TestWaLoss:
    def test_device_length(self):
        assert wa_loss(2.4) == pytest.approx(0.24)

    def test_zero_length(self):
        assert wa_loss(0.0) == 0.0

    def test_long_chip(self):
        assert wa_loss(20.0) == pytest.approx(2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wa_loss(-1.0)

    @pytest.mark.parametrize("length,db_per_cm,name", [
        (math.nan, 0.1, "length"), (math.inf, 0.1, "length"),
        (2.4, math.nan, "loss per cm"), (2.4, math.inf, "loss per cm"),
        (2.4, -2.0, "loss per cm")])
    def test_non_finite_or_negative_rejected(self, length, db_per_cm, name):
        with pytest.raises(ValueError, match=name):
            wa_loss(length, db_per_cm)

    @pytest.mark.parametrize("length,db_per_cm", [(2.4, 1e308), (1e308, 2.0)])
    def test_total_that_is_not_a_finite_float_rejected(self, length, db_per_cm):
        with pytest.raises(ValueError, match=re.escape(f"WA loss of {length:g} cm")):
            wa_loss(length, db_per_cm)

    def test_linear_in_length(self):
        assert wa_loss(3.7) + wa_loss(1.3) == wa_loss(5.0)


class TestLossReport:
    def test_report_fields(self):
        report = loss_report(11)
        assert report.mzi_count == 55
        assert report.clements_loss_db == pytest.approx(2.2)
        assert report.wa_loss_db == pytest.approx(0.24)
        assert report.to_text().endswith(f"note: {BENDING_NOTE}")

    def test_text_and_csv(self, tmp_path):
        report = loss_report(11)
        text = report.to_text()
        assert "55" in text and "2.2" in text
        path = tmp_path / "loss.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("n_modes,mzi_count")
        assert lines[1].startswith("11,55,11,")
