"""Unit tests for path-loss models."""

import pytest

from repro.phy.pathloss import CloseInPathLoss, fspl_db


class TestFspl:
    def test_60ghz_1m_reference(self):
        # The well-known 68 dB first-meter loss at 60 GHz.
        assert fspl_db(1.0, 60e9) == pytest.approx(68.0, abs=0.1)

    def test_inverse_square(self):
        assert fspl_db(20.0, 60e9) - fspl_db(10.0, 60e9) == pytest.approx(
            6.02, abs=0.01
        )

    def test_frequency_scaling(self):
        # Doubling frequency adds 6 dB.
        assert fspl_db(10.0, 120e9) - fspl_db(10.0, 60e9) == pytest.approx(
            6.02, abs=0.01
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fspl_db(0.0, 60e9)
        with pytest.raises(ValueError):
            fspl_db(1.0, 0.0)


class TestCloseIn:
    def test_intercept_is_1m_fspl(self):
        model = CloseInPathLoss(60e9, exponent=2.1)
        assert model.path_loss_db(1.0) == pytest.approx(fspl_db(1.0, 60e9))

    def test_exponent_slope(self):
        model = CloseInPathLoss(60e9, exponent=2.1)
        per_decade = model.path_loss_db(100.0) - model.path_loss_db(10.0)
        assert per_decade == pytest.approx(21.0)

    def test_exponent_two_equals_free_space(self):
        ci = CloseInPathLoss(60e9, exponent=2.0)
        for d in (2.0, 10.0, 50.0):
            assert ci.path_loss_db(d) == pytest.approx(fspl_db(d, 60e9))

    def test_clamps_below_reference(self):
        model = CloseInPathLoss(60e9)
        assert model.path_loss_db(0.1) == model.path_loss_db(1.0)

    def test_monotone_in_distance(self):
        model = CloseInPathLoss(60e9, exponent=3.2)
        distances = [1.0, 2.0, 5.0, 10.0, 30.0, 100.0]
        losses = [model.path_loss_db(d) for d in distances]
        assert losses == sorted(losses)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            CloseInPathLoss(60e9, exponent=0.0)

