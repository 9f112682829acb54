"""Unit tests for beam codebooks."""

import math

import pytest

from repro.phy.antenna import GaussianBeamPattern
from repro.phy.codebook import Beam, Codebook, HierarchicalCodebook


class TestUniformConstruction:
    def test_beam_count_from_beamwidth(self):
        assert len(Codebook.uniform_azimuth(20.0)) == 18
        assert len(Codebook.uniform_azimuth(60.0)) == 6
        assert len(Codebook.uniform_azimuth(90.0)) == 4

    def test_boresights_sorted_and_distinct(self):
        codebook = Codebook.uniform_azimuth(30.0)
        boresights = [b.boresight_rad for b in codebook]
        assert boresights == sorted(boresights)
        assert len(set(boresights)) == len(boresights)

    def test_uniform_spacing(self):
        codebook = Codebook.uniform_azimuth(45.0)
        spacings = [
            codebook[i + 1].boresight_rad - codebook[i].boresight_rad
            for i in range(len(codebook) - 1)
        ]
        for spacing in spacings:
            assert spacing == pytest.approx(math.radians(45.0))

    def test_crossover_at_minus_3db(self):
        """Adjacent beams cross at their -3 dB points by construction."""
        codebook = Codebook.uniform_azimuth(20.0)
        a, b = codebook[0], codebook[1]
        midpoint = (a.boresight_rad + b.boresight_rad) / 2
        assert a.gain_dbi(midpoint) == pytest.approx(
            a.pattern.peak_gain_dbi - 3.0, abs=0.01
        )
        assert a.gain_dbi(midpoint) == pytest.approx(b.gain_dbi(midpoint))

    def test_rejects_bad_beamwidth(self):
        with pytest.raises(ValueError):
            Codebook.uniform_azimuth(0.0)
        with pytest.raises(ValueError):
            Codebook.uniform_azimuth(400.0)

    def test_indices_validated(self):
        pattern = GaussianBeamPattern(math.radians(60))
        with pytest.raises(ValueError):
            Codebook([Beam(1, 0.0, pattern)])  # must start at 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Codebook([])


class TestTopology:
    def test_neighbors_ring(self):
        codebook = Codebook.uniform_azimuth(60.0)  # 6 beams
        assert codebook.neighbors(0) == (5, 1)
        assert codebook.neighbors(5) == (4, 0)

    def test_adjacent_indices(self):
        codebook = Codebook.uniform_azimuth(60.0)
        assert codebook.adjacent_indices(2) == [1, 3]

    def test_adjacent_indices_omni_empty(self):
        assert Codebook.omni().adjacent_indices(0) == []

    def test_two_beam_codebook_single_neighbor(self):
        codebook = Codebook.uniform_azimuth(180.0)
        assert len(codebook) == 2
        assert codebook.adjacent_indices(0) == [1]

    def test_out_of_range_index(self):
        codebook = Codebook.uniform_azimuth(60.0)
        with pytest.raises(IndexError):
            codebook.neighbors(6)


class TestSelection:
    def test_best_beam_towards_boresight(self):
        codebook = Codebook.uniform_azimuth(20.0)
        for beam in codebook:
            assert codebook.best_beam_towards(beam.boresight_rad) is beam

    def test_best_beam_wraps(self):
        codebook = Codebook.uniform_azimuth(20.0)
        best = codebook.best_beam_towards(math.pi)
        # Near the seam the best beam's boresight is within half a
        # beamwidth of the target.
        delta = abs(
            math.remainder(best.boresight_rad - math.pi, 2 * math.pi)
        )
        assert delta <= math.radians(10.0) + 1e-9

    def test_gain_peaks_on_best_beam(self):
        codebook = Codebook.uniform_azimuth(30.0)
        azimuth = 0.7
        best = codebook.best_beam_towards(azimuth)
        for beam in codebook:
            assert beam.gain_dbi(azimuth) <= best.gain_dbi(azimuth) + 1e-9

    def test_sweep_order_visits_all(self):
        codebook = Codebook.uniform_azimuth(30.0)
        assert codebook.sweep_order() == list(range(len(codebook)))


class TestOmni:
    def test_singleton(self):
        codebook = Codebook.omni()
        assert len(codebook) == 1

    def test_flat_gain(self):
        codebook = Codebook.omni()
        assert codebook.gain_dbi(0, 2.5) == 0.0


class TestHierarchical:
    def test_children_partition_fine_tier(self):
        coarse = Codebook.uniform_azimuth(90.0)
        fine = Codebook.uniform_azimuth(22.5)
        hier = HierarchicalCodebook(coarse, fine)
        all_children = []
        for i in range(len(coarse)):
            all_children.extend(hier.children(i))
        assert sorted(all_children) == list(range(len(fine)))

    def test_rejects_inverted_tiers(self):
        with pytest.raises(ValueError):
            HierarchicalCodebook(
                Codebook.uniform_azimuth(10.0), Codebook.uniform_azimuth(90.0)
            )
