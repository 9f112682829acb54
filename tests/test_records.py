"""The contract of the tuple-backed records: ``Vec3``, ``Pose`` and
``RssMeasurement`` are immutable, compare and hash by value, and a dense
tick's spatially pruned links share one empty measurement per beam."""

import pytest

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.measure.report import RssMeasurement
from repro.net.deployment import Deployment

#: (type, constructor arguments, field names) per record.
RECORDS = [
    (Vec3, (1.0, 2.0, 3.0), ("x", "y", "z")),
    (Pose, (Vec3(1.0, 2.0), 0.5), ("position", "heading")),
    (
        RssMeasurement,
        (0.25, "cellA", 3, 7, -61.5, 12.0),
        ("time_s", "cell_id", "rx_beam", "tx_beam", "rss_dbm", "snr_db"),
    ),
]
IDS = [kind.__name__ for kind, _, _ in RECORDS]


class TestVec3Fields:
    def test_fourth_positional_argument_rejected(self):
        with pytest.raises(TypeError):
            Vec3(1, 2, 3, 4)

    def test_repr_has_three_fields(self):
        assert repr(Vec3(1, 2)) == "Vec3(x=1, y=2, z=0.0)"


class TestImmutableValues:
    @pytest.mark.parametrize("kind, args, fields", RECORDS, ids=IDS)
    def test_fields_cannot_be_assigned(self, kind, args, fields):
        record = kind(*args)
        for name, value in zip(fields, args):
            assert getattr(record, name) == value
            with pytest.raises(AttributeError):
                setattr(record, name, value)

    @pytest.mark.parametrize("kind, args, fields", RECORDS, ids=IDS)
    def test_equal_values_hash_equal(self, kind, args, fields):
        record, copy = kind(*args), kind(*args)
        assert copy == record
        assert copy is not record
        assert hash(copy) == hash(record)


class _Recorder:
    """Stands in for a mobile: keeps what ``complete_burst`` delivers."""

    def __init__(self):
        self.delivered = []

    def complete_burst(self, measurement):
        self.delivered.append(measurement)
        return measurement


class _Station:
    cell_id = "cell7"


class TestPrunedLinkRecords:
    def test_pruned_links_share_one_empty_record_per_beam(self):
        mobiles = [_Recorder() for _ in range(4)]
        measured = RssMeasurement(2.0, "cell7", 5, tx_beam=1, rss_dbm=-70.0,
                                  snr_db=8.0)
        admitted = [
            (mobiles[0], 5, None),
            (mobiles[1], 2, 0),
            (mobiles[2], 5, None),
            (mobiles[3], 4, None),
        ]
        Deployment()._deliver_measurements(_Station(), admitted, [measured], 2.0)
        (first,), (second,), (third,), (fourth,) = (m.delivered for m in mobiles)
        assert second is measured
        assert first is third
        assert first == RssMeasurement(2.0, "cell7", 5)
        assert fourth == RssMeasurement(2.0, "cell7", 4)
        assert not first.detected and not fourth.detected
