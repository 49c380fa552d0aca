"""DetectorErrorModel construction checks."""

import pytest

from repro.dem import DetectorErrorModel, ErrorMechanism


def _mechanism(detectors=(0,), observables=()):
    return ErrorMechanism(0.1, detectors, observables)


class TestConstructionValidation:
    def test_mechanisms_without_groups_rejected(self):
        # Sampling, merging and decoding walk the groups only; these
        # mechanisms used to vanish into an empty decoding graph.
        with pytest.raises(ValueError, match="mechanism 0 is in 0 groups"):
            DetectorErrorModel(3, 1, mechanisms=[_mechanism()])

    def test_first_ungrouped_mechanism_named(self):
        with pytest.raises(ValueError, match="mechanism 1 is in 0 groups"):
            DetectorErrorModel(
                3, 1, mechanisms=[_mechanism(), _mechanism((1,))],
                groups=[[0]],
            )

    def test_mechanism_in_two_groups_rejected(self):
        with pytest.raises(ValueError, match="mechanism 0 is in 2 groups"):
            DetectorErrorModel(
                3, 1, mechanisms=[_mechanism()], groups=[[0], [0]]
            )

    def test_group_member_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="group member 1"):
            DetectorErrorModel(
                3, 1, mechanisms=[_mechanism()], groups=[[0, 1]]
            )

    @pytest.mark.parametrize(
        "mechanism,message",
        [
            (_mechanism((3,)), "flips detector 3, but the model has 3"),
            (_mechanism((-1,)), "flips detector -1"),
            (_mechanism((0,), (1,)), "flips observable 1, but the model has 1"),
        ],
    )
    def test_out_of_range_targets_rejected(self, mechanism, message):
        with pytest.raises(ValueError, match=message):
            DetectorErrorModel(3, 1, mechanisms=[mechanism], groups=[[0]])

    def test_grouped_mechanisms_accepted(self):
        dem = DetectorErrorModel(
            3, 1,
            mechanisms=[_mechanism(), _mechanism((1, 2), (0,))],
            groups=[[0, 1]],
        )
        assert dem.filter_graphlike().groups == [[0, 1]]
        assert len(DetectorErrorModel(3, 1).mechanisms) == 0
