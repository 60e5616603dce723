"""Direct unit tests for multi-parameter fusion (``core/fusion.py``).

Previously only exercised indirectly through the pipeline tests and
the extension benchmark; these pin the public surface —
``FusionMatcher.learn/extract/match/identify`` and ``devices`` —
including the weight-normalisation, tie and error paths.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.fusion import FusionMatcher
from repro.core.matcher import batch_match_signatures
from repro.core.parameters import FrameSize, InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.dot11.mac import MacAddress
from repro.traces.table import FrameTable
from tests import oracles
from tests.conftest import count_match_calls, make_data_capture


@pytest.fixture(scope="module")
def split_tables(small_office_trace):
    table = small_office_trace.table()
    half = len(table) // 2
    return table.slice_rows(0, half), table.slice_rows(half, len(table))


@pytest.fixture(scope="module")
def learnt_matcher(split_tables):
    training, _ = split_tables
    matcher = FusionMatcher(
        [InterArrivalTime(), FrameSize()], min_observations=30
    )
    matcher.learn(training)
    return matcher


class TestConstruction:
    def test_needs_at_least_one_parameter(self):
        with pytest.raises(ValueError, match="at least one"):
            FusionMatcher([])

    def test_default_weights_are_uniform(self):
        matcher = FusionMatcher([InterArrivalTime(), FrameSize()])
        assert matcher.weights == {
            "interarrival": pytest.approx(0.5),
            "size": pytest.approx(0.5),
        }

    def test_weights_normalised_to_unit_sum(self):
        matcher = FusionMatcher(
            [InterArrivalTime(), FrameSize()],
            weights={"interarrival": 3.0, "size": 1.0},
        )
        assert matcher.weights["interarrival"] == pytest.approx(0.75)
        assert matcher.weights["size"] == pytest.approx(0.25)

    def test_missing_weight_rejected(self):
        with pytest.raises(ValueError, match="missing fusion weights"):
            FusionMatcher(
                [InterArrivalTime(), FrameSize()], weights={"size": 1.0}
            )

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
    def test_weight_that_is_not_finite_and_non_negative_rejected(self, weight):
        """A NaN weight made every fused score NaN, and a negative one
        fused similarities outside [0, 1], even with a positive sum."""
        with pytest.raises(ValueError, match="'interarrival' must be a finite"):
            FusionMatcher(
                [InterArrivalTime(), FrameSize()],
                weights={"interarrival": weight, "size": 2.0},
            )

    def test_non_positive_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FusionMatcher(
                [InterArrivalTime(), FrameSize()],
                weights={"interarrival": 0.0, "size": 0.0},
            )


class TestLearnAndExtract:
    def test_learn_populates_per_parameter_databases(self, learnt_matcher):
        # The union over parameter databases, in first-registration order.
        union = []
        for name in ("interarrival", "size"):
            database = learnt_matcher._databases[name]
            union += [device for device in database if device not in union]
        assert union
        assert learnt_matcher.devices == tuple(union)

    def test_extract_agrees_with_plain_builders(
        self, learnt_matcher, split_tables
    ):
        _, validation = split_tables
        fused = learnt_matcher.extract(validation)
        assert fused  # the office trace has active devices
        for signatures in fused.values():
            assert set(signatures) <= {"interarrival", "size"}
        for parameter in learnt_matcher.parameters:
            expected = SignatureBuilder(parameter, min_observations=30).build_table(
                validation
            )
            got = {
                device: signatures[parameter.name]
                for device, signatures in fused.items()
                if parameter.name in signatures
            }
            assert set(got) == set(expected)


class TestMatchAndIdentify:
    def test_match_before_learn_raises(self):
        matcher = FusionMatcher([InterArrivalTime()])
        with pytest.raises(RuntimeError, match="before learn"):
            matcher.match([{}])

    def test_match_is_weighted_sum_of_single_parameter_scores(
        self, learnt_matcher, split_tables
    ):
        _, validation = split_tables
        candidates = list(learnt_matcher.extract(validation).values())
        combined = learnt_matcher.match(candidates)
        assert combined.shape == (len(candidates), len(learnt_matcher.devices))
        for row, candidate in zip(combined, candidates):
            for column, reference in enumerate(learnt_matcher.devices):
                expected = 0.0
                for name, single in candidate.items():
                    scores = oracles.scalar_match(
                        single, learnt_matcher._databases[name]
                    )
                    expected += learnt_matcher.weights[name] * scores.get(
                        reference, 0.0
                    )
                assert row[column] == pytest.approx(expected, abs=1e-12)

    def test_match_makes_one_call_per_parameter(
        self, learnt_matcher, split_tables, monkeypatch
    ):
        _, validation = split_tables
        candidates = list(learnt_matcher.extract(validation).values())
        assert len(candidates) >= 2
        calls = count_match_calls(monkeypatch, "repro.core.fusion")
        learnt_matcher.match(candidates)
        assert calls == [
            sum(name in candidate for candidate in candidates)
            for name in ("interarrival", "size")
        ]

    def test_identify_reads_the_first_maximum_of_each_row(
        self, learnt_matcher, split_tables
    ):
        _, validation = split_tables
        candidates = list(learnt_matcher.extract(validation).values())
        matrix = learnt_matcher.match(candidates)
        winners = learnt_matcher.identify(candidates)
        assert winners == [
            (learnt_matcher.devices[int(row.argmax())], row.max()) for row in matrix
        ]

    def test_self_identification_on_office_trace(
        self, learnt_matcher, split_tables
    ):
        """Fused fingerprints identify the office devices as themselves."""
        _, validation = split_tables
        fused = learnt_matcher.extract(validation)
        known = [device for device in fused if device in learnt_matcher.devices]
        winners = learnt_matcher.identify([fused[device] for device in known])
        correct = total = 0
        for device, (winner, score) in zip(known, winners):
            total += 1
            correct += winner == device
            assert 0.0 <= score <= 1.0 + 1e-9
        assert total > 0
        assert correct == total  # static office devices: clean self-match

    def test_identify_on_empty_candidate(self, learnt_matcher):
        # No parameters to score: every reference ties at 0, so the
        # first-registered reference wins with a zero similarity.
        assert learnt_matcher.identify([{}]) == [(learnt_matcher.devices[0], 0.0)]

    def test_identify_with_no_references(self):
        matcher = FusionMatcher([InterArrivalTime()], min_observations=30)
        matcher.learn(FrameTable.from_frames([]))  # nothing to learn from
        assert matcher.devices == ()
        assert matcher.match([{}, {}]).shape == (2, 0)
        assert matcher.identify([{}, {}]) == [(None, 0.0), (None, 0.0)]

    def test_tie_goes_to_the_first_registered_device(self):
        """Two devices sending the same frames learn identical size
        signatures; a candidate equal to both identifies as the one
        registered first."""
        first = MacAddress.parse("00:13:e8:00:00:01")
        second = MacAddress.parse("00:18:f8:00:00:01")
        ap = MacAddress.parse("00:0f:b5:00:00:01")
        frames = []
        for i in range(60):
            size = 200 + 100 * (i % 5)
            frames.append(make_data_capture(1000.0 * i, first, ap, size=size))
            frames.append(make_data_capture(1000.0 * i + 400.0, second, ap, size=size))
        matcher = FusionMatcher([FrameSize()], min_observations=30)
        matcher.learn(FrameTable.from_frames(frames))
        assert matcher.devices == (first, second)
        reference = matcher._databases["size"].get(first)
        (row,) = batch_match_signatures([reference], matcher._databases["size"])
        assert row[0] == row[1]  # a true tie
        assert matcher.identify([{"size": reference}]) == [(first, row[0])]
        assert np.array_equal(matcher.match([{"size": reference}]), [row])
