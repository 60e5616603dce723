"""Direct unit tests for multi-parameter fusion (``core/fusion.py``).

Previously only exercised indirectly through the pipeline tests and
the extension benchmark; these pin the public surface —
``FusionMatcher.learn/extract/match/identify`` and
``FusedSignature.parameter_names`` — including the weight-normalisation
and error paths.
"""

from __future__ import annotations

import pytest

from repro.core.fusion import FusedSignature, FusionMatcher
from repro.core.matcher import match_signature
from repro.core.parameters import FrameSize, InterArrivalTime
from repro.core.signature import SignatureBuilder
from repro.traces.table import FrameTable


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

    def test_non_positive_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FusionMatcher(
                [InterArrivalTime(), FrameSize()],
                weights={"interarrival": 0.0, "size": 0.0},
            )


class TestFusedSignature:
    def test_parameter_names(self, learnt_matcher, split_tables):
        _, validation = split_tables
        fused = learnt_matcher.extract(validation)
        assert fused  # the office trace has active devices
        for signature in fused.values():
            assert signature.parameter_names == set(signature.per_parameter)
            assert signature.parameter_names <= {"interarrival", "size"}

    def test_empty_fused_signature(self):
        assert FusedSignature().parameter_names == set()


class TestLearnAndExtract:
    def test_learn_populates_per_parameter_databases(self, learnt_matcher):
        assert learnt_matcher.devices  # union over parameter databases
        for name in ("interarrival", "size"):
            database = learnt_matcher._databases[name]
            assert set(database.devices) <= learnt_matcher.devices

    def test_extract_agrees_with_plain_builders(
        self, learnt_matcher, split_tables
    ):
        _, validation = split_tables
        fused = learnt_matcher.extract(validation)
        for parameter in learnt_matcher.parameters:
            expected = SignatureBuilder(parameter, min_observations=30).build_table(
                validation
            )
            got = {
                device: signature.per_parameter[parameter.name]
                for device, signature in fused.items()
                if parameter.name in signature.per_parameter
            }
            assert set(got) == set(expected)


class TestMatchAndIdentify:
    def test_match_before_learn_raises(self):
        matcher = FusionMatcher([InterArrivalTime()])
        with pytest.raises(RuntimeError, match="before learn"):
            matcher.match(FusedSignature())

    def test_match_is_weighted_sum_of_single_parameter_scores(
        self, learnt_matcher, split_tables
    ):
        _, validation = split_tables
        fused = learnt_matcher.extract(validation)
        device, signature = next(iter(fused.items()))
        combined = learnt_matcher.match(signature)
        assert set(combined) == learnt_matcher.devices
        for reference in learnt_matcher.devices:
            expected = 0.0
            for name, single in signature.per_parameter.items():
                scores = match_signature(
                    single, learnt_matcher._databases[name]
                )
                expected += learnt_matcher.weights[name] * scores.get(
                    reference, 0.0
                )
            assert combined[reference] == pytest.approx(expected, abs=1e-12)

    def test_self_identification_on_office_trace(
        self, learnt_matcher, split_tables
    ):
        """Fused fingerprints identify the office devices as themselves."""
        _, validation = split_tables
        fused = learnt_matcher.extract(validation)
        correct = total = 0
        for device, signature in fused.items():
            if device not in learnt_matcher.devices:
                continue
            winner, score = learnt_matcher.identify(signature)
            total += 1
            correct += winner == device
            assert 0.0 <= score <= 1.0 + 1e-9
        assert total > 0
        assert correct == total  # static office devices: clean self-match

    def test_identify_on_empty_candidate(self, learnt_matcher):
        winner, score = learnt_matcher.identify(FusedSignature())
        # No parameters to score: every reference ties at 0, so some
        # reference is returned with a zero combined similarity.
        assert score == 0.0
        assert winner in learnt_matcher.devices

    def test_identify_with_no_references(self):
        matcher = FusionMatcher([InterArrivalTime()], min_observations=30)
        matcher.learn(FrameTable.from_frames([]))  # nothing to learn from
        winner, score = matcher.identify(FusedSignature())
        assert winner is None and score == 0.0
