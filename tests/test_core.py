import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bruteforce_vc_intervals, tv_from_probs

from pacverify.core import DiscreteDistribution, child_rng
from pacverify.harness import ProtocolViolation, parse_counts
from pacverify.intervals import IntervalPopulation, UnionOfIntervals


def probs_strategy(n):
    return st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(
        lambda ws: np.array(ws) / np.sum(ws))


class TestDiscreteDistribution:
    def test_from_counts_keeps_exact_counts(self):
        # probabilities are the exact count ratios
        d = DiscreteDistribution.from_counts(("a", "b"), [3, 1])
        assert list(d.probs) == [0.75, 0.25]
        assert len(d) == 2

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_probs(("a", "a"), [0.5, 0.5])

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_probs(("a", "b"), [0.9, 0.2])

    def test_json_round_trip_exact(self):
        # a claimed count vector survives the JSON wire format exactly
        doc = json.loads(json.dumps({"counts": [5, 3, 2], "denominator": 10}))
        counts = parse_counts(doc["counts"], (3,), doc["denominator"])
        assert list(counts) == [5, 3, 2]
        d = DiscreteDistribution.from_counts((0, 1, 2), counts)
        assert list(d.probs) == [0.5, 0.3, 0.2]

    def test_json_rejects_inconsistent_denominator(self):
        with pytest.raises(ProtocolViolation):
            parse_counts([1, 1], (2,), 3)


class TestTotalVariation:
    def test_worked_example(self):
        assert tv_from_probs([0.2, 0.8], [0.5, 0.5]) == pytest.approx(0.3)

    def test_disjoint_supports(self):
        assert tv_from_probs([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    @given(probs_strategy(6), probs_strategy(6))
    @settings(max_examples=200, deadline=None)
    def test_metric_properties(self, ps, qs):
        tv = tv_from_probs(ps, qs)
        assert 0.0 <= tv <= 1.0
        assert tv == pytest.approx(tv_from_probs(qs, ps))
        assert tv_from_probs(ps, ps) == pytest.approx(0.0, abs=1e-12)

    @given(probs_strategy(5), probs_strategy(5), probs_strategy(5))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert tv_from_probs(a, c) <= tv_from_probs(a, b) + tv_from_probs(b, c) + 1e-12


class TestLosses:
    def test_population_loss_exact(self):
        # narrow bands at (0.1, 1), (0.5, 0), (0.9, 1) with weights 1/2, 1/4, 1/4
        pop = IntervalPopulation(np.array([0.1, 0.5, 0.9]), np.array([0.5, 0.25, 0.25]),
                                 np.array([1.0, 0.0, 1.0]), halfwidth=0.01)
        # h = 1 on (0.4, 1] mislabels (0.1, 1) and (0.5, 0)
        assert pop.loss01(UnionOfIntervals(((0.4, 1.0),))) == pytest.approx(0.75)


class TestVcBruteForce:
    def test_intervals_vc_is_min_2d_n(self):
        for d in (1, 2):
            for n in (2, 3, 5, 6):
                grid = [(i + 0.5) / n for i in range(n)]
                assert bruteforce_vc_intervals(grid, d) == min(2 * d, n), (d, n)

    def test_shatters_two_points_single_interval(self):
        assert bruteforce_vc_intervals((0.2, 0.8), 1) == 2
        assert bruteforce_vc_intervals((0.2, 0.5, 0.8), 1) < 3


class TestChildRng:
    def test_paths_are_independent_streams(self):
        a = child_rng(11, 0).random(4)
        b = child_rng(11, 1).random(4)
        assert not np.allclose(a, b)
        assert np.allclose(a, child_rng(11, 0).random(4))

    def test_nested_paths_distinct(self):
        assert not np.allclose(child_rng(5, 1, 2).random(3), child_rng(5, 2, 1).random(3))
