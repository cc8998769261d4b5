import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import accept_rate, planted_shift, tv_from_probs

from pacverify import identity_test as it
from pacverify.core import DiscreteDistribution, child_rng
from pacverify.identity_test import required_samples

# 100 atoms, outer radius 0.1 and inner radius outer / sqrt(100)
OUTER = 0.1
INNER = OUTER / math.sqrt(100)
DELTA = 0.1
BUDGET = required_samples(100, 0.1, DELTA)


class TestBudget:
    def test_reference_budget_value(self):
        # ceil(4 * sqrt(100) * ln(20) / 0.01)
        assert BUDGET == 11983

    def test_support_scaling_is_sqrt(self):
        ratio = required_samples(200, 0.1, DELTA) / BUDGET
        assert ratio == pytest.approx(np.sqrt(2), rel=1e-3)

    def test_epsilon_scaling_is_inverse_square(self):
        ratio = required_samples(100, 0.05, DELTA) / BUDGET
        assert ratio == pytest.approx(4.0, rel=1e-3)

    def test_budget_validation(self):
        for delta, C in ((0.0, 4.0), (1.0, 4.0), (0.1, 0.0)):
            with pytest.raises(ValueError):
                required_samples(100, 0.1, delta, C)


class TestPlantedShift:
    def test_achieves_requested_distance(self):
        probs = np.full(100, 0.01)
        for tv in (0.0, 0.01, 0.05, 0.1, 0.2):
            shifted = planted_shift(probs, tv)
            assert tv_from_probs(probs, shifted) == pytest.approx(tv, abs=1e-9)
            assert shifted.sum() == pytest.approx(1.0)
            assert (shifted >= -1e-12).all()

    def test_impossible_shift_raises(self):
        with pytest.raises(ValueError):
            planted_shift(np.array([0.999, 0.001]), 0.5)


class TestVerdicts:
    def test_deterministic_given_sample(self):
        ref = DiscreteDistribution.uniform(100)
        counts = child_rng(1).multinomial(BUDGET, ref.probs)
        v1 = it.test_from_counts(ref.probs, counts, OUTER, INNER)
        v2 = it.test_from_counts(ref.probs, counts, OUTER, INNER)
        assert v1 == v2
        assert v1.samples_used == BUDGET

    def test_out_of_support_draw_rejects(self):
        # mass on a zero-probability atom contradicts the reference outright
        ref = np.append(np.full(100, 0.01), 0.0)
        counts = np.zeros(101, dtype=np.int64)
        counts[100] = BUDGET
        verdict = it.test_from_counts(ref, counts, OUTER, INNER)
        assert not verdict.accept
        assert verdict.statistic == np.inf

    @given(m=st.integers(1, 2**53),
           outer=st.floats(1e-6, 1.0, exclude_max=True),
           share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_one_atom_claim_accepted(self, m, outer, share):
        # the statistic is -m and the threshold m^2 * 2(inner^2 + outer^2) - m
        inner = outer * share
        verdict = it.test_from_counts(np.array([1.0]), np.array([m]), outer, inner)
        assert verdict.accept
        assert verdict.statistic == -m
        assert verdict.samples_used == m

    def test_accepts_identical_source(self):
        ref = DiscreteDistribution.uniform(100)
        rate = accept_rate(OUTER, INNER, DELTA, ref, ref.probs, runs=50, seed=2)
        assert rate >= 0.9

    def test_rejects_far_source(self):
        ref = DiscreteDistribution.uniform(100)
        far = planted_shift(ref.probs, 2 * OUTER)
        rate = accept_rate(OUTER, INNER, DELTA, ref, far, runs=50, seed=3)
        assert rate <= 0.1

    def test_acceptance_monotone_in_distance(self):
        ref = DiscreteDistribution.uniform(100)
        rates = [accept_rate(OUTER, INNER, DELTA, ref, planted_shift(ref.probs, tv), runs=60, seed=4)
                 for tv in (0.0, INNER, 0.05, 0.1, 0.2)]
        for earlier, later in zip(rates, rates[1:]):
            assert earlier >= later - 0.05

