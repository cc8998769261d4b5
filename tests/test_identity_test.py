import dataclasses

import numpy as np
import pytest
from oracles import accept_rate, planted_shift, tv_from_probs

from pacverify import identity_test as it
from pacverify import intervals as iv
from pacverify.core import DiscreteDistribution, child_rng
from pacverify.identity_test import IdentityTestConfig, required_samples

CFG = IdentityTestConfig(n=100, epsilon=0.1, delta=0.1)


class TestBudget:
    def test_reference_budget_value(self):
        # ceil(4 * sqrt(100) * ln(20) / 0.01)
        assert required_samples(CFG) == 11983

    def test_support_scaling_is_sqrt(self):
        doubled = IdentityTestConfig(n=200, epsilon=0.1, delta=0.1)
        ratio = required_samples(doubled) / required_samples(CFG)
        assert ratio == pytest.approx(np.sqrt(2), rel=1e-3)

    def test_epsilon_scaling_is_inverse_square(self):
        halved = IdentityTestConfig(n=100, epsilon=0.05, delta=0.1)
        ratio = required_samples(halved) / required_samples(CFG)
        assert ratio == pytest.approx(4.0, rel=1e-3)

    def test_inner_radius_default(self):
        assert CFG.inner == pytest.approx(0.1 / 10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IdentityTestConfig(n=1, epsilon=0.1, delta=0.1)
        with pytest.raises(ValueError):
            IdentityTestConfig(n=100, epsilon=0.1, delta=0.1, inner_radius=0.2)


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
        ref = DiscreteDistribution.uniform(tuple(range(100)))
        counts = child_rng(1).multinomial(required_samples(CFG), ref.probs)
        v1 = it.test_from_counts(ref.probs, counts, CFG)
        v2 = it.test_from_counts(ref.probs, counts, CFG)
        assert v1 == v2
        assert v1.samples_used == required_samples(CFG)

    def test_small_sample_rejected_loudly(self):
        # no config gives the verifier fewer samples than the tester's budget
        cfg = iv.IntervalProtocolConfig.default(1, 0.5, 0.5)
        with pytest.raises(ValueError, match="below the tester's"):
            dataclasses.replace(cfg, m_v=required_samples(cfg.tester_config()) - 1)

    def test_out_of_support_draw_rejects(self):
        # mass on a zero-probability atom contradicts the reference outright
        ref = np.append(np.full(100, 0.01), 0.0)
        counts = np.zeros(101, dtype=np.int64)
        counts[100] = required_samples(CFG)
        verdict = it.test_from_counts(ref, counts, CFG)
        assert not verdict.accept
        assert verdict.statistic == np.inf

    def test_accepts_identical_source(self):
        ref = DiscreteDistribution.uniform(tuple(range(100)))
        rate = accept_rate(CFG, ref, ref.probs, runs=50, seed=2)
        assert rate >= 0.9

    def test_rejects_far_source(self):
        ref = DiscreteDistribution.uniform(tuple(range(100)))
        far = planted_shift(ref.probs, 2 * CFG.epsilon)
        rate = accept_rate(CFG, ref, far, runs=50, seed=3)
        assert rate <= 0.1

    def test_acceptance_monotone_in_distance(self):
        ref = DiscreteDistribution.uniform(tuple(range(100)))
        rates = [accept_rate(CFG, ref, planted_shift(ref.probs, tv), runs=60, seed=4)
                 for tv in (0.0, CFG.inner, 0.05, 0.1, 0.2)]
        for earlier, later in zip(rates, rates[1:]):
            assert earlier >= later - 0.05

