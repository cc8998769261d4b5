import dataclasses
import math

import numpy as np
import pytest
from oracles import (
    bruteforce_interval_erm,
    bruteforce_interval_erm_runs,
    reference_interval_label_masses,
    reference_interval_sample,
    reference_verifier_counts,
)

from pacverify.core import child_rng
from pacverify.harness import ProtocolViolation, run_interaction
from pacverify.identity_test import required_samples
from pacverify.intervals import (
    BAND_FRACTION,
    DiscretizedMessage,
    HonestIntervalProver,
    IntervalPopulation,
    IntervalProtocolConfig,
    UnionOfIntervals,
    erm_runs,
    honest_prover_partition,
    make_interval_prover,
    make_protocol1_verifier,
    map_to_interval,
    optimal_class_loss,
)

TARGET = UnionOfIntervals(((0.1, 0.3), (0.6, 0.8)))


def small_config():
    return IntervalProtocolConfig.default(2, 0.1, 0.2)


class TestUnionOfIntervals:
    def test_membership(self):
        h = UnionOfIntervals(((0.2, 0.4), (0.6, 0.7)))
        assert list(h.contains([0.1, 0.2, 0.3, 0.5, 0.65, 0.9])) == [
            False, True, True, False, True, False]

    def test_overlaps_merged(self):
        h = UnionOfIntervals(((0.1, 0.5), (0.4, 0.6)))
        assert h.intervals == ((0.1, 0.6),)

    def test_empty_union(self):
        h = UnionOfIntervals(())
        assert not h.contains([0.0, 0.5, 1.0]).any()

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            UnionOfIntervals(((0.5, 0.2),))


class TestHonestPartition:
    def test_distinct_values_split_into_equal_runs(self):
        xs = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        ys = np.zeros(8, dtype=int)
        msg = honest_prover_partition(xs, ys, k=4)
        # runs of 2: boundaries between consecutive pairs
        assert np.allclose(msg.boundaries, [0.0, 0.25, 0.45, 0.65, 1.0])
        assert (msg.counts.sum(axis=1) == 2).all()

    def test_all_ones_labels(self):
        xs = np.linspace(0.1, 0.8, 8)
        msg = honest_prover_partition(xs, np.ones(8, dtype=int), k=4)
        assert (msg.counts[:, 1] == 2).all()
        assert (msg.counts[:, 0] == 0).all()

    def test_identical_x_values_still_balanced(self):
        # ties split by sorted-index rank; every interval keeps m/k points
        xs = np.full(8, 0.5)
        ys = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        msg = honest_prover_partition(xs, ys, k=4)
        assert (msg.counts.sum(axis=1) == 2).all()
        assert msg.counts.sum() == 8

    def test_sample_size_must_divide(self):
        with pytest.raises(ValueError):
            honest_prover_partition(np.linspace(0, 1, 7), np.zeros(7), k=4)

    def test_gate_invariant_on_random_samples(self):
        # construction guarantees the exact equal-share identity
        for trial in range(20):
            rng = child_rng(31, trial)
            pop = IntervalPopulation.grid_realizable(16, TARGET)
            msg = honest_prover_partition(*pop.sample(240, rng), k=12)
            assert (msg.counts.sum(axis=1) == 20).all()


def banded(n_points, masses, label1):
    centers = (np.arange(n_points) + 0.5) / n_points
    return IntervalPopulation(centers, masses, label1, halfwidth=BAND_FRACTION / n_points)


def random_bands(n_points, seed, zero_every=None):
    rng = child_rng(seed)
    masses = rng.random(n_points)
    if zero_every:
        masses[::zero_every] = 0.0
    return banded(n_points, masses / masses.sum(), rng.random(n_points))


# populations the band-level prover must reproduce the point-level reference on
PROVER_POPULATIONS = {
    "grid": lambda: IntervalPopulation.grid_realizable(64, TARGET),
    "grid-few-bands": lambda: IntervalPopulation.grid_realizable(5, TARGET),
    "grid-many-bands": lambda: IntervalPopulation.grid_realizable(600, TARGET),
    "coin": lambda: banded(64, np.full(64, 1 / 64), np.full(64, 0.5)),
    "random": lambda: random_bands(40, 61),
    "zero-mass-bands": lambda: random_bands(30, 62, zero_every=3),
    "touching-bands": lambda: IntervalPopulation(np.array([0.125, 0.375, 0.625, 0.875]),
                                                 np.array([0.1, 0.4, 0.3, 0.2]),
                                                 np.array([0.0, 0.3, 1.0, 0.6]), halfwidth=0.125),
}


class TestBandLevelProver:
    """``build_message`` against the point-level reference: sort the whole
    sample, then partition it."""

    @pytest.mark.parametrize("d,epsilon,chunk", [(1, 0.5, 1), (2, 0.25, 37), (2, 0.1, 200)])
    @pytest.mark.parametrize("population", PROVER_POPULATIONS.values(),
                             ids=PROVER_POPULATIONS.keys())
    def test_claim_equals_sort_and_partition(self, population, d, epsilon, chunk):
        pop = population()
        c_p = {1: 0.5, 37: 1.38, 200: 0.352}[chunk]
        cfg = IntervalProtocolConfig.default(d, epsilon, 0.2, c_p=c_p)
        assert cfg.chunk == chunk
        for seed in range(4):
            expected = honest_prover_partition(*pop.sample(cfg.m_p, child_rng(seed)),
                                               cfg.k).to_payload()
            claim = HonestIntervalProver(pop, cfg).build_message(child_rng(seed))
            assert claim.to_payload() == expected, seed

    def test_bands_whose_rounded_edges_cross_are_refused(self):
        # b - a rounds to exactly 2 * hw, but a + hw rounds above b - hw, so a
        # jittered point of the first band could sort above one of the second
        a, b, hw = 0.11757078903470726, 0.2886075410881408, 0.08551837602671677
        assert b - a == 2 * hw and a + hw > b - hw
        with pytest.raises(ValueError, match="disjoint"):
            IntervalPopulation(np.array([a, b]), np.array([0.5, 0.5]), np.zeros(2), halfwidth=hw)

    @pytest.mark.parametrize("halfwidth", [0.0, -0.01, float("nan")])
    def test_bands_without_positive_width_are_refused(self, halfwidth):
        # point masses would put the equal-share cut points on atoms
        with pytest.raises(ValueError, match="halfwidth"):
            IntervalPopulation(np.array([0.25, 0.75]), np.array([0.5, 0.5]), np.zeros(2),
                               halfwidth=halfwidth)


class TestWireFormat:
    def test_payload_round_trip(self):
        msg = honest_prover_partition(np.linspace(0.05, 0.95, 8), np.ones(8, dtype=int), k=4)
        doc = msg.to_payload()
        assert set(doc) == {"boundaries", "counts", "denominator"}
        back = DiscretizedMessage.from_payload(doc, 4, 8)
        assert np.allclose(back.boundaries, msg.boundaries)
        assert (back.counts == msg.counts).all()

    @pytest.mark.parametrize("mangle", [
        lambda d: d.pop("counts"),
        lambda d: d.update(counts="zzzz"),
        lambda d: d.update(denominator="many"),
        lambda d: d["counts"].append([1, 1]),
        lambda d: d["counts"][0].__setitem__(0, -1),
        lambda d: d.update(boundaries=[0.5] + d["boundaries"][1:]),
        lambda d: d.update(counts=[[0.5, 1.5]] + d["counts"][1:]),
        lambda d: d.update(boundaries=[str(b) for b in d["boundaries"]]),
        lambda d: d.update(boundaries=[False, *d["boundaries"][1:-1], True]),
        lambda d: d.update(denominator=16, counts=[[0, 4]] * 4),  # not the agreed m = 8
        lambda d: d.update(counts=[[0, 3], [0, 1], [0, 2], [0, 2]]),  # unequal shares
    ])
    def test_malformed_payloads_raise(self, mangle):
        msg = honest_prover_partition(np.linspace(0.05, 0.95, 8), np.ones(8, dtype=int), k=4)
        doc = msg.to_payload()
        mangle(doc)
        with pytest.raises(ProtocolViolation):
            DiscretizedMessage.from_payload(doc, 4, 8)


class TestDiscretize:
    """The exact pushforward of a population onto interval x label cells."""

    def test_identity_when_supported_on_representatives(self):
        pop = IntervalPopulation(np.array([0.125, 0.625]), np.array([0.4, 0.6]),
                                 np.array([0.0, 1.0]), halfwidth=0.01)
        table = pop.interval_label_masses(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert table[0, 0] == pytest.approx(0.4)
        assert table[2, 1] == pytest.approx(0.6)
        assert table.sum() == pytest.approx(1.0)

    def test_uniform_bands_quarter_masses(self):
        # near-uniform x-marginal with y = 1 everywhere: quarters get 1/4 each
        pop = IntervalPopulation.grid_realizable(64, UnionOfIntervals(((0.0, 1.0),)))
        table = pop.interval_label_masses(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert np.allclose(table[:, 1], 0.25)
        assert np.allclose(table[:, 0], 0.0)

    def test_same_interval_masses_merge(self):
        pop = IntervalPopulation(np.array([0.30, 0.40]), np.array([0.7, 0.3]), np.ones(2),
                                 halfwidth=0.01)
        table = pop.interval_label_masses(np.array([0.0, 0.25, 0.5, 1.0]))
        assert table[1, 1] == pytest.approx(1.0)


class TestErm:
    def test_all_zero_labels_empty_union(self):
        runs, loss = erm_runs(np.array([0.3, 0.3, 0.4]), np.zeros(3), d=2)
        assert runs == []
        assert loss == 0.0

    def test_four_point_single_interval_example(self):
        # label-1 masses (1/4, 0, 1/4, 0): one interval cannot cover both runs
        mass0, mass1 = np.array([0, 0.25, 0, 0.25]), np.array([0.25, 0, 0.25, 0])
        _, loss = erm_runs(mass0, mass1, d=1)
        assert loss == pytest.approx(0.25)

    def test_realizable_when_budget_covers_runs(self):
        mass0, mass1 = np.array([0, 0.25, 0, 0.25]), np.array([0.25, 0, 0.25, 0])
        runs, loss = erm_runs(mass0, mass1, d=2)
        assert loss == pytest.approx(0.0)
        assert runs == [(0, 0), (2, 2)]

    def test_matches_bruteforce_on_random_instances(self):
        rng = child_rng(77)
        for trial in range(300):
            k = int(rng.integers(2, 11))
            d = int(rng.integers(1, 4))
            mass = rng.random((k, 2))
            mass /= mass.sum()
            runs, loss = erm_runs(mass[:, 0], mass[:, 1], d)
            best, _ = bruteforce_interval_erm(mass[:, 0], mass[:, 1], d)
            assert loss == pytest.approx(best, abs=1e-12), (k, d, trial)
            assert len(runs) <= d

    def test_deterministic_tie_breaking(self):
        # integer masses make exact ties common; the stated rule is the
        # minimizer of (loss, run count, run list)
        rng = child_rng(78)
        for trial in range(3000):
            k = int(rng.integers(1, 10))
            d = int(rng.integers(1, 4))
            mass = rng.integers(0, 3, size=(k, 2))
            expected = bruteforce_interval_erm_runs(mass[:, 0].tolist(), mass[:, 1].tolist(), d)
            assert erm_runs(mass[:, 0], mass[:, 1], d) == expected, (k, d, trial)


class TestVerifier:
    def test_honest_message_passes_gate(self):
        cfg = small_config()
        pop = IntervalPopulation.grid_realizable(64, TARGET)
        prover = HonestIntervalProver(pop, cfg)
        msg = prover.build_message(child_rng(3))
        assert (msg.counts.sum(axis=1) == cfg.chunk).all()

    def test_tampered_count_rejected_at_gate(self):
        cfg = small_config()
        pop = IntervalPopulation.grid_realizable(64, TARGET)
        doc = HonestIntervalProver(pop, cfg).open(child_rng(3))
        doc["counts"][0][0] += 1
        doc["counts"][1][0] -= 1
        with pytest.raises(ProtocolViolation, match="equal share"):
            DiscretizedMessage.from_payload(doc, cfg.k, cfg.m_p)

    def test_unsorted_boundaries_rejected_at_gate(self):
        cfg = small_config()
        pop = IntervalPopulation.grid_realizable(64, TARGET)
        doc = HonestIntervalProver(pop, cfg).open(child_rng(3))
        doc["boundaries"][1], doc["boundaries"][2] = doc["boundaries"][2], doc["boundaries"][1]
        with pytest.raises(ProtocolViolation, match="boundaries must increase from 0 to 1"):
            DiscretizedMessage.from_payload(doc, cfg.k, cfg.m_p)

    def test_label_swapped_claim_refused_by_the_tester(self):
        cfg = small_config()
        pop = IntervalPopulation.grid_realizable(64, TARGET)
        prover = make_interval_prover("label-swap", pop, cfg)

        class Channel:
            def initial(self):
                return prover.open(child_rng(3))

        verifier = make_protocol1_verifier(pop, cfg)
        with pytest.raises(ProtocolViolation, match="identity tester"):
            verifier(Channel(), child_rng(4))
        assert run_interaction(verifier, prover, 9).outcome.kind == "reject"

    def test_map_to_interval_conventions(self):
        boundaries = np.array([0.0, 0.25, 0.5, 1.0])
        assert list(map_to_interval(boundaries, [0.0, 0.25, 0.49, 1.0])) == [0, 1, 1, 2]

    def test_garbage_and_silent_provers_rejected(self):
        cfg = small_config()
        pop = IntervalPopulation.grid_realizable(64, TARGET)
        for name in ("garbage", "silent"):
            t = run_interaction(make_protocol1_verifier(pop, cfg),
                                make_interval_prover(name, pop, cfg), 9)
            assert t.outcome.kind == "reject"

    def test_honest_end_to_end_accepts_good_hypothesis(self):
        cfg = small_config()
        pop = IntervalPopulation.grid_realizable(64, TARGET)
        t = run_interaction(make_protocol1_verifier(pop, cfg), HonestIntervalProver(pop, cfg), 11)
        assert t.outcome.kind == "hypothesis"
        h = UnionOfIntervals(tuple(tuple(x) for x in t.outcome.hypothesis))
        assert pop.loss01(h) <= optimal_class_loss(pop, 2) + cfg.epsilon

    def test_label_swap_prover_rejected(self):
        cfg = small_config()
        pop = IntervalPopulation.grid_realizable(64, TARGET)
        prover = make_interval_prover("label-swap", pop, cfg)
        t = run_interaction(make_protocol1_verifier(pop, cfg), prover, 12)
        assert t.outcome.kind == "reject"


class TestDiscretizationError:
    def test_loss_gap_bounded_by_boundary_intervals(self):
        # equal-mass partition: any d-interval hypothesis is non-constant on
        # at most 2d cells, so discretized and true losses differ by <= 2d/k
        rng = child_rng(55)
        pop = IntervalPopulation.grid_realizable(64, TARGET)
        k = 16
        boundaries = np.linspace(0.0, 1.0, k + 1)
        reps = 0.5 * (boundaries[:-1] + boundaries[1:])
        table = pop.interval_label_masses(boundaries)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            cuts = np.sort(rng.random(2 * d))
            h = UnionOfIntervals(tuple((cuts[2 * i], cuts[2 * i + 1]) for i in range(d)))
            # the cell's representative decides its label; the other label's mass is lost
            disc_loss = float(np.where(h.contains(reps), table[:, 0], table[:, 1]).sum())
            assert abs(pop.loss01(h) - disc_loss) <= 2 * d / k + 1e-9


def same_law_columns(a, b, z=4.75):
    """Columns of two (replicates, c) integer tables whose values fail a
    two-sample chi-square homogeneity test at standard-normal score z (about
    1e-6 per column). Values seen fewer than 20 times in a column are pooled;
    the upper chi-square quantile is the Wilson-Hilferty approximation."""
    failed = []
    for col in range(a.shape[1]):
        values, inverse = np.unique(np.concatenate([a[:, col], b[:, col]]), return_inverse=True)
        table = np.stack([np.bincount(inverse[:len(a)], minlength=len(values)),
                          np.bincount(inverse[len(a):], minlength=len(values))])
        rare = table.sum(axis=0) < 20
        table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        df = table.shape[1] - 1
        if df == 0:
            continue
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
        stat = float(((table - expected) ** 2 / expected).sum())
        if stat > df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3:
            failed.append(col)
    return failed


class TestSamplingLaw:
    """The sorted sampler and the verifier's multinomial counts against the
    point-by-point references in ``oracles``."""

    BANDS = dict(centers=np.array([0.1, 0.3, 0.5, 0.7, 0.9]),
                 masses=np.array([0.1, 0.3, 0.2, 0.25, 0.15]),
                 label1=np.array([0.2, 0.9, 0.5, 0.0, 1.0]))

    def pop(self, halfwidth, label1=None):
        bands = dict(self.BANDS, halfwidth=halfwidth)
        if label1 is not None:
            bands["label1"] = label1
        return IntervalPopulation(**bands)

    def boundary_sets(self, pop):
        rng = child_rng(8)
        edges = np.concatenate([pop.centers - pop.halfwidth, pop.centers + pop.halfwidth])
        inners = [
            np.sort(rng.random(6)),
            np.repeat(np.sort(rng.random(3)), [1, 3, 2]),
            np.sort(np.concatenate([pop.centers, edges])),  # on the band centers and edges
            np.array([0.3, 0.3, 0.5, 0.5]),
            np.zeros(5),
            np.ones(5),
        ]
        return [np.concatenate(([0.0], np.clip(inner, 0.0, 1.0), [1.0])) for inner in inners]

    @pytest.mark.parametrize("halfwidth", [0.05])
    def test_label_masses_match_reference(self, halfwidth):
        pop = self.pop(halfwidth)
        for boundaries in self.boundary_sets(pop):
            table = pop.interval_label_masses(boundaries)
            assert np.allclose(table, reference_interval_label_masses(pop, boundaries),
                               rtol=0.0, atol=1e-12), boundaries
            assert table.sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def chunk_ones(sampler, pop, reps, seed, m=60, k=6):
        messages = (honest_prover_partition(*sampler(pop, m, child_rng(seed, r)), k)
                    for r in range(reps))
        return np.array([msg.counts[:, 1] for msg in messages])

    def test_honest_chunk_label_counts_match_reference(self):
        pop = self.pop(0.05)
        new = self.chunk_ones(IntervalPopulation.sample, pop, 3000, seed=1)
        ref = self.chunk_ones(reference_interval_sample, pop, 3000, seed=2)
        assert same_law_columns(new, ref) == []
        # the test sees a 0.1 change of one band's label law
        shifted = self.pop(0.05, label1=self.BANDS["label1"] + [0, 0, 0.1, 0, 0])
        assert same_law_columns(self.chunk_ones(reference_interval_sample, shifted, 3000, 3), ref)

    @pytest.mark.parametrize("halfwidth", [0.05])
    def test_verifier_counts_match_reference(self, halfwidth):
        pop = self.pop(halfwidth)
        m, reps = 50, 2000
        for i, boundaries in enumerate(self.boundary_sets(pop)[:3]):
            masses = pop.interval_label_masses(boundaries).ravel()
            new = np.array([child_rng(4, i, r).multinomial(m, masses) for r in range(reps)])
            ref = np.array([reference_verifier_counts(pop, boundaries, m, child_rng(5, i, r))
                            for r in range(reps)])
            assert same_law_columns(new, ref) == [], boundaries


class TestBudgets:
    def test_m_p_is_multiple_of_k(self):
        cfg = small_config()
        assert cfg.m_p % cfg.k == 0

    def test_verifier_budget_scales_as_sqrt_d(self):
        ds = np.array([4, 16, 64, 256])
        ms = [IntervalProtocolConfig.default(int(d), 0.1, 0.2).m_v for d in ds]
        slope = np.polyfit(np.log(ds), np.log(ms), 1)[0]
        assert 0.4 <= slope <= 0.6

    def test_m_v_equals_tester_budget(self):
        cfg = small_config()
        assert cfg.m_v == required_samples(2 * cfg.k, cfg.epsilon / 6, cfg.delta / 2, cfg.c_v)

    def test_derived_budgets_pinned(self):
        # every intervals report at these parameters reads these budgets
        cfg = small_config()
        assert (cfg.k, cfg.m_v, cfg.m_p) == (240, 472_560, 1_087_440)
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, m_p=cfg.k)

    @pytest.mark.parametrize("params", [{"c_v": 0.0}, {"c_p": 0.0}, {"c_p": -1.0},
                                        {"c_p": float("nan")}, {"d": 0}])
    def test_nonpositive_parameter_refused(self, params):
        # a zero c_p would give m_p = 0 and chunk = 0, on which the prover divides by zero
        with pytest.raises(ValueError, match="positive"):
            IntervalProtocolConfig.default(**{"d": 2, "epsilon": 0.1, "delta": 0.2} | params)

    @pytest.mark.parametrize("epsilon", [-0.5, 0.0, 1.0, 2.0, float("nan")])
    def test_epsilon_outside_unit_range_refused(self, epsilon):
        # at -0.5 the budget formula would take the log of a negative number
        with pytest.raises(ValueError, match="epsilon must lie in"):
            IntervalProtocolConfig.default(2, epsilon, 0.2)
