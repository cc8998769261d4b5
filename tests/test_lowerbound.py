import math

import numpy as np
import pytest
from oracles import (REDUCTION_TEST_SIZE, exact_no_collision, exact_success_rate,
                     reference_collision_cell, reduction_tester)

from pacverify import lowerbound
from pacverify.lowerbound import (_first_collisions, _key_dtype, crossing_experiment,
                                   distinguisher_success)


def drawn(d, mixture, seed, *sizes):
    """The samples the reduction's sampler of D hands a protocol that draws
    ``sizes`` points in turn and then rejects."""
    samples = []

    def protocol(draw, rng):
        samples.extend(draw(t) for t in sizes)
        return None

    reduction_tester(protocol, d, mixture, seed)
    return samples


def labels_agree(samples) -> bool:
    seen = {}
    return all(seen.setdefault(int(x), int(y)) == int(y)
               for xs, ys in samples for x, y in zip(xs, ys))


class TestDraws:
    """The two laws as the reduction's sampler realizes them."""

    def test_mixture_labels_are_a_function_of_x(self):
        assert all(labels_agree(drawn(16, True, i, 40)) for i in range(50))

    def test_uniform_mode_can_flip_labels(self):
        assert any(not labels_agree(drawn(4, False, i, 12)) for i in range(200))

    def test_single_point_marginals_match(self):
        # d=1: both laws are a fair label coin on the one point
        for mixture in (False, True):
            ones = [int(drawn(1, mixture, i, 1)[0][1][0]) for i in range(400)]
            assert abs(np.mean(ones) - 0.5) < 0.1

    def test_x_marginals_agree_across_modes(self):
        d, t, trials = 8, 6, 300
        counts = {m: sum(np.bincount(drawn(d, m, i, t)[0][0], minlength=d) for i in range(trials))
                  for m in (False, True)}
        diff = np.abs(counts[False] - counts[True]) / (trials * t)
        assert diff.max() < 0.05


def packed(xs, ys, d, dtype=None):
    """Samples as the keys 2x + y that distinguisher_success draws, in its dtype."""
    dtype = dtype or _key_dtype(d)
    return (np.asarray(xs).astype(dtype) << 1) | np.asarray(ys).astype(dtype)


def cells(keys, t=None):
    """Collision cell of each row's first t draws (default: all of them), read
    from its first collision and its first disagreeing collision."""
    t = keys.shape[1] if t is None else t
    first, disagreeing = _first_collisions(keys)
    return np.where(disagreeing < t, 2, np.where(first < t, 1, 0))


class TestCollisionDistinguisher:
    """The distinguisher's verdict per collision cell: 2 uniform, 1 mixture,
    0 undecided."""

    @staticmethod
    def cell(xs, ys):
        return int(cells(packed([xs], [ys], 4))[0])

    def test_disagreeing_collision_means_uniform(self):
        assert self.cell([3, 1, 3], [0, 1, 1]) == 2

    def test_agreeing_collision_means_mixture(self):
        assert self.cell([3, 1, 3], [1, 0, 1]) == 1

    def test_no_collision_undecided(self):
        assert self.cell([0, 1, 2], [1, 0, 1]) == 0

    def test_disagreement_dominates_agreement(self):
        assert self.cell([0, 0, 1, 1], [1, 1, 0, 1]) == 2

    # domain sizes at which the packed key 2x + y just fits in, or just
    # outgrows, uint8, uint16 and uint32, and one whose keys need uint64
    @pytest.mark.parametrize("d", [2, 127, 128, 129, 32767, 32768, 32769,
                                   2**31, 2**31 + 1, 2**40])
    def test_matches_reference_on_random_rows(self, d):
        # the smallest unsigned dtype that holds the largest key, 2d - 1
        dtype = _key_dtype(d)
        smaller = {np.uint16: np.uint8, np.uint32: np.uint16, np.uint64: np.uint32}.get(dtype)
        assert 2 * d - 1 <= np.iinfo(dtype).max
        assert smaller is None or 2 * d - 1 > np.iinfo(smaller).max
        rng = np.random.default_rng(d)
        rows, seen = 2000, set()
        for t in (2, 6):
            # each row draws from a pool of 1-12 values that holds 0 and d - 1,
            # the packed keys' extremes, so every cell occurs
            pools = rng.integers(0, d, size=(rows, 12))
            pools[:, 0], pools[:, 1] = d - 1, 0
            picks = (rng.random((rows, t)) * rng.integers(1, 13, size=(rows, 1))).astype(int)
            xs = np.take_along_axis(pools, picks, axis=1)
            ys = rng.integers(0, 2, size=(rows, t))
            uniform = cells(packed(xs, ys, d))
            assert uniform.tolist() == [reference_collision_cell(x, y) for x, y in zip(xs, ys)]
            mixture = cells(packed(xs, np.zeros_like(ys), d))
            assert mixture.tolist() == [reference_collision_cell(x, [0] * t) for x in xs]
            seen.update(uniform.tolist())
        assert seen == {0, 1, 2}


class TestFirstCollisions:
    """The scorer reads a path's cell at every prefix from two indices; each
    prefix must get the cell the reference gives that prefix."""

    @staticmethod
    def paths(rng, d, rows, t, dtype=np.uint64):
        """Rows of t draws of x in [0, d): half uniform, half from a per-row
        pool of 1-6 values that holds 0 and d - 1, so every cell occurs."""
        xs = rng.integers(0, d, size=(rows, t), dtype=dtype)
        pools = rng.integers(0, d, size=(rows, 6), dtype=dtype)
        pools[:, 0], pools[:, 1] = d - 1, 0
        picks = (rng.random((rows, t)) * rng.integers(1, 7, size=(rows, 1))).astype(int)
        xs[rows // 2:] = np.take_along_axis(pools, picks, axis=1)[rows // 2:]
        return xs

    @staticmethod
    def assert_every_prefix_matches(keys, xs, ys):
        t = keys.shape[1]
        for prefix in range(1, t + 1):
            assert cells(keys, prefix).tolist() == [
                reference_collision_cell(x[:prefix], y[:prefix]) for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("d", [1, 2, 3, 64, 256, 4096, 70_000])
    @pytest.mark.parametrize("law", ["uniform", "mixture"])
    def test_every_prefix_matches_reference(self, d, law):
        rng = np.random.default_rng(d)
        xs = self.paths(rng, d, 200, 12)
        ys = rng.integers(0, 2, size=xs.shape) if law == "uniform" else np.zeros(xs.shape, int)
        dtypes = [t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                  if 2 * d - 1 <= np.iinfo(t).max]
        assert _key_dtype(d) in dtypes
        for dtype in dtypes:
            self.assert_every_prefix_matches(packed(xs, ys, d, dtype), xs, ys)

    def test_keys_spanning_uint64(self):
        # keys up to 2**64 - 1 and a draw index leave no room to pack the
        # key (x, draw index, label) in 64 bits
        d, t = 2**63, 10
        rng = np.random.default_rng(64)
        xs = self.paths(rng, d, 300, t)
        ys = rng.integers(0, 2, size=xs.shape)
        keys = packed(xs, ys, d)
        assert keys.dtype == np.uint64 and int(keys.max()) == 2**64 - 1
        assert int(keys.max()).bit_length() + (t - 1).bit_length() > 64
        self.assert_every_prefix_matches(keys, xs, ys)


def chi_square_z(counts) -> float:
    """Wilson-Hilferty normal score of Pearson's chi-square statistic of
    ``counts`` against equal cell probabilities (df = cells - 1)."""
    counts = np.asarray(counts, dtype=float).ravel()
    expected = counts.sum() / counts.size
    stat, df = ((counts - expected) ** 2).sum() / expected, counts.size - 1
    return ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))


class TestDrawLaw:
    """distinguisher_success draws each sample as its key 2x + y: under the
    uniform law x = key >> 1 is uniform on [0, d) and y = key & 1 a fair bit
    independent of it; under the mixture every key is 2x."""

    @staticmethod
    def drawn_keys(monkeypatch, d, t, trials, seed):
        """The keys scored under each law: the uniform law's blocks of paths
        come first, then as many blocks of the mixture's."""
        blocks = []

        def record(k):
            blocks.append(k.copy())
            return _first_collisions(k)

        monkeypatch.setattr(lowerbound, "_first_collisions", record)
        distinguisher_success(d, t, trials, seed)
        half = len(blocks) // 2
        return np.concatenate(blocks[:half]), np.concatenate(blocks[half:])

    # z = 4.75 is the chi-square's 1 - 1e-6 quantile in the normal approximation.
    # An even (x, y) table means x uniform, y fair and y independent of x at once.
    @pytest.mark.parametrize("d", [2, 5, 128])
    def test_uniform_keys_fill_the_xy_table_evenly(self, monkeypatch, d):
        keys_u, keys_m = self.drawn_keys(monkeypatch, d, 16, 4000, seed=31)
        assert keys_u.dtype == keys_m.dtype == _key_dtype(d)
        assert keys_u.shape == keys_m.shape == (4000, 16)
        assert int(keys_u.max()) < 2 * d and int(keys_m.max()) < 2 * d
        table = np.zeros((d, 2), dtype=np.int64)
        np.add.at(table, (keys_u >> 1, keys_u & 1), 1)
        assert chi_square_z(table) < 4.75
        assert not (keys_m & 1).any()
        assert chi_square_z(np.bincount((keys_m >> 1).ravel(), minlength=d)) < 4.75


class TestNoCollisionProbability:
    def test_closed_form_small_cases(self):
        assert exact_no_collision(4, 2) == pytest.approx(0.75)
        assert exact_no_collision(4, 5) == 0.0
        assert exact_no_collision(10, 1) == 1.0

    def test_matches_empirics_3_sigma(self):
        for d, t in ((64, 4), (256, 8)):
            r = distinguisher_success(d, t, trials=4000, seed=11)
            p = exact_no_collision(d, t)
            sigma = math.sqrt(p * (1 - p) / 4000)
            assert abs(r["no_collision_rate_uniform"] - p) <= 3 * sigma
            assert abs(r["no_collision_rate_mixture"] - p) <= 3 * sigma


def bernstein_radius(p: float, n: int, rates: int, alpha: float) -> float:
    """Deviation s with P[any of `rates` means of n independent [0, 1] scores
    with mean p is off by >= s] <= alpha: Bernstein's inequality with the
    variance bound p(1 - p) per score, and a union bound."""
    L = math.log(2.0 * rates / alpha)
    b = 2.0 * L / 3.0
    return (b + math.sqrt(b * b + 8.0 * n * L * p * (1.0 - p))) / (2.0 * n)


class TestSuccessCurves:
    def test_few_samples_give_little_advantage(self):
        d = 4096
        t = math.ceil(0.2 * math.sqrt(d))
        r = distinguisher_success(d, t, trials=2000, seed=21)
        assert abs(r["success_rate"] - 0.5) <= 0.06

    def test_many_samples_succeed(self):
        d = 4096
        t = math.ceil(3 * math.sqrt(d))
        r = distinguisher_success(d, t, trials=2000, seed=22)
        assert r["success_rate"] >= 0.75

    def test_advantage_bounded_by_coarsened_tv(self):
        for t in (8, 16, 32):
            r = distinguisher_success(256, t, trials=4000, seed=23)
            sigma = 0.5 / math.sqrt(4000)
            assert r["success_rate"] - 0.5 <= r["tv_estimate"] + 3 * sigma

    def test_crossing_slope_near_half(self):
        report = crossing_experiment(ds=(64, 256, 1024), trials=2500, seed=24)
        assert 0.4 <= report["crossing_slope"] <= 0.6
        assert not any(p["censored"] for p in report["points"])

    def test_success_rates_match_exact_law(self):
        # criterion 8's experiment; success_rate is the mean of 2 * trials
        # independent scores in {0, 1/2, 1}, trials under each law, and the
        # sum of their variances is at most 2 trials p(1 - p) by concavity
        report = crossing_experiment(ds=(64, 256, 1024, 4096), trials=3000, seed=77)
        rows = [row for point in report["points"] for row in point["rows"]]
        for row in rows:
            exact = exact_success_rate(row["d"], row["t"])
            radius = bernstein_radius(exact, 2 * row["trials"], len(rows), 1e-6)
            assert abs(row["success_rate"] - exact) <= radius, (row["d"], row["t"])


class TestSharedPaths:
    """The sizes of one crossing point read prefixes of the same paths, so a
    path with a (disagreeing) collision at t keeps it at every larger t. With
    independent draws per size neither monotonicity below holds exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_collision_rates_are_monotone_in_t(self, seed):
        report = crossing_experiment(ds=(64, 256, 1024), trials=400, seed=seed)
        for point in report["points"]:
            rows = point["rows"]
            for law in ("uniform", "mixture"):
                rates = [row[f"no_collision_rate_{law}"] for row in rows]
                assert rates == sorted(rates, reverse=True), (point["d"], law)
            # success_uniform = no-collision rate / 2 + disagreeing rate, both
            # multiples of 1/trials
            disagreeing = [round((row["success_uniform"] - 0.5 * row["no_collision_rate_uniform"])
                                 * row["trials"]) for row in rows]
            assert disagreeing == sorted(disagreeing), point["d"]
            assert disagreeing[-1] > 0


class TestReduction:
    def test_sample_size_constant(self):
        assert REDUCTION_TEST_SIZE == 806
        assert REDUCTION_TEST_SIZE == math.ceil(324 * math.log(12))

    @staticmethod
    def memorizing_protocol(draw, rng):
        # a sample-hungry but correct learner: majority label per seen point
        xs, ys = draw(3 * 4096)
        table = {}
        for x, y in zip(xs, ys):
            table.setdefault(int(x), []).append(int(y))
        lookup = {x: int(np.mean(ys) >= 0.5) for x, ys in table.items()}
        return lambda xs: np.array([lookup.get(int(x), 0) for x in np.asarray(xs)])

    @staticmethod
    def rejecting_protocol(draw, rng):
        return None

    def test_reject_counts_as_mixture(self):
        assert reduction_tester(self.rejecting_protocol, 64, mixture=False, seed=0) == "mixture"

    def test_learner_detects_function_law(self):
        hits = sum(reduction_tester(self.memorizing_protocol, 4096, mixture=True, seed=i)
                   == "mixture" for i in range(10))
        assert hits >= 9

    def test_learner_fails_under_uniform_law(self):
        hits = sum(reduction_tester(self.memorizing_protocol, 4096, mixture=False, seed=i)
                   == "uniform" for i in range(10))
        assert hits >= 9

    def test_source_is_persistent(self):
        assert labels_agree(drawn(8, True, 9, 50, 50))
