import bisect
import math

import numpy as np
import pytest
from oracles import (REDUCTION_TEST_SIZE, exact_cell_rates, exact_no_collision,
                     exact_success_rate, reference_collision_cell, reduction_tester)

from pacverify import lowerbound
from pacverify.lowerbound import (SCAN_FACTORS, _collision_times, crossing_experiment,
                                   distinguisher_success, success_curve)


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


def bernstein_radius(p: float, n: int, rates: int, alpha: float) -> float:
    """Deviation s with P[any of `rates` means of n independent [0, 1] scores
    with mean p is off by >= s] <= alpha: Bernstein's inequality with the
    variance bound p(1 - p) per score, and a union bound."""
    L = math.log(2.0 * rates / alpha)
    b = 2.0 * L / 3.0
    return (b + math.sqrt(b * b + 8.0 * n * L * p * (1.0 - p))) / (2.0 * n)


def cell_rates(row):
    """A success-curve row's six cell rates: (no collision, all collisions
    agree, some collision disagrees) under the uniform law, then the mixture.
    Each law's success rate is half its no-collision rate plus the rate of the
    cell that votes for it: disagreement for the uniform law, agreement for
    the mixture."""
    u0, m0 = row["no_collision_rate_uniform"], row["no_collision_rate_mixture"]
    u2, m1 = row["success_uniform"] - 0.5 * u0, row["success_mixture"] - 0.5 * m0
    return [[u0, 1.0 - u0 - u2, u2], [m0, m1, 1.0 - m0 - m1]]


def assert_rows_match_exact_law(rows, max_exact_t=None, alpha=1e-6):
    """Every row's six cell rates within a union-bounded Bernstein radius of
    exact_cell_rates; rows past ``max_exact_t``, where the occupancy recursion
    is too slow, check only their two no-collision rates against the birthday
    product."""
    exact = [max_exact_t is None or row["t"] <= max_exact_t for row in rows]
    rates = sum(6 if e else 2 for e in exact)
    for row, exact_row in zip(rows, exact):
        if exact_row:
            pairs = zip(np.ravel(cell_rates(row)), np.ravel(exact_cell_rates(row["d"], row["t"])))
        else:
            exact = exact_no_collision(row["d"], row["t"])
            pairs = [(row[f"no_collision_rate_{law}"], exact) for law in ("uniform", "mixture")]
        for sampled, exact in pairs:
            radius = bernstein_radius(exact, row["trials"], rates, alpha)
            assert abs(sampled - exact) <= radius, (row["d"], row["t"], sampled, exact)


class TestCollisionDistinguisher:
    """The distinguisher's verdict per collision cell: 2 uniform, 1 mixture,
    0 undecided, as the reference scores one explicit sample; and the cell
    rates the sampler measures, against the exact law."""

    def test_disagreeing_collision_means_uniform(self):
        assert reference_collision_cell([3, 1, 3], [0, 1, 1]) == 2

    def test_agreeing_collision_means_mixture(self):
        assert reference_collision_cell([3, 1, 3], [1, 0, 1]) == 1

    def test_no_collision_undecided(self):
        assert reference_collision_cell([0, 1, 2], [1, 0, 1]) == 0

    def test_disagreement_dominates_agreement(self):
        assert reference_collision_cell([0, 0, 1, 1], [1, 1, 0, 1]) == 2

    # domain sizes from 2 to 2**40, so the -log q table's first step runs from
    # log 2 down to about 1e-12; past t = 320 only the birthday product is cheap
    @pytest.mark.parametrize("d", [2, 127, 128, 129, 32767, 32768, 32769,
                                   2**31, 2**31 + 1, 2**40])
    def test_matches_reference_on_random_rows(self, d):
        ts = sorted({max(2, math.ceil(f * math.sqrt(d))) for f in SCAN_FACTORS})
        rows = success_curve(d, ts, trials=2000, seed=d % 1000)
        assert [r["t"] for r in rows] == ts
        assert_rows_match_exact_law(rows, max_exact_t=320)


class TestCellRates:
    """Every row of a success curve, against exact_cell_rates: at d = 1 and 2
    the table of q holds zeros (d + 1 draws always repeat), and the sizes run
    from no collision to nearly sure disagreement."""

    @pytest.mark.parametrize("d", [1, 2, 3, 64, 4096])
    def test_rows_match_exact_cell_rates(self, d):
        ts = sorted({1, 2, 3, *(max(1, math.ceil(f * math.sqrt(d)))
                                 for f in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0))})
        rows = success_curve(d, ts, trials=20_000, seed=33 + d)
        assert_rows_match_exact_law(rows)

    def test_paths_drawn_in_blocks(self, monkeypatch):
        # 2500 paths per law in blocks of 1000: every path counts once, and
        # the rows keep the exact law
        monkeypatch.setattr(lowerbound, "BLOCK_PATHS", 1000)
        rows = success_curve(64, [4, 8, 12, 16], trials=2500, seed=7)
        assert_rows_match_exact_law(rows)
        # d = 3: draw 3 repeats at the latest, so no path of 4 draws is collision-free
        row = distinguisher_success(3, 4, trials=2500, seed=7)
        assert row["no_collision_rate_uniform"] == row["no_collision_rate_mixture"] == 0.0

    def test_exact_cell_rates_agree_with_the_other_oracles(self):
        for d, t in ((1, 3), (2, 2), (64, 8), (365, 23)):
            uniform, mixture = exact_cell_rates(d, t)
            assert sum(uniform) == pytest.approx(1.0) and sum(mixture) == pytest.approx(1.0)
            assert uniform[0] == mixture[0] == pytest.approx(exact_no_collision(d, t))
            success = 0.5 * (uniform[0] / 2 + uniform[2] + mixture[0] / 2 + mixture[1])
            assert success == pytest.approx(exact_success_rate(d, t))

    def test_largest_domains_run(self):
        # d = 10**12 scans up to 1.75e6 draws per path from a table of as many floats
        report = crossing_experiment([64, 10**12], 2, seed=5)
        assert [len(p["rows"]) for p in report["points"]] == [8, 8]


def two_sample_chi_square_z(a, b) -> float:
    """Wilson-Hilferty normal score of Pearson's chi-square statistic for two
    samples of category labels drawn from one law; categories with fewer than
    10 pooled counts are merged into one. 0 when there is one category."""
    labels, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    keep = counts >= 10
    table = np.array([[np.sum(sample == v) for v in labels[keep]]
                      + [np.sum(~np.isin(sample, labels[keep]))] for sample in (a, b)], float)
    table = table[:, table.sum(axis=0) > 0]
    df = table.shape[1] - 1
    if df == 0:
        return 0.0
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    stat = ((table - expected) ** 2 / expected).sum()
    return ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))


def reference_times(xs, ys):
    """An explicit path's first collision and first disagreeing collision, as
    draw indices (len(xs) where there is none): the first prefix the
    reference scores at cell >= 1 (>= 2), less one, found by bisection since
    both events persist in longer prefixes."""
    xs, ys = xs.tolist(), ys.tolist()
    prefixes = range(1, len(xs) + 1)
    return [bisect.bisect_left(prefixes, True,
                               key=lambda p: reference_collision_cell(xs[:p], ys[:p]) >= cell)
            for cell in (1, 2)]


class TestFirstCollisions:
    """The sampler draws each path's first collision and first disagreeing
    collision directly; their joint law must match explicit (x, y) paths
    scored at every prefix by the reference."""

    @staticmethod
    def explicit_times(d, t, n, law, rng):
        """(first collision, first disagreeing collision) of n explicit paths
        of t draws: x uniform on [0, d); y a fair coin per draw (uniform law)
        or a fair coin per distinct x of the path (a labelling function)."""
        xs = rng.integers(0, d, size=(n, t))
        if law == "uniform":
            ys = rng.integers(0, 2, size=(n, t))
        else:
            ys = np.array([rng.integers(0, 2, size=t)[np.unique(x, return_inverse=True)[1]]
                           for x in xs])
        return np.array([reference_times(x, y) for x, y in zip(xs, ys)]).T

    # z = 4.75 is the chi-square's 1 - 1e-6 quantile in the normal approximation
    @pytest.mark.parametrize("d", [1, 2, 3, 64, 256, 4096, 70_000])
    @pytest.mark.parametrize("law", ["uniform", "mixture"])
    def test_every_prefix_matches_reference(self, d, law):
        t, n = max(4, math.ceil(math.sqrt(d))), 1500
        index = ("uniform", "mixture").index(law)
        sampled = np.concatenate([times for drawn_law, times in _collision_times(d, t, n, seed=d)
                                  if drawn_law == index], axis=1)
        explicit = self.explicit_times(d, t, n, law, np.random.default_rng(d))
        for times in (sampled, explicit):
            assert (times[0] <= times[1]).all() and (times <= t).all()
            assert (times[0] <= d).all()  # draw d repeats at the latest
            assert law == "uniform" or (times[1] == t).all()
        # each path's pair, in bins of about t/8 draws; t has a bin of its own
        k = min(t, 8)
        bins = [times * k // t for times in (sampled, explicit)]
        pairs = [b[0] * (k + 1) + b[1] for b in bins]
        assert two_sample_chi_square_z(*pairs) < 4.75


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
