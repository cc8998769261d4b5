"""The benchmark's checkers flag planted wrong outputs and pass right ones.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
TARGET = [[0.1, 0.3], [0.6, 0.8]]


class TestIntervalChecks:
    def test_well_formed_hypothesis_passes(self):
        assert checks.check_interval_hypothesis([[0.1, 0.3], [0.6, 0.8]], d=2) == []

    def test_three_intervals_when_d_is_two(self):
        h = [[0.1, 0.2], [0.3, 0.4], [0.6, 0.8]]
        assert any("more than d=2" in p for p in checks.check_interval_hypothesis(h, d=2))

    def test_unsorted_or_overlapping(self):
        assert checks.check_interval_hypothesis([[0.6, 0.8], [0.1, 0.3]], d=2)
        assert checks.check_interval_hypothesis([[0.1, 0.5], [0.4, 0.8]], d=2)

    def test_outside_unit_interval(self):
        assert checks.check_interval_hypothesis([[-0.1, 0.3]], d=2)
        assert checks.check_interval_hypothesis([[0.5, 0.4]], d=2)

    def test_not_a_list_of_pairs(self):
        assert checks.check_interval_hypothesis([[0.1, 0.2, 0.3]], d=2)
        assert checks.check_interval_hypothesis("reject", d=2)

    def test_band_loss_of_target_and_of_empty_hypothesis(self):
        bands = checks.grid_bands(64, TARGET, 0.25)
        # bands 6..18 and 38..50 carry label 1; covering exactly them costs nothing
        exact = [[bands[6][0], bands[18][1]], [bands[38][0], bands[50][1]]]
        assert checks.band_loss(exact, bands) == 0.0
        # the target's own endpoints cut through the edge bands
        assert checks.band_loss(TARGET, bands) > 0.0
        # 13 + 13 of the 64 band centers lie in the target
        assert checks.band_loss([], bands) == pytest.approx(26 / 64, abs=1e-15)
        # half of one labelled-0 band covered costs half its mass
        lo, hi, mass, label = bands[0]
        assert label == 0
        assert checks.band_loss([[lo, (lo + hi) / 2]], bands) == pytest.approx(26 / 64 + mass / 2)

    def test_verifier_budget_formula(self):
        assert checks.interval_verifier_budget(2, 0.1, 0.2, 2.0) == (240, 472_560)

    def test_transcript_with_unequal_shares(self):
        counts = [[5, 5]] * 3 + [[6, 5]]
        line = json.dumps({"sender": "prover", "round": 0,
                           "payload": {"counts": counts, "denominator": 40}})
        text = line + "\n" + json.dumps({"outcome": "reject"}) + "\n"
        problems, _ = checks.check_interval_transcript(text, m_p=40, k=4)
        assert any("equal shares" in p for p in problems)


class TestSqChecks:
    def test_well_formed_selection_passes(self):
        assert checks.check_selection(list(range(8)), N=64, n=8) == []

    def test_repeated_item(self):
        sel = [0, 1, 2, 3, 4, 5, 6, 6]
        assert any("repeats" in p for p in checks.check_selection(sel, N=64, n=8))

    def test_wrong_size_or_range(self):
        assert checks.check_selection(list(range(7)), N=64, n=8)
        assert checks.check_selection(list(range(57, 65)), N=64, n=8)

    def test_zipf_baseline(self):
        assert checks.zipf_baseline(4, 2) == pytest.approx(1 - 1.5 / (1 + 1 / 2 + 1 / 3 + 1 / 4))
        assert checks.zipf_selection_loss([0, 1], 4) == pytest.approx(checks.zipf_baseline(4, 2))

    def test_iteration_count(self):
        assert checks.sq_iterations(0.1, 0.2) == 240

    @staticmethod
    def transcript(T, claim_total=100):
        lines = []
        for r in range(T):
            lines.append({"sender": "verifier", "round": 2 * r, "payload": {"queries": []}})
            lines.append({"sender": "prover", "round": 2 * r + 1,
                          "payload": {"counts": [claim_total - 1, 1], "denominator": 100}})
        lines.append({"outcome": "hypothesis", "hypothesis": [0, 1]})
        return "\n".join(json.dumps(doc) for doc in lines) + "\n"

    def test_transcript_passes(self):
        assert checks.check_sq_transcript(self.transcript(5), T=5, m_p=100) == ([], [0, 1])

    def test_transcript_with_missing_simulation(self):
        problems, _ = checks.check_sq_transcript(self.transcript(4), T=5, m_p=100)
        assert any("expected T=5" in p for p in problems)

    def test_claim_not_summing_to_m_p(self):
        problems, _ = checks.check_sq_transcript(self.transcript(5, claim_total=99), T=5, m_p=100)
        assert any("does not sum" in p for p in problems)

    def test_replay_with_a_mismatch(self):
        assert checks.check_replay({"replayed": 1, "mismatches": 0}, 1) == []
        assert any("mismatch" in p for p in checks.check_replay({"replayed": 1, "mismatches": 1}, 1))
        assert checks.check_replay({"replayed": 0, "mismatches": 0}, 1)


class TestTrialChecks:
    trial = {"baseline": 0.0, "outcome": "hypothesis", "hypothesis_loss": 0.01,
             "classification": "completeness-success"}

    def test_consistent_trial_passes(self):
        assert checks.check_trial(self.trial, 0.0, 0.1) == []

    def test_wrong_baseline(self):
        assert checks.check_trial(dict(self.trial, baseline=1e-9), 0.0, 0.1)

    def test_wrong_classification(self):
        assert checks.check_trial(dict(self.trial, hypothesis_loss=0.2), 0.0, 0.1)

    def test_loss_below_class_optimum(self):
        assert checks.check_trial(dict(self.trial, baseline=0.3, hypothesis_loss=0.2), 0.3, 0.1)

    def test_reject_must_be_a_completeness_failure(self):
        reject = {"baseline": 0.0, "outcome": "reject", "classification": "completeness-success"}
        assert checks.check_trial(reject, 0.0, 0.1)

    def test_allowed_misses(self):
        assert checks.allowed_misses(0, 0.2) == 0
        c = checks.allowed_misses(100, 0.2)
        assert 20 < c < 50
        tail = sum(math.comb(100, i) * 0.2**i * 0.8 ** (100 - i) for i in range(c + 1, 101))
        assert tail <= 1e-6


class TestCrossingChecks:
    @staticmethod
    def crossing(slope=0.5, censored=False, shift=0.0):
        rows = []
        for d in (64, 256):
            t = int(math.sqrt(d))
            p = checks.no_collision(d, t)
            rows.append({"d": d, "t": t, "trials": 3000,
                         "no_collision_rate_uniform": p, "no_collision_rate_mixture": p + shift})
        return {"crossing_slope": slope,
                "points": [{"d": r["d"], "rows": [r], "censored": censored} for r in rows]}

    def test_exact_rates_pass(self):
        assert checks.check_crossing(self.crossing()) == []

    def test_birthday_product(self):
        assert checks.no_collision(365, 23) == pytest.approx(0.492703, abs=1e-6)

    def test_slope_off_the_sqrt_law(self):
        assert checks.check_crossing(self.crossing(slope=0.7))

    def test_censored_point(self):
        assert checks.check_crossing(self.crossing(censored=True))

    def test_no_collision_rate_off(self):
        assert checks.check_crossing(self.crossing(shift=0.1))

    def test_radius_allows_for_rows_checked(self):
        one = checks.bernstein_radius(0.5, 3000, 1, 1e-9)
        many = checks.bernstein_radius(0.5, 3000, 64, 1e-9)
        assert 0 < one < many < 0.07


def test_benchmark_json_lists_every_metric_a_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.metric_units()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


class TestTracer:
    def test_self_times_add_up_to_the_operation(self):
        tracer = spans.Tracer()
        inner = tracer._wrap(lambda: sum(range(10_000)), "sq.atoms")
        outer = tracer._wrap(lambda: [inner() for _ in range(3)], "sq.iteration")
        nested = tracer._wrap(lambda: outer(), "sq.iteration")
        with tracer.operation(0):
            nested()
        (values,) = tracer._per_op().values()
        selves = sum(v for k, v in values.items() if k.endswith("_self_s"))
        assert selves + values["trace.unattributed_s"] == pytest.approx(values["trace.op_s"])
        assert values["sq.self_s"] == pytest.approx(selves)
        # the nested sq.iteration counts once in its inclusive time
        assert values["sq.iteration_s"] <= values["trace.op_s"]
        assert values["sq.atoms_s"] <= values["sq.iteration_s"]
        assert [s[0] for s in tracer.spans] == ["op", "sq.iteration", "sq.iteration"] + ["sq.atoms"] * 3

    def test_uninstall_restores_the_program(self):
        sys.path.insert(0, str(ROOT / "src"))
        from pacverify import cli, sq
        before = (cli.run_experiment, sq.atoms_of, sq.Query.__post_init__, cli.ExperimentSpec.from_doc)
        tracer = spans.Tracer()
        tracer.install()
        assert sq.atoms_of is not before[1]
        tracer.uninstall()
        assert (cli.run_experiment, sq.atoms_of, sq.Query.__post_init__,
                cli.ExperimentSpec.from_doc) == before
