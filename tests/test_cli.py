import json
import os
import subprocess
import sys

import pytest

from pacverify import cli
from pacverify import intervals as iv
from pacverify import sq

INTERVALS_SPEC = {
    "protocol": "intervals",
    "distribution": {"kind": "grid", "n_points": 64, "target": [[0.1, 0.3], [0.6, 0.8]]},
    "params": {"d": 2, "epsilon": 0.1, "delta": 0.2},
    "trials": 2,
    "root_seed": 42,
}

SQ_SPEC = {
    "protocol": "sq",
    "distribution": {"kind": "zipf"},
    "params": {"tau": 0.05, "epsilon": 0.1, "delta": 0.2, "N": 64, "n": 8},
    "trials": 2,
    "root_seed": 42,
}


class TestSpecValidation:
    def test_unknown_protocol_names_field(self):
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc({"protocol": "nope"})
        assert err.value.field == "protocol"

    def test_missing_param_names_field(self):
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc({"protocol": "intervals", "params": {"d": 2}})
        assert err.value.field == "params.epsilon"

    def test_unknown_top_level_field(self):
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc({"protocol": "intervals", "bogus": 1})
        assert err.value.field == "bogus"

    def test_bad_trials(self):
        doc = dict(INTERVALS_SPEC, trials=0)
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc(doc)
        assert err.value.field == "trials"

    def test_unknown_adversary(self):
        doc = dict(INTERVALS_SPEC, adversary="mole")
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc(doc)
        assert err.value.field == "adversary"

    @pytest.mark.parametrize("params,field", [
        ({"N": 8, "n": 5}, "params.n"),
        ({"num_blocks": 0}, "params.num_blocks"),
        ({"num_blocks": 65}, "params.num_blocks"),
    ])
    def test_bad_sq_shape_exits_2(self, tmp_path, capsys, params, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(SQ_SPEC, params=dict(SQ_SPEC["params"], **params))))
        assert cli.main(["sq-verify", "--spec", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_bad_distribution_kind(self):
        doc = dict(INTERVALS_SPEC, distribution={"kind": "cauchy"})
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc(doc)
        assert err.value.field == "distribution.kind"


class TestWilson:
    def test_centered_at_half(self):
        low, high = cli.wilson_interval(50, 100)
        assert low < 0.5 < high
        assert high - low < 0.21

    def test_extreme_rates_stay_in_bounds(self):
        low, high = cli.wilson_interval(0, 300)
        assert low == pytest.approx(0.0, abs=1e-12) and 0 < high < 0.02
        low, high = cli.wilson_interval(300, 300)
        assert high == pytest.approx(1.0, abs=1e-12) and low > 0.98


class TestRunExperiment:
    def test_single_trial_report_shape(self):
        spec = cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, trials=1))
        report = cli.run_experiment(spec)
        assert len(report["trials"]) == 1
        trial = report["trials"][0]
        assert trial["classification"] in ("completeness-success", "completeness-failure")
        assert report["rates"]["ci_method"] == "wilson-95"
        assert report["spec"]["root_seed"] == 42

    def test_rerun_is_byte_identical_minus_wall_clock(self):
        spec = cli.ExperimentSpec.from_doc(INTERVALS_SPEC)
        a = cli.run_experiment(spec)
        b = cli.run_experiment(spec)
        assert cli.report_json(a, include_wall_clock=False) == \
            cli.report_json(b, include_wall_clock=False)
        assert "wall_clock_seconds" in a

    @pytest.mark.parametrize("base", [INTERVALS_SPEC, SQ_SPEC], ids=["intervals", "sq"])
    def test_accepted_output_recorded_without_transcripts(self, base):
        spec = cli.ExperimentSpec.from_doc(dict(base, record_transcripts=False))
        report = cli.run_experiment(spec)
        _, _, loss_of = cli._build_trials(spec)
        for trial in report["trials"]:
            assert "transcript" not in trial
            assert trial["outcome"] == "hypothesis"
            assert loss_of(trial["hypothesis"]) == trial["hypothesis_loss"]

    def test_sq_experiment_runs(self):
        spec = cli.ExperimentSpec.from_doc(SQ_SPEC)
        report = cli.run_experiment(spec)
        assert report["rates"]["completeness_success_rate"] == 1.0

    def test_parallel_workers_match_serial(self, monkeypatch):
        spec = cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, trials=3))
        monkeypatch.delenv("PACVERIFY_WORKERS", raising=False)
        serial = cli.run_experiment(spec)
        monkeypatch.setenv("PACVERIFY_WORKERS", "2")
        parallel = cli.run_experiment(spec)
        assert cli.report_json(serial, False) == cli.report_json(parallel, False)


class TestUntrustedClaims:
    """Claims no JSON parser maps to int64 end in reject, not in a crash."""

    BAD = [("counts", 2**70), ("denominator", float("inf"))]

    @pytest.mark.parametrize("key,value", BAD, ids=["huge-count", "inf-denominator"])
    def test_intervals_claim(self, monkeypatch, key, value):
        class Prover(iv.WrongBoundaryProver):
            def open(self, params, rng):
                payload = super().open(params, rng)
                if key == "counts":
                    payload["counts"][0][0] = value
                else:
                    payload[key] = value
                return payload

        monkeypatch.setattr(iv, "make_interval_prover", lambda name, pop, cfg: Prover(cfg))
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, trials=1)))
        assert report["trials"][0]["outcome"] == "reject"

    @pytest.mark.parametrize("key,value", BAD, ids=["huge-count", "inf-denominator"])
    def test_sq_claim(self, monkeypatch, key, value):
        class Prover(sq.HonestSqProver):
            def respond(self, payload, params, rng):
                reply = super().respond(payload, params, rng)
                if key == "counts":
                    reply["counts"][0] = value
                else:
                    reply[key] = value
                return reply

        monkeypatch.setattr(sq, "make_sq_prover", lambda name, dist, cfg: Prover(dist, cfg))
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(SQ_SPEC, trials=1)))
        assert report["trials"][0]["outcome"] == "reject"


class TestReplay:
    def test_replay_matches_recorded_classifications(self, tmp_path):
        spec = cli.ExperimentSpec.from_doc(INTERVALS_SPEC)
        report = cli.run_experiment(spec)
        cli.write_report(report, str(tmp_path))
        result = cli.replay(str(tmp_path / "report.json"))
        assert result["replayed"] == 2
        assert result["mismatches"] == 0

    def test_corrupt_transcript_reports_line(self, tmp_path):
        spec = cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, trials=1))
        report = cli.run_experiment(spec)
        lines = report["trials"][0]["transcript"].splitlines()
        lines[0] = '{"broken'
        report["trials"][0]["transcript"] = "\n".join(lines)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        from pacverify.harness import TranscriptParseError
        with pytest.raises(TranscriptParseError) as err:
            cli.replay(str(path))
        assert err.value.lineno == 1

    def test_malformed_outcome_line_exits_2(self, tmp_path, capsys):
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, trials=1)))
        lines = report["trials"][0]["transcript"].splitlines()
        lines[-1] = '{"outcome": "hypothesis"}'
        report["trials"][0]["transcript"] = "\n".join(lines)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["replay", str(path)]) == 2
        assert f"line {len(lines)}" in capsys.readouterr().err


class TestCommandLine:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "pacverify.cli", *args],
                              capture_output=True, text=True)

    def test_invalid_spec_exit_code_and_message(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"protocol": "nope"}))
        proc = self.run_cli("intervals-verify", "--spec", str(path))
        assert proc.returncode == 2
        assert "protocol" in proc.stderr

    def test_end_to_end_with_output_dir(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(INTERVALS_SPEC, trials=1)))
        out = tmp_path / "out"
        proc = self.run_cli("intervals-verify", "--spec", str(spec_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["spec"]["trials"] == 1
        assert (out / "rates.csv").read_text().startswith("protocol,")
        assert "transcript" in report["trials"][0]

    def test_replay_subcommand(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(INTERVALS_SPEC, trials=1)))
        out = tmp_path / "out"
        assert self.run_cli("intervals-verify", "--spec", str(spec_path),
                            "--out", str(out)).returncode == 0
        proc = self.run_cli("replay", str(out / "report.json"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["mismatches"] == 0

    def test_seed_and_trials_overrides(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(INTERVALS_SPEC, trials=5)))
        proc = self.run_cli("intervals-verify", "--spec", str(spec_path),
                            "--trials", "1", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["spec"]["trials"] == 1
        assert report["root_seed"] == 7


class TestCsv:
    def test_gap_report_csv_has_slopes(self):
        spec = cli.ExperimentSpec.from_doc({
            "protocol": "sq",
            "params": {"experiment": "gap", "ds": [4, 16], "tau": 0.1,
                       "epsilon": 0.2, "delta": 0.2},
            "root_seed": 3,
        })
        report = cli.run_experiment(spec)
        csv_text = cli.rate_table_csv(report)
        assert "verifier_cost_slope" in csv_text
        assert "simulation_cost_slope" in csv_text

    def test_lowerbound_csv_columns(self):
        spec = cli.ExperimentSpec.from_doc({
            "protocol": "lowerbound",
            "params": {"ds": [64, 256], "trials_per_point": 500},
            "root_seed": 3,
        })
        report = cli.run_experiment(spec)
        header = cli.rate_table_csv(report).splitlines()[0]
        assert header == "d,t,trials,success_rate,collision_rate,tv_estimate"
