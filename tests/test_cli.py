import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


GAP_SPEC = {"protocol": "sq", "params": {"experiment": "gap", "ds": [4, 16]}}

# (base, params) whose sample budgets overflow, divide by zero or reach 2**53
# (where a count read as float64 can round) once the config is built
BAD_BUDGETS = [
    (SQ_SPEC, {"c_p": 1e308}),
    (SQ_SPEC, {"c_v": 1e250}),
    (SQ_SPEC, {"tau": 1e-300}),
    (INTERVALS_SPEC, {"c_v": 1e300}),
    (GAP_SPEC, {"tau": 1e-300}),
    (GAP_SPEC, {"tau": 1e-9}),
    (SQ_SPEC, {"c_p": 1e12}),
]


class TestSpecValidation:
    def test_unknown_protocol_names_field(self):
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc({"protocol": "nope"}).validate()
        assert err.value.field == "protocol"

    def test_missing_param_names_field(self):
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc({"protocol": "intervals", "params": {"d": 2}}).validate()
        assert err.value.field == "params.epsilon"

    def test_unknown_top_level_field(self):
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc({"protocol": "intervals", "bogus": 1}).validate()
        assert err.value.field == "bogus"

    def test_bad_trials(self):
        doc = dict(INTERVALS_SPEC, trials=0)
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc(doc).validate()
        assert err.value.field == "trials"

    def test_unknown_adversary(self):
        doc = dict(INTERVALS_SPEC, adversary="mole")
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc(doc).validate()
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

    @pytest.mark.parametrize("base,params,field", [
        (SQ_SPEC, {"N": "64"}, "params.N"),
        (SQ_SPEC, {"n": True}, "params.n"),
        (SQ_SPEC, {"num_blocks": 4.0}, "params.num_blocks"),
        (SQ_SPEC, {"epsilon": 2.0}, "params.epsilon"),
        (SQ_SPEC, {"tau": float("nan")}, "params.tau"),
        (SQ_SPEC, {"c_p": -1.0}, "params.c_p"),
        (INTERVALS_SPEC, {"epsilon": 0.3}, "params.epsilon"),
        (INTERVALS_SPEC, {"d": "2"}, "params.d"),
        (INTERVALS_SPEC, {"d": True}, "params.d"),
        (INTERVALS_SPEC, {"delta": 0}, "params.delta"),
        *[(base, params, "params") for base, params in BAD_BUDGETS],
    ])
    def test_bad_param_type_or_range_exits_2(self, tmp_path, capsys, base, params, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(base, params=dict(base["params"], **params))))
        command = "intervals-verify" if base is INTERVALS_SPEC else "sq-verify"
        assert cli.main([command, "--spec", str(path)]) == 2
        assert f"spec error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,field", [
        # one bad value for each check kind: "size", "int" and "unit"
        ("lowerbound", {"params": {"ds": [64, 2.0]}}, "params.ds"),
        ("lowerbound", {"params": {"trials_per_point": 2.0}}, "params.trials_per_point"),
        ("sq-verify", {"params": {"N": 0}}, "params.N"),
        ("sq-verify", {"params": {"epsilon": 1.5}}, "params.epsilon"),
        ("sq-verify", {"params": {"delta": 0}}, "params.delta"),
        ("lowerbound", {"params": {"ds": []}}, "params.ds"),
        ("lowerbound", {"params": {"ds": [64, 1]}}, "params.ds"),
        ("lowerbound", {"params": {"ds": "64"}}, "params.ds"),
        ("lowerbound", {"params": {"ds": [True, 64]}}, "params.ds"),
        ("lowerbound", {"params": {"trials_per_point": 0}}, "params.trials_per_point"),
        ("sq-verify", {"distribution": {"kind": "zipf", "a": "x"}}, "distribution.a"),
        ("sq-verify", {"distribution": {"kind": "zipf", "a": float("inf")}}, "distribution.a"),
        ("sq-verify", {"distribution": {"kind": "zipf", "a": -1000}}, "distribution.a"),
    ])
    def test_bad_calibrate_lowerbound_or_zipf_exits_2(self, tmp_path, capsys, command, doc, field):
        spec = json.loads(json.dumps(cli.DEFAULT_SPECS[command]))
        spec["params"].update(doc.get("params", {}))
        spec.update({k: v for k, v in doc.items() if k != "params"})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main([command, "--spec", str(path)]) == 2
        assert f"spec error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["lowerbound", "sq-gap"])
    def test_trials_flag_on_one_shot_kind_exits_2(self, tmp_path, capsys, kind):
        command, doc, _ = KIND_SPECS[kind]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--spec", str(path), "--trials", "5"]) == 2
        assert capsys.readouterr().err.startswith("spec error: trials:")

    def test_calibrate_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["calibrate"])
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_distribution_kind(self):
        doc = dict(INTERVALS_SPEC, distribution={"kind": "cauchy"})
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc(doc).validate()
        assert err.value.field == "distribution.kind"

    @pytest.mark.parametrize("doc,field", [
        ({"params": {}}, "protocol"),
        (dict(INTERVALS_SPEC, distribution=5), "distribution"),
        (dict(INTERVALS_SPEC, params=[2]), "params"),
        (dict(INTERVALS_SPEC, adversary=["honest"]), "adversary"),
        (dict(INTERVALS_SPEC, distribution={"n_points": "x"}), "distribution.n_points"),
        (dict(INTERVALS_SPEC, distribution={"n_points": 0}), "distribution.n_points"),
        (dict(INTERVALS_SPEC, distribution={"n_points": 1.5}), "distribution.n_points"),
        (dict(INTERVALS_SPEC, distribution={"band_fraction": 2.0}), "distribution.band_fraction"),
        (dict(INTERVALS_SPEC, distribution={"kind": "coin", "band_fraction": 0.5}),
         "distribution.band_fraction"),
        (dict(INTERVALS_SPEC, distribution={"target": [[0.5, 0.2]]}), "distribution.target"),
        (dict(INTERVALS_SPEC, distribution={"target": "abc"}), "distribution.target"),
        (dict(SQ_SPEC, distribution={"kind": "explicit", "probs": 5}), "distribution.probs"),
        (dict(SQ_SPEC, distribution={"kind": "explicit", "probs": [0.5] * 64}),
         "distribution.probs"),
        ({"protocol": "sq", "params": {"experiment": "gap", "ds": ["x"]}}, "params.ds"),
        ({"protocol": "sq", "params": {"experiment": "gap", "ds": [1]}}, "params.ds"),
        ({"protocol": "sq", "params": {"experiment": "gap", "ds": "abc"}}, "params.ds"),
        # sizes over cli.MAX_ENTRIES
        ({"protocol": "lowerbound", "params": {"ds": [64, 10**14]}}, "params.ds"),
        ({"protocol": "lowerbound", "params": {"ds": [64, 10**400]}}, "params.ds"),
        ({"protocol": "lowerbound", "params": {"trials_per_point": 10**6}}, "params.ds"),
        ({"protocol": "lowerbound", "params": {"ds": [64, 4096], "trials_per_point": 599_187}},
         "params.ds"),
        (dict(SQ_SPEC, params=dict(SQ_SPEC["params"], N=8193, num_blocks=8192)), "params.N"),
        ({"protocol": "sq", "params": {"experiment": "gap", "ds": [4, 8193]}}, "params.ds"),
        # a slope fit needs two distinct d
        ({"protocol": "sq", "params": {"experiment": "gap", "ds": [4]}}, "params.ds"),
        ({"protocol": "sq", "params": {"experiment": "gap", "ds": [16, 16]}}, "params.ds"),
        ({"protocol": "lowerbound", "params": {"ds": [64]}}, "params.ds"),
        ({"protocol": "lowerbound", "params": {"ds": [64, 64, 64]}}, "params.ds"),
        # top-level fields of the wrong type
        (dict(INTERVALS_SPEC, trials=True), "trials"),
        (dict(INTERVALS_SPEC, root_seed=False), "root_seed"),
        (dict(INTERVALS_SPEC, record_transcripts="yes"), "record_transcripts"),
        (dict(INTERVALS_SPEC, record_transcripts=1), "record_transcripts"),
        # the honest prover's m_p: 67,109,040 here (k = 240), and 736,827,360,000 at d = 1000
        (dict(INTERVALS_SPEC, params=dict(INTERVALS_SPEC["params"], c_p=493.7245)), "params.d"),
        (dict(INTERVALS_SPEC, params=dict(INTERVALS_SPEC["params"], d=1000)), "params.d"),
        (dict(INTERVALS_SPEC, params=dict(INTERVALS_SPEC["params"], d=10**400)), "params"),
        (dict(INTERVALS_SPEC, params=dict(INTERVALS_SPEC["params"], c_p=1e308)), "params"),
        (dict(INTERVALS_SPEC, params=dict(INTERVALS_SPEC["params"], epsilon=5e-324)),
         "params.epsilon"),
        # k * n_points with k = 240
        (dict(INTERVALS_SPEC, distribution=dict(INTERVALS_SPEC["distribution"], n_points=279_621)),
         "distribution.n_points"),
        (dict(INTERVALS_SPEC, distribution={"kind": "coin", "n_points": 10**400}),
         "distribution.n_points"),
        *[(dict(base, params=dict(base["params"], **params)), "params")
          for base, params in BAD_BUDGETS],
        # work over the cap: T * b * N for sq verify (T = 239,658,582 at epsilon 1e-7;
        # 240 * 35 * 8192 = 68,812,800), T * sum(ds) for the gap sweep
        (dict(SQ_SPEC, params=dict(SQ_SPEC["params"], epsilon=1e-7)), "params.epsilon"),
        (dict(SQ_SPEC, params=dict(SQ_SPEC["params"], N=8192, num_blocks=8192, b=35)),
         "params.epsilon"),
        ({"protocol": "sq", "params": {"experiment": "gap", "epsilon": 1e-5}}, "params.epsilon"),
        ({"protocol": "sq", "params": {"experiment": "gap", "ds": [4, 8192], "epsilon": 0.002}},
         "params.epsilon"),
        # params the kind does not take
        ({"protocol": "lowerbound", "params": {"ds": [64, 256], "trials": 10}}, "params.trials"),
        (dict(INTERVALS_SPEC, params=dict(INTERVALS_SPEC["params"], c_P=100)), "params.c_P"),
        (dict(SQ_SPEC, params=dict(SQ_SPEC["params"], ds=[4, 16])), "params.ds"),
        ({"protocol": "sq", "params": {"experiment": "gap", "N": 64}}, "params.N"),
        ({"protocol": "sq", "params": {"experiment": "gap", "trials_per_point": 5}},
         "params.trials_per_point"),
        # only sq picks an experiment, and only by name
        (dict(INTERVALS_SPEC, params=dict(INTERVALS_SPEC["params"], experiment="verify")),
         "params.experiment"),
        ({"protocol": "lowerbound", "params": {"experiment": None}}, "params.experiment"),
        ({"protocol": "sq", "params": {"experiment": "crossing"}}, "params.experiment"),
        ({"protocol": "sq", "params": {"experiment": ["gap"]}}, "params.experiment"),
        # a one-shot kind plays no verified trials, so it takes no trial field
        ({"protocol": "sq", "adversary": "mole", "distribution": {"kind": "cauchy"}, "trials": 9,
          "params": {"experiment": "gap", "ds": [4, 16]}}, "distribution"),
        (dict(GAP_SPEC, adversary="mole"), "adversary"),
        (dict(GAP_SPEC, trials=9), "trials"),
        (dict(GAP_SPEC, record_transcripts=False), "record_transcripts"),
        (dict(cli.DEFAULT_SPECS["lowerbound"], trials=7), "trials"),
        (dict(cli.DEFAULT_SPECS["lowerbound"], distribution={"kind": "zipf"}), "distribution"),
        (dict(cli.DEFAULT_SPECS["lowerbound"], adversary="honest "), "adversary"),
        (dict(cli.DEFAULT_SPECS["lowerbound"], record_transcripts=True), "record_transcripts"),
        # a distribution kind takes only the fields it reads
        (dict(SQ_SPEC, distribution={"kind": "zipf", "aa": 3}), "distribution.aa"),
        (dict(SQ_SPEC, distribution={"kind": "zipf", "probs": [1 / 64] * 64}),
         "distribution.probs"),
        (dict(SQ_SPEC, distribution={"kind": "uniform", "a": 1.0}), "distribution.a"),
        (dict(SQ_SPEC, distribution={"kind": "explicit", "probs": [1 / 64] * 64, "a": 1.0}),
         "distribution.a"),
        (dict(INTERVALS_SPEC, distribution={"kind": "coin", "target": [[0.1, 0.3]]}),
         "distribution.target"),
        (dict(INTERVALS_SPEC, distribution=dict(INTERVALS_SPEC["distribution"], a=1.0)),
         "distribution.a"),
        (dict(INTERVALS_SPEC, distribution={"kind": ["grid"]}), "distribution.kind"),
        # zero-width bands are point masses, which the equal-share partition cannot split
        (dict(INTERVALS_SPEC, distribution=dict(INTERVALS_SPEC["distribution"], band_fraction=0)),
         "distribution.band_fraction"),
        (dict(INTERVALS_SPEC, distribution={"kind": "coin", "band_fraction": 0.0}),
         "distribution.band_fraction"),
        # the retired tester calibration is no kind
        ({"protocol": "identity-calibrate", "params": {"n": 100, "epsilon": 0.1, "delta": 0.1}},
         "protocol"),
    ])
    def test_malformed_or_oversized_field_is_spec_error(self, doc, field):
        with pytest.raises(cli.SpecError) as err:
            cli.ExperimentSpec.from_doc(doc).validate()
        assert err.value.field == field

    @pytest.mark.parametrize("doc", [
        {"protocol": "lowerbound", "params": {"ds": [64, 4096], "trials_per_point": 599_186}},
        dict(SQ_SPEC, params=dict(SQ_SPEC["params"], N=8192, num_blocks=8192)),
        {"protocol": "sq", "params": {"experiment": "gap", "ds": [4, 8192]}},
        # m_p = 67,108,800, the largest multiple of k = 240 within the cap
        dict(INTERVALS_SPEC, params=dict(INTERVALS_SPEC["params"], c_p=493.724)),
        dict(INTERVALS_SPEC, distribution=dict(INTERVALS_SPEC["distribution"], n_points=279_620)),
        # T * b * N = 240 * 34 * 8192 = 66,846,720
        dict(SQ_SPEC, params=dict(SQ_SPEC["params"], N=8192, num_blocks=8192, b=34)),
    ])
    def test_size_at_cap_is_valid(self, doc):
        cli.ExperimentSpec.from_doc(doc).validate()

    @pytest.mark.parametrize("doc", [GAP_SPEC, cli.DEFAULT_SPECS["lowerbound"]],
                             ids=["sq-gap", "lowerbound"])
    def test_one_shot_kind_takes_trial_fields_at_their_defaults(self, doc):
        cli.ExperimentSpec.from_doc(dict(doc, trials=1, adversary="honest", distribution={},
                                         record_transcripts=None)).validate()


PROVER_TABLES = {"intervals": (INTERVALS_SPEC, iv.INTERVAL_PROVERS),
                 "sq": (SQ_SPEC, sq.SQ_PROVERS)}


class TestProverTables:
    """Each protocol's prover table is the set of adversary names its specs take."""

    @pytest.mark.parametrize("protocol,name", [(protocol, name) for protocol, (_, table)
                                               in PROVER_TABLES.items() for name in table])
    def test_every_listed_prover_validates_and_plays(self, protocol, name):
        base, _ = PROVER_TABLES[protocol]
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(base, adversary=name,
                                                                     trials=1)))
        assert report["trials"][0]["outcome"] in ("hypothesis", "reject")

    @pytest.mark.parametrize("protocol", PROVER_TABLES)
    def test_any_other_name_is_a_spec_error(self, protocol):
        base, table = PROVER_TABLES[protocol]
        others = {name for _, other in PROVER_TABLES.values() for name in other} - set(table)
        for name in sorted(others) + ["mole", "", "Honest", "honest "]:
            with pytest.raises(cli.SpecError) as err:
                cli.ExperimentSpec.from_doc(dict(base, adversary=name)).validate()
            assert err.value.field == "adversary"


# Spec documents for the fuzz test: a valid document of each protocol with one
# or two values anywhere in it replaced, dropped or added, or any JSON value.
JSON_LEAF = (st.none() | st.booleans() | st.integers(-3, 300) | st.floats()
             | st.floats(0, 1) | st.text(max_size=3)
             | st.sampled_from(["verify", "gap", "grid", "coin", "zipf", "uniform", "explicit",
                                "honest", "stale"]))
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8)
FUZZ_BASES = {
    "intervals-grid": INTERVALS_SPEC,
    "intervals-coin": dict(INTERVALS_SPEC, distribution={"kind": "coin", "n_points": 8}),
    "sq-zipf": dict(SQ_SPEC, adversary="stale"),
    "sq-explicit": dict(SQ_SPEC, distribution={"kind": "explicit", "probs": [0.25] * 4},
                        params=dict(SQ_SPEC["params"], N=4, n=2)),
    "sq-gap": GAP_SPEC,
    "lowerbound": cli.DEFAULT_SPECS["lowerbound"],
}
FUZZ_FIELDS = {
    None: ["protocol", "distribution", "adversary", "params", "trials", "root_seed",
           "record_transcripts"],
    "params": ["d", "epsilon", "delta", "c_v", "c_p", "N", "n", "num_blocks", "b", "tau",
               "experiment", "ds", "trials_per_point"],
    "distribution": ["kind", "n_points", "target", "band_fraction", "a", "probs"],
}


def positions(node):
    """(container, key) of every value inside a JSON document."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from positions(node[key])


def edited(base, data):
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(JSON_VALUE)
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 2))):
        slots = list(positions(doc))
        for section, names in FUZZ_FIELDS.items():
            fields = doc if section is None else doc.get(section)
            if isinstance(fields, dict):
                slots += [(fields, name) for name in names if name not in fields]
        where, key = slots[data.draw(st.integers(0, len(slots) - 1))]
        if data.draw(st.booleans()) and (isinstance(where, list) or key in where):
            where.pop(key)
        else:
            where[key] = data.draw(JSON_VALUE)
    return doc


class TestSpecFuzz:
    @pytest.mark.parametrize("base", FUZZ_BASES.values(), ids=FUZZ_BASES.keys())
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_from_doc_returns_or_raises_spec_error(self, base, data):
        # from_doc parses; validate checks and builds, or raises SpecError
        try:
            experiment, _, built = cli.ExperimentSpec.from_doc(edited(base, data)).validate()
        except cli.SpecError:
            return
        if experiment.run:
            return
        # a spec that validates also makes its parties, with every budget below 2**53
        cfg, make_verifier, make_prover, baseline, _ = built
        make_verifier(), make_prover(), baseline()
        budgets = [cfg.m_v, cfg.m_p, getattr(cfg, "m_v_holdout", 1)]
        assert all(type(m) is int and 1 <= m < 2**53 for m in budgets)


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
        loss_of = spec.validate()[2][4]
        for trial in report["trials"]:
            assert "transcript" not in trial
            assert trial["outcome"] == "hypothesis"
            assert loss_of(trial["hypothesis"]) == trial["hypothesis_loss"]

    def test_sq_experiment_runs(self):
        spec = cli.ExperimentSpec.from_doc(SQ_SPEC)
        report = cli.run_experiment(spec)
        assert report["rates"]["completeness_success_rate"] == 1.0

    def test_sq_run_past_4096_messages_accepts(self):
        # T = 2397 simulations of one batch: 4,794 messages and the outcome line
        spec = cli.ExperimentSpec.from_doc({"protocol": "sq", "params": {
            "tau": 0.2, "epsilon": 0.01, "delta": 0.2, "N": 16, "n": 2, "num_blocks": 4}})
        trial = cli.run_experiment(spec)["trials"][0]
        assert trial["outcome"] == "hypothesis"
        assert len(trial["transcript"].splitlines()) == 4795


class TestUntrustedClaims:
    """Claims no JSON parser maps to int64 end in reject, not in a crash."""

    BAD = [("counts", 2**70), ("denominator", float("inf"))]

    @pytest.mark.parametrize("key,value", BAD, ids=["huge-count", "inf-denominator"])
    def test_intervals_claim(self, monkeypatch, key, value):
        class Prover(iv.WrongBoundaryProver):
            def open(self, rng):
                payload = super().open(rng)
                if key == "counts":
                    payload["counts"][0][0] = value
                else:
                    payload[key] = value
                return payload

        monkeypatch.setattr(iv, "make_interval_prover", lambda name, pop, cfg: Prover(pop, cfg))
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, trials=1)))
        assert report["trials"][0]["outcome"] == "reject"

    @pytest.mark.parametrize("key,value", BAD, ids=["huge-count", "inf-denominator"])
    def test_sq_claim(self, monkeypatch, key, value):
        class Prover(sq.HonestSqProver):
            def respond(self, payload, rng):
                reply = super().respond(payload, rng)
                if key == "counts":
                    reply["counts"][0] = value
                else:
                    reply[key] = value
                return reply

        monkeypatch.setattr(sq, "make_sq_prover", lambda name, dist, cfg: Prover(dist, cfg))
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(SQ_SPEC, trials=1)))
        assert report["trials"][0]["outcome"] == "reject"


# outcome lines no hypothesis loss can score: (spec, hypothesis), None for no outcome line
UNSCORABLE_OUTCOMES = {
    "no-outcome": (INTERVALS_SPEC, None),
    "intervals-one-endpoint": (INTERVALS_SPEC, [[0.5]]),
    "intervals-number": (INTERVALS_SPEC, 3),
    "intervals-more-than-d": (INTERVALS_SPEC, [[0.0, 0.1], [0.2, 0.3], [0.4, 0.5], [0.6, 0.7]]),
    "sq-item-out-of-range": (SQ_SPEC, [99]),
    "sq-repeated-item": (SQ_SPEC, [0] * 8),
    "sq-item-string": (SQ_SPEC, ["a"]),
    "sq-number": (SQ_SPEC, 3),
}


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

    def test_transcript_line_nested_past_the_recursion_limit_exits_2(self, tmp_path, capsys):
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, trials=1)))
        lines = report["trials"][0]["transcript"].splitlines()
        lines[1] = "[" * 100_000 + "]" * 100_000
        report["trials"][0]["transcript"] = "\n".join(lines)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["replay", str(path)]) == 2
        assert capsys.readouterr().err.startswith("transcript parse error: line 2: ")

    @pytest.mark.parametrize("edit,field", [
        (lambda r: r["trials"][0].update(transcript=5), "trials[0]"),
        (lambda r: r.pop("spec"), "spec"),
        (lambda r: r.update(trials={"0": {}}), "report"),
    ], ids=["transcript-not-string", "no-spec", "trials-not-list"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, edit, field):
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(INTERVALS_SPEC, trials=1)))
        edit(report)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["replay", str(path)]) == 2
        assert f"spec error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("base,hypothesis", UNSCORABLE_OUTCOMES.values(),
                             ids=UNSCORABLE_OUTCOMES.keys())
    def test_unscorable_outcome_exits_2(self, tmp_path, capsys, base, hypothesis):
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(base, trials=1)))
        lines = report["trials"][0]["transcript"].splitlines()[:-1]  # drop the outcome line
        if hypothesis is not None:
            lines.append(json.dumps({"outcome": "hypothesis", "hypothesis": hypothesis}))
        report["trials"][0]["transcript"] = "\n".join(lines) + "\n"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["replay", str(path)]) == 2
        assert capsys.readouterr().err.startswith("spec error: trials[0]:")

    @pytest.mark.parametrize("kind", ["sq-gap", "lowerbound"])
    def test_report_without_verified_trials_exits_2(self, tmp_path, capsys, kind):
        command, doc, _ = KIND_SPECS[kind]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--spec", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["replay", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err.startswith("spec error: protocol:")


class TestBuildOnce:
    """A spec document is parsed by from_doc and validated, which builds, once per
    run_experiment and once per replay."""

    @pytest.mark.parametrize("base,config", [(INTERVALS_SPEC, iv.IntervalProtocolConfig),
                                             (SQ_SPEC, sq.SqProtocolConfig)],
                             ids=["intervals", "sq"])
    def test_one_build_per_run_and_per_replay(self, monkeypatch, tmp_path, base, config):
        builds = []
        default = config.default
        monkeypatch.setattr(config, "default",
                            lambda *args, **kwargs: builds.append(1) or default(*args, **kwargs))
        report = cli.run_experiment(cli.ExperimentSpec.from_doc(dict(base, trials=2)))
        assert len(builds) == 1
        cli.write_report(report, str(tmp_path))
        assert cli.replay(str(tmp_path / "report.json"))["replayed"] == 2
        assert len(builds) == 2


class TestNotJson:
    def test_report_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        assert cli.main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: report: not a JSON file")
        assert err.count("\n") == 1

    def test_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        assert cli.main(["sq-verify", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: spec: not a JSON file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,what", [(["replay"], "report"), (["sq-verify", "--spec"], "spec")],
                             ids=["report", "spec"])
    def test_nesting_past_the_recursion_limit_exits_2(self, tmp_path, capsys, argv, what):
        path = tmp_path / "doc.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spec error: {what}: not a JSON file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [[], ["--seed", "3"], ["--trials", "2"]])
    def test_spec_not_an_object_exits_2(self, tmp_path, capsys, flags):
        path = tmp_path / "spec.json"
        path.write_text("[1]")
        assert cli.main(["sq-verify", "--spec", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err == "spec error: spec: must be a JSON object\n"


class TestMissingFile:
    def test_report_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["replay", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: report: cannot read")
        assert err.count("\n") == 1

    def test_spec_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["sq-verify", "--spec", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: spec: cannot read")
        assert err.count("\n") == 1


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


RATES_HEADER = "protocol,adversary,trials,completeness_success_rate,ci_low,ci_high"
# table kind -> (subcommand, small spec, rates.csv header)
KIND_SPECS = {
    "intervals": ("intervals-verify", dict(INTERVALS_SPEC, trials=1), RATES_HEADER),
    "sq-verify": ("sq-verify", dict(SQ_SPEC, trials=1), RATES_HEADER),
    "sq-gap": ("sq-verify", {"protocol": "sq", "params": {
        "experiment": "gap", "ds": [4, 16], "tau": 0.1, "epsilon": 0.2, "delta": 0.2}},
        "d,verifier_samples_per_batch,simulation_samples,accepted"),
    "lowerbound": ("lowerbound", {"protocol": "lowerbound", "params": {
        "ds": [64, 256], "trials_per_point": 500}},
        "d,t,trials,success_rate,collision_rate,tv_estimate"),
}
TABLE_KINDS = sorted({experiment.name for kinds in cli.PROTOCOLS.values()
                      for experiment in kinds.values()})


class TestCsv:
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_every_kind_writes_its_csv(self, tmp_path, kind):
        command, doc, header = KIND_SPECS[kind]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "rates.csv").read_text().splitlines()[0] == header
        # defaults fill a working dict; the report keeps the spec as written
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["spec"]["params"] == doc["params"]
        assert cli.ExperimentSpec.from_doc(doc).resolve()[0].name == kind

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
