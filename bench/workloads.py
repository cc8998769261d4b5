"""The benchmark's workloads: full specs, set-up, one operation, its checks.

An operation is one unit of user-visible work, driven only through the
program's public functions. ``setup`` does what a user pays once per process:
import, spec validation, population or distribution, config and baseline.
``op`` is the timed work. ``check`` compares the output with values computed
in ``checks``, apart from the program, and returns (problems, success), where
success says whether the run met the (1 - delta) guarantee, or None where the
workload has no such guarantee.
"""

from __future__ import annotations

import os
import shutil

import checks
from pacverify import cli
from pacverify import intervals as iv
from pacverify import sq

# Every parameter is written out, library defaults included, so a change of
# a default is measured on the same inputs.
INTERVALS_SPEC = {
    "protocol": "intervals",
    "distribution": {"kind": "grid", "n_points": 64, "target": [[0.1, 0.3], [0.6, 0.8]],
                     "band_fraction": 0.25},
    "adversary": "honest",
    "params": {"d": 2, "epsilon": 0.1, "delta": 0.2, "c_v": 2.0, "c_p": 8.0},
    "trials": 1,
    "record_transcripts": False,
}

SQ_SPEC = {
    "protocol": "sq",
    "distribution": {"kind": "zipf", "a": 1.0},
    "adversary": "honest",
    "params": {"experiment": "verify", "tau": 0.05, "epsilon": 0.1, "delta": 0.2,
               "N": 64, "n": 8, "num_blocks": 16, "b": 1, "c_v": 4.0, "c_p": 16.0},
    "trials": 1,
    "record_transcripts": False,
}

SQ_WIDE_SPEC = {
    "protocol": "sq",
    "distribution": {"kind": "zipf", "a": 1.0},
    "adversary": "honest",
    "params": {"experiment": "verify", "tau": 0.05, "epsilon": 0.1, "delta": 0.2,
               "N": 256, "n": 64, "num_blocks": 256, "b": 1, "c_v": 4.0, "c_p": 16.0},
    "trials": 1,
    "record_transcripts": True,
}

LOWERBOUND_SPEC = {
    "protocol": "lowerbound",
    "params": {"ds": [64, 256, 1024, 4096], "trials_per_point": 3000},
    "trials": 1,
}


class Workload:
    name = ""
    spec: dict = {}
    # untimed operations run first; they fill caches and, for the protocol
    # workloads, record transcripts so that the verified output itself is checked
    warmups = 1

    def __init__(self, root):
        self.scratch = os.path.join(root, ".bench_out", f"report-{os.getpid()}")

    def setup(self) -> list:
        cli.ExperimentSpec.from_doc(self.spec)
        return []

    def op(self, root_seed: int, warmup: bool):
        doc = dict(self.spec, root_seed=root_seed)
        if warmup and "record_transcripts" in doc:
            doc["record_transcripts"] = True
        return cli.run_experiment(cli.ExperimentSpec.from_doc(doc))

    def check(self, out, warmup: bool) -> tuple:
        raise NotImplementedError

    def outcome(self, out):
        """What a traced operation must reproduce: the output minus wall clock."""
        return {k: v for k, v in out.items() if k != "wall_clock_seconds"}

    def cleanup(self) -> None:
        pass


def _single_trial(report) -> tuple:
    trials = report.get("trials", [])
    if len(trials) != 1:
        return None, [f"report holds {len(trials)} trials, expected 1"]
    return trials[0], []


class IntervalsHonest(Workload):
    name = "intervals-honest"
    spec = INTERVALS_SPEC

    def setup(self) -> list:
        super().setup()
        p, dist = self.spec["params"], self.spec["distribution"]
        target = iv.UnionOfIntervals(tuple(tuple(x) for x in dist["target"]))
        pop = iv.IntervalPopulation.grid_realizable(dist["n_points"], target, dist["band_fraction"])
        cfg = iv.IntervalProtocolConfig.default(p["d"], p["epsilon"], p["delta"],
                                                c_v=p["c_v"], c_p=p["c_p"])
        baseline = iv.optimal_class_loss(pop, p["d"])
        self.k, m_v = checks.interval_verifier_budget(p["d"], p["epsilon"], p["delta"], p["c_v"])
        self.m_p = cfg.m_p
        self.bands = checks.grid_bands(dist["n_points"], dist["target"], dist["band_fraction"])
        problems = []
        if baseline != 0.0:
            problems.append(f"baseline {baseline} of a realizable target is not 0")
        if (cfg.k, cfg.m_v) != (self.k, m_v) or cfg.m_p % self.k:
            problems.append(f"config k={cfg.k}, m_v={cfg.m_v}, m_p={cfg.m_p}; "
                            f"expected k={self.k}, m_v={m_v}, m_p a multiple of k")
        return problems

    def check(self, out, warmup):
        p = self.spec["params"]
        trial, problems = _single_trial(out)
        if trial is None:
            return problems, None
        problems += checks.check_trial(trial, 0.0, p["epsilon"])
        loss = trial.get("hypothesis_loss")
        if warmup:
            more, hypothesis = checks.check_interval_transcript(trial.get("transcript", ""),
                                                                self.m_p, self.k)
            problems += more
            if trial["outcome"] == "hypothesis":
                shape = checks.check_interval_hypothesis(hypothesis, p["d"])
                problems += shape
                if not shape:
                    recomputed = checks.band_loss(hypothesis, self.bands)
                    if abs(recomputed - loss) > 1e-9:
                        problems.append(f"reported loss {loss}, band layout gives {recomputed}")
                    loss = recomputed
        success = trial["outcome"] == "hypothesis" and loss <= p["epsilon"]
        return problems, success


class SqPortfolio(Workload):
    name = "sq-portfolio-honest"
    spec = SQ_SPEC

    def setup(self) -> list:
        super().setup()
        p = self.spec["params"]
        dist = sq.zipf_distribution(p["N"], a=self.spec["distribution"]["a"])
        cfg = sq.SqProtocolConfig.default(tau=p["tau"], epsilon=p["epsilon"], delta=p["delta"],
                                          s=p["num_blocks"], b=p["b"], c_v=p["c_v"], c_p=p["c_p"])
        baseline = sq.portfolio_baseline(dist, p["N"], p["n"], p["num_blocks"])
        self.baseline = checks.zipf_baseline(p["N"], p["n"])
        self.T = checks.sq_iterations(p["epsilon"], p["delta"])
        self.m_p = cfg.m_p
        problems = []
        if abs(baseline - self.baseline) > 1e-12:
            problems.append(f"baseline {baseline}, expected 1 - H_n/H_N = {self.baseline}")
        if cfg.T != self.T:
            problems.append(f"config runs T={cfg.T} simulations, expected {self.T}")
        return problems

    def check_report(self, report, transcript: bool) -> tuple:
        p = self.spec["params"]
        trial, problems = _single_trial(report)
        if trial is None:
            return problems, None
        problems += checks.check_trial(trial, self.baseline, p["epsilon"], baseline_tol=1e-12)
        loss = trial.get("hypothesis_loss")
        if transcript:
            more, selection = checks.check_sq_transcript(trial.get("transcript", ""), self.T, self.m_p)
            problems += more
            if trial["outcome"] == "hypothesis":
                shape = checks.check_selection(selection, p["N"], p["n"])
                problems += shape
                if not shape:
                    recomputed = checks.zipf_selection_loss(selection, p["N"])
                    if abs(recomputed - loss) > 1e-9:
                        problems.append(f"reported loss {loss}, zipf law gives {recomputed}")
                    loss = recomputed
        success = trial["outcome"] == "hypothesis" and loss <= self.baseline + p["epsilon"]
        return problems, success

    def check(self, out, warmup):
        return self.check_report(out, transcript=warmup)


class SqWideTranscripts(SqPortfolio):
    """Every operation records, writes and replays its transcript."""

    name = "sq-wide-transcripts"
    spec = SQ_WIDE_SPEC
    # one operation takes about 10 s; the first timed one is the warm-up's cost
    warmups = 0

    def op(self, root_seed, warmup):
        report = super().op(root_seed, warmup)
        cli.write_report(report, self.scratch)
        replayed = cli.replay(os.path.join(self.scratch, "report.json"))
        return {"report": report, "replay": replayed}

    def check(self, out, warmup):
        problems, success = self.check_report(out["report"], transcript=True)
        return problems + checks.check_replay(out["replay"], 1), success

    def outcome(self, out):
        return {"report": super().outcome(out["report"]), "replay": out["replay"]}

    def cleanup(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


class LowerboundCrossing(Workload):
    name = "lowerbound-crossing"
    spec = LOWERBOUND_SPEC
    warmups = 2

    def check(self, out, warmup):
        return checks.check_crossing(out["crossing"]), None


WORKLOADS = {w.name: w for w in (IntervalsHonest, SqPortfolio, SqWideTranscripts, LowerboundCrossing)}
