"""Experiment runner: rate tables, scaling sweeps, calibration, replay.

Reports are deterministic given the root seed: rerunning the same spec
produces byte-identical JSON except for the wall-clock field, which is kept
separate so comparisons can drop it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import intervals as iv
from . import lowerbound as lb
from . import sq
from .core import child_rng
from .harness import (
    COMPLETENESS_FAILURE,
    COMPLETENESS_SUCCESS,
    SOUNDNESS_SAFE,
    SOUNDNESS_VIOLATION,
    Transcript,
    TranscriptParseError,
    classify_outcome,
)
from .identity_test import calibrate


class SpecError(ValueError):
    """Invalid experiment spec, naming the offending field."""

    def __init__(self, spec_field: str, message: str):
        super().__init__(f"{spec_field}: {message}")
        self.field = spec_field


PROTOCOLS = ("intervals", "sq", "lowerbound", "identity-calibrate")


@dataclass(frozen=True)
class ExperimentSpec:
    protocol: str
    distribution: dict = field(default_factory=dict)
    adversary: str = "honest"
    params: dict = field(default_factory=dict)
    trials: int = 1
    root_seed: int = 0
    record_transcripts: bool | None = None

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise SpecError("spec", "must be a JSON object")
        unknown = set(doc) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise SpecError(sorted(unknown)[0], "unknown field")
        spec = cls(**doc)
        spec.validate()
        return spec

    def to_doc(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise SpecError("protocol", f"must be one of {PROTOCOLS}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise SpecError("trials", "must be an integer >= 1")
        if not isinstance(self.root_seed, int) or self.root_seed < 0:
            raise SpecError("root_seed", "must be a nonnegative integer")
        p = self.params
        if self.protocol == "intervals":
            for name in ("d", "epsilon", "delta"):
                if name not in p:
                    raise SpecError(f"params.{name}", "required for intervals")
            if self.adversary not in ("honest", "garbage", "silent", *iv.INTERVAL_ADVERSARIES):
                raise SpecError("adversary", f"unknown interval prover {self.adversary!r}")
            _build_interval_population(self.distribution)
        elif self.protocol == "sq":
            if p.get("experiment", "verify") not in ("verify", "gap"):
                raise SpecError("params.experiment", "must be 'verify' or 'gap'")
            if p.get("experiment", "verify") == "verify":
                for name in ("tau", "epsilon", "delta", "N", "n"):
                    if name not in p:
                        raise SpecError(f"params.{name}", "required for sq verify")
                if 2 * p["n"] > p["N"]:
                    raise SpecError("params.n", "need 2n <= N")
                if not 1 <= p.get("num_blocks", min(p["N"], 2 * p["n"])) <= p["N"]:
                    raise SpecError("params.num_blocks", "must lie in [1, N]")
                if self.adversary != "honest" and self.adversary not in sq.SQ_ADVERSARIES:
                    raise SpecError("adversary", f"unknown sq prover {self.adversary!r}")
                _build_sq_distribution(self.distribution, p["N"])
        elif self.protocol == "identity-calibrate":
            for name in ("n", "epsilon", "delta"):
                if name not in p:
                    raise SpecError(f"params.{name}", "required for calibration")

    @property
    def role(self) -> str:
        return "honest" if self.adversary == "honest" else "adversarial"


def _build_interval_population(doc: dict) -> iv.IntervalPopulation:
    kind = doc.get("kind", "grid")
    n_points = doc.get("n_points", 64)
    if kind == "grid":
        target = iv.UnionOfIntervals(tuple(tuple(x) for x in doc.get("target", [])))
        return iv.IntervalPopulation.grid_realizable(
            n_points, target, band_fraction=doc.get("band_fraction", 0.25))
    if kind == "coin":
        # every hypothesis has loss exactly 1/2
        centers = (np.arange(n_points) + 0.5) / n_points
        hw = doc.get("band_fraction", 0.25) / n_points
        return iv.IntervalPopulation(centers, np.full(n_points, 1.0 / n_points),
                                     np.full(n_points, 0.5), halfwidth=hw)
    raise SpecError("distribution.kind", f"unknown interval population kind {kind!r}")


def _build_sq_distribution(doc: dict, N: int):
    kind = doc.get("kind", "zipf")
    if kind == "zipf":
        return sq.zipf_distribution(N, a=doc.get("a", 1.0))
    if kind == "uniform":
        from .core import DiscreteDistribution
        return DiscreteDistribution.uniform(tuple(range(N)))
    if kind == "explicit":
        from .core import DiscreteDistribution
        probs = doc.get("probs")
        if probs is None or len(probs) != N:
            raise SpecError("distribution.probs", f"must list exactly {N} probabilities")
        return DiscreteDistribution.from_probs(tuple(range(N)), probs)
    raise SpecError("distribution.kind", f"unknown sq distribution kind {kind!r}")


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial rate."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def _trial_seed(root_seed: int, index: int) -> int:
    return int(child_rng(root_seed, 7, index).integers(2**63))


def _build_trials(spec: ExperimentSpec) -> tuple:
    """Wire a per-trial spec: (run, baseline, loss_of).

    ``run(seed)`` plays one interaction and returns its transcript;
    ``loss_of`` maps a hypothesis payload to its exact population loss.
    """
    p = spec.params
    if spec.protocol == "intervals":
        pop = _build_interval_population(spec.distribution)
        cfg = iv.IntervalProtocolConfig.default(
            p["d"], p["epsilon"], p["delta"],
            c_v=p.get("c_v", 2.0), c_p=p.get("c_p", 8.0))
        run = lambda seed: iv.protocol1_end_to_end(
            pop, cfg, seed, iv.make_interval_prover(spec.adversary, pop, cfg))
        baseline = iv.optimal_class_loss(pop, cfg.d)
        loss_of = lambda payload: pop.loss01(iv.UnionOfIntervals(tuple(tuple(x) for x in payload)))
    elif spec.protocol == "sq":
        dist = _build_sq_distribution(spec.distribution, p["N"])
        num_blocks = p.get("num_blocks", min(p["N"], 2 * p["n"]))
        cfg = sq.SqProtocolConfig.default(
            tau=p["tau"], epsilon=p["epsilon"], delta=p["delta"],
            s=num_blocks, b=p.get("b", 1),
            c_v=p.get("c_v", 4.0), c_p=p.get("c_p", 16.0))
        run = lambda seed: sq.portfolio_run(dist, cfg, N=p["N"], n=p["n"], seed=seed,
                                            prover_name=spec.adversary, num_blocks=num_blocks)
        baseline = sq.portfolio_baseline(dist, p["N"], p["n"], num_blocks)
        loss_of = lambda payload: sq.portfolio_population_loss(payload, dist)
    else:
        raise SpecError("protocol", f"{spec.protocol} runs no verified trials")
    return run, baseline, loss_of


# top-level so process pools can pickle it
def _run_trial(spec_doc: dict, index: int) -> dict:
    spec = ExperimentSpec.from_doc(spec_doc)
    seed = _trial_seed(spec.root_seed, index)
    run, baseline, loss_of = _build_trials(spec)
    transcript = run(seed)
    classification = classify_outcome(transcript, loss_of, baseline,
                                      spec.params["epsilon"], role=spec.role)
    out = {
        "trial": index,
        "seed": seed,
        "classification": classification,
        "outcome": transcript.outcome.kind,
        "baseline": baseline,
    }
    if transcript.outcome.kind == "hypothesis":
        out["hypothesis"] = transcript.outcome.hypothesis
        out["hypothesis_loss"] = loss_of(transcript.outcome.hypothesis)
    if _record_transcripts(spec):
        out["transcript"] = transcript.to_jsonl()
    return out


def _record_transcripts(spec: ExperimentSpec) -> bool:
    if spec.record_transcripts is not None:
        return spec.record_transcripts
    return spec.trials <= 50


def _worker_count() -> int:
    raw = os.environ.get("PACVERIFY_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute a spec and return its JSON-ready report.

    Deterministic given the spec (including root_seed); trial outcomes are
    keyed by index so worker scheduling cannot reorder them. Wall-clock time
    lives in a single top-level field that comparisons exclude.
    """
    spec.validate()
    start = time.monotonic()
    report: dict = {"spec": spec.to_doc(), "root_seed": spec.root_seed}
    if spec.protocol == "identity-calibrate":
        p = spec.params
        report["calibration"] = calibrate(
            n=p["n"], epsilon=p["epsilon"], delta=p["delta"],
            runs=p.get("runs", 200), seed=spec.root_seed)
    elif spec.protocol == "lowerbound":
        p = spec.params
        report["crossing"] = lb.crossing_experiment(
            ds=tuple(p.get("ds", (64, 256, 1024, 4096))),
            trials=p.get("trials_per_point", 3000), seed=spec.root_seed)
    elif spec.protocol == "sq" and spec.params.get("experiment") == "gap":
        p = spec.params
        report["gap"] = sq.sq_gap_sweep(
            ds=tuple(p.get("ds", (4, 16, 64, 256))),
            tau=p.get("tau", 0.05), epsilon=p.get("epsilon", 0.1),
            delta=p.get("delta", 0.2), seed=spec.root_seed)
    else:
        spec_doc = spec.to_doc()
        workers = _worker_count()
        if workers > 1 and spec.trials > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_trial, [spec_doc] * spec.trials,
                                        range(spec.trials), chunksize=4))
        else:
            results = [_run_trial(spec_doc, i) for i in range(spec.trials)]
        results.sort(key=lambda r: r["trial"])
        report["trials"] = results
        report["rates"] = _aggregate(results, spec)
    report["wall_clock_seconds"] = time.monotonic() - start
    return report


def _aggregate(results: list, spec: ExperimentSpec) -> dict:
    n = len(results)
    counts: dict = {}
    for r in results:
        counts[r["classification"]] = counts.get(r["classification"], 0) + 1
    if spec.role == "honest":
        hits = counts.get(COMPLETENESS_SUCCESS, 0)
        key = "completeness_success_rate"
    else:
        hits = counts.get(SOUNDNESS_VIOLATION, 0)
        key = "soundness_violation_rate"
    low, high = wilson_interval(hits, n)
    return {
        "trials": n,
        "counts": counts,
        key: hits / n,
        "ci_low": low,
        "ci_high": high,
        "ci_method": "wilson-95",
    }


def report_json(report: dict, include_wall_clock: bool = True) -> str:
    doc = dict(report)
    if not include_wall_clock:
        doc.pop("wall_clock_seconds", None)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def rate_table_csv(report: dict) -> str:
    """Flat CSV view of whichever rates or curves the report contains."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if "rates" in report:
        rates = report["rates"]
        rate_key = next(k for k in rates if k.endswith("_rate"))
        writer.writerow(["protocol", "adversary", "trials", rate_key, "ci_low", "ci_high"])
        writer.writerow([report["spec"]["protocol"], report["spec"]["adversary"],
                         rates["trials"], rates[rate_key], rates["ci_low"], rates["ci_high"]])
    elif "crossing" in report:
        writer.writerow(["d", "t", "trials", "success_rate", "collision_rate", "tv_estimate"])
        for point in report["crossing"]["points"]:
            for row in point["rows"]:
                writer.writerow([row["d"], row["t"], row["trials"], row["success_rate"],
                                 row["collision_rate"], row["tv_estimate"]])
        writer.writerow([])
        writer.writerow(["crossing_slope", report["crossing"]["crossing_slope"]])
    elif "gap" in report:
        writer.writerow(["d", "verifier_samples_per_batch", "simulation_samples", "accepted"])
        for row in report["gap"]["rows"]:
            writer.writerow([row["d"], row["verifier_samples_per_batch"],
                             row["simulation_samples"], row["accepted"]])
        writer.writerow([])
        writer.writerow(["verifier_cost_slope", report["gap"]["verifier_cost_slope"]])
        writer.writerow(["simulation_cost_slope", report["gap"]["simulation_cost_slope"]])
    elif "calibration" in report:
        writer.writerow(["constant_C", "samples", "passes"])
        for row in report["calibration"]["grid"]:
            writer.writerow([row["constant_C"], row["samples"], row["passes"]])
    return buf.getvalue()


def write_report(report: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        f.write(report_json(report))
    with open(os.path.join(out_dir, "rates.csv"), "w") as f:
        f.write(rate_table_csv(report))


def replay(report_path: str) -> dict:
    """Re-derive every recorded trial's classification from its transcript.

    Takes the path of a report.json containing embedded transcripts; each
    transcript's recorded outcome is reparsed and reclassified under the
    report's own spec, and must match the stored classification.
    """
    with open(report_path) as f:
        report = json.load(f)
    spec = ExperimentSpec.from_doc(report["spec"])
    _, baseline, loss_of = _build_trials(spec)
    rows = []
    mismatches = 0
    for trial in report.get("trials", []):
        if "transcript" not in trial:
            continue
        transcript = Transcript.from_jsonl(trial["transcript"])
        classification = classify_outcome(transcript, loss_of, baseline,
                                          spec.params["epsilon"], role=spec.role)
        match = classification == trial["classification"]
        mismatches += 0 if match else 1
        rows.append({"trial": trial["trial"], "classification": classification,
                     "recorded": trial["classification"], "match": match})
    return {"report": report_path, "replayed": len(rows), "mismatches": mismatches,
            "rows": rows}


DEFAULT_SPECS = {
    "intervals-verify": {
        "protocol": "intervals",
        "distribution": {"kind": "grid", "n_points": 64, "target": [[0.1, 0.3], [0.6, 0.8]]},
        "params": {"d": 2, "epsilon": 0.1, "delta": 0.2},
        "trials": 20,
    },
    "sq-verify": {
        "protocol": "sq",
        "distribution": {"kind": "zipf"},
        "params": {"tau": 0.05, "epsilon": 0.1, "delta": 0.2, "N": 64, "n": 8},
        "trials": 20,
    },
    "lowerbound": {
        "protocol": "lowerbound",
        "params": {"ds": [64, 256, 1024, 4096], "trials_per_point": 3000},
    },
    "calibrate": {
        "protocol": "identity-calibrate",
        "params": {"n": 100, "epsilon": 0.1, "delta": 0.1, "runs": 200},
    },
}


def _load_spec(args, subcommand: str) -> ExperimentSpec:
    if args.spec:
        with open(args.spec) as f:
            doc = json.load(f)
    else:
        doc = json.loads(json.dumps(DEFAULT_SPECS[subcommand]))
    if args.seed is not None:
        doc["root_seed"] = args.seed
    if args.trials is not None:
        doc["trials"] = args.trials
    return ExperimentSpec.from_doc(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pacverify",
        description="Simulate and measure sample-efficient verification protocols.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("intervals-verify", "sq-verify", "lowerbound", "calibrate"):
        p = sub.add_parser(name)
        p.add_argument("--spec", help="experiment spec JSON file")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
        p.add_argument("--out", help="output directory for report.json and rates.csv")
    p = sub.add_parser("replay")
    p.add_argument("log", help="report.json with embedded transcripts")
    args = parser.parse_args(argv)

    try:
        if args.command == "replay":
            result = replay(args.log)
            print(json.dumps(result, sort_keys=True, indent=2))
            return 0 if result["mismatches"] == 0 else 1
        spec = _load_spec(args, args.command)
        report = run_experiment(spec)
        if args.out:
            write_report(report, args.out)
            print(f"wrote {os.path.join(args.out, 'report.json')}")
        else:
            print(report_json(report), end="")
        return 0
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except TranscriptParseError as exc:
        print(f"transcript parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
