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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import intervals as iv
from . import lowerbound as lb
from . import sq
from .core import DiscreteDistribution, child_rng
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

# the most entries a spec may make the program hold in one array
MAX_ENTRIES = 2**26


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
        if "protocol" not in doc:
            raise SpecError("protocol", "required")
        spec = cls(**doc)
        spec.validate()
        return spec

    def to_doc(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise SpecError("protocol", f"must be one of {PROTOCOLS}")
        if type(self.trials) is not int or self.trials < 1:
            raise SpecError("trials", "must be an integer >= 1")
        if type(self.root_seed) is not int or self.root_seed < 0:
            raise SpecError("root_seed", "must be a nonnegative integer")
        if type(self.record_transcripts) not in (bool, type(None)):
            raise SpecError("record_transcripts", "must be true, false or null")
        for name in ("distribution", "params"):
            if not isinstance(getattr(self, name), dict):
                raise SpecError(name, "must be a JSON object")
        if not isinstance(self.adversary, str):
            raise SpecError("adversary", "must be a string")
        p = self.params
        if self.protocol == "intervals":
            for name in ("d", "epsilon", "delta"):
                if name not in p:
                    raise SpecError(f"params.{name}", "required for intervals")
            _check_params(p, ints=("d",), unit=("epsilon", "delta"), positive=("c_v", "c_p"))
            inv_eps = 1.0 / p["epsilon"]
            # m_p is a multiple of k = 12d/epsilon, so 1/epsilon over the cap puts m_p over it
            if inv_eps > MAX_ENTRIES or abs(inv_eps - round(inv_eps)) > 1e-9:
                raise SpecError("params.epsilon", f"1/epsilon must be an integer <= {MAX_ENTRIES}")
            if self.adversary not in iv.INTERVAL_PROVERS:
                raise SpecError("adversary", f"unknown interval prover {self.adversary!r}")
            cfg = _budgeted(_interval_config, p)
            if cfg.m_p > MAX_ENTRIES:
                raise SpecError("params.d", f"m_p = {cfg.m_p} prover points must be <= {MAX_ENTRIES}")
            _build_interval_population(self.distribution, cfg.k)
        elif self.protocol == "sq":
            _check_params(p, ints=("N", "n", "num_blocks", "b"), size_lists=("ds",),
                          unit=("tau", "epsilon", "delta"), positive=("c_v", "c_p"))
            if p.get("experiment", "verify") not in ("verify", "gap"):
                raise SpecError("params.experiment", "must be 'verify' or 'gap'")
            if p.get("experiment", "verify") == "verify":
                for name in ("tau", "epsilon", "delta", "N", "n"):
                    if name not in p:
                        raise SpecError(f"params.{name}", "required for sq verify")
                if 2 * p["n"] > p["N"]:
                    raise SpecError("params.n", "need 2n <= N")
                cfg = _budgeted(_sq_config, p)
                if cfg.s > p["N"]:
                    raise SpecError("params.num_blocks", "must lie in [1, N]")
                if p["N"] * cfg.s > MAX_ENTRIES:
                    raise SpecError("params.N", f"N * num_blocks must be at most {MAX_ENTRIES}")
                # the work: T simulations of up to b batches over N elements each
                work = cfg.T * cfg.b * p["N"]
                if work > MAX_ENTRIES:
                    raise SpecError("params.epsilon", f"T * b * N = {work} must be at most "
                                                      f"{MAX_ENTRIES}")
                if self.adversary not in sq.SQ_PROVERS:
                    raise SpecError("adversary", f"unknown sq prover {self.adversary!r}")
                _build_sq_distribution(self.distribution, p["N"])
            else:
                gap = _gap_args(p)
                if any(d * d > MAX_ENTRIES for d in gap["ds"]):
                    raise SpecError("params.ds", f"d * d must be at most {MAX_ENTRIES}")
                for d in gap["ds"]:
                    _budgeted(sq.SqProtocolConfig.default, gap["tau"], gap["epsilon"],
                              gap["delta"], d)
                # the work: T simulations of a d-atom batch for each d
                work = sq.iteration_count(gap["epsilon"], gap["delta"]) * sum(gap["ds"])
                if work > MAX_ENTRIES:
                    raise SpecError("params.epsilon", f"T * sum(ds) = {work} must be at most "
                                                      f"{MAX_ENTRIES}")
        elif self.protocol == "identity-calibrate":
            for name in ("n", "epsilon", "delta"):
                if name not in p:
                    raise SpecError(f"params.{name}", "required for calibration")
            _check_params(p, ints=("runs",), sizes=("n",), unit=("epsilon", "delta"))
        elif self.protocol == "lowerbound":
            _check_params(p, ints=("trials_per_point",), size_lists=("ds",))
            # crossing_point draws (trials, ceil(f sqrt(d))) arrays at its largest
            # factor f; past MAX_ENTRIES**2, sqrt(d) alone is over the cap
            trials, f = p.get("trials_per_point", 3000), max(lb.SCAN_FACTORS)
            if any(trials * math.ceil(f * math.sqrt(min(d, MAX_ENTRIES**2))) > MAX_ENTRIES
                   for d in p.get("ds", (64, 256, 1024, 4096))):
                raise SpecError("params.ds", f"trials_per_point * ceil({f} sqrt(d)) must be "
                                             f"at most {MAX_ENTRIES}")

    @property
    def role(self) -> str:
        return "honest" if self.adversary == "honest" else "adversarial"


def _check_params(p: dict, ints=(), sizes=(), size_lists=(), unit=(), positive=(),
                  finite=(), where: str = "params") -> None:
    """Types and ranges of the named fields present in ``p``: ``ints`` are
    integers >= 1 and ``sizes`` integers >= 2 (bools refused), ``size_lists``
    lists of two or more distinct sizes (a slope fit needs them), ``unit``
    numbers in (0, 1), ``positive`` finite numbers > 0, ``finite`` any finite
    numbers. ``where`` prefixes the field name in the ``SpecError``."""
    def is_int(value, low):
        return type(value) is int and value >= low

    for names, low in ((ints, 1), (sizes, 2)):
        for name in names:
            if name in p and not is_int(p[name], low):
                raise SpecError(f"{where}.{name}", f"must be an integer >= {low}")
    for name in size_lists:
        if name in p and not (isinstance(p[name], (list, tuple))
                              and all(is_int(d, 2) for d in p[name]) and len(set(p[name])) >= 2):
            raise SpecError(f"{where}.{name}", "must list two or more distinct integers >= 2")
    for names, low, high in ((unit, 0, 1.0), (positive, 0, math.inf),
                             (finite, -math.inf, math.inf)):
        for name in names:
            if name in p and (type(p[name]) not in (int, float) or not low < p[name] < high):
                raise SpecError(f"{where}.{name}", f"must be a number in ({low}, {high})")


def _budgeted(build, *args):
    """``build(*args)``, a config constructor; sample budgets that overflow,
    divide by zero or pass int64 are a ``SpecError`` on ``params``."""
    try:
        return build(*args)
    except ArithmeticError as exc:
        raise SpecError("params", f"sample budgets out of range ({exc})") from exc


def _interval_config(p: dict) -> iv.IntervalProtocolConfig:
    return iv.IntervalProtocolConfig.default(p["d"], p["epsilon"], p["delta"],
                                             c_v=p.get("c_v", 2.0), c_p=p.get("c_p", 8.0))


def _sq_config(p: dict) -> sq.SqProtocolConfig:
    """The SQ verify config; its partition bound ``s`` is the portfolio's
    block count."""
    return sq.SqProtocolConfig.default(
        tau=p["tau"], epsilon=p["epsilon"], delta=p["delta"],
        s=p.get("num_blocks", min(p["N"], 2 * p["n"])), b=p.get("b", 1),
        c_v=p.get("c_v", 4.0), c_p=p.get("c_p", 16.0))


def _gap_args(p: dict) -> dict:
    """The gap sweep's keyword arguments, defaults filled in."""
    return {"ds": tuple(p.get("ds", (4, 16, 64, 256))), "tau": p.get("tau", 0.05),
            "epsilon": p.get("epsilon", 0.1), "delta": p.get("delta", 0.2)}


def _build_interval_population(doc: dict, k: int) -> iv.IntervalPopulation:
    kind = doc.get("kind", "grid")
    _check_params(doc, ints=("n_points",), where="distribution")
    n_points = doc.get("n_points", 64)
    # the verifier holds a (k, n_points) pushforward matrix; k >= 1 caps n_points too
    if k * n_points > MAX_ENTRIES:
        raise SpecError("distribution.n_points", f"k * n_points must be at most {MAX_ENTRIES}")
    band_fraction = doc.get("band_fraction", 0.25)
    # wider bands would overlap their neighbours on the grid
    if type(band_fraction) not in (int, float) or not 0 <= band_fraction < 0.5:
        raise SpecError("distribution.band_fraction", "must be a number in [0, 0.5)")
    if kind == "grid":
        target = doc.get("target", [])
        if not (isinstance(target, (list, tuple)) and all(
                isinstance(x, (list, tuple)) and len(x) == 2 and all(type(v) in (int, float) for v in x)
                and 0 <= x[0] <= x[1] <= 1 for x in target)):
            raise SpecError("distribution.target",
                            "must be a list of intervals [a, b] with 0 <= a <= b <= 1")
        return iv.IntervalPopulation.grid_realizable(
            n_points, iv.UnionOfIntervals(tuple(tuple(x) for x in target)), band_fraction)
    if kind == "coin":
        # every hypothesis has loss exactly 1/2
        centers = (np.arange(n_points) + 0.5) / n_points
        hw = band_fraction / n_points
        return iv.IntervalPopulation(centers, np.full(n_points, 1.0 / n_points),
                                     np.full(n_points, 0.5), halfwidth=hw)
    raise SpecError("distribution.kind", f"unknown interval population kind {kind!r}")


def _build_sq_distribution(doc: dict, N: int):
    kind = doc.get("kind", "zipf")
    if kind == "zipf":
        _check_params(doc, finite=("a",), where="distribution")
        return sq.zipf_distribution(N, a=doc.get("a", 1.0))
    if kind == "uniform":
        return DiscreteDistribution.uniform(tuple(range(N)))
    if kind == "explicit":
        probs = doc.get("probs")
        if not (isinstance(probs, (list, tuple)) and len(probs) == N
                and all(type(x) in (int, float) and 0 <= x <= 1 for x in probs)):
            raise SpecError("distribution.probs", f"must list exactly {N} probabilities")
        if abs(float(np.sum(probs)) - 1.0) > 1e-9:
            raise SpecError("distribution.probs", "must sum to 1")
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


def _build_trials(spec: ExperimentSpec) -> tuple:
    """Wire a per-trial spec: (run, baseline, loss_of).

    ``run(seed)`` plays one interaction and returns its transcript;
    ``loss_of`` maps a hypothesis payload to its exact population loss.
    """
    p = spec.params
    if spec.protocol == "intervals":
        cfg = _interval_config(p)
        pop = _build_interval_population(spec.distribution, cfg.k)
        run = lambda seed: iv.protocol1_end_to_end(
            pop, cfg, seed, iv.make_interval_prover(spec.adversary, pop, cfg))
        baseline = iv.optimal_class_loss(pop, cfg.d)
        loss_of = lambda payload: pop.loss01(iv.UnionOfIntervals(tuple(tuple(x) for x in payload)))
    elif spec.protocol == "sq":
        dist = _build_sq_distribution(spec.distribution, p["N"])
        cfg = _sq_config(p)
        run = lambda seed: sq.portfolio_run(
            dist, cfg, p["N"], p["n"], seed, sq.make_sq_prover(spec.adversary, dist, cfg), cfg.s)
        baseline = sq.portfolio_baseline(dist, p["N"], p["n"], cfg.s)
        loss_of = lambda payload: sq.portfolio_population_loss(payload, dist)
    else:
        raise SpecError("protocol", f"{spec.protocol} runs no verified trials")
    return run, baseline, loss_of


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute a spec and return its JSON-ready report.

    Deterministic given the spec (including root_seed): the spec is built
    once and its trials play in order, each from its own seed. Wall-clock
    time lives in a single top-level field that comparisons exclude.
    """
    spec.validate()
    start = time.monotonic()
    report: dict = {"spec": spec.to_doc(), "root_seed": spec.root_seed}
    p = spec.params
    if spec.protocol == "identity-calibrate":
        report["calibration"] = calibrate(
            n=p["n"], epsilon=p["epsilon"], delta=p["delta"],
            runs=p.get("runs", 200), seed=spec.root_seed)
    elif spec.protocol == "lowerbound":
        report["crossing"] = lb.crossing_experiment(
            ds=tuple(p.get("ds", (64, 256, 1024, 4096))),
            trials=p.get("trials_per_point", 3000), seed=spec.root_seed)
    elif spec.protocol == "sq" and p.get("experiment") == "gap":
        report["gap"] = sq.sq_gap_sweep(**_gap_args(p), seed=spec.root_seed)
    else:
        run, baseline, loss_of = _build_trials(spec)
        record = spec.trials <= 50 if spec.record_transcripts is None else spec.record_transcripts
        results = []
        for index in range(spec.trials):
            seed = int(child_rng(spec.root_seed, 7, index).integers(2**63))
            transcript = run(seed)
            outcome = transcript.outcome
            row = {"trial": index, "seed": seed, "outcome": outcome.kind, "baseline": baseline,
                   "classification": classify_outcome(transcript, loss_of, baseline,
                                                      p["epsilon"], role=spec.role)}
            if outcome.kind == "hypothesis":
                row["hypothesis"] = outcome.hypothesis
                row["hypothesis_loss"] = loss_of(outcome.hypothesis)
            if record:
                row["transcript"] = transcript.to_jsonl()
            results.append(row)
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
    report = _read_json(report_path, "report")
    if not isinstance(report, dict) or not isinstance(report.get("trials", []), list):
        raise SpecError("report", "must be a JSON object with a list of trials")
    spec = ExperimentSpec.from_doc(report.get("spec"))
    _, baseline, loss_of = _build_trials(spec)
    rows = []
    mismatches = 0
    for i, trial in enumerate(report.get("trials", [])):
        if not isinstance(trial, dict) or not isinstance(trial.get("transcript", ""), str):
            raise SpecError(f"trials[{i}]", "must be an object whose transcript is a string")
        if "transcript" not in trial:
            continue
        transcript = Transcript.from_jsonl(trial["transcript"])
        classification = classify_outcome(transcript, loss_of, baseline,
                                          spec.params["epsilon"], role=spec.role)
        match = classification == trial.get("classification")
        mismatches += 0 if match else 1
        rows.append({"trial": trial.get("trial"), "classification": classification,
                     "recorded": trial.get("classification"), "match": match})
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


def _read_json(path: str, what: str):
    """The JSON document in a file; a file that cannot be read or is not JSON
    is a ``SpecError`` naming ``what``."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise SpecError(what, f"cannot read {path} ({exc.strerror})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpecError(what, f"not a JSON file ({exc})") from exc


def _load_spec(args, subcommand: str) -> ExperimentSpec:
    if args.spec:
        doc = _read_json(args.spec, "spec")
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
