"""Experiment runner: rate tables, the SQ gap sweep, the lower-bound crossing, replay.

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
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import intervals as iv
from . import lowerbound as lb
from . import sq
from .core import DiscreteDistribution, child_rng
from .harness import (
    COMPLETENESS_SUCCESS,
    SOUNDNESS_VIOLATION,
    Transcript,
    TranscriptParseError,
    classify_outcome,
    run_interaction,
)


class SpecError(ValueError):
    """Invalid experiment spec, naming the offending field."""

    def __init__(self, spec_field: str, message: str):
        super().__init__(f"{spec_field}: {message}")
        self.field = spec_field


# the most entries a spec may make the program hold in one array
MAX_ENTRIES = 2**26
# the default of a param that every spec of its kind must set
REQUIRED = object()


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
        """The spec a JSON document writes out; only ``validate`` checks its values."""
        if not isinstance(doc, dict):
            raise SpecError("spec", "must be a JSON object")
        unknown = set(doc) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise SpecError(sorted(unknown)[0], "unknown field")
        if "protocol" not in doc:
            raise SpecError("protocol", "required")
        return cls(**doc)

    def to_doc(self) -> dict:
        return asdict(self)

    def validate(self) -> tuple["Experiment", dict, tuple | None]:
        """Check every field; returns the entry this spec runs, its filled params
        and what ``build`` built for them."""
        _check("trials", self.trials, "int")
        if type(self.root_seed) is not int or self.root_seed < 0:
            raise SpecError("root_seed", "must be a nonnegative integer")
        if type(self.record_transcripts) not in (bool, type(None)):
            raise SpecError("record_transcripts", "must be true, false or null")
        for name in ("distribution", "params"):
            if not isinstance(getattr(self, name), dict):
                raise SpecError(name, "must be a JSON object")
        if not isinstance(self.adversary, str):
            raise SpecError("adversary", "must be a string")
        experiment, p = self.resolve()
        if experiment.run:  # a one-shot kind reads none of the trial fields
            blank = ExperimentSpec(self.protocol)
            for name in ("distribution", "adversary", "trials", "record_transcripts"):
                if getattr(self, name) != getattr(blank, name):
                    raise SpecError(name, f"{experiment.name} plays no verified trials; "
                                          "leave it unset")
        try:
            return experiment, p, experiment.build(self, p)
        except ArithmeticError as exc:  # a budget overflows, divides by zero or passes int64
            raise SpecError("params", f"sample budgets out of range ({exc})") from exc

    def resolve(self) -> tuple["Experiment", dict]:
        """The entry this spec runs, and its checked params with defaults in a new dict."""
        kinds = PROTOCOLS.get(self.protocol) if isinstance(self.protocol, str) else None
        if kinds is None:
            raise SpecError("protocol", f"must be one of {tuple(PROTOCOLS)}")
        which = self.params.get("experiment", next(iter(kinds)))
        # a protocol with one experiment (key None) takes no params.experiment
        named = isinstance(which, str) or "experiment" not in self.params
        experiment = kinds.get(which) if named else None
        if experiment is None:
            raise SpecError("params.experiment", f"no experiment {which!r} in {self.protocol}")
        for name in self.params:
            if name not in experiment.params and name != "experiment":
                raise SpecError(f"params.{name}", f"unknown field for {experiment.name}")
        p = {}
        for name, (kind, default) in experiment.params.items():
            if name in self.params:
                _check(f"params.{name}", self.params[name], kind)
                p[name] = self.params[name]
            elif default is REQUIRED:
                raise SpecError(f"params.{name}", f"required for {experiment.name}")
            elif default is not None:
                p[name] = default
        return experiment, p

    @property
    def role(self) -> str:
        return "honest" if self.adversary == "honest" else "adversarial"


# check kind -> (test, message); integers refuse bools, and numbers refuse nan
CHECKS = {
    "int": (lambda v: type(v) is int and v >= 1, "must be an integer >= 1"),
    "size": (lambda v: type(v) is int and v >= 2, "must be an integer >= 2"),
    # a slope fit needs two distinct sizes
    "size-list": (lambda v: isinstance(v, (list, tuple)) and all(CHECKS["size"][0](d) for d in v)
                  and len(set(v)) >= 2, "must list two or more distinct integers >= 2"),
    "unit": (lambda v: type(v) in (int, float) and 0 < v < 1, "must be a number in (0, 1)"),
    "positive": (lambda v: type(v) in (int, float) and 0 < v < math.inf, "must be a number > 0"),
    "finite": (lambda v: type(v) in (int, float) and abs(v) < math.inf, "must be a finite number"),
}


def _check(spec_field: str, value, kind: str) -> None:
    if not CHECKS[kind][0](value):
        raise SpecError(spec_field, CHECKS[kind][1])


@dataclass(frozen=True)
class Experiment:
    """One experiment kind. ``params``: name -> (check kind, default), the default
    ``REQUIRED``, a value, or None where the library or ``build`` picks it.
    ``build(spec, p)`` checks the filled params and builds what the run builds.
    ``run(p, seed)`` returns the report sections; without it the kind plays verified
    trials that ``build`` wires as (config, make_verifier, make_prover, baseline,
    loss_of), the middle three thunks: one verifier serves a run, a prover a trial."""

    name: str
    params: dict
    csv: Callable
    build: Callable = lambda spec, p: None
    run: Callable | None = None


def _given(doc: dict, *names) -> dict:
    """The named fields that ``doc`` sets; the library defaults the rest."""
    return {name: doc[name] for name in names if name in doc}


# distribution kind -> the fields it reads besides "kind"; the first kind is the default
INTERVAL_POPULATIONS = {"grid": ("n_points", "band_fraction", "target"),
                        "coin": ("n_points", "band_fraction")}
SQ_DISTRIBUTIONS = {"zipf": ("a",), "uniform": (), "explicit": ("probs",)}


def _distribution_kind(doc: dict, kinds: dict, what: str) -> str:
    """The distribution's kind, the first of ``kinds`` by default; a field that
    kind does not read is a ``SpecError``."""
    kind = doc.get("kind", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecError("distribution.kind", f"unknown {what} kind {kind!r}")
    for name in doc:
        if name != "kind" and name not in kinds[kind]:
            raise SpecError(f"distribution.{name}", f"unknown field for a {kind} {what}")
    return kind


def _is_interval_list(value) -> bool:
    """Whether ``value`` is a list of intervals [a, b] with 0 <= a <= b <= 1."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(x, (list, tuple)) and len(x) == 2 and all(type(v) in (int, float) for v in x)
        and 0 <= x[0] <= x[1] <= 1 for x in value)


def _build_interval_population(doc: dict, k: int) -> iv.IntervalPopulation:
    kind = _distribution_kind(doc, INTERVAL_POPULATIONS, "interval population")
    n_points = doc.get("n_points", 64)
    _check("distribution.n_points", n_points, "int")
    # the verifier holds a (k, n_points) pushforward matrix; k >= 1 caps n_points too
    if k * n_points > MAX_ENTRIES:
        raise SpecError("distribution.n_points", f"k * n_points must be at most {MAX_ENTRIES}")
    band_fraction = doc.get("band_fraction", iv.BAND_FRACTION)
    # wider bands would overlap their neighbours on the grid; zero-width bands are
    # point masses, and the equal-share partition needs an atomless x-marginal
    if type(band_fraction) not in (int, float) or not 0 < band_fraction < 0.5:
        raise SpecError("distribution.band_fraction", "must be a number in (0, 0.5)")
    if kind == "grid":
        target = doc.get("target", [])
        if not _is_interval_list(target):
            raise SpecError("distribution.target",
                            "must be a list of intervals [a, b] with 0 <= a <= b <= 1")
        return iv.IntervalPopulation.grid_realizable(
            n_points, iv.UnionOfIntervals(tuple(tuple(x) for x in target)), band_fraction)
    # coin: every hypothesis has loss exactly 1/2
    centers = (np.arange(n_points) + 0.5) / n_points
    hw = band_fraction / n_points
    return iv.IntervalPopulation(centers, np.full(n_points, 1.0 / n_points),
                                 np.full(n_points, 0.5), halfwidth=hw)


def _build_sq_distribution(doc: dict, N: int):
    kind = _distribution_kind(doc, SQ_DISTRIBUTIONS, "sq distribution")
    if kind == "zipf":
        if "a" in doc:
            _check("distribution.a", doc["a"], "finite")
        return sq.zipf_distribution(N, **_given(doc, "a"))
    if kind == "uniform":
        return DiscreteDistribution.uniform(tuple(range(N)))
    probs = doc.get("probs")  # explicit
    if not (isinstance(probs, (list, tuple)) and len(probs) == N
            and all(type(x) in (int, float) and 0 <= x <= 1 for x in probs)):
        raise SpecError("distribution.probs", f"must list exactly {N} probabilities")
    if abs(float(np.sum(probs)) - 1.0) > 1e-9:
        raise SpecError("distribution.probs", "must sum to 1")
    return DiscreteDistribution.from_probs(tuple(range(N)), probs)


def _intervals(spec: ExperimentSpec, p: dict) -> tuple:
    inv_eps = 1.0 / p["epsilon"]
    # m_p is a multiple of k = 12d/epsilon, so 1/epsilon over the cap puts m_p over it
    if inv_eps > MAX_ENTRIES or abs(inv_eps - round(inv_eps)) > 1e-9:
        raise SpecError("params.epsilon", f"1/epsilon must be an integer <= {MAX_ENTRIES}")
    if spec.adversary not in iv.INTERVAL_PROVERS:
        raise SpecError("adversary", f"unknown interval prover {spec.adversary!r}")
    cfg = iv.IntervalProtocolConfig.default(**p)
    if cfg.m_p > MAX_ENTRIES:
        raise SpecError("params.d", f"m_p = {cfg.m_p} prover points must be <= {MAX_ENTRIES}")
    pop = _build_interval_population(spec.distribution, cfg.k)

    def loss_of(payload):
        """Exact loss of a union of at most d intervals; any other payload is a ValueError."""
        if not (_is_interval_list(payload) and len(payload) <= cfg.d):
            raise ValueError(f"hypothesis must be at most {cfg.d} intervals [a, b] in [0, 1]")
        return pop.loss01(iv.UnionOfIntervals(tuple(tuple(x) for x in payload)))

    return (cfg, lambda: iv.make_protocol1_verifier(pop, cfg),
            lambda: iv.make_interval_prover(spec.adversary, pop, cfg),
            lambda: iv.optimal_class_loss(pop, cfg.d), loss_of)


def _sq_verify(spec: ExperimentSpec, p: dict) -> tuple:
    """The config's partition bound ``s`` is the portfolio's block count."""
    if 2 * p["n"] > p["N"]:
        raise SpecError("params.n", "need 2n <= N")
    s = p["num_blocks"] if "num_blocks" in p else sq.default_blocks(p["N"], p["n"])
    cfg = sq.SqProtocolConfig.default(p["tau"], p["epsilon"], p["delta"], s,
                                      **_given(p, "b", "c_v", "c_p"))
    if cfg.s > p["N"]:
        raise SpecError("params.num_blocks", "must lie in [1, N]")
    if p["N"] * cfg.s > MAX_ENTRIES:
        raise SpecError("params.N", f"N * num_blocks must be at most {MAX_ENTRIES}")
    # the work: T simulations of up to b batches over N elements each
    work = cfg.T * cfg.b * p["N"]
    if work > MAX_ENTRIES:
        raise SpecError("params.epsilon", f"T * b * N = {work} must be at most {MAX_ENTRIES}")
    if spec.adversary not in sq.SQ_PROVERS:
        raise SpecError("adversary", f"unknown sq prover {spec.adversary!r}")
    dist, N, n = _build_sq_distribution(spec.distribution, p["N"]), p["N"], p["n"]

    def loss_of(payload):
        """Exact loss of a selection of n distinct items; any other payload is a ValueError."""
        if not (isinstance(payload, (list, tuple)) and len(payload) == n
                and all(type(i) is int and 0 <= i < N for i in payload) and len(set(payload)) == n):
            raise ValueError(f"selection must be {n} distinct items in [0, {N})")
        return sq.portfolio_population_loss(payload, dist)

    return (cfg, lambda: sq.make_sq_verifier(dist, sq.PortfolioAlgorithm(N, n, cfg.s), cfg,
                                             sq.portfolio_holdout_loss),
            lambda: sq.make_sq_prover(spec.adversary, dist, cfg),
            lambda: sq.portfolio_baseline(dist, N, n, cfg.s), loss_of)


def _sq_gap(spec: ExperimentSpec, p: dict) -> None:
    if any(d * d > MAX_ENTRIES for d in p["ds"]):
        raise SpecError("params.ds", f"d * d must be at most {MAX_ENTRIES}")
    for d in p["ds"]:  # the sweep's configs, whose budgets must be in range
        sq.SqProtocolConfig.default(p["tau"], p["epsilon"], p["delta"], d)
    # the work: T simulations of a d-atom batch for each d
    work = sq.iteration_count(p["epsilon"], p["delta"]) * sum(p["ds"])
    if work > MAX_ENTRIES:
        raise SpecError("params.epsilon", f"T * sum(ds) = {work} must be at most {MAX_ENTRIES}")


def _lowerbound(spec: ExperimentSpec, p: dict) -> None:
    # crossing_point draws (trials, ceil(f sqrt(d))) arrays at its largest
    # factor f; past MAX_ENTRIES**2, sqrt(d) alone is over the cap
    trials, f = p["trials_per_point"], max(lb.SCAN_FACTORS)
    if any(trials * math.ceil(f * math.sqrt(min(d, MAX_ENTRIES**2))) > MAX_ENTRIES
           for d in p["ds"]):
        raise SpecError("params.ds", f"trials_per_point * ceil({f} sqrt(d)) > {MAX_ENTRIES}")


def _table(rows, columns, section: dict | None = None, scalars=()) -> list:
    """CSV rows: header, rows, then a blank line and the named scalars of ``section``."""
    table = [list(columns), *([row[c] for c in columns] for row in rows)]
    if scalars:
        table += [[], *([name, section[name]] for name in scalars)]
    return table


def _rates_csv(report: dict) -> list:
    spec, rates = report["spec"], report["rates"]
    rate_key = next(k for k in rates if k.endswith("_rate"))
    return _table([dict(rates, protocol=spec["protocol"], adversary=spec["adversary"])],
                  ("protocol", "adversary", "trials", rate_key, "ci_low", "ci_high"))


# spec protocol -> params.experiment -> entry; the first is the default. Params
# passed on whole (**p) carry the names of the library's arguments.
PROTOCOLS = {
    "intervals": {None: Experiment("intervals", {
        "d": ("int", REQUIRED), "epsilon": ("unit", REQUIRED), "delta": ("unit", REQUIRED),
        "c_v": ("positive", None), "c_p": ("positive", None)}, _rates_csv, build=_intervals)},
    "sq": {"verify": Experiment("sq-verify", {
        "N": ("int", REQUIRED), "n": ("int", REQUIRED), "num_blocks": ("int", None),
        "b": ("int", None), "tau": ("unit", REQUIRED), "epsilon": ("unit", REQUIRED),
        "delta": ("unit", REQUIRED), "c_v": ("positive", None), "c_p": ("positive", None)},
        _rates_csv, build=_sq_verify), "gap": Experiment("sq-gap", {
        "ds": ("size-list", (4, 16, 64, 256)), "tau": ("unit", 0.05),
        "epsilon": ("unit", 0.1), "delta": ("unit", 0.2)},
        lambda r: _table(r["gap"]["rows"], ("d", "verifier_samples_per_batch",
                                            "simulation_samples", "accepted"),
                         r["gap"], ("verifier_cost_slope", "simulation_cost_slope")),
        build=_sq_gap,
        run=lambda p, seed: {"gap": sq.sq_gap_sweep(**p, seed=seed)})},
    "lowerbound": {None: Experiment("lowerbound", {
        "ds": ("size-list", (64, 256, 1024, 4096)), "trials_per_point": ("int", 3000)},
        lambda r: _table([row for point in r["crossing"]["points"] for row in point["rows"]],
                         ("d", "t", "trials", "success_rate", "collision_rate", "tv_estimate"),
                         r["crossing"], ("crossing_slope",)),
        build=_lowerbound,
        run=lambda p, seed: {"crossing": lb.crossing_experiment(p["ds"], p["trials_per_point"],
                                                                seed)})},
}


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial rate."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute a spec and return its JSON-ready report.

    Deterministic given the spec (including root_seed): the spec is validated
    and built once, and one verifier plays the trials in order, each against a
    fresh prover from its own seed. Wall-clock time lives in a single top-level
    field that comparisons exclude.
    """
    start = time.monotonic()
    experiment, p, built = spec.validate()
    report: dict = {"spec": spec.to_doc(), "root_seed": spec.root_seed}
    if experiment.run:
        report.update(experiment.run(p, spec.root_seed))
    else:
        _, make_verifier, make_prover, baseline, loss_of = built
        verifier, baseline = make_verifier(), baseline()
        record = spec.trials <= 50 if spec.record_transcripts is None else spec.record_transcripts
        results = []
        for index in range(spec.trials):
            seed = int(child_rng(spec.root_seed, 7, index).integers(2**63))
            transcript = run_interaction(verifier, make_prover(), seed)
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
        report.update(trials=results, rates=_aggregate(results, spec))
    report["wall_clock_seconds"] = time.monotonic() - start
    return report


def _aggregate(results: list, spec: ExperimentSpec) -> dict:
    n = len(results)
    counts = dict(Counter(r["classification"] for r in results))
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
    """Flat CSV view of the report's rates or curves, as its experiment kind lays them out."""
    experiment, _ = ExperimentSpec(**report["spec"]).resolve()
    buf = io.StringIO()
    csv.writer(buf).writerows(experiment.csv(report))
    return buf.getvalue()


def write_report(report: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        f.write(report_json(report))
    with open(os.path.join(out_dir, "rates.csv"), "w") as f:
        f.write(rate_table_csv(report))


def replay(report_path: str) -> dict:
    """Re-derive every recorded trial's classification from its transcript.

    Takes the path of a report.json of a kind that plays verified trials
    (intervals or sq-verify) with embedded transcripts; each transcript's
    recorded outcome is reparsed and reclassified under the report's own
    spec, and must match the stored classification.
    """
    report = _read_json(report_path, "report")
    if not isinstance(report, dict) or not isinstance(report.get("trials", []), list):
        raise SpecError("report", "must be a JSON object with a list of trials")
    spec = ExperimentSpec.from_doc(report.get("spec"))
    experiment, p, built = spec.validate()
    if experiment.run:
        raise SpecError("protocol", f"{experiment.name} runs no verified trials")
    *_, baseline, loss_of = built
    baseline = baseline()
    rows = []
    mismatches = 0
    for i, trial in enumerate(report.get("trials", [])):
        if not isinstance(trial, dict) or not isinstance(trial.get("transcript", ""), str):
            raise SpecError(f"trials[{i}]", "must be an object whose transcript is a string")
        if "transcript" not in trial:
            continue
        transcript = Transcript.from_jsonl(trial["transcript"])
        try:  # the outcome line is untrusted: it may be missing or hold any JSON hypothesis
            classification = classify_outcome(transcript, loss_of, baseline,
                                              p["epsilon"], role=spec.role)
        except (ValueError, TypeError, IndexError) as exc:
            raise SpecError(f"trials[{i}]", f"transcript outcome cannot be scored ({exc})") from exc
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
    doc = _read_json(args.spec, "spec") if args.spec else dict(DEFAULT_SPECS[subcommand])
    overrides = {"root_seed": args.seed, "trials": args.trials}
    if isinstance(doc, dict):  # from_doc refuses any other document
        doc.update((name, value) for name, value in overrides.items() if value is not None)
    return ExperimentSpec.from_doc(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pacverify",
        description="Simulate and measure sample-efficient verification protocols.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DEFAULT_SPECS:
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
