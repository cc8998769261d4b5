"""Spans around the program's public functions, recorded from the benchmark.

The program carries no tracing. While a :class:`Tracer` is installed it
replaces each public function named in ``install`` (in every pacverify
module that binds it, so calls between modules are caught too) by a wrapper
that records one span per call: name, start, end, parent span, operation id.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children; a name's inclusive time counts
only its outermost spans, so nested calls of one function count once.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "harness", "core", "identity_test", "intervals", "sq", "lowerbound")

# every span name the tracer can record, by layer
SPANS = (
    "cli.spec", "cli.run_experiment", "cli.report_json", "cli.write_report", "cli.replay",
    "harness.interaction", "harness.channel", "harness.to_jsonl", "harness.from_jsonl",
    "harness.classify",
    "core.distribution",
    "identity_test.test",
    "intervals.prover", "intervals.prover_sample", "intervals.partition", "intervals.verifier",
    "intervals.verifier_sample", "intervals.map", "intervals.payload", "intervals.erm",
    "intervals.baseline", "intervals.loss",
    "sq.verifier", "sq.iteration", "sq.query_build", "sq.atoms", "sq.prover", "sq.evaluations",
    "sq.holdout", "sq.baseline",
    "lowerbound.crossing", "lowerbound.distinguisher",
)

# counts per operation, with their units
COUNTS = {
    "cli.report_bytes": "bytes",
    "harness.messages": "count",
    "harness.transcript_bytes": "bytes",
    "harness.violations": "count",
    "core.distributions": "count",
    "identity_test.tests": "count",
    "identity_test.rejects": "count",
    "identity_test.samples_used": "count",
    "intervals.prover_points": "count",
    "intervals.verifier_points": "count",
    "sq.iterations": "count",
    "sq.queries_built": "count",
    "sq.atoms_calls": "count",
    "sq.atoms_distinct_ratio": "ratio",
    "sq.atoms_per_batch": "count",
    "sq.verifier_samples": "count",
    "sq.prover_samples": "count",
    "lowerbound.distinguisher_calls": "count",
    "lowerbound.draws": "count",
}

TRACE_METRICS = {
    "trace.op_s": "s",             # median traced operation
    "trace.untraced_op_s": "s",    # median untraced operation, same seeds, same run
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",   # operation time outside every wrapped call
}


def metric_units() -> dict:
    """Every per-layer metric a traced run reports, name -> unit."""
    units = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(COUNTS)
    units.update(TRACE_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent, op, outermost)
        self._stack: list = []  # (span index, name)
        self._op = None
        self._counts: dict = {}
        self._atom_keys: dict = {}
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        outermost = all(n != name for _, n in self._stack)
        self.spans.append([name, time.perf_counter(), None, parent, self._op, outermost])
        self._stack.append((idx, name))
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self._counts[self._op][name] += value

    def operation(self, op_id: int):
        """Context manager: one root span ``op`` around one operation."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer._op = op_id
                tracer._counts[op_id] = defaultdict(float)
                tracer._atom_keys[op_id] = set()
                self.idx = tracer._begin("op")

            def __exit__(self, *exc):
                tracer._end(self.idx)
                tracer._op = None
                return False

        return _Op()

    def _wrap(self, fn, name, after=None, violations=None):
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = tracer._begin(name(tracer, args) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if violations is not None and isinstance(exc, violations):
                        tracer.count("harness.violations")
                    raise
                finally:
                    tracer._end(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _function(self, module, attr, name, after=None):
        """Wrap a module function wherever a pacverify module binds it."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pacverify" or mod_name.startswith("pacverify."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def _method(self, cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, after))
        else:
            wrapped = self._wrap(raw, name, after)
        setattr(cls, attr, wrapped)
        self._patched.append((cls, attr, raw))

    def _verifier_factory(self, module, attr, name, violations, after=None):
        """Wrap a factory so the verifier strategy it returns is traced too."""
        factory = getattr(module, attr)
        tracer = self

        def make(*args, **kwargs):
            verifier = factory(*args, **kwargs)
            if after is not None:
                after(tracer, args, verifier)
            return tracer._wrap(verifier, name, violations=violations)

        setattr(module, attr, make)
        self._patched.append((module, attr, factory))

    def _in_channel(self) -> bool:
        return any(n == "harness.channel" for _, n in self._stack)

    def install(self) -> None:
        from pacverify import cli, core, harness, lowerbound as lb, sq
        from pacverify import identity_test as it
        from pacverify import intervals as iv

        fn, meth = self._function, self._method
        meth(cli.ExperimentSpec, "from_doc", "cli.spec")
        meth(cli.ExperimentSpec, "validate", "cli.spec")
        fn(cli, "run_experiment", "cli.run_experiment")
        fn(cli, "report_json", "cli.report_json",
           lambda t, a, r: t.count("cli.report_bytes", len(r)))
        fn(cli, "write_report", "cli.write_report")
        fn(cli, "replay", "cli.replay")

        fn(harness, "run_interaction", "harness.interaction",
           lambda t, a, r: t.count("harness.messages", len(r.messages)))
        meth(harness.ProverChannel, "initial", "harness.channel")
        meth(harness.ProverChannel, "ask", "harness.channel")
        meth(harness.Transcript, "to_jsonl", "harness.to_jsonl",
             lambda t, a, r: t.count("harness.transcript_bytes", len(r)))
        meth(harness.Transcript, "from_jsonl", "harness.from_jsonl")
        fn(harness, "classify_outcome", "harness.classify")

        meth(core.DiscreteDistribution, "__post_init__", "core.distribution",
             lambda t, a, r: t.count("core.distributions"))

        def tester(t, a, verdict):
            t.count("identity_test.tests")
            t.count("identity_test.rejects", 0 if verdict.accept else 1)
            t.count("identity_test.samples_used", verdict.samples_used)

        fn(it, "test_from_counts", "identity_test.test", tester)

        def sample_name(t, args):
            return "intervals.prover_sample" if t._in_channel() else "intervals.verifier_sample"

        def sample_points(t, args, r):
            side = "prover" if t._in_channel() else "verifier"
            t.count(f"intervals.{side}_points", len(r))

        meth(iv.IntervalPopulation, "sample", sample_name, sample_points)
        meth(iv.HonestIntervalProver, "open", "intervals.prover")
        fn(iv, "honest_prover_partition", "intervals.partition")
        self._verifier_factory(iv, "make_protocol1_verifier", "intervals.verifier",
                               harness.ProtocolViolation)
        fn(iv, "map_to_interval", "intervals.map")
        meth(iv.DiscretizedMessage, "to_payload", "intervals.payload")
        meth(iv.DiscretizedMessage, "from_payload", "intervals.payload")
        fn(iv, "erm_runs", "intervals.erm")
        fn(iv, "optimal_class_loss", "intervals.baseline")
        meth(iv.IntervalPopulation, "loss01", "intervals.loss")

        def verifier_samples(t, args, verifier):
            cfg = args[2]
            draws = cfg.m_v * (cfg.T if cfg.fresh_samples else 1) + cfg.m_v_holdout
            t.count("sq.verifier_samples", draws)

        self._verifier_factory(sq, "make_sq_verifier", "sq.verifier",
                               harness.ProtocolViolation, verifier_samples)
        fn(sq, "verifier_iteration", "sq.iteration", lambda t, a, r: t.count("sq.iterations"))
        meth(sq.Query, "__post_init__", "sq.query_build", lambda t, a, r: t.count("sq.queries_built"))
        meth(sq.QueryBatch, "__post_init__", "sq.query_build")

        def atoms(t, args, ap):
            # the partition determines its batch: matrix = atom_query_values[:, signature]
            key = hashlib.blake2b(ap.signature.tobytes() + ap.atom_query_values.tobytes(),
                                  digest_size=16).digest()
            t._atom_keys[t._op].add(key)
            t.count("sq.atoms_calls")
            t.count("sq.atoms_per_batch", ap.size)

        fn(sq, "atoms_of", "sq.atoms", atoms)
        meth(sq.HonestSqProver, "respond", "sq.prover")
        fn(sq, "induced_evaluations", "sq.evaluations")
        fn(sq, "portfolio_holdout_loss", "sq.holdout")
        fn(sq, "make_sq_prover", None, lambda t, a, r: t.count("sq.prover_samples", a[2].m_p))
        fn(sq, "portfolio_baseline", "sq.baseline")

        def draws(t, args, row):
            t.count("lowerbound.distinguisher_calls")
            t.count("lowerbound.draws", 2 * row["trials"] * row["t"])

        fn(lb, "crossing_experiment", "lowerbound.crossing")
        fn(lb, "distinguisher_success", "lowerbound.distinguisher", draws)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def _per_op(self) -> dict:
        """op id -> {metric: value} for every operation recorded."""
        child = defaultdict(float)
        for name, start, end, parent, op, outermost in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for idx, (name, start, end, parent, op, outermost) in enumerate(self.spans):
            values = out.setdefault(op, defaultdict(float))
            duration = end - start
            own = duration - child[idx]
            if name == "op":
                values["trace.op_s"] += duration
                values["trace.unattributed_s"] += own
                continue
            values[f"{name}_self_s"] += own
            values[f"{name.split('.')[0]}.self_s"] += own
            if outermost:
                values[f"{name}_s"] += duration
        for op, values in out.items():
            counts = self._counts[op]
            values.update(counts)
            calls = counts["sq.atoms_calls"]
            values["sq.atoms_per_batch"] = counts["sq.atoms_per_batch"] / calls if calls else 0.0
            values["sq.atoms_distinct_ratio"] = len(self._atom_keys[op]) / calls if calls else 0.0
        return out

    def metrics(self, untraced_op_s: float) -> dict:
        """Median over traced operations of every per-layer metric."""
        per_op = list(self._per_op().values())
        result = {}
        for name, unit in metric_units().items():
            if name in ("trace.untraced_op_s", "trace.overhead_ratio"):
                continue
            result[name] = statistics.median(v.get(name, 0.0) for v in per_op)
        result["trace.untraced_op_s"] = untraced_op_s
        result["trace.overhead_ratio"] = result["trace.op_s"] / untraced_op_s - 1.0
        return result

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent span index, operation id."""
        with open(path, "w") as f:
            for name, start, end, parent, op, _ in self.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")
