"""Mutated claims driven through the real verifiers: reject or output, never
raise. A protocol config either refuses its parameters or runs."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacverify import intervals as iv
from pacverify import sq
from pacverify.core import child_rng
from pacverify.harness import run_interaction

IV_CFG = iv.IntervalProtocolConfig.default(1, 0.5, 0.5)
IV_POP = iv.IntervalPopulation.grid_realizable(8, iv.UnionOfIntervals(((0.25, 0.5),)))
IV_PAYLOAD = iv.HonestIntervalProver(IV_POP, IV_CFG).open(child_rng(0))
# the same bands at half-width 1e-3, close to point masses
IV_NARROW_POP = iv.IntervalPopulation(IV_POP.centers, IV_POP.masses, IV_POP.label1,
                                      halfwidth=1e-3)

SQ_DIST = sq.zipf_distribution(8)
SQ_CFG = sq.SqProtocolConfig.default(tau=0.2, epsilon=0.5, delta=0.5, s=4)
SQ_ATOMS = sq.atoms_of(sq.PortfolioAlgorithm(8, 2, num_blocks=4).batch).signature
SQ_REPLY = sq.HonestSqProver(SQ_DIST, SQ_CFG).respond(
    {"atoms": SQ_ATOMS.tolist()}, child_rng(0))

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from([2**63, 2**70, -2**64, 10**400, float("inf"), float("nan")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)


def mutate(payload, data):
    """One defect in an honest payload: a dropped key, a replaced field, a
    replaced or extra element of a list field, or a replaced payload."""
    doc = copy.deepcopy(payload)
    key = data.draw(st.sampled_from(sorted(doc)))
    how = data.draw(st.sampled_from(["drop", "field", "element", "append", "payload"]))
    value = data.draw(JUNK)
    if how == "payload":
        return value
    if how == "drop":
        del doc[key]
    elif how == "field" or not isinstance(doc[key], list) or not doc[key]:
        doc[key] = value
    elif how == "append":
        doc[key].append(value)
    else:
        seq = doc[key]
        i = data.draw(st.integers(0, len(seq) - 1))
        if isinstance(seq[i], list):
            seq = seq[i]
            i = data.draw(st.integers(0, len(seq) - 1))
        seq[i] = value
    return doc


class FixedProver:
    def __init__(self, payload):
        self.payload = payload

    def open(self, rng):
        return self.payload

    def respond(self, payload, rng):
        return self.payload


def outcome(verifier, payload):
    return run_interaction(verifier, FixedProver(payload), seed=1).outcome.kind


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_intervals_verifier_never_raises(data):
    verifier = iv.make_protocol1_verifier(IV_POP, IV_CFG)
    assert outcome(verifier, mutate(IV_PAYLOAD, data)) in ("reject", "hypothesis")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sq_verifier_never_raises(data):
    alg = sq.PortfolioAlgorithm(8, 2, num_blocks=4)
    verifier = sq.make_sq_verifier(SQ_DIST, alg, SQ_CFG, sq.portfolio_holdout_loss)
    assert outcome(verifier, mutate(SQ_REPLY, data)) in ("reject", "hypothesis")


def nested(depth):
    """A list nested ``depth`` lists deep, built without recursion."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize("protocol", ["intervals", "sq"])
def test_payload_nested_past_the_recursion_limit_rejects(protocol):
    if protocol == "intervals":
        verifier, honest = iv.make_protocol1_verifier(IV_POP, IV_CFG), IV_PAYLOAD
    else:
        alg = sq.PortfolioAlgorithm(8, 2, num_blocks=4)
        verifier = sq.make_sq_verifier(SQ_DIST, alg, SQ_CFG, sq.portfolio_holdout_loss)
        honest = SQ_REPLY
    deep = nested(5000)
    assert outcome(verifier, deep) == "reject"
    assert outcome(verifier, dict(honest, counts=deep)) == "reject"


def adversarial_boundaries(data):
    """k + 1 sorted boundaries from 0 to 1 chosen to stress the pushforward:
    any floats, runs of duplicates, consecutive floats (subnormal spacing
    near 0, one ulp apart elsewhere, also on a band center), or every
    population point inside one interval."""
    n = IV_CFG.k - 1
    kind = data.draw(st.sampled_from(["floats", "duplicates", "consecutive", "one-interval"]))
    if kind == "floats":
        inner = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    elif kind == "duplicates":
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
        inner = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    elif kind == "consecutive":
        starts = st.sampled_from([0.0, 1.0 - n * 2**-53, *IV_POP.centers]) | st.floats(0.0, 1.0)
        x = data.draw(starts)
        inner = [x]
        for _ in range(n - 1):
            inner.append(min(float(np.nextafter(inner[-1], 2.0)), 1.0))
    else:
        j = data.draw(st.integers(0, n))
        inner = [0.0] * j + [1.0] * (n - j)
    return [0.0, *sorted(inner), 1.0]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_intervals_verifier_adversarial_boundaries(data):
    """Claims of valid shape that pass the equal-share gate, so untrusted
    boundaries reach the verifier's multinomial draw."""
    pop = data.draw(st.sampled_from([IV_POP, IV_NARROW_POP]))
    zeros = data.draw(st.lists(st.integers(0, IV_CFG.chunk), min_size=IV_CFG.k, max_size=IV_CFG.k))
    payload = {"boundaries": adversarial_boundaries(data),
               "counts": [[c, IV_CFG.chunk - c] for c in zeros],
               "denominator": IV_CFG.m_p}
    verifier = iv.make_protocol1_verifier(pop, IV_CFG)
    assert outcome(verifier, payload) in ("reject", "hypothesis")


def unit(inside):
    """A unit parameter: from ``inside`` two draws in three, in range and small
    enough that T and every budget stay small; otherwise outside (0, 1) on
    either side, NaN and the infinities too."""
    outside = st.floats(allow_nan=True).filter(lambda v: not 0.0 < v < 1.0)
    return st.sampled_from([True, True, False]).flatmap(lambda ok: inside if ok else outside)


def builds_then_runs(build, run, unit_params):
    """A config out of the unit range on any parameter is refused; one in range
    either refuses its parameters or runs an honest interaction to an outcome."""
    if not all(0.0 < v < 1.0 for v in unit_params):
        with pytest.raises(ValueError):
            build()
        return
    try:
        cfg = build()
    except (ValueError, OverflowError):
        return
    assert run(cfg) in ("reject", "hypothesis")


@given(tau=unit(st.floats(0.05, 0.95)), epsilon=unit(st.floats(0.3, 0.95)),
       delta=unit(st.floats(0.05, 0.95)),
       s=st.sampled_from([1, 2, 4]))
@settings(max_examples=100, deadline=None)
def test_sq_config_that_builds_runs(tau, epsilon, delta, s):
    def run(cfg):
        verifier = sq.make_sq_verifier(SQ_DIST, sq.PortfolioAlgorithm(8, 2, num_blocks=s), cfg,
                                       sq.portfolio_holdout_loss)
        return run_interaction(verifier, sq.HonestSqProver(SQ_DIST, cfg), seed=1).outcome.kind

    builds_then_runs(lambda: sq.SqProtocolConfig.default(tau, epsilon, delta, s), run,
                     (tau, epsilon, delta))


@given(epsilon=unit(st.sampled_from([1 / 2, 1 / 3, 1 / 4]) | st.floats(0.25, 0.95)),
       delta=unit(st.floats(0.05, 0.95)))
@settings(max_examples=100, deadline=None)
def test_intervals_config_that_builds_runs(epsilon, delta):
    def run(cfg):
        verifier = iv.make_protocol1_verifier(IV_POP, cfg)
        prover = iv.make_interval_prover("honest", IV_POP, cfg)
        return run_interaction(verifier, prover, seed=1).outcome.kind

    builds_then_runs(lambda: iv.IntervalProtocolConfig.default(1, epsilon, delta), run,
                     (epsilon, delta))
