import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacverify.harness import (
    COMPLETENESS_FAILURE,
    COMPLETENESS_SUCCESS,
    SOUNDNESS_SAFE,
    SOUNDNESS_VIOLATION,
    GarbageProver,
    ProtocolViolation,
    ProverChannel,
    SilentProver,
    Transcript,
    TranscriptParseError,
    VerifierOutcome,
    classify_outcome,
    parse_counts,
    parse_numbers,
    run_interaction,
)

class EchoProver:
    def open(self, rng):
        return {"hello": 1}

    def respond(self, payload, rng):
        return {"echo": payload}


def echo_verifier(channel, rng):
    first = channel.initial()
    answer = channel.ask({"q": first["hello"] + 1})
    if answer["echo"]["q"] != 2:
        raise ProtocolViolation("echo mismatch")
    return [1, 2]


class TestRunInteraction:
    def test_transcript_captures_both_sides(self):
        t = run_interaction(echo_verifier, EchoProver(), seed=0)
        assert [m.sender for m in t.messages] == ["prover", "verifier", "prover"]
        assert t.outcome == VerifierOutcome("hypothesis", [1, 2])

    def test_deterministic_given_seed(self):
        a = run_interaction(echo_verifier, EchoProver(), seed=5)
        b = run_interaction(echo_verifier, EchoProver(), seed=5)
        assert a.to_jsonl() == b.to_jsonl()

    def test_silent_prover_rejected(self):
        t = run_interaction(echo_verifier, SilentProver(), seed=0)
        assert t.outcome.kind == "reject"

    def test_crashing_prover_rejected(self):
        class Crasher:
            def open(self, rng):
                raise RuntimeError("boom")

        t = run_interaction(echo_verifier, Crasher(), seed=0)
        assert t.outcome.kind == "reject"

    def test_unserializable_payload_rejected(self):
        class Weird:
            def open(self, rng):
                return {"arr": object()}

        t = run_interaction(echo_verifier, Weird(), seed=0)
        assert t.outcome.kind == "reject"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_json_number_in_payload_rejected_unlogged(self, value):
        class NonFinite:
            def open(self, rng):
                return {"boundaries": [0, value, 1]}

        def verifier(channel, rng):
            channel.initial()
            return [0]

        t = run_interaction(verifier, NonFinite(), seed=0)
        assert t.outcome.kind == "reject"
        assert t.messages == []  # so no transcript line holds a NaN or Infinity token

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=10))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_json_payloads_never_crash_the_run(self, payload):
        class Fuzzer:
            def open(self, rng):
                return payload

            def respond(self, p, rng):
                return payload

        def verifier(channel, rng):
            msg = channel.initial()
            if not isinstance(msg, dict) or "hello" not in msg:
                raise ProtocolViolation("no greeting")
            return [0]

        t = run_interaction(verifier, Fuzzer(), seed=0)
        assert t.outcome.kind in ("reject", "hypothesis")

    def test_garbage_prover_rejected_by_strict_verifier(self):
        def verifier(channel, rng):
            msg = channel.initial()
            if not isinstance(msg.get("boundaries"), list):
                raise ProtocolViolation("bad boundaries")
            return [0]

        t = run_interaction(verifier, GarbageProver(), seed=0)
        assert t.outcome.kind == "reject"

    def test_refusal_after_an_exchange_keeps_the_messages(self):
        def verifier(channel, rng):
            channel.ask({"q": 1})
            raise ProtocolViolation("claim refused")

        t = run_interaction(verifier, EchoProver(), seed=0)
        assert [(m.sender, m.payload) for m in t.messages] == [
            ("verifier", {"q": 1}), ("prover", {"echo": {"q": 1}})]
        assert t.outcome == VerifierOutcome("reject")


    @pytest.mark.parametrize("speak,message", [
        (lambda rng: None, "prover sent no message"),
        (lambda rng: 1 / 0, "prover crashed: division by zero"),
        (lambda rng: {"arr": object()}, "unserializable prover payload"),
    ], ids=["silent", "crash", "unserializable"])
    def test_channel_refusal_names_the_defect(self, speak, message):
        class Prover:
            def open(self, rng):
                return speak(rng)

        with pytest.raises(ProtocolViolation, match=message):
            ProverChannel(Prover(), np.random.default_rng(0), []).initial()


class TestTranscriptSerialization:
    def test_round_trip_byte_identical(self):
        t = run_interaction(echo_verifier, EchoProver(), seed=1)
        text = t.to_jsonl()
        back = Transcript.from_jsonl(text)
        assert back.to_jsonl() == text

    def test_outcome_line_is_last(self):
        t = run_interaction(echo_verifier, EchoProver(), seed=1)
        last = json.loads(t.to_jsonl().splitlines()[-1])
        assert last["outcome"] == "hypothesis"

    def test_corrupt_line_reports_position(self):
        t = run_interaction(echo_verifier, EchoProver(), seed=1)
        lines = t.to_jsonl().splitlines()
        lines[1] = "{not json"
        with pytest.raises(TranscriptParseError) as err:
            Transcript.from_jsonl("\n".join(lines))
        assert err.value.lineno == 2

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        "5",
        '{"outcome": "hypothesis"}',
        '{"outcome": "bogus", "hypothesis": [1]}',
    ], ids=["list", "number", "hypothesis-missing", "unknown-outcome"])
    def test_malformed_line_reports_position(self, line):
        t = run_interaction(echo_verifier, EchoProver(), seed=1)
        lines = t.to_jsonl().splitlines()
        lines[1] = line
        with pytest.raises(TranscriptParseError) as err:
            Transcript.from_jsonl("\n".join(lines))
        assert err.value.lineno == 2


class TestClassification:
    def loss_of(self, payload):
        return float(payload)

    def transcript(self, outcome):
        t = Transcript()
        t.outcome = outcome
        return t

    def test_honest_accept_within_epsilon(self):
        t = self.transcript(VerifierOutcome("hypothesis", 0.55))
        assert classify_outcome(t, self.loss_of, 0.5, 0.1) == COMPLETENESS_SUCCESS

    def test_honest_accept_beyond_epsilon(self):
        t = self.transcript(VerifierOutcome("hypothesis", 0.65))
        assert classify_outcome(t, self.loss_of, 0.5, 0.1) == COMPLETENESS_FAILURE

    def test_honest_reject_is_failure(self):
        t = self.transcript(VerifierOutcome("reject"))
        assert classify_outcome(t, self.loss_of, 0.5, 0.1) == COMPLETENESS_FAILURE

    def test_adversarial_reject_is_safe(self):
        t = self.transcript(VerifierOutcome("reject"))
        assert classify_outcome(t, self.loss_of, 0.5, 0.1, role="adversarial") == SOUNDNESS_SAFE

    def test_adversarial_bad_accept_is_violation(self):
        t = self.transcript(VerifierOutcome("hypothesis", 0.65))
        assert classify_outcome(t, self.loss_of, 0.5, 0.1, role="adversarial") == SOUNDNESS_VIOLATION

    def test_classification_is_pure(self):
        t = self.transcript(VerifierOutcome("hypothesis", 0.55))
        for _ in range(3):
            assert classify_outcome(t, self.loss_of, 0.5, 0.1) == COMPLETENESS_SUCCESS


class TestParseCounts:
    def test_accepts_exact_counts(self):
        counts = parse_counts({"counts": [[3, 1.0], [0, 4]], "denominator": 8}, (2, 2), 8)
        assert counts.dtype == np.int64
        assert counts.tolist() == [[3, 1], [0, 4]]

    @pytest.mark.parametrize("value,denominator", [
        ([2**70, 0], 2**70),                 # beyond int64
        ([True, 1], 2),                      # bool
        ([float("nan"), 1], 1),
        ([float("inf"), 1], 1),
        ([0.5, 0.5], 1),                     # non-integral
        ([[1], [1, 2]], 4),                  # ragged
        ([[1, 1]], 2),                       # wrong shape
        (["1", 1], 2),                       # not a number
        ([-1, 3], 2),                        # negative
        ([1, 1], 3),                         # wrong total
        ([1, 1], 2.0),                       # denominator not an int
        ([1, 1], float("inf")),
        ([1, 1], True),
        ([0, 0], 0),                         # empty total
    ])
    def test_rejects_malformed_tables(self, value, denominator):
        # agreed on the total the claim names where that is a positive int, else on 2
        m = denominator if type(denominator) is int and denominator > 0 else 2
        with pytest.raises(ProtocolViolation):
            parse_counts({"counts": value, "denominator": denominator}, (2,), m)

    @pytest.mark.parametrize("payload", [
        {"counts": [1, 0], "denominator": 2},      # sums to its own total, not the agreed one
        {"counts": [1, 1], "denominator": 2},
        {"counts": [1, 0], "denominator": 1.0},
        {"counts": [1, 0], "denominator": True},
        {"counts": [1, 0]},
        [1, 0],
        None,
    ], ids=["other-total", "other-total-counts", "float", "bool", "missing", "list", "null"])
    def test_denominator_must_be_the_agreed_int(self, payload):
        with pytest.raises(ProtocolViolation):
            parse_counts(payload, (2,), 1)


    @pytest.mark.parametrize("payload,message", [
        ([1, 1], "claim must be a JSON object"),
        ({"counts": [1, 1], "denominator": 3}, "denominator must be the agreed sample size"),
        ({"counts": ["1", 1], "denominator": 2}, r"expected a \(2,\) table of numbers"),
        ({"counts": [10**400, 1], "denominator": 2}, "malformed numbers"),
        ({"counts": [float("nan"), 1], "denominator": 2}, "numbers must be finite"),
        ({"counts": [0.5, 1.5], "denominator": 2}, "counts must be integers"),
        ({"counts": [-1, 3], "denominator": 2}, "counts must be nonnegative and sum"),
    ], ids=["not-object", "denominator", "not-numbers", "huge", "nan", "fraction", "negative"])
    def test_refusal_names_the_gate(self, payload, message):
        with pytest.raises(ProtocolViolation, match=message):
            parse_counts(payload, (2,), 2)


class TestParseNumbers:
    def test_accepts_finite_ints_and_floats(self):
        numbers = parse_numbers([0, 0.25, 1], (3,))
        assert numbers.dtype == np.float64
        assert numbers.tolist() == [0.0, 0.25, 1.0]

    @pytest.mark.parametrize("value", [
        ["0", 0.5, "1"], [False, 0.5, True], [0, None, 1], [0, 1], [0, 0.5, 1, 1],
        [[0], [0.5, 1], [1]], [0, float("nan"), 1], [0, float("inf"), 1], [0, 10**400, 1],
        "zzzz", None,
    ], ids=["strings", "bools", "none", "short", "long", "ragged", "nan", "inf", "huge-int",
            "string", "null"])
    def test_rejects_anything_but_finite_numbers_of_the_shape(self, value):
        with pytest.raises(ProtocolViolation):
            parse_numbers(value, (3,))
