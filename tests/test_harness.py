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
    SilentProver,
    Transcript,
    TranscriptParseError,
    VerificationParams,
    VerifierOutcome,
    classify_outcome,
    parse_counts,
    run_interaction,
)

PARAMS = VerificationParams(0.1, 0.2)


class EchoProver:
    def open(self, params, rng):
        return {"hello": 1}

    def respond(self, payload, params, rng):
        return {"echo": payload}


def echo_verifier(channel, params, rng):
    first = channel.initial()
    answer = channel.ask({"q": first["hello"] + 1})
    if answer["echo"]["q"] != 2:
        return VerifierOutcome.reject()
    return VerifierOutcome.of([1, 2])


class TestRunInteraction:
    def test_transcript_captures_both_sides(self):
        t = run_interaction(echo_verifier, EchoProver(), PARAMS, seed=0)
        assert [m.sender for m in t.messages] == ["prover", "verifier", "prover"]
        assert t.outcome == VerifierOutcome.of([1, 2])

    def test_deterministic_given_seed(self):
        a = run_interaction(echo_verifier, EchoProver(), PARAMS, seed=5)
        b = run_interaction(echo_verifier, EchoProver(), PARAMS, seed=5)
        assert a.to_jsonl() == b.to_jsonl()

    def test_silent_prover_rejected(self):
        t = run_interaction(echo_verifier, SilentProver(), PARAMS, seed=0)
        assert t.outcome.kind == "reject"

    def test_crashing_prover_rejected(self):
        class Crasher:
            def open(self, params, rng):
                raise RuntimeError("boom")

        t = run_interaction(echo_verifier, Crasher(), PARAMS, seed=0)
        assert t.outcome.kind == "reject"

    def test_unserializable_payload_rejected(self):
        class Weird:
            def open(self, params, rng):
                return {"arr": object()}

        t = run_interaction(echo_verifier, Weird(), PARAMS, seed=0)
        assert t.outcome.kind == "reject"

    def test_message_bound_enforced(self):
        class Chatter:
            def open(self, params, rng):
                return {"hello": 1}

            def respond(self, payload, params, rng):
                return {"echo": payload}

        def needy_verifier(channel, params, rng):
            channel.initial()
            for i in range(100):
                channel.ask({"q": 2})
            return VerifierOutcome.of([])

        t = run_interaction(needy_verifier, Chatter(), PARAMS, seed=0, max_messages=10)
        assert t.outcome.kind == "reject"

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=10))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_json_payloads_never_crash_the_run(self, payload):
        class Fuzzer:
            def open(self, params, rng):
                return payload

            def respond(self, p, params, rng):
                return payload

        def verifier(channel, params, rng):
            msg = channel.initial()
            if not isinstance(msg, dict) or "hello" not in msg:
                return VerifierOutcome.reject()
            return VerifierOutcome.of([0])

        t = run_interaction(verifier, Fuzzer(), PARAMS, seed=0)
        assert t.outcome.kind in ("reject", "hypothesis")

    def test_garbage_prover_rejected_by_strict_verifier(self):
        def verifier(channel, params, rng):
            msg = channel.initial()
            if not isinstance(msg.get("boundaries"), list):
                raise ProtocolViolation("bad boundaries")
            return VerifierOutcome.of([0])

        t = run_interaction(verifier, GarbageProver(), PARAMS, seed=0)
        assert t.outcome.kind == "reject"


class TestTranscriptSerialization:
    def test_round_trip_byte_identical(self):
        t = run_interaction(echo_verifier, EchoProver(), PARAMS, seed=1)
        text = t.to_jsonl()
        back = Transcript.from_jsonl(text)
        assert back.to_jsonl() == text

    def test_outcome_line_is_last(self):
        t = run_interaction(echo_verifier, EchoProver(), PARAMS, seed=1)
        last = json.loads(t.to_jsonl().splitlines()[-1])
        assert last["outcome"] == "hypothesis"

    def test_corrupt_line_reports_position(self):
        t = run_interaction(echo_verifier, EchoProver(), PARAMS, seed=1)
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
        t = run_interaction(echo_verifier, EchoProver(), PARAMS, seed=1)
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
        t = self.transcript(VerifierOutcome.of(0.55))
        assert classify_outcome(t, self.loss_of, 0.5, 0.1) == COMPLETENESS_SUCCESS

    def test_honest_accept_beyond_epsilon(self):
        t = self.transcript(VerifierOutcome.of(0.65))
        assert classify_outcome(t, self.loss_of, 0.5, 0.1) == COMPLETENESS_FAILURE

    def test_honest_reject_is_failure(self):
        t = self.transcript(VerifierOutcome.reject())
        assert classify_outcome(t, self.loss_of, 0.5, 0.1) == COMPLETENESS_FAILURE

    def test_adversarial_reject_is_safe(self):
        t = self.transcript(VerifierOutcome.reject())
        assert classify_outcome(t, self.loss_of, 0.5, 0.1, role="adversarial") == SOUNDNESS_SAFE

    def test_adversarial_bad_accept_is_violation(self):
        t = self.transcript(VerifierOutcome.of(0.65))
        assert classify_outcome(t, self.loss_of, 0.5, 0.1, role="adversarial") == SOUNDNESS_VIOLATION

    def test_classification_is_pure(self):
        t = self.transcript(VerifierOutcome.of(0.55))
        for _ in range(3):
            assert classify_outcome(t, self.loss_of, 0.5, 0.1) == COMPLETENESS_SUCCESS


class TestParseCounts:
    def test_accepts_exact_counts(self):
        counts = parse_counts([[3, 1.0], [0, 4]], (2, 2), 8)
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
        with pytest.raises(ProtocolViolation):
            parse_counts(value, (2,), denominator)
