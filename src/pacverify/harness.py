"""Interactive-proof execution: message passing, transcripts, outcome scoring.

A verifier strategy is a callable ``verifier(channel, rng)`` that returns a
:class:`VerifierOutcome`. A prover strategy implements the messages its
verifier asks for: ``open(rng)`` answers ``channel.initial()`` and
``respond(payload, rng)`` answers ``channel.ask(payload)``. Epsilon, delta
and the budgets are common input, held by the protocol config that both
strategies are built with. All payloads must be JSON-serializable so
transcripts can be written to and replayed from JSON-lines logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import child_rng


class ProtocolViolation(Exception):
    """A malformed, missing, or excess prover message; the verifier rejects."""


def parse_counts(value, shape: tuple, denominator) -> np.ndarray:
    """Parse an untrusted table of exact counts from a prover's JSON payload.

    ``value`` must be a (nested) list of the given shape whose entries are
    nonnegative integers (integral floats are accepted) summing exactly to
    ``denominator``, which must itself be a positive int. Any other input,
    including bools, NaN or infinity, values beyond int64 and ragged lists,
    raises ProtocolViolation. Returns the counts as int64.
    """
    if type(denominator) is not int or denominator < 1:
        raise ProtocolViolation("denominator must be a positive integer")
    try:
        table = np.asarray(value, dtype=object)
        if table.shape != shape or not set(map(type, table.flat)) <= {int, float}:
            raise ProtocolViolation(f"counts must form a {shape} table of numbers")
        floats = table.astype(float)
        if (not np.isfinite(floats).all() or np.any(floats != np.floor(floats))
                or np.any(np.abs(floats) >= 2.0**63)):
            raise ProtocolViolation("counts must be integers within the int64 range")
        counts = table.astype(np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolViolation(f"malformed counts: {exc}") from exc
    if np.any(counts < 0) or counts.sum(dtype=object) != denominator:
        raise ProtocolViolation("counts must be nonnegative and sum to the denominator")
    return counts


@dataclass(frozen=True)
class VerifierOutcome:
    kind: str  # "reject" | "hypothesis"
    hypothesis: object = None

    def __post_init__(self):
        if self.kind not in ("reject", "hypothesis"):
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if (self.kind == "hypothesis") != (self.hypothesis is not None):
            raise ValueError("hypothesis present iff kind == 'hypothesis'")

    @classmethod
    def reject(cls) -> "VerifierOutcome":
        return cls("reject")

    @classmethod
    def of(cls, hypothesis) -> "VerifierOutcome":
        return cls("hypothesis", hypothesis)


@dataclass(frozen=True)
class Message:
    sender: str  # "verifier" | "prover"
    round: int
    payload: object


@dataclass
class Transcript:
    messages: list = field(default_factory=list)
    outcome: VerifierOutcome | None = None

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"sender": m.sender, "round": m.round, "payload": m.payload}, sort_keys=True)
            for m in self.messages
        ]
        if self.outcome is not None:
            doc = {"outcome": self.outcome.kind}
            if self.outcome.hypothesis is not None:
                doc["hypothesis"] = self.outcome.hypothesis
            lines.append(json.dumps(doc, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        transcript = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError("line is not a JSON object")
                if "outcome" in doc:
                    transcript.outcome = VerifierOutcome(doc["outcome"], doc.get("hypothesis"))
                else:
                    transcript.messages.append(Message(doc["sender"], doc["round"], doc["payload"]))
            except KeyError as exc:
                raise TranscriptParseError(lineno, f"missing field {exc}") from exc
            except (ValueError, RecursionError) as exc:
                raise TranscriptParseError(lineno, str(exc)) from exc
        return transcript


class TranscriptParseError(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


class ProverChannel:
    """The verifier's view of the prover, with transcript capture.

    The prover sends one message per solicitation, ``initial`` or ``ask``.
    A prover that fails to answer, sends a payload that is not JSON, or raises
    commits a protocol violation, and the interaction ends in reject. The
    prover speaks only when asked, so the verifier's own loops bound the
    message count.
    """

    def __init__(self, prover, rng: np.random.Generator, messages: list):
        self._prover = prover
        self._rng = rng
        self._messages = messages
        self._round = 0

    def _log(self, sender: str, payload) -> None:
        self._messages.append(Message(sender, self._round, payload))
        self._round += 1

    def _hear(self, speak, *args):
        """The prover's checked and logged message from ``speak(*args, rng)``."""
        try:
            payload = speak(*args, self._rng)
        except ProtocolViolation:
            raise
        except Exception as exc:
            raise ProtocolViolation(f"prover crashed: {exc}") from exc
        if payload is None:
            raise ProtocolViolation("prover sent no message")
        try:  # strict JSON: NaN and infinity are not JSON numbers
            json.dumps(payload, allow_nan=False)
        except (TypeError, ValueError, RecursionError) as exc:
            raise ProtocolViolation(f"unserializable prover payload: {exc}") from exc
        self._log("prover", payload)
        return payload

    def initial(self):
        """Receive the prover's unprompted opening message."""
        return self._hear(self._prover.open)

    def ask(self, payload):
        """Send a verifier message and receive the prover's answer."""
        self._log("verifier", payload)
        return self._hear(self._prover.respond, payload)


def run_interaction(verifier, prover, seed: int) -> Transcript:
    """Execute one verifier-prover interaction and capture its transcript.

    Deterministic given (strategies, seed): the verifier and prover
    receive independent child generators derived from the seed. Any protocol
    violation by the prover yields a reject outcome rather than an exception.
    """
    transcript = Transcript()
    channel = ProverChannel(prover, child_rng(seed, 1), transcript.messages)
    try:
        outcome = verifier(channel, child_rng(seed, 0))
    except ProtocolViolation:
        outcome = VerifierOutcome.reject()
    transcript.outcome = outcome
    return transcript


COMPLETENESS_SUCCESS = "completeness-success"
COMPLETENESS_FAILURE = "completeness-failure"
SOUNDNESS_SAFE = "soundness-safe"
SOUNDNESS_VIOLATION = "soundness-violation"


def classify_outcome(transcript: Transcript, loss_of_hypothesis, baseline: float,
                     epsilon: float, role: str = "honest") -> str:
    """Score a finished interaction against the verification guarantee.

    Honest runs succeed iff the verifier accepted and the output's population
    loss is within epsilon of the baseline. Adversarial runs violate
    soundness iff the verifier accepted an output worse than baseline +
    epsilon; a reject is always safe. ``loss_of_hypothesis`` maps the
    outcome's hypothesis payload to its exact population loss.
    """
    if role not in ("honest", "adversarial"):
        raise ValueError("role must be 'honest' or 'adversarial'")
    outcome = transcript.outcome
    if outcome is None:
        raise ValueError("transcript has no outcome")
    if outcome.kind == "reject":
        return COMPLETENESS_FAILURE if role == "honest" else SOUNDNESS_SAFE
    within = loss_of_hypothesis(outcome.hypothesis) <= baseline + epsilon
    if role == "honest":
        return COMPLETENESS_SUCCESS if within else COMPLETENESS_FAILURE
    return SOUNDNESS_SAFE if within else SOUNDNESS_VIOLATION


class GarbageProver:
    """Sends syntactically valid JSON that no protocol can make sense of."""

    def open(self, rng):
        return {"boundaries": "zzzz", "noise": 42}

    def respond(self, payload, rng):
        return {"noise": 43}


class SilentProver:
    """Never answers; every solicitation is a protocol violation."""

    def open(self, rng):
        return None

    def respond(self, payload, rng):
        return None
