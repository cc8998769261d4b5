"""Interactive-proof execution: message passing, transcripts, outcome scoring.

A verifier strategy is a callable ``verifier(channel, rng)`` that returns its
hypothesis, or raises ProtocolViolation, naming the gate, to reject;
``run_interaction`` alone turns either into a :class:`VerifierOutcome`. A
prover strategy implements the messages its verifier asks for: ``open(rng)``
answers ``channel.initial()`` and ``respond(payload, rng)`` answers
``channel.ask(payload)``. Epsilon, delta and the budgets are common input,
held by the protocol config that both strategies are built with. All
payloads must be JSON-serializable so transcripts can be written to and
replayed from JSON-lines logs. A prover's claim is read once, by
``parse_counts`` (and ``parse_numbers`` for any other numbers) against that
common input; any defect is a ProtocolViolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import child_rng


class ProtocolViolation(Exception):
    """A malformed, missing or excess prover message, or a claim or a bound
    that the verifier refuses; the verifier rejects."""


def parse_numbers(value, shape: tuple) -> np.ndarray:
    """Parse an untrusted (nested) list of exactly ``shape`` from a prover's
    payload. Its entries must be finite ints or floats; anything else (bools,
    strings, None, ragged lists, ints beyond the float range) raises
    ProtocolViolation. Returns float64."""
    try:
        table = np.asarray(value, dtype=object)
        if table.shape != shape or not set(map(type, table.flat)) <= {int, float}:
            raise ProtocolViolation(f"expected a {shape} table of numbers")
        numbers = table.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolViolation(f"malformed numbers: {exc}") from exc
    if not np.isfinite(numbers).all():
        raise ProtocolViolation("numbers must be finite")
    return numbers


def parse_counts(payload, shape: tuple, m: int) -> np.ndarray:
    """Parse an untrusted count claim over the agreed sample size ``m``, the
    config's prover budget: common input, so trusted.

    ``payload`` must be a JSON object whose ``"denominator"`` is the int ``m``
    and whose ``"counts"`` pass ``parse_numbers`` and are nonnegative integers
    within int64 (integral floats are accepted) summing exactly to ``m``;
    anything else raises ProtocolViolation. Returns the counts as int64.
    Needs ``m < 2**53``, which both configs' budgets keep: every count
    float64 would round is then above ``m``, so the sum check refuses it.
    """
    if not isinstance(payload, dict):
        raise ProtocolViolation("claim must be a JSON object")
    denominator = payload.get("denominator")
    if type(denominator) is not int or denominator != m:
        raise ProtocolViolation("denominator must be the agreed sample size")
    numbers = parse_numbers(payload.get("counts"), shape)
    if np.any(numbers != np.floor(numbers)) or np.any(np.abs(numbers) >= 2.0**63):
        raise ProtocolViolation("counts must be integers within the int64 range")
    counts = numbers.astype(np.int64)
    if np.any(counts < 0) or counts.sum(dtype=object) != m:
        raise ProtocolViolation("counts must be nonnegative and sum to the agreed sample size")
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
    receive independent child generators derived from the seed. A
    ProtocolViolation, whichever gate raises it, ends the run in reject.
    """
    transcript = Transcript()
    channel = ProverChannel(prover, child_rng(seed, 1), transcript.messages)
    try:
        transcript.outcome = VerifierOutcome("hypothesis", verifier(channel, child_rng(seed, 0)))
    except ProtocolViolation:
        transcript.outcome = VerifierOutcome("reject")
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
