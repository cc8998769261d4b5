"""Sample-efficient verification of statistical algorithms, as a simulator.

Subpackages cover the shared primitives (core), the tolerant identity tester
(identity_test), the interaction harness (harness), the union-of-intervals
protocol (intervals), the statistical-query protocol (sq), the square-root
lower-bound experiments (lowerbound), and the experiment CLI (cli).
"""

from .core import DiscreteDistribution, child_rng
from .harness import (
    ProtocolViolation,
    Transcript,
    VerifierOutcome,
    classify_outcome,
    run_interaction,
)
from .identity_test import required_samples

__all__ = [
    "DiscreteDistribution",
    "ProtocolViolation",
    "Transcript",
    "VerifierOutcome",
    "child_rng",
    "classify_outcome",
    "required_samples",
    "run_interaction",
]

__version__ = "0.1.0"
