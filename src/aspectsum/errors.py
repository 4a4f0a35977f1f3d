"""Exception types shared across the pipeline."""


class AspectsumError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRationale(AspectsumError):
    """Raised when text cannot be parsed as an aspect-triple rationale.

    Signals that the LLM sample should be discarded or re-probed.
    """


class EmptyField(AspectsumError, ValueError):
    """A required prompt input (document, summary, rationale) is empty."""


class EmptyText(AspectsumError, ValueError):
    """Embedding requested for an empty string."""


class TransportError(AspectsumError):
    """An LLM provider call failed at the transport level."""


class InsufficientValidSamples(AspectsumError):
    """Probing could not collect the configured number of parseable samples."""


class EmptyVocabulary(AspectsumError):
    """Vocabulary filtering removed every term."""


class InvalidHyperparameter(AspectsumError, ValueError):
    """A model hyperparameter is outside its valid range."""


class DimensionMismatch(AspectsumError, ValueError):
    """Two vectors or distributions have different lengths."""


class ZeroVector(AspectsumError, ValueError):
    """Cosine similarity requested for an all-zero vector, or one whose norm underflows to 0."""


class NonFiniteVector(AspectsumError, ValueError):
    """Cosine similarity requested for a vector holding NaN or infinity, or whose
    norms overflow."""


class AllCandidatesFailed(AspectsumError):
    """Every candidate in a set failed scoring; no golden rationale can be chosen."""


class MissingRationale(AspectsumError):
    """A manifest builder received a pair without a golden rationale."""


class DecodeFailure(AspectsumError):
    """A trainer adapter could not produce a usable greedy-decode output."""


class ReservedTokenCollision(AspectsumError):
    """Corpus or rationale text contains a reserved task/segment token."""


class SchemaError(AspectsumError):
    """An input record does not match the expected schema."""


class DuplicateId(AspectsumError):
    """Two corpus records share the same document id."""


class MissingPrerequisite(AspectsumError):
    """A pipeline stage was invoked before the stage that produces its input."""

    def __init__(self, artifact: str):
        self.artifact = artifact
        super().__init__(f"missing prerequisite artifact: {artifact}")


class WorkspaceLocked(AspectsumError):
    """Another writer holds the workspace lock."""
