"""Pipeline configuration, dataset profiles, and config digests."""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from pathlib import Path

from .curriculum import check_loss_weights
from .probe import ProbeConfig
from .selection import SelectionConfig
from .textutil import stable_digest
from .topics import VocabularyConfig, _validate_hyperparameters
from .workspace import read_json_object


@dataclass(frozen=True)
class PipelineConfig:
    profile: str
    n_samples: int
    lda_k: int
    lda_alpha: float | None = None  # None means 50/k
    lda_beta: float = 0.01
    lda_iterations: int = 500
    fold_in_iterations: int = 50
    min_df: int = 1
    stopwords: str = "english"
    phi_alpha: float = 0.6
    phi_beta: float = 1.3
    lambda_cs: float = 1.5
    lambda_rationale: float = 0.8
    lambda_summary: float = 1.2
    max_doc_tokens: int = 1024
    max_summary_tokens: int = 256
    max_retries: int = 2
    seed: int = 0
    jobs: int = 1
    model_id: str = "gpt-3.5-turbo"
    embedding_model_id: str = "text-embedding-ada-002"
    endpoint_url: str = "https://api.openai.com/v1"

    def __post_init__(self):
        # Each value is checked by the stage that uses it; checking here too
        # rejects a bad config before any stage runs.
        self.probe_config()
        self.selection_config()
        self.vocab_config()
        check_loss_weights(self.lambda_rationale, self.lambda_summary)
        for name in ("max_doc_tokens", "max_summary_tokens", "jobs"):  # counts of at least 1
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # max() keeps k <= 0 from dividing by zero; the check rejects any k < 2.
        alpha = 50.0 / max(self.lda_k, 1) if self.lda_alpha is None else self.lda_alpha
        _validate_hyperparameters(self.lda_k, alpha, self.lda_beta, self.lda_iterations)

    def digest(self, fields: tuple[str, ...] | None = None) -> str:
        # fields None hashes every field but jobs. jobs is an execution knob: parallelism
        # never changes artifacts, so it must not invalidate completed stages or vary the ledger.
        values = dataclasses.asdict(self)
        values.pop("jobs")
        chosen = values if fields is None else {name: values[name] for name in fields}
        return stable_digest(json.dumps(chosen, sort_keys=True))[:16]

    def probe_config(self) -> ProbeConfig:
        return ProbeConfig(n_samples=self.n_samples, max_retries=self.max_retries)

    def selection_config(self) -> SelectionConfig:
        return SelectionConfig(
            phi_alpha=self.phi_alpha,
            phi_beta=self.phi_beta,
            lambda_cs=self.lambda_cs,
            fold_in_iterations=self.fold_in_iterations,
        )

    def vocab_config(self) -> VocabularyConfig:
        return VocabularyConfig(stopwords=self.stopwords, min_df=self.min_df)

    @property
    def lda_seed(self) -> int:
        return self.seed + 1


# Per-dataset defaults: probe iteration counts and LDA topic counts.
PROFILE_DEFAULTS: dict[str, dict] = {
    "cnndm": {"n_samples": 15, "lda_k": 200},
    "xsum": {"n_samples": 8, "lda_k": 500},
    "clinicaltrial": {"n_samples": 8, "lda_k": 300},
}

_HINTS = typing.get_type_hints(PipelineConfig)
_FIELD_TYPES = {name: typing.get_args(hint) or (hint,) for name, hint in _HINTS.items()}


def build_config(
    profile: str = "custom",
    config_file: Path | None = None,
    overrides: dict | None = None,
) -> PipelineConfig:
    """Merge profile defaults, a JSON config file, and explicit overrides.

    Named profiles carry their dataset's probe count and topic count; the
    custom profile requires both to be given explicitly. Only the profile
    argument (the CLI's --profile) sets the profile.
    """
    values: dict = {}
    if profile in PROFILE_DEFAULTS:
        values.update(PROFILE_DEFAULTS[profile])
    elif profile != "custom":
        raise ValueError(
            f"unknown profile {profile!r}; expected one of "
            f"{sorted(PROFILE_DEFAULTS)} or 'custom'"
        )

    if config_file is not None:
        loaded = read_json_object(config_file, "config file")
        unknown = set(loaded) - set(_FIELD_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)

    for key, value in (overrides or {}).items():
        if value is not None:
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = value

    if "profile" in values:
        raise ValueError(
            "config key 'profile' comes only from --profile, not a config file or overrides"
        )
    values["profile"] = profile
    if "n_samples" not in values or "lda_k" not in values:
        raise ValueError("custom profile requires explicit n_samples and lda_k")
    for key, value in values.items():
        # An int fits a float field; a bool fits no int field.
        allowed = _FIELD_TYPES[key]
        fits = isinstance(value, allowed) or (type(value) is int and float in allowed)
        if not fits or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join(t.__name__ for t in allowed)
            raise ValueError(f"config key {key!r} must be {names}, not {type(value).__name__}")
    return PipelineConfig(**values)
