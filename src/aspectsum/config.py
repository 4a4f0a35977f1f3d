"""Pipeline configuration, dataset profiles, and config digests."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .probe import ProbeConfig
from .selection import SelectionConfig
from .textutil import stable_digest
from .topics import VocabularyConfig


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

    def digest(self) -> str:
        # jobs is an execution knob: parallelism never changes artifacts, so
        # it must not invalidate completed stages or vary the ledger.
        values = dataclasses.asdict(self)
        values.pop("jobs")
        return stable_digest(json.dumps(values, sort_keys=True))[:16]

    def probe_config(self) -> ProbeConfig:
        return ProbeConfig(n_samples=self.n_samples, max_retries=self.max_retries)

    def selection_config(self) -> SelectionConfig:
        return SelectionConfig(
            phi_alpha=self.phi_alpha,
            phi_beta=self.phi_beta,
            lambda_cs=self.lambda_cs,
            fold_in_iterations=self.fold_in_iterations,
            inference_seed=self.seed + 2,
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

_FIELD_NAMES = {f.name for f in dataclasses.fields(PipelineConfig)}


def build_config(
    profile: str = "custom",
    config_file: Path | None = None,
    overrides: dict | None = None,
) -> PipelineConfig:
    """Merge profile defaults, a JSON config file, and explicit overrides.

    Named profiles carry their dataset's probe count and topic count; the
    custom profile requires both to be given explicitly.
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
        if not Path(config_file).is_file():
            raise ValueError(f"no config file at {config_file}")
        loaded = json.loads(Path(config_file).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a JSON object")
        unknown = set(loaded) - _FIELD_NAMES
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)

    for key, value in (overrides or {}).items():
        if value is not None:
            if key not in _FIELD_NAMES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = value

    values["profile"] = profile
    if "n_samples" not in values or "lda_k" not in values:
        raise ValueError("custom profile requires explicit n_samples and lda_k")
    return PipelineConfig(**values)
