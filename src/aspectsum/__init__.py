"""Aspect-triple rationale distillation pipeline toolkit."""

from .clients import LlmClient, OpenAiCompatClient
from .config import PipelineConfig, build_config
from .curriculum import (
    CANONICAL_STAGE_ORDER,
    Stage,
    StageManifest,
    TaskKind,
    TrainerAdapter,
    TrainingExample,
    build_concurrent_early_manifest,
    build_concurrent_late_manifest,
    build_joint_manifest,
    build_singular_manifests,
    run_curriculum,
    split_joint_target,
)
from .evaluation import EvalReport, RougeScore, evaluate_corpus, rouge_l, rouge_n
from .mock import EchoTrainerAdapter, MockLlmClient
from .pipeline import (
    run_all,
    stage_curriculum,
    stage_eval,
    stage_ingest,
    stage_probe,
    stage_select,
)
from .probe import (
    EmbeddingCache,
    ProbeConfig,
    PromptTemplate,
    ResponseCache,
    probe_rationales,
    render_probe_prompt,
)
from .rationale import (
    Aspect,
    Candidate,
    CandidateSet,
    Document,
    Rationale,
    Triple,
    parse_probe_response,
    parse_rationale,
    serialize_rationale,
)
from .selection import (
    ScoredCandidate,
    SelectionConfig,
    SelectionResult,
    cosine_similarity,
    select_golden,
    text_embedding,
)
from .topics import (
    LdaModel,
    TopicDistribution,
    Vocabulary,
    VocabularyConfig,
    build_vocabulary,
    infer_topics,
    kl_divergence,
    train_lda,
)
from .workspace import Workspace

__version__ = "0.1.0"
