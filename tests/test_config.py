from __future__ import annotations

import json

import pytest

from aspectsum.config import PROFILE_DEFAULTS, PipelineConfig, build_config


def test_profile_defaults_carry_run_scale_values():
    assert PROFILE_DEFAULTS["cnndm"] == {"n_samples": 15, "lda_k": 200}
    assert PROFILE_DEFAULTS["xsum"] == {"n_samples": 8, "lda_k": 500}
    assert PROFILE_DEFAULTS["clinicaltrial"] == {"n_samples": 8, "lda_k": 300}
    cfg = build_config(profile="cnndm")
    assert (cfg.n_samples, cfg.lda_k) == (15, 200)
    assert (cfg.phi_alpha, cfg.phi_beta, cfg.lambda_cs) == (0.6, 1.3, 1.5)
    assert (cfg.lambda_rationale, cfg.lambda_summary) == (0.8, 1.2)
    assert (cfg.max_doc_tokens, cfg.max_summary_tokens) == (1024, 256)


def test_custom_profile_requires_explicit_scale():
    with pytest.raises(ValueError):
        build_config(profile="custom")
    cfg = build_config(profile="custom", overrides={"n_samples": 3, "lda_k": 4})
    assert (cfg.n_samples, cfg.lda_k) == (3, 4)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        build_config(profile="reuters")


def test_config_file_merge_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_samples": 5, "lda_k": 7, "seed": 3}), encoding="utf-8")
    cfg = build_config(profile="custom", config_file=path, overrides={"seed": 9, "jobs": None})
    assert cfg.n_samples == 5
    assert cfg.seed == 9  # explicit override wins
    assert cfg.jobs == 1  # None overrides are ignored


def test_profile_comes_only_from_its_argument(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": "cnndm", "n_samples": 3, "lda_k": 4}), encoding="utf-8")
    with pytest.raises(ValueError, match="'profile' comes only from --profile"):
        build_config(profile="custom", config_file=path)
    with pytest.raises(ValueError, match="'profile' comes only from --profile"):
        build_config(profile="cnndm", overrides={"profile": "xsum"})


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_sample": 5}), encoding="utf-8")
    with pytest.raises(ValueError):
        build_config(profile="cnndm", config_file=path)
    with pytest.raises(ValueError):
        build_config(profile="cnndm", overrides={"bogus": 1})


def test_config_digest_stable_and_sensitive():
    a = build_config(profile="cnndm")
    b = build_config(profile="cnndm")
    c = build_config(profile="cnndm", overrides={"seed": 1})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_derived_module_configs():
    cfg = build_config(profile="xsum", overrides={"seed": 10})
    assert cfg.probe_config().n_samples == 8
    assert cfg.selection_config().fold_in_iterations == 50
    assert cfg.lda_seed == 11
    assert cfg.vocab_config().stopwords == "english"


def test_lda_alpha_defaults_to_fifty_over_k():
    cfg = PipelineConfig(profile="custom", n_samples=1, lda_k=100)
    assert cfg.lda_alpha is None  # resolved to 50/k inside train_lda


@pytest.mark.parametrize(
    "values",
    [
        {"n_samples": "3"},
        {"lda_k": True},
        {"lda_iterations": 2.5},
        {"lda_alpha": "0.5"},
        {"phi_alpha": [0.6]},
        {"stopwords": 1},
        {"jobs": None},
    ],
    ids=["n-samples-str", "lda-k-bool", "lda-iterations-float", "lda-alpha-str",
         "phi-alpha-list", "stopwords-int", "jobs-null"],
)
def test_config_file_value_of_the_wrong_type(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    with pytest.raises(ValueError, match=f"config key '{next(iter(values))}' must be"):
        build_config(profile="cnndm", config_file=path)


def test_config_file_int_fits_a_float_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lda_alpha": 1, "phi_beta": 2, "lda_beta": None}), encoding="utf-8")
    with pytest.raises(ValueError, match="'lda_beta' must be float, not NoneType"):
        build_config(profile="cnndm", config_file=path)
    path.write_text(json.dumps({"lda_alpha": 1, "phi_beta": 2}), encoding="utf-8")
    cfg = build_config(profile="cnndm", config_file=path)
    assert (cfg.lda_alpha, cfg.phi_beta) == (1, 2)
    path.write_text(json.dumps({"lda_alpha": None}), encoding="utf-8")
    assert build_config(profile="cnndm", config_file=path).lda_alpha is None
