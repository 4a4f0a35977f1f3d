"""LLM provider abstraction: completions plus text embeddings.

One provider instance serves both the rationale probing (complete) and the
summary scoring (embed). Implementations must be safe to call from multiple
worker threads at once.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

import numpy as np
import requests

from .errors import TransportError

DEFAULT_API_KEY_ENV = "ASPECTSUM_API_KEY"


def map_ordered(fn, items, jobs: int):
    """Apply fn to items on up to `jobs` threads (to overlap requests), keeping order."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


class LlmClient(ABC):
    """Behavioral contract for completion + embedding providers."""

    #: The provider's identity in the response and embedding caches: two
    #: clients share an entry only when they would give the same answer.
    cache_namespace: str = "llm"

    @abstractmethod
    def complete(self, prompt: str) -> str:
        """One completion for one prompt. Raises TransportError on failure."""

    @abstractmethod
    def embed(self, text: str) -> np.ndarray:
        """A pooled vector for the text; same dimension for every input."""


class OpenAiCompatClient(LlmClient):
    """Thin client for an OpenAI-style HTTP API.

    The credential comes from the environment (``api_key_env``); endpoint URL
    and model ids are configuration. No retry policy beyond what the caller
    implements: transport failures surface as TransportError.
    """

    def __init__(
        self,
        endpoint_url: str,
        model_id: str,
        embedding_model_id: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 120.0,
        session: requests.Session | None = None,
    ):
        self.endpoint_url = endpoint_url.rstrip("/")
        self.model_id = model_id
        self.embedding_model_id = embedding_model_id
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._session = session or requests.Session()
        self._dimension: int | None = None
        self.cache_namespace = f"{self.endpoint_url}:{model_id}:{embedding_model_id}"

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise TransportError(f"environment variable {self.api_key_env} is not set")
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _post(self, path: str, payload: dict) -> dict:
        try:
            resp = self._session.post(
                f"{self.endpoint_url}{path}",
                json=payload,
                headers=self._headers(),
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(f"request to {path} failed: {exc}") from exc
        if resp.status_code != 200:
            raise TransportError(f"{path} returned HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise TransportError(f"{path} returned non-JSON body") from exc

    def complete(self, prompt: str) -> str:
        body = self._post(
            "/chat/completions",
            {"model": self.model_id, "messages": [{"role": "user", "content": prompt}]},
        )
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("malformed completion payload") from exc

    def embed(self, text: str) -> np.ndarray:
        body = self._post("/embeddings", {"model": self.embedding_model_id, "input": text})
        try:
            vector = np.asarray(body["data"][0]["embedding"], dtype=np.float64)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError("malformed embedding payload") from exc
        if self._dimension is None:
            self._dimension = vector.size
        elif vector.size != self._dimension:
            raise TransportError(
                f"provider changed embedding dimension: {vector.size} != {self._dimension}"
            )
        return vector
