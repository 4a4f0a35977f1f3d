"""LLM provider abstraction: completions plus text embeddings.

One provider instance serves both the rationale probing (complete_many) and
the summary scoring (embed_many). Under `--jobs N` probe calls complete_many
from N worker threads at once, so it must be thread safe; embed and
embed_many are called only from the stage's own thread. No worker thread
touches the cache: the stage's thread does every lookup and store.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Iterator
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .errors import TransportError

if TYPE_CHECKING:
    import requests

DEFAULT_API_KEY_ENV = "ASPECTSUM_API_KEY"
# Inputs per /embeddings request. OpenAI's API reference (Embeddings, "Create
# embeddings", the `input` parameter) allows at most 2,048 inputs and 300,000
# tokens summed over one request; 256 inputs stay under the token limit
# unless they average over 1,171 tokens.
EMBED_BATCH_INPUTS = 256
# A request that fails for a reason that may pass (HTTP 429 or 5xx, a lost
# connection, a timeout) is sent up to REQUEST_ATTEMPTS times. Before attempt
# n + 1 it waits the response's Retry-After seconds (RFC 9110, section
# 10.2.3), or else RETRY_BASE_DELAY_S * 2**(n - 1); never more than
# RETRY_MAX_DELAY_S.
REQUEST_ATTEMPTS = 5
RETRY_BASE_DELAY_S = 1.0
RETRY_MAX_DELAY_S = 60.0


def batched(items, n: int) -> Iterator[list]:
    """Lists of n items at a time, the last one shorter, taken from items as each is asked for."""
    items = iter(items)
    while batch := list(islice(items, n)):
        yield batch


def map_ordered(fn, items, jobs: int) -> Iterator:
    """Yield fn(item) for each item, in order, from up to `jobs` threads (to overlap requests).

    Lazy: an item is taken only when a call can start, and at most 2 x jobs
    calls are in flight or done but not yet yielded, so neither the items
    nor the results are held. A call's error is raised where its result
    would be yielded; calls not yet started are then cancelled.
    """
    if jobs <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=jobs)
    pending: deque = deque()
    try:
        for item in items:
            if len(pending) == 2 * jobs:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _count(value) -> int:
    """A token count from a response's `usage`; anything but a whole number counts 0."""
    return value if isinstance(value, int) and not isinstance(value, bool) else 0


class LlmClient(ABC):
    """Behavioral contract for completion + embedding providers."""

    #: The provider's identity in the response and embedding caches: two
    #: clients share an entry only when they would give the same answer.
    cache_namespace: str = "llm"

    @abstractmethod
    def complete(self, prompt: str) -> str:
        """One completion for one prompt. Raises TransportError on failure."""

    def complete_many(self, prompt: str, n: int) -> list[str]:
        """n completions for one prompt, in order.

        This default asks complete() n times; a provider whose API returns
        several choices for one prompt sends one request.
        """
        return [self.complete(prompt) for _ in range(n)]

    @abstractmethod
    def embed(self, text: str) -> np.ndarray:
        """A pooled vector for the text; same dimension for every input."""

    def embed_many(self, texts: list[str]) -> Iterator[np.ndarray]:
        """One vector per text, in order, each yielded as it arrives.

        This default embeds one text at a time; a provider whose API takes a
        list sends them in batches.
        """
        for text in texts:
            yield self.embed(text)


class OpenAiCompatClient(LlmClient):
    """Thin client for an OpenAI-style HTTP API.

    The credential comes from the environment (``api_key_env``); endpoint URL
    and model ids are configuration. A transient failure is retried with
    bounded exponential backoff (REQUEST_ATTEMPTS); a failure that outlasts
    the retries, or any other one, surfaces as TransportError. ``sleep`` is
    how the client waits between attempts. ``requests`` is imported only
    when a client is built, so offline runs never load the network stack
    (urllib3, ssl, http.client).

    The client counts what it sends: ``requests`` (every HTTP request, each
    attempt one), ``retries`` (the attempts after a transient failure), and
    the ``prompt_tokens`` and ``completion_tokens`` of the responses' `usage`.
    """

    def __init__(
        self,
        endpoint_url: str,
        model_id: str,
        embedding_model_id: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 120.0,
        session: requests.Session | None = None,
        sleep=time.sleep,
    ):
        self.endpoint_url = endpoint_url.rstrip("/")
        self.model_id = model_id
        self.embedding_model_id = embedding_model_id
        self.api_key_env = api_key_env
        self.timeout = timeout
        import requests

        self._request_error = requests.RequestException
        self._transient_error = (requests.ConnectionError, requests.Timeout)
        self._session = session or requests.Session()
        self._sleep = sleep
        self._dimension: int | None = None
        self._counts_lock = threading.Lock()  # probe's workers send at once
        self.requests = self.retries = self.prompt_tokens = self.completion_tokens = 0
        self.cache_namespace = f"{self.endpoint_url}:{model_id}:{embedding_model_id}"

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise TransportError(f"environment variable {self.api_key_env} is not set")
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _post(self, path: str, payload: dict) -> dict:
        for attempt in range(1, REQUEST_ATTEMPTS + 1):
            retry_after = ""
            with self._counts_lock:
                self.requests += 1
                self.retries += attempt > 1
            try:
                resp = self._session.post(
                    f"{self.endpoint_url}{path}",
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout,
                )
            except self._request_error as exc:
                error = TransportError(f"request to {path} failed: {exc}")
                error.__cause__ = exc
                transient = isinstance(exc, self._transient_error)
            else:
                if resp.status_code == 200:
                    break
                error = TransportError(
                    f"{path} returned HTTP {resp.status_code}: {resp.text[:200]}"
                )
                transient = resp.status_code == 429 or 500 <= resp.status_code <= 599
                retry_after = resp.headers.get("Retry-After", "").strip()
            if not transient or attempt == REQUEST_ATTEMPTS:
                raise error
            delay = RETRY_BASE_DELAY_S * 2 ** (attempt - 1)
            # Seconds in ASCII digits: an HTTP date is not honoured, and a
            # digit such as "²" (latin-1 byte 0xB2) is no number int() reads.
            if retry_after.isascii() and retry_after.isdigit():
                delay = int(retry_after)
            self._sleep(min(delay, RETRY_MAX_DELAY_S))
        try:
            body = resp.json()
        except ValueError as exc:
            raise TransportError(f"{path} returned non-JSON body") from exc
        usage = body.get("usage") if isinstance(body, dict) else None
        if isinstance(usage, dict):
            with self._counts_lock:
                self.prompt_tokens += _count(usage.get("prompt_tokens"))
                self.completion_tokens += _count(usage.get("completion_tokens"))
        return body

    def complete(self, prompt: str) -> str:
        (content,) = self.complete_many(prompt, 1)
        return content

    def complete_many(self, prompt: str, n: int) -> list[str]:
        """n completions from one /chat/completions request that asks for `n` choices.

        The choices are put in order by their `index` (a choice without one
        keeps its place). A provider that returns fewer than asked is asked
        again for the rest; a response with no choices raises TransportError.
        """
        contents: list[str] = []
        while len(contents) < n:
            body = self._post(
                "/chat/completions",
                {
                    "model": self.model_id,
                    "messages": [{"role": "user", "content": prompt}],
                    "n": n - len(contents),
                },
            )
            try:
                choices = list(enumerate(body["choices"]))
                choices.sort(key=lambda item: item[1].get("index", item[0]))
                fresh = [choice["message"]["content"] for _, choice in choices]
            except (KeyError, TypeError, AttributeError) as exc:
                raise TransportError("malformed completion payload") from exc
            if not fresh:
                raise TransportError("/chat/completions returned no choices")
            # A refusal sends content null: a sample that does not parse, not a crash.
            contents += [c if isinstance(c, str) else "" for c in fresh[: n - len(contents)]]
        return contents

    def embed(self, text: str) -> np.ndarray:
        (vector,) = self.embed_many([text])
        return vector

    def embed_many(self, texts: list[str]) -> Iterator[np.ndarray]:
        """One /embeddings request per EMBED_BATCH_INPUTS texts, each with a list input.

        The response's items are put in input order by their `index`; a
        missing index, a count that differs from the inputs' or a change of
        dimension raises TransportError.
        """
        for batch in batched(texts, EMBED_BATCH_INPUTS):
            body = self._post("/embeddings", {"model": self.embedding_model_id, "input": batch})
            try:
                items = sorted(body["data"], key=lambda item: item["index"])
                indices = [item["index"] for item in items]
                vectors = [np.asarray(item["embedding"], dtype=np.float64) for item in items]
            except (KeyError, TypeError, ValueError) as exc:
                raise TransportError("malformed embedding payload") from exc
            if indices != list(range(len(batch))):
                raise TransportError(
                    f"provider answered {len(batch)} inputs with {len(items)} embeddings, "
                    "or with indices other than 0 to n - 1"
                )
            for vector in vectors:
                if self._dimension is None:
                    self._dimension = vector.size
                elif vector.size != self._dimension:
                    raise TransportError(
                        f"provider changed embedding dimension: {vector.size} != {self._dimension}"
                    )
                yield vector
