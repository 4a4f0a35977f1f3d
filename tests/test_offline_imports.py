"""The network stack is loaded only when an HTTP provider is built, and
multiprocessing only when --jobs calls for helper processes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aspectsum
from aspectsum.clients import REQUEST_ATTEMPTS, OpenAiCompatClient
from aspectsum.errors import TransportError
from conftest import synthetic_records, write_jsonl

NETWORK_MODULES = ("requests", "urllib3", "ssl", "http.client", "charset_normalizer", "idna")

# Prints, after each step, which of the network modules are loaded, and at
# the end whether multiprocessing is.
_PROBE = """
import json, sys
network = {network!r}

def loaded():
    return [name for name in network if name in sys.modules]

steps = {{}}
import aspectsum
steps["import aspectsum"] = loaded()
import aspectsum.cli
steps["import aspectsum.cli"] = loaded()
code = aspectsum.cli.main({argv!r})
steps["run-all --mock-llm"] = loaded()
print(json.dumps({{
    "code": code, "steps": steps, "multiprocessing": "multiprocessing" in sys.modules
}}))
"""


def test_offline_run_loads_no_network_module(tmp_path):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(6))
    argv = [
        "run-all", "--workspace", str(tmp_path / "ws"), "--input", str(corpus), "--mock-llm",
        "--n-samples", "2", "--lda-k", "3", "--lda-iterations", "10", "--jobs", "1",
    ]
    src = str(Path(aspectsum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(network=NETWORK_MODULES, argv=argv)],
        capture_output=True, text=True, encoding="utf-8", check=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["code"] == 0
    assert result["steps"] == {
        "import aspectsum": [],
        "import aspectsum.cli": [],
        "run-all --mock-llm": [],
    }
    # helpers.can_fork returns before importing it under --jobs 1: its modules
    # add 0.75 MiB to RSS.
    assert result["multiprocessing"] is False


class _Response:
    status_code = 200
    text = ""

    def json(self):
        return {"choices": [{"message": {"content": "hello"}}]}


def test_client_without_a_session_makes_and_uses_a_requests_session(monkeypatch):
    requests = pytest.importorskip("requests")
    made = []

    class FakeSession:
        def __init__(self):
            self.urls = []
            made.append(self)

        def post(self, url, json=None, headers=None, timeout=None):
            self.urls.append(url)
            if len(self.urls) > 1:
                raise requests.ConnectionError("refused")
            return _Response()

    monkeypatch.setattr(requests, "Session", FakeSession)
    monkeypatch.setenv("ASPECTSUM_API_KEY", "k")
    sleeps = []
    client = OpenAiCompatClient("https://example.test/v1", "m", "e", sleep=sleeps.append)
    assert len(made) == 1
    assert client.complete("x") == "hello"
    with pytest.raises(TransportError, match="failed"):
        client.complete("y")
    # The refused connection is retried until the attempt bound.
    assert made[0].urls == ["https://example.test/v1/chat/completions"] * (1 + REQUEST_ATTEMPTS)
    assert len(sleeps) == REQUEST_ATTEMPTS - 1
