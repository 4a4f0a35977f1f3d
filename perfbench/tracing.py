"""Outside-in span tracing of the pipeline's layers.

The benchmark wraps public functions and methods where their callers look
them up (for example ``selection.infer_topics``, not ``topics.infer_topics``,
because callers import names directly), so nothing under ``src/`` changes.
Spans stay in memory until the run ends. A span that starts on a thread
with no open span (a thread-pool worker) takes the innermost span open on
the tracer's home thread as its parent, so stage spans own their workers'
spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, start, parent=None, thread=0, end=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._home_stack[-1:] or [None])[0]
        span = Span(name, perf_counter(), parent, threading.get_ident())
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(span, args, kwargs, result) runs once it closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent id, thread."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        threads: dict[int, int] = {}
        lines = []
        for i, span in enumerate(self.spans):
            lines.append(
                json.dumps(
                    {
                        "id": i,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": ids.get(id(span.parent)),
                        "thread": threads.setdefault(span.thread, len(threads)),
                    }
                )
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the time its children cover, clipped to it.

    Children on other threads may overlap each other; their union counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            p = span.parent
            children.setdefault(id(p), []).append(
                (max(span.start, p.start), min(span.end, p.end))
            )
    return {
        id(span): span.duration - _covered(children.get(id(span), [])) for span in spans
    }


def arguments(fn):
    """bind(args, kwargs) -> fn's parameters by name, defaults filled in."""
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class Patches:
    """Attribute replacements that restore() undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def install(tracer: Tracer, client) -> Patches:
    """Wrap every layer boundary; the caller must call restore() on the result."""
    from aspectsum import pipeline, probe, selection
    from aspectsum.probe import EmbeddingCache, ResponseCache
    from aspectsum.topics import LdaModel
    from aspectsum.workspace import Workspace

    patches = Patches()
    wrap = tracer.wrap

    def module_fn(module, attr, name, after=None):
        patches.set(module, attr, wrap(name, getattr(module, attr), after))

    def method(cls, attr, name, after=None):
        patches.set(cls, attr, wrap(name, cls.__dict__[attr], after))

    def note(**fields):
        def after(span, args, kwargs, result):
            for key, get in fields.items():
                span.attrs[key] = get(args, kwargs, result)

        return after

    for stage in ("ingest", "probe", "select", "curriculum", "eval"):
        module_fn(pipeline, f"stage_{stage}", f"pipeline.{stage}")
    train_args = arguments(pipeline.train_lda)
    module_fn(
        pipeline,
        "train_lda",
        "topics.train",
        note(
            token_sweeps=lambda a, k, r: int(r.topic_totals.sum()) * train_args(a, k)["iterations"]
        ),
    )
    load = LdaModel.__dict__["load"].__func__
    patches.set(LdaModel, "load", classmethod(wrap("topics.model_load", load)))
    module_fn(
        selection,
        "infer_topics",
        "topics.infer",
        # The arguments are kept so tokens and repeats are counted after the
        # run, outside every span.
        note(call=lambda a, k, r: (a, k)),
    )
    module_fn(pipeline, "probe_rationales", "probe.probe")
    module_fn(probe, "parse_probe_response", "rationale.parse")
    hit = note(hit=lambda a, k, r: r is not None)
    method(ResponseCache, "lookup", "probe.response_cache.lookup", hit)
    method(ResponseCache, "store", "probe.response_cache.store")
    method(EmbeddingCache, "lookup", "probe.embedding_cache.lookup", hit)
    method(EmbeddingCache, "store", "probe.embedding_cache.store")
    module_fn(pipeline, "select_golden", "selection.select")
    module_fn(selection, "text_embedding", "selection.embedding_lookup")
    module_fn(pipeline, "run_curriculum", "curriculum.run")
    module_fn(
        pipeline, "evaluate_corpus", "evaluation.evaluate", note(pairs=lambda a, k, r: len(a[0]))
    )
    # Sizes are read from disk once a call returns: the bytes written or hashed.
    written = note(bytes=lambda a, k, r: os.path.getsize(a[1]))
    method(Workspace, "write_text", "workspace.write", written)
    for attr in ("load_corpus", "load_candidate_sets", "load_selections"):
        method(Workspace, attr, "workspace.load")
    hashed = note(bytes=lambda a, k, r: os.path.getsize(a[0]))
    module_fn(pipeline, "file_sha256", "workspace.sha256", hashed)

    adapter_cls = pipeline.EchoTrainerAdapter

    def traced_adapter(pairs):
        adapter = adapter_cls(pairs)
        adapter.greedy_decode = wrap("curriculum.decode", adapter.greedy_decode)
        adapter.train = wrap("curriculum.train", adapter.train)
        return adapter

    patches.set(pipeline, "EchoTrainerAdapter", traced_adapter)
    # The client is an instance; its wrappers go away with it.
    client.complete = wrap("clients.complete", client.complete)
    client.embed = wrap("clients.embed", client.embed)
    return patches


def layer_metrics(spans: list[Span], n_docs: int) -> dict[str, float]:
    """Per-layer counts and times of one traced pipeline run.

    Times ending in ``_self_s`` and the ``probe.probe_s`` time are self time;
    the others are summed span durations. With worker threads they are busy
    time summed over threads, while ``pipeline.*_s`` and ``trace.wall_s`` are
    wall time.
    """
    from aspectsum.topics import infer_topics

    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(*names):
        return sum(own[id(s)] for name in names for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def frac(part, whole):
        return part / whole if whole else 0.0

    infer_args = arguments(infer_topics)
    train_s = total("topics.train")
    infer_calls = []
    for s in named("topics.infer"):
        args, kwargs = s.attrs["call"]
        infer_calls.append(infer_args(args, kwargs))
    infer_tokens = sum(len(c["model"].vocabulary.encode(c["text"])) for c in infer_calls)
    distinct = {tuple((k, v) for k, v in c.items() if k != "model") for c in infer_calls}
    response_lookups = named("probe.response_cache.lookup")
    embedding_lookups = named("probe.embedding_cache.lookup")
    parses = named("rationale.parse")
    roots = [s for s in spans if s.parent is None]

    metrics = {
        "topics.train_s": train_s,
        "topics.train_token_sweeps_per_s": frac(attr_sum("topics.train", "token_sweeps"), train_s),
        "topics.infer_s": total("topics.infer"),
        "topics.infer_calls": len(infer_calls),
        "topics.infer_tokens": infer_tokens,
        "topics.infer_distinct_frac": frac(len(distinct), len(infer_calls)),
        "topics.model_load_s": total("topics.model_load"),
        "clients.complete_calls": len(named("clients.complete")),
        "clients.complete_s": total("clients.complete"),
        "clients.embed_calls": len(named("clients.embed")),
        "clients.embed_s": total("clients.embed"),
        "selection.embedding_lookups_per_doc": frac(
            len(named("selection.embedding_lookup")), n_docs
        ),
        "selection.select_self_s": self_total("selection.select", "selection.embedding_lookup"),
        "probe.response_cache.hit_frac": frac(
            attr_sum("probe.response_cache.lookup", "hit"), len(response_lookups)
        ),
        "probe.response_cache.lookup_s": total("probe.response_cache.lookup"),
        "probe.response_cache.store_s": total("probe.response_cache.store"),
        "probe.embedding_cache.lookups": len(embedding_lookups),
        "probe.embedding_cache.hit_frac": frac(
            attr_sum("probe.embedding_cache.lookup", "hit"), len(embedding_lookups)
        ),
        "probe.embedding_cache.lookup_s": total("probe.embedding_cache.lookup"),
        "probe.embedding_cache.store_s": total("probe.embedding_cache.store"),
        "probe.probe_s": self_total("probe.probe"),
        "rationale.parse_calls": len(parses),
        "rationale.parse_s": total("rationale.parse"),
        "rationale.parse_fail_frac": frac(sum("error" in s.attrs for s in parses), len(parses)),
        "curriculum.run_self_s": self_total("curriculum.run"),
        "curriculum.decode_calls": len(named("curriculum.decode")),
        "curriculum.decode_s": total("curriculum.decode"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.pairs": attr_sum("evaluation.evaluate", "pairs"),
        "workspace.write_s": total("workspace.write"),
        "workspace.write_bytes": attr_sum("workspace.write", "bytes"),
        "workspace.load_s": total("workspace.load"),
        "workspace.sha256_s": total("workspace.sha256"),
        "workspace.sha256_bytes": attr_sum("workspace.sha256", "bytes"),
        "trace.wall_s": sum(s.duration for s in roots),
        "trace.busy_s": sum(own.values()),
    }
    for stage in ("ingest", "probe", "select", "curriculum", "eval"):
        metrics[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")
    return metrics
