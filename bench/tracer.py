"""Spans and counters recorded from outside the program, around its public calls.

A :class:`Tracer` keeps every span in memory: a name, a start and end time
and the id of the span that was open when it started. :func:`install`
replaces each boundary in :data:`BOUNDARIES` with a wrapper that records a
span (and the counters read from its arguments and return value), in every
``nestner`` module that binds it, and returns the list of replacements so
:func:`restore` can put every original back.

The program is single-threaded, so the spans nest strictly and the direct
children of a span never overlap: a span's self time is its duration minus
the sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus per-phase counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.phases: list[Span] = []
        self.counters: dict[tuple[str, str], float] = {}

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def phase(self, name: str) -> "_PhaseScope":
        """Context manager for a top-level phase such as ``crf.train``."""
        return _PhaseScope(self, name)

    @property
    def active(self) -> bool:
        """Whether a phase is open; calls made outside every phase go untraced."""
        return bool(self._stack)

    def count(self, key: str, amount: float = 1.0) -> None:
        if self._stack:
            slot = (self._stack[0].name, key)
            self.counters[slot] = self.counters.get(slot, 0.0) + amount

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


class _PhaseScope:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        if self.tracer._stack:
            raise RuntimeError(f"phase {self.name!r} opened inside another span")
        self.span = self.tracer.open(self.name)
        self.tracer.phases.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its direct children's."""
    child_time = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def root_of(spans: list[Span]) -> dict[int, str]:
    """Name of the top-level span (the phase) each span belongs to."""
    by_id = {s.id: s for s in spans}
    roots: dict[int, str] = {}
    for s in spans:
        node = s
        while node.parent is not None:
            node = by_id[node.parent]
        roots[s.id] = node.name
    return roots


# ------------------------------------------------------------------ boundaries


def _span_wrapper(tracer: Tracer, name: str, original, on_call=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_call is not None:
            on_call(tracer, args, kwargs, result)
        return result

    return wrapper


def _count_calls(key):
    def on_call(tracer, args, kwargs, result):
        tracer.count(key)

    return on_call


def _count_adam_rows(tracer, args, kwargs, result):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    tracer.count("training.adam_rows", sum(len(rows) for rows in grads.rows.values()))


def _decode_wrapper(tracer: Tracer, name: str, original):
    """Span around ``codec.decode``; a ``repair`` call is also tried under
    ``strict`` (in its own span) to count ill-formed label sequences."""
    from nestner.codec import DecodeError

    timed = _span_wrapper(tracer, name, original)

    @functools.wraps(original)
    def wrapper(encoded, policy="strict"):
        result = timed(encoded, policy)
        if policy == "repair" and tracer.active:
            tracer.count("codec.repair_calls")
            span = tracer.open("trace.repair_probe")
            try:
                original(encoded, "strict")
            except DecodeError:
                tracer.count("codec.repaired")
            finally:
                tracer.close(span)
        return result

    return wrapper


def _tape_counter(tracer: Tracer, name: str, original):
    """A ``Tape`` subclass that counts every node recorded, per phase."""

    class CountingTape(original):
        def _new(self, value, back):
            tracer.count("autodiff.tape_nodes")
            return original._new(self, value, back)

    return CountingTape


def _wrap(on_call=None):
    return lambda tracer, name, original: _span_wrapper(tracer, name, original, on_call)


# (module, attribute path, span name, wrapper factory). Functions are patched
# in every nestner module that binds them; methods on their class.
# The backward patch goes first: the counting subclass then inherits it.
BOUNDARIES = (
    ("nestner.autodiff", "Tape.backward", "autodiff.backward", _wrap()),
    ("nestner.autodiff", "Tape", None, _tape_counter),
    ("nestner.embeddings", "TokenEmbedder.token_vector", "embeddings.token_vector",
     _wrap(_count_calls("embeddings.token_vector.calls"))),
    ("nestner.models", "_NeuralTagger._encode", "models.encode", _wrap()),
    ("nestner.models", "crf_nll", "models.crf_nll", _wrap()),
    ("nestner.models", "viterbi", "models.viterbi", _wrap()),
    ("nestner.models", "Seq2seqTagger._step", "models.seq2seq_step",
     _wrap(_count_calls("models.seq2seq_step.calls"))),
    ("nestner.training", "LazyAdam.step", "training.adam", _wrap(_count_adam_rows)),
    ("nestner.models", "save_model", "models.save_model", _wrap()),
    ("nestner.models", "load_model", "models.load_model", _wrap()),
    ("nestner.corpus", "read_spans", "corpus.read_spans", _wrap()),
    ("nestner.corpus", "read_conll", "corpus.read_conll", _wrap()),
    ("nestner.corpus", "write_conll", "corpus.write_conll", _wrap()),
    ("nestner.corpus", "write_spans", "corpus.write_spans", _wrap()),
    ("nestner.codec", "encode", "codec.encode", _wrap()),
    ("nestner.codec", "decode", "codec.decode", _decode_wrapper),
    ("nestner.metrics", "score_mentions", "metrics.score_mentions", _wrap()),
)

# Every span name a boundary can record, in report order.
LAYERS = tuple(name for _, _, name, _ in BOUNDARIES if name) + ("trace.repair_probe",)

Patch = tuple[object, str, object]


def install(tracer: Tracer) -> list[Patch]:
    """Replace every boundary with its traced wrapper; returns what was replaced."""
    patches: list[Patch] = []
    try:
        for module_name, path, name, factory in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            replacement = factory(tracer, name, original)
            if outer:  # a method: its class is the one place callers find it
                targets = [owner]
            else:
                targets = [
                    module
                    for module_key, module in sorted(sys.modules.items())
                    if module_key.split(".")[0] == "nestner"
                    and module is not None
                    and module.__dict__.get(attr) is original
                ]
            for target in targets:
                patches.append((target, attr, original))
                setattr(target, attr, replacement)
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list[Patch]) -> None:
    """Put back every original replaced by :func:`install`, newest first."""
    for target, attr, original in reversed(patches):
        setattr(target, attr, original)
