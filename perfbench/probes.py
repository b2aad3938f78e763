"""Run-time wrappers around the public entry points of each layer.

The benchmark times layers from its own files: :func:`install` replaces
a module or class attribute with a wrapper that opens a span (or bumps a
counter) around the original, and the returned :class:`Probes` puts every
original back. Nothing under ``src/`` is edited and ``repro.obs`` stays
off.

Layer map (span name → wrapped entry point):

* in-process engine (``cold_uniform``, ``hot_catalog``):
  ``engine`` ``GIREngine.topk`` · ``cache.lookup`` ``GIRCache.lookup`` ·
  ``cache.insert`` ``GIRCache.insert`` · ``brs`` the engine's
  ``brs_topk`` / ``resume_brs_topk`` · ``phase1`` / ``phase2`` /
  ``assemble`` the pipeline stages · ``fp.build_fan`` /
  ``fp.refine_fans`` FP's two steps · counter ``add_point``
  ``FacetFan.add_point``.
* router of the process cluster (``serve_burst_rw``), installed after the
  shard workers are forked so they never run a wrapper:
  ``cluster`` ``ShardedGIREngine.topk_batch`` · ``cluster.write``
  ``ShardedGIREngine.insert`` / ``delete`` · ``cache.lookup_batch`` /
  ``cache.insert`` the cluster cache · ``cluster.merge``
  ``merge_shard_answers`` · ``cluster.shard`` ``ProcessBackend.topk_batch``
  · ``cluster.shard_write`` ``ProcessBackend.insert`` / ``delete`` ·
  ``cluster.wire`` the router-side ``wire`` encoders and decoders, with
  the size of each frame sent or received as the span's ``bytes``.
* front door (``serve_burst_rw``): ``serve`` ``ServeFront.topk`` /
  ``insert`` / ``delete`` (see :func:`install_serve`).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

from spans import Tracer

__all__ = ["Probes", "install", "install_serve", "ENGINE_PROBES", "ROUTER_PROBES", "ROUTER_ADOPTERS"]

#: (module, attribute path, span name) — ``None`` span name means count only.
ENGINE_PROBES = (
    ("repro.engine.engine", "GIREngine.topk", "engine"),
    ("repro.core.caching", "GIRCache.lookup", "cache.lookup"),
    ("repro.core.caching", "GIRCache.insert", "cache.insert"),
    ("repro.engine.engine", "brs_topk", "brs"),
    ("repro.engine.engine", "resume_brs_topk", "brs"),
    ("repro.core.pipeline", "stage_phase1", "phase1"),
    ("repro.core.pipeline", "stage_phase2", "phase2"),
    ("repro.core.pipeline", "stage_assemble", "assemble"),
    ("repro.core.phase2_fp", "build_fan", "fp.build_fan"),
    ("repro.core.phase2_fp", "refine_fans", "fp.refine_fans"),
    ("repro.geometry.incident_facets", "FacetFan.add_point", None),
)

ROUTER_PROBES = (
    ("repro.cluster.sharded", "ShardedGIREngine.topk_batch", "cluster"),
    ("repro.cluster.sharded", "ShardedGIREngine.insert", "cluster.write"),
    ("repro.cluster.sharded", "ShardedGIREngine.delete", "cluster.write"),
    ("repro.core.caching", "GIRCache.lookup_batch", "cache.lookup_batch"),
    ("repro.core.caching", "GIRCache.insert", "cache.insert"),
    ("repro.cluster.sharded", "merge_shard_answers", "cluster.merge"),
    ("repro.cluster.backends.process", "ProcessBackend.topk_batch", "cluster.shard"),
    ("repro.cluster.backends.process", "ProcessBackend.insert", "cluster.shard_write"),
    ("repro.cluster.backends.process", "ProcessBackend.delete", "cluster.shard_write"),
    ("repro.cluster.wire", "encode_topk_batch", "cluster.wire"),
    ("repro.cluster.wire", "decode_batch_reply", "cluster.wire"),
    ("repro.cluster.wire", "encode_insert", "cluster.wire"),
    ("repro.cluster.wire", "encode_delete", "cluster.wire"),
    ("repro.cluster.wire", "decode_update", "cluster.wire"),
    ("repro.cluster.wire", "encode_frame", "cluster.wire"),
    ("repro.cluster.wire", "decode_frame", "cluster.wire"),
)

#: Entry points whose span records the size of their batch argument.
BATCH_ARGS = {"ShardedGIREngine.topk_batch": 1}

#: Spans that adopt the spans of the fan-out pool threads.
ROUTER_ADOPTERS = ("cluster",)


class Probes:
    """Installed wrappers; :meth:`remove` restores every original."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, wrapper: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(module: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _timed(fn, name: str, tracer: Tracer, size_arg: int | None = None):
    """Span around ``fn``; with ``size_arg``, the length of that
    positional argument (a batch) is kept as the span's ``n``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            if size_arg is not None:
                sp.attrs["n"] = len(args[size_arg])
            return fn(*args, **kwargs)

    return wrapper


def _counted(fn, key: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _frame_metered(fn, tracer: Tracer, sent: bool):
    """``encode_frame`` / ``decode_frame`` under a wire span, counting the
    frame's bytes (the encoded result, or the received frame)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span("cluster.wire") as sp:
            out = fn(*args, **kwargs)
        sp.attrs["bytes"] = len(out) if sent else len(args[0])
        return out

    return wrapper


def _async_timed(fn, name: str, tracer: Tracer, request_var):
    """Async twin of :func:`_timed` for the front door's coroutines: a
    thread stack cannot follow interleaved tasks, so the span is recorded
    with the request id the calling task put in ``request_var``."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.record(name, start, perf_counter(), request=request_var.get())

    return wrapper


def install_serve(tracer: Tracer, request_var) -> Probes:
    """Wrap the front door's admission coroutines as ``serve`` spans."""
    from repro.serve import ServeFront

    probes = Probes()
    for attr in ("topk", "insert", "delete"):
        fn = ServeFront.__dict__[attr]
        probes.replace(ServeFront, attr, _async_timed(fn, "serve", tracer, request_var))
    return probes


def install(table, tracer: Tracer) -> Probes:
    """Wrap every entry point of ``table`` (see the module docstring)."""
    probes = Probes()
    for module, path, name in table:
        owner, attr = _resolve(module, path)
        fn = owner.__dict__[attr]
        if name is None:
            wrapper = _counted(fn, path.rsplit(".", 1)[-1], tracer)
        elif path in ("encode_frame", "decode_frame"):
            wrapper = _frame_metered(fn, tracer, sent=path == "encode_frame")
        else:
            wrapper = _timed(fn, name, tracer, BATCH_ARGS.get(path))
        probes.replace(owner, attr, wrapper)
    return probes
