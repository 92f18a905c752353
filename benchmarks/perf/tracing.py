"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the callables of each layer (the
``TARGETS`` table) with timers, keeps every span in memory, and puts
every attribute back on :meth:`Tracer.restore`.  Nothing under ``src/``
knows it is being traced.

A span is ``(name, parent, start, duration, self, thread, job)``:

* ``start``/``duration`` are ``time.perf_counter`` readings — the
  system-wide monotonic clock on Linux, so spans from the server and
  pool processes line up with the workload's timed window;
* ``self`` is ``duration`` minus the wrapped children that ran inside
  the call on the same thread (or the same asyncio task);
* ``job`` is the serving job id: taken from ``worker_suffix`` on
  ``EnsembleExecutor.run`` and from the returned handle on the two
  ``submit`` coroutines, inherited by child spans otherwise.

Durations are wall time inside the call.  On a thread that shares the
interpreter lock with others (gateway shards) that includes the time
spent waiting for the lock; it is not CPU time.

Spans that run in forked pool workers are appended to
``spans-<pid>.pickle`` in the trace directory each time the worker's
outermost wrapped call returns (the workers leave through
``os._exit``, so nothing would run at their exit).  The gateway server
calls :meth:`Tracer.dump` once as it exits.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import os
import pickle
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: ``(module, attribute path, span name)`` of every wrapped callable.  A
#: dotted attribute path is a method patched on its class; a bare name
#: is a module function, rebound in every loaded module that imported it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cim.macro", "CIMChip.record_seam_transfers", "cim.seam_transfers"),
    ("repro.cim.macro", "CIMChip.record_phase_cycles", "cim.phase_cycles"),
    ("repro.cim.macro", "CIMChip.record_writeback", "cim.writeback"),
    ("repro.annealer.engine", "ClusterLevelEngine.__init__", "engine.init"),
    ("repro.annealer.engine", "ClusterLevelEngine.run_phase_trials", "engine.trials"),
    ("repro.annealer.engine", "ClusterLevelEngine.writeback", "engine.writeback"),
    ("repro.annealer.hierarchical", "ClusteredCIMAnnealer.build_tree", "clustering.build_tree"),
    ("repro.annealer.hierarchical", "ClusteredCIMAnnealer.solve", "annealer.solve"),
    ("repro.annealer.cluster_tsp", "solve_level", "annealer.solve_level"),
    ("repro.annealer.batched", "solve_batch", "annealer.solve_batch"),
    ("repro.annealer.batched", "_BatchedLevelKernel.run_phase", "annealer.batch_kernel"),
    ("repro.backends.cluster_cim", "ClusterCIMBackend.reference", "backend.reference"),
    ("repro.backends.dense_ising", "DenseIsingBackend.reference", "backend.reference"),
    ("repro.backends.simcim", "SimCIMBackend.reference", "backend.reference"),
    ("repro.backends.cluster_cim", "ClusterCIMBackend.solve", "backend.solve.cluster-cim"),
    ("repro.backends.dense_ising", "DenseIsingBackend.solve", "backend.solve.dense-ising"),
    ("repro.backends.simcim", "SimCIMBackend.solve", "backend.solve.simcim"),
    ("repro.backends.cluster_cim", "ClusterCIMBackend.validate_result", "backend.validate"),
    ("repro.backends.dense_ising", "DenseIsingBackend.validate_result", "backend.validate"),
    ("repro.backends.simcim", "SimCIMBackend.validate_result", "backend.validate"),
    ("repro.runtime.executor", "EnsembleExecutor.run", "executor.run"),
    ("repro.runtime.service", "AnnealingService.submit", "service.submit"),
    ("repro.gateway.protocol", "decode_solve_request", "protocol.decode_request"),
    ("repro.gateway.protocol", "encode_job_result", "protocol.encode_result"),
    ("repro.runtime.telemetry", "RunTelemetry.to_json_line", "protocol.encode_frame"),
    ("repro.gateway.router", "ShardRouter.submit", "router.submit"),
)

#: Imported before patching, so that every module binding a wrapped
#: module function by name is loaded and gets the wrapper.
_IMPORTERS = ("repro", "repro.gateway", "repro.backends", "repro.runtime")

#: Targets that call other targets.  Every other target is a leaf.
_CONTAINERS = {
    "annealer.solve",
    "annealer.solve_level",
    "annealer.solve_batch",
    "executor.run",
    "service.submit",
    "router.submit",
}

#: Spans whose job id is known from the call: at entry from the
#: executor's ``worker_suffix``, at exit from the returned handle.
_JOB_AT_ENTRY = {"executor.run"}
_JOB_AT_EXIT = {"service.submit", "router.submit"}

#: name, parent name, start, duration, self time, thread id, job id
Span = Tuple[str, str, float, float, float, int, str]

_ANNEALER_ROOTS = ("annealer.solve", "annealer.solve_batch")

#: Spans are pickled in chunks of this many.  A list of hundreds of
#: thousands of span tuples made every full garbage collection walk it,
#: which slowed a traced solve by about 10%; a list of bytes chunks is
#: short.
_CHUNK = 4096


class Tracer:
    """Installs the span wrappers in this process and collects spans.

    ``out_dir`` receives the per-process span files of forked pool
    workers and of :meth:`dump`.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._chunks: List[bytes] = []
        self._pending: List[Span] = []
        self.installed = False
        self._origin_pid = os.getpid()
        self._stack: contextvars.ContextVar[Tuple[List[Any], ...]] = (
            contextvars.ContextVar("perf_span_stack", default=())
        )
        # (owner, attribute, owner had its own attribute, original value)
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._fork_hook_registered = False

    # -- install / restore ----------------------------------------------
    def install(self) -> None:
        """Wrap every target; idempotent per tracer."""
        if self.installed:
            return
        for module_name in _IMPORTERS:
            importlib.import_module(module_name)
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = getattr(owner, attr)
                self._patch(owner, attr, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for loaded, key, value in _module_functions():
                if value is original:
                    self._patch(loaded, key, wrapped)
        if not self._fork_hook_registered:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook_registered = True
        self.installed = True

    def restore(self) -> None:
        """Put every patched attribute back as it was.

        A module imported after :meth:`install` may have bound a wrapped
        module function by name; those bindings are put back too.
        """
        originals = {}
        for owner, attr, had_own, original in reversed(self._patches):
            originals[getattr(owner, attr)] = original
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for loaded, key, value in _module_functions():
            if value in originals:
                setattr(loaded, key, originals[value])
        self._patches.clear()
        self.installed = False

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _after_fork(self) -> None:
        # A forked pool worker starts with the parent's spans and open
        # frames; it reports only its own work.
        if self.installed:
            self.clear()
            self._stack.set(())

    @property
    def spans(self) -> List[Span]:
        """Every span recorded in this process and not yet dumped."""
        spans: List[Span] = []
        for chunk in self._chunks:
            spans.extend(pickle.loads(chunk))
        return spans + self._pending

    def clear(self) -> None:
        """Forget the recorded spans."""
        self._chunks = []
        self._pending = []

    def _record(self, span: Span) -> None:
        self._pending.append(span)
        if len(self._pending) >= _CHUNK:
            self._chunks.append(
                pickle.dumps(self._pending, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self._pending = []

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter
        job_at_entry = name in _JOB_AT_ENTRY
        job_at_exit = name in _JOB_AT_EXIT

        def enter(kwargs: Dict[str, Any]) -> Tuple[Tuple[List[Any], ...], List[Any]]:
            parents = stack.get()
            job = parents[-1][2] if parents else ""
            if job_at_entry:
                job = str(kwargs.get("worker_suffix", "")).lstrip("@")
            # frame: [name, child time, job id]
            return parents, [name, 0.0, job]

        def leave(
            parents: Tuple[List[Any], ...],
            frame: List[Any],
            start: float,
            duration: float,
        ) -> None:
            parent_name = ""
            if parents:
                parents[-1][1] += duration
                parent_name = parents[-1][0]
            self._record(
                (
                    name,
                    parent_name,
                    start,
                    duration,
                    duration - frame[1],
                    threading.get_ident(),
                    frame[2],
                )
            )
            if not parents and os.getpid() != self._origin_pid:
                self.dump()

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                parents, frame = enter(kwargs)
                token = stack.set(parents + (frame,))
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                    if job_at_exit:
                        frame[2] = str(getattr(result, "job_id", ""))
                    return result
                finally:
                    duration = clock() - start
                    stack.reset(token)
                    leave(parents, frame, start, duration)

            traced_async.__perf_span__ = name  # type: ignore[attr-defined]
            return traced_async

        if name not in _CONTAINERS:
            # A leaf wraps no other target, so it needs no frame of its
            # own: the hot per-iteration calls take this shorter path.
            record = self._record
            get_ident = threading.get_ident

            @functools.wraps(fn)
            def traced_leaf(*args: Any, **kwargs: Any) -> Any:
                parents = stack.get()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    if parents:
                        parent = parents[-1]
                        parent[1] += duration
                        record((name, parent[0], start, duration, duration,
                                get_ident(), parent[2]))
                    else:
                        leave(parents, [name, 0.0, ""], start, duration)

            traced_leaf.__perf_span__ = name  # type: ignore[attr-defined]
            return traced_leaf

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parents, frame = enter(kwargs)
            token = stack.set(parents + (frame,))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.reset(token)
                leave(parents, frame, start, duration)

        traced.__perf_span__ = name  # type: ignore[attr-defined]
        return traced

    # -- output -----------------------------------------------------------
    def dump(self) -> None:
        """Append this process's spans to its span file and forget them.

        Pickle, not JSON: a pool worker dumps once per call, inside the
        timed phase, and pickling is about ten times cheaper.
        """
        if not (self._chunks or self._pending):
            return
        path = self.out_dir / f"spans-{os.getpid()}.pickle"
        with path.open("ab") as fh:
            for chunk in self._chunks:
                fh.write(chunk)
            pickle.dump(self._pending, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.clear()


def _module_functions() -> Iterable[Tuple[Any, str, types.FunctionType]]:
    """Every ``(module, name, function)`` binding of the loaded modules."""
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if isinstance(value, types.FunctionType):
                yield loaded, key, value


def wrapped_attributes() -> List[str]:
    """Span wrappers still bound on a target class or in any module."""
    left = []
    for module_name, path, _name in TARGETS:
        obj: Any = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part)
        if hasattr(obj, "__perf_span__"):
            left.append(f"{module_name}.{path}")
    for loaded, key, value in _module_functions():
        if hasattr(value, "__perf_span__"):
            left.append(f"{loaded.__name__}.{key}")
    return sorted(set(left))


def load_spans(out_dir: Path) -> List[Span]:
    """Every span the pool workers and the server wrote to ``out_dir``.

    The files hold only what :meth:`Tracer.dump` of this harness wrote.
    """
    spans: List[Span] = []
    for path in sorted(Path(out_dir).glob("spans-*.pickle")):
        with path.open("rb") as fh:
            while True:
                try:
                    spans.extend(pickle.load(fh))
                except EOFError:
                    break
    return spans


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured extra cost of one wrapped call over a direct call."""
    probe = Tracer(Path("."))

    def noop() -> None:
        return None

    wrapped = probe._wrap(noop, "probe")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        direct = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - start - direct) / calls)
        probe.clear()
    return max(best, 0.0)


def layer_metrics(spans: Iterable[Span]) -> Dict[str, float]:
    """The span-derived per-layer metrics (see README.md)."""
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    submits: List[Tuple[str, float, float]] = []
    runs: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
    references: List[Tuple[float, float, int]] = []
    annealer_root_s = 0.0
    for name, parent, start, duration, own, thread, job in spans:
        total[name] += duration
        self_time[name] += own
        calls[name] += 1
        if name in _ANNEALER_ROOTS and parent not in _ANNEALER_ROOTS:
            annealer_root_s += duration
        if name == "service.submit" and job:
            submits.append((job, start, start + duration))
        elif name == "executor.run" and job:
            runs[job].append((start, thread))
        elif name == "backend.reference":
            references.append((start, duration, thread))

    # Job ids repeat across the private services solve_ensemble builds,
    # so each submit pairs with the first run of its id that starts after
    # the submit call does.  The job thread may start the run before the
    # event loop sees submit return; that gap counts as 0.
    pre_dispatch = queue_wait = 0.0
    for job, called, submitted in submits:
        following = [run for run in runs.get(job, ()) if run[0] >= called]
        if not following:
            continue
        started, thread = min(following)
        gap = max(0.0, started - submitted)
        reference_s = sum(
            d
            for s, d, t in references
            if t == thread and called <= s and s + d <= started
        )
        pre_dispatch += gap
        queue_wait += max(0.0, gap - reference_s)

    unattributed = sum(self_time[name] for name in _ANNEALER_ROOTS)
    cim = ("cim.seam_transfers", "cim.phase_cycles", "cim.writeback")
    return {
        "cim.seam_transfers.s": total["cim.seam_transfers"],
        "cim.seam_transfers.calls": float(calls["cim.seam_transfers"]),
        "cim.phase_cycles.s": total["cim.phase_cycles"],
        "cim.writeback.s": total["cim.writeback"],
        "cim.accounting.s": sum(total[name] for name in cim),
        "engine.trials.s": total["engine.trials"],
        "engine.trials.calls": float(calls["engine.trials"]),
        "engine.writeback.s": total["engine.writeback"],
        "engine.init.s": total["engine.init"],
        "clustering.build_tree.s": total["clustering.build_tree"],
        "clustering.build_tree.calls": float(calls["clustering.build_tree"]),
        "annealer.solve.s": total["annealer.solve"],
        "annealer.solve_level.self_s": self_time["annealer.solve_level"],
        "annealer.solve_batch.s": total["annealer.solve_batch"],
        "annealer.solve_batch.self_s": self_time["annealer.solve_batch"],
        "annealer.batch_kernel.s": total["annealer.batch_kernel"],
        "annealer.attributed_share": (
            1.0 - unattributed / annealer_root_s if annealer_root_s else 0.0
        ),
        "backend.reference.s": total["backend.reference"],
        "backend.solve.cluster-cim.s": total["backend.solve.cluster-cim"],
        "backend.solve.dense-ising.s": total["backend.solve.dense-ising"],
        "backend.solve.simcim.s": total["backend.solve.simcim"],
        "backend.validate.s": total["backend.validate"],
        "executor.run.s": total["executor.run"],
        "executor.run.self_s": self_time["executor.run"],
        "service.submit.s": total["service.submit"],
        "service.pre_dispatch_s": pre_dispatch,
        "service.queue_wait_s": queue_wait,
        "protocol.decode_request.s": total["protocol.decode_request"],
        "protocol.encode_result.s": total["protocol.encode_result"],
        "protocol.encode_frame.s": total["protocol.encode_frame"],
        "router.submit.self_s": self_time["router.submit"],
    }
