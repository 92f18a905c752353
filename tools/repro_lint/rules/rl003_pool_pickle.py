"""RL003 — unpicklable state crossing the process-pool boundary.

:mod:`repro.runtime.executor` fans work out over a
``ProcessPoolExecutor``: everything submitted is pickled into the
worker.  Lambdas, nested functions, locks, and open handles fail there
at runtime — sometimes only on the retry path, long after the code
"worked" serially.  This rule catches the statically visible cases:

* a ``lambda`` or locally-defined (nested) function passed to a
  pool-crossing call — ``submit`` / ``apply_async`` / ``imap*`` /
  ``starmap`` on anything, plus ``map`` when the receiver looks like a
  pool or executor;
* a default argument or dataclass-field default constructing an
  unpicklable object (``threading.Lock()`` & friends, ``open(...)``) —
  shared mutable state that cannot ride along into a worker.

With the async serving runtime (:mod:`repro.runtime.service`) the same
hazards appear at the asyncio boundary, so the rule also covers:

* ``loop.run_in_executor(executor, fn, *args)`` — treated as a
  pool-crossing call unless the executor argument is the literal
  ``None`` (the default thread pool never pickles its payload);
* an ``async def`` function name submitted as a pool payload — the
  worker would manufacture a coroutine object nothing ever awaits;
* a local name previously bound to an unpicklable constructor (a lock,
  an ``open()`` handle, …) passed as a pool-crossing payload argument —
  the capture fails in the worker exactly like a default would.

With the HTTP gateway (:mod:`repro.gateway`) a third resource class
appears at the same boundary: live connections.  A ``socket.socket()``
(or anything bound to one) must never ride into a pool payload or a
default — the worker cannot pickle an open file descriptor, and even
if it could, two processes writing one HTTP response is wrong.  The
gateway keeps sockets on the event-loop side and ships only plain
request data to the worker pool.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set

from repro_lint.context import FileContext
from repro_lint.registry import Rule, register
from repro_lint.violations import Violation

_POOL_ONLY_METHODS = {
    "submit",
    "apply_async",
    "map_async",
    "starmap",
    "starmap_async",
    "imap",
    "imap_unordered",
}
_POOLISH_RECEIVER = re.compile(r"(pool|executor)", re.IGNORECASE)
_UNPICKLABLE_CTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
    "socket",
}


def _receiver_name(func: ast.Attribute) -> str:
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return ""


def _is_pool_crossing(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    attr = node.func.attr
    if attr in _POOL_ONLY_METHODS:
        return True
    if attr == "run_in_executor":
        # loop.run_in_executor(None, ...) is the default thread pool:
        # the payload never pickles, so lambdas/locals are fine there.
        if node.args and _is_none_literal(node.args[0]):
            return False
        return True
    if attr == "map":
        return bool(_POOLISH_RECEIVER.search(_receiver_name(node.func)))
    return False


def _is_none_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _payload_args(node: ast.Call) -> List[ast.expr]:
    """Arguments that actually travel into the worker.

    For ``run_in_executor`` the first positional argument is the
    executor itself, not payload.
    """
    args = list(node.args)
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "run_in_executor"
        and args
    ):
        args = args[1:]
    return [*args, *[kw.value for kw in node.keywords]]


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function's body."""
    nested: Set[str] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(inner.name)
    return nested


def _async_function_names(tree: ast.Module) -> Set[str]:
    """Names bound to ``async def`` anywhere in the module."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    }


def _unpicklable_bindings(tree: ast.Module) -> dict:
    """Map of simple names assigned an unpicklable constructor."""
    bindings: dict = {}
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        desc = _is_unpicklable_ctor(value)
        if not desc:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                bindings[target.id] = desc
    return bindings


def _is_unpicklable_ctor(node: ast.AST) -> str:
    """Describe an unpicklable constructor call, or ''."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open()"
        if func.id in _UNPICKLABLE_CTORS:
            return f"{func.id}()"
    if isinstance(func, ast.Attribute) and func.attr in _UNPICKLABLE_CTORS:
        base = func.value
        mod = base.id if isinstance(base, ast.Name) else "?"
        return f"{mod}.{func.attr}()"
    return ""


@register
class PoolPickleSafety(Rule):
    code = "RL003"
    name = "pool-pickle-safety"
    description = (
        "unpicklable state crossing the repro.runtime pool boundary "
        "(lambda/nested function/coroutine submitted to a pool or "
        "run_in_executor; lock, socket, or open handle as a default or "
        "payload); only module-level plain callables and plain data "
        "survive pickling into workers"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        nested = _nested_function_names(ctx.tree)
        async_defs = _async_function_names(ctx.tree)
        bindings = _unpicklable_bindings(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_pool_crossing(node):
                for arg in _payload_args(node):
                    if isinstance(arg, ast.Lambda):
                        yield self.violation(
                            ctx,
                            arg,
                            "lambda submitted across the process-pool "
                            "boundary cannot be pickled into a worker; "
                            "use a module-level function",
                        )
                    elif isinstance(arg, ast.Name) and arg.id in nested:
                        yield self.violation(
                            ctx,
                            arg,
                            f"nested function {arg.id!r} submitted across "
                            "the process-pool boundary cannot be pickled "
                            "into a worker; hoist it to module level",
                        )
                    elif isinstance(arg, ast.Name) and arg.id in async_defs:
                        yield self.violation(
                            ctx,
                            arg,
                            f"coroutine function {arg.id!r} submitted as a "
                            "pool payload: the worker would build a "
                            "coroutine object nothing awaits; submit a "
                            "plain function and await on the loop side",
                        )
                    elif isinstance(arg, ast.Name) and arg.id in bindings:
                        yield self.violation(
                            ctx,
                            arg,
                            f"{arg.id!r} is bound to {bindings[arg.id]} "
                            "and cannot be pickled into a worker; pass "
                            "plain data and rebuild the resource inside "
                            "the worker",
                        )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                defaults = [
                    *node.args.defaults,
                    *[d for d in node.args.kw_defaults if d is not None],
                ]
                for default in defaults:
                    desc = _is_unpicklable_ctor(default)
                    if desc:
                        yield self.violation(
                            ctx,
                            default,
                            f"default argument {desc} is unpicklable "
                            "shared state; create it per call or inject "
                            "it explicitly",
                        )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                desc = _is_unpicklable_ctor(node.value)
                if desc and isinstance(
                    ctx.parent(node), ast.ClassDef
                ):
                    yield self.violation(
                        ctx,
                        node.value,
                        f"class attribute default {desc} is unpicklable "
                        "shared state; it cannot cross the pool boundary "
                        "— build it in __post_init__ or per use",
                    )
