"""RL010 — float reductions that endanger batched bit-identity.

The batched replica engine's contract is *bit-identical* energies and
tours against the serial oracle (``tests/annealer/test_batched.py``
pins this).  That only holds while every floating-point accumulation
happens in the same order as the serial code: a vectorised
``np.sum``/``@``/``.dot()``/``einsum`` over the replica axis lets BLAS
reassociate the adds, and the last few mantissa bits drift — silently,
and only on some machines.

Scope: batched kernels (``repro/**/batched.py`` — today only
``repro/annealer/batched.py``).

Flagged: ``np.sum`` / ``np.dot`` / ``np.einsum`` (any numpy alias),
``.sum()`` / ``.dot()`` method calls, and the ``@`` matmul operator.

Sanctioned: a reduction whose *immediate* consumer is a ``float(...)``
call — the serial-gap idiom (``2.0 * float(ji @ cols[r]) + hi``)
collapses one replica's gap to a Python scalar that is then combined
serially, exactly like the oracle.  The builtin ``sum`` is never
flagged (integer bookkeeping like step counting is exact).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.context import FileContext
from repro_lint.registry import Rule, register
from repro_lint.violations import Violation

_NP_REDUCTIONS = {"sum", "dot", "einsum", "matmul", "inner", "vdot"}
_METHOD_REDUCTIONS = {"sum", "dot"}


def _scalar_wrapped(ctx: FileContext, node: ast.AST) -> bool:
    """True when ``node`` is the sole argument of ``float(...)`` or
    ``int(...)``.

    ``float(...)`` marks the serial-gap idiom; ``int(...)`` marks
    integer bookkeeping (cluster sizes, step counts) — integer adds are
    associative, so reassociation cannot change the result.
    """
    parent = ctx.parent(node)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in ("float", "int")
        and len(parent.args) == 1
        and parent.args[0] is node
    )


@register
class FloatReductionInBatchedKernel(Rule):
    code = "RL010"
    name = "batched-bit-exactness"
    description = (
        "vectorised float reduction (np.sum/@/.dot/einsum) in a "
        "batched kernel; BLAS reassociation breaks bit-identity with "
        "the serial oracle — use the float()-wrapped serial-gap idiom"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        sub = ctx.repro_subpath()
        return sub is not None and sub.endswith("batched.py")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.MatMult
            ):
                if not _scalar_wrapped(ctx, node):
                    yield self.violation(
                        ctx,
                        node,
                        "'@' matmul outside the float()-wrapped "
                        "serial-gap idiom reassociates replica-axis "
                        "adds; bit-identity with the serial oracle "
                        "is lost",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            fn = ""
            is_numpy_receiver = (
                isinstance(func.value, ast.Name)
                and func.value.id in ctx.numpy_aliases
            )
            if is_numpy_receiver and func.attr in _NP_REDUCTIONS:
                fn = f"np.{func.attr}"
            elif not is_numpy_receiver and func.attr in _METHOD_REDUCTIONS:
                fn = f".{func.attr}()"
            if fn and not _scalar_wrapped(ctx, node):
                yield self.violation(
                    ctx,
                    node,
                    f"{fn} float reduction in a batched kernel can "
                    "reassociate replica-axis adds; accumulate via the "
                    "float()-wrapped serial-gap idiom instead",
                )
