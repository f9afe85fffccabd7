"""Hot-path purity rules: AR041 scalar loops, AR042 hoistable
allocation.

These apply only inside the modules the tracked bench baselines prove
hot (``contract.hot_paths``: the DES engine, the streaming plane).
Elsewhere the same patterns are fine — the rules guard the
profit-aware dispatch loop's asymptotics, not style.

* AR041 — a ``for i in range(...)`` loop whose body assigns through
  ``x[i]``: the per-server scalar loop the vectorized solvers exist
  to avoid.
* AR042 — a numpy array allocated inside a loop from arguments the
  loop never rebinds: the allocation is loop-invariant and belongs
  outside (or in a reused scratch buffer).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Union

from repro.analysis.arch.graph import ModuleInfo
from repro.analysis.arch.registry import (
    ArchContext,
    ArchFinding,
    ArchRule,
    register_arch,
)

__all__ = ["HotPathPurityRule"]

_NUMPY_ALIASES = {"np", "numpy"}
_ALLOCATORS = {
    "empty", "zeros", "ones", "full", "arange", "eye", "identity",
    "empty_like", "zeros_like", "ones_like", "full_like",
}

_LoopNode = Union[ast.For, ast.While]


def _is_numpy_call(node: ast.Call, attrs: Set[str]) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in attrs
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_ALIASES
    )


def _loop_targets(loop: _LoopNode) -> Set[str]:
    names: Set[str] = set()
    if isinstance(loop, ast.For):
        for node in ast.walk(loop.target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def _assigned_in(body: Sequence[ast.stmt]) -> Set[str]:
    """Every name (re)bound anywhere under ``body``."""
    names: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Name):
                            names.add(part.id)
            elif isinstance(node, ast.For):
                for part in ast.walk(node.target):
                    if isinstance(part, ast.Name):
                        names.add(part.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
    return names


def _free_names(node: ast.expr) -> Set[str]:
    return {
        part.id
        for part in ast.walk(node)
        if isinstance(part, ast.Name)
    }


def _subscript_assigns_by(body: Sequence[ast.stmt], names: Set[str]) -> int:
    """First line assigning ``x[i]`` with ``i`` a loop variable, or 0."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and (
                        _free_names(target.slice) & names
                    ):
                        return node.lineno
    return 0


class _PurityVisitor(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self.findings: List[ArchFinding] = []
        self._loops: List[Set[str]] = []  # names rebound per open loop

    # -- loops ----------------------------------------------------------
    def _enter_loop(self, node: _LoopNode) -> None:
        rebound = _assigned_in(node.body) | _loop_targets(node)
        self._loops.append(rebound)
        self.generic_visit(node)
        self._loops.pop()

    def visit_For(self, node: ast.For) -> None:
        targets = _loop_targets(node)
        if (
            isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range"
        ):
            line = _subscript_assigns_by(node.body, targets)
            if line:
                self.findings.append(ArchFinding(
                    code="AR041",
                    severity="info",
                    component=(
                        f"loop[{self.info.name}:{node.lineno}]"
                    ),
                    message=(
                        "scalar for-range loop assigns element-wise "
                        "through its index in a bench-hot module; "
                        "vectorize or justify with a suppression"
                    ),
                    data={"assign_line": line},
                    path=self.info.path,
                    line=node.lineno,
                ))
        self._enter_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._enter_loop(node)

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._loops and _is_numpy_call(node, _ALLOCATORS):
            rebound: Set[str] = set()
            for loop_rebound in self._loops:
                rebound |= loop_rebound
            args = list(node.args) + [kw.value for kw in node.keywords]
            free: Set[str] = set()
            for arg in args:
                free |= _free_names(arg)
            if not (free & rebound):
                assert isinstance(node.func, ast.Attribute)
                self.findings.append(ArchFinding(
                    code="AR042",
                    severity="info",
                    component=f"alloc[{self.info.name}:{node.lineno}]",
                    message=(
                        f"np.{node.func.attr}(...) allocates inside a "
                        "loop from loop-invariant arguments; hoist the "
                        "allocation (or reuse a scratch buffer) in "
                        "this bench-hot module"
                    ),
                    data={"allocator": node.func.attr},
                    path=self.info.path,
                    line=node.lineno,
                ))
        self.generic_visit(node)


@register_arch
class HotPathPurityRule(ArchRule):
    code = "AR041"
    name = "hot-path-purity"
    codes = {
        "AR041": "scalar per-element for-range loop in a bench-hot module",
        "AR042": "loop-invariant numpy allocation inside a hot loop",
    }
    rationale = (
        "The bench suite pins the DES engine and the streaming plane "
        "as the modules where asymptotics decide wall-clock.  "
        "Iterating servers one Python index at a time, or "
        "re-allocating an invariant array every iteration, are the "
        "regressions that repeatedly sneak past review because they "
        "are locally idiomatic; inside the declared hot paths they "
        "fail the gate instead."
    )

    def check(self, ctx: ArchContext) -> Iterator[ArchFinding]:
        for info in ctx.index.modules.values():
            if not ctx.contract.is_hot(info.name):
                continue
            visitor = _PurityVisitor(info)
            visitor.visit(info.tree)
            yield from visitor.findings
