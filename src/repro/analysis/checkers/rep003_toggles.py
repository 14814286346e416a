"""REP003: engine toggles used inside library code must be restored.

``set_shard_count`` / ``set_columnar_enabled`` / ``set_hash_family``
are process-global and bump the plan epoch; library
code that flips one and forgets to restore it leaks the change into the
caller's engine (and invalidates every cached plan twice over).  A
toggle call inside a function is compliant when it

* saves the previous value (``old = set_x(...)``), or
* runs inside a ``finally`` block (it *is* the restore), or
* passes a previously saved value back (``set_x(old)``).

Deliberately unrestored installs (worker processes applying the
coordinator's toggles to their own forked copy) carry an inline
suppression with the reason.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set

from repro.analysis.context import AnyFunction, ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import FileChecker, register_checker

#: Bare-name toggle calls; attribute calls (``obj.set_data``) are
#: setters, not engine toggles.
TOGGLE_NAME = re.compile(r"^set_[a-z0-9_]+$")


def _finally_spans(fn: AnyFunction) -> List[range]:
    spans = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Try) and node.finalbody:
            first, last = node.finalbody[0], node.finalbody[-1]
            end = getattr(last, "end_lineno", last.lineno) or last.lineno
            spans.append(range(first.lineno, end + 1))
    return spans


def _assigned_names(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


@register_checker
class ToggleRestoreChecker(FileChecker):
    rule = "REP003"
    name = "unrestored-toggle"
    title = "set_* engine toggle without save/restore pairing"
    severity = "error"

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        for fn in module.functions():
            # The toggle's own definition is the entry point, not a use.
            if TOGGLE_NAME.match(fn.name):
                continue
            yield from self._check_function(module, fn)

    def _check_function(
        self, module: ModuleContext, fn: AnyFunction
    ) -> Iterator[Finding]:
        calls = [
            (node, node.func.id)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and TOGGLE_NAME.match(node.func.id)
            and module.enclosing_function(node) is fn
        ]
        if not calls:
            return
        finally_spans = _finally_spans(fn)
        captured: Set[str] = set()
        for call, toggle in sorted(
            calls, key=lambda c: (c[0].lineno, c[0].col_offset)
        ):
            # (1) restore position: inside a finally block.
            if any(call.lineno in span for span in finally_spans):
                continue
            # (2) saves the previous value: an Assign/walrus ancestor.
            saved = False
            for anc in module.ancestors(call):
                names = _assigned_names(anc)
                if names:
                    captured.update(names)
                    saved = True
                    break
                if anc is fn:
                    break
            if saved:
                continue
            # (3) passes a saved value back (restore outside finally).
            arg_names = {
                a.id for a in call.args if isinstance(a, ast.Name)
            } | {
                kw.value.id
                for kw in call.keywords
                if isinstance(kw.value, ast.Name)
            }
            if arg_names & captured:
                continue
            yield self.finding(
                module,
                call,
                f"{toggle}(...) flips a process-global engine "
                f"toggle without saving or restoring the previous value",
                hint=(
                    f"capture the old value (old = {toggle}(...)) and "
                    "restore it in a finally block; suppress with a "
                    "reason if the install is deliberately sticky"
                ),
            )
