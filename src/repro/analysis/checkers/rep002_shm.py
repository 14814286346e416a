"""REP002: shared-memory segments flow through the transport only.

The coordinator owns every segment: creation registers it for retire /
atexit unlink, attachment goes through the tracker-aware helper, and
``unlink`` happens exactly once on the owning side (PR 5's
worker-spawned resource tracker and PR 7's leak audit were both
violations of this protocol).  Raw ``SharedMemory(create=True)`` or
``.unlink()`` anywhere outside the transport module bypasses that
lifecycle.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.context import ModuleContext, call_name
from repro.analysis.findings import Finding
from repro.analysis.registry import FileChecker, register_checker

#: Modules allowed to create/unlink segments (path suffixes).
ALLOWED_SUFFIXES: Tuple[str, ...] = (
    "repro/distributed/transport.py",
)


def _is_create_call(node: ast.Call) -> bool:
    if call_name(node) != "SharedMemory":
        return False
    for kw in node.keywords:
        if kw.arg == "create" and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    # SharedMemory(name, True) — positional create flag.
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        return bool(node.args[1].value)
    return False


def _is_unlink_call(node: ast.Call) -> bool:
    # ``seg.unlink()`` takes no arguments; pathlib's unlink(missing_ok=)
    # is the usual same-named bystander, so any argument disqualifies.
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "unlink"
        and not node.args
        and not node.keywords
    )


@register_checker
class SharedMemoryLifecycleChecker(FileChecker):
    rule = "REP002"
    name = "raw-shared-memory"
    title = "SharedMemory lifecycle outside the transport allowlist"
    severity = "error"

    def check_module(self, module: ModuleContext) -> Iterator[Finding]:
        if module.rel.endswith(ALLOWED_SUFFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_create_call(node):
                yield self.finding(
                    module,
                    node,
                    "raw SharedMemory(create=True) outside the shard "
                    "transport bypasses segment ownership and atexit "
                    "unlink",
                    hint=(
                        "export through repro.distributed.transport (the "
                        "coordinator-owned store) instead of creating "
                        "segments directly"
                    ),
                )
            elif _is_unlink_call(node):
                yield self.finding(
                    module,
                    node,
                    ".unlink() outside the shard transport can retire a "
                    "segment the coordinator still owns",
                    hint=(
                        "retire segments through the transport store "
                        "(retire/close_store); if this is a pathlib "
                        "unlink, suppress with a reason"
                    ),
                )
