"""The engine's cross-cutting invariants, checked on its own source.

Six rules, each a plain function over parsed modules that yields
``(path, line, rule, message)`` findings:

* **REP001** a module-level ``*_CACHE`` / ``*_MEMO`` container is
  registered with :func:`repro.caches.register_cache` in its module;
* **REP002** only ``distributed/transport.py`` creates or unlinks shm segments;
* **REP003** a bare ``set_*`` toggle call saves the old value, sits in
  a ``finally`` block, or passes a saved value back;
* **REP004** a broad ``except`` in ``distributed/``, ``serving/`` or
  ``reliability/`` re-raises or leaves ``FailureReason`` telemetry;
* **REP005** a ``_try_*`` / ``_*_columnar`` fast path's result is
  checked against ``None``, the row-path fallback signal;
* **REP006** nothing reachable from the shard pool's worker entry
  points mutates module-level mutable state outside a lock.

``# repro: ignore[REPnnn] -- reason`` on a finding's line, or on a
comment-only line directly above it, silences it.  A marker claims that
a flagged pattern is safe, so one with no reason, with an unknown rule
id, or that silences nothing is itself a finding (rule ``"marker"``).
"""

import ast
import io
import re
import textwrap
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
MUTABLE_CALLS = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict",
                           "Counter", "deque", "WeakKeyDictionary",
                           "WeakValueDictionary"})


class Module:
    """One parsed source file with a child -> parent map."""

    def __init__(self, name, path, source):
        self.name, self.path, self.source = name, path, source
        self.tree = ast.parse(source, filename=path)
        self.parents = {id(child): node for node in ast.walk(self.tree)
                        for child in ast.iter_child_nodes(node)}

    def ancestors(self, node):
        while (node := self.parents.get(id(node))) is not None:
            yield node

    def enclosing_function(self, node):
        funcs = (a for a in self.ancestors(node) if isinstance(a, FUNCTIONS))
        return next(funcs, None)


def call_name(call):
    """``f`` for both ``f(...)`` and ``m.f(...)``."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", "")


def calls(node):
    return (n for n in ast.walk(node) if isinstance(n, ast.Call))


def is_mutable(node):
    literals = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    return isinstance(node, literals) or (
        isinstance(node, ast.Call) and call_name(node) in MUTABLE_CALLS)


def module_mutables(module):
    """``(name, stmt)`` for each module-scope name bound to a container."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and is_mutable(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt
        elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
              and isinstance(stmt.target, ast.Name)
              and is_mutable(stmt.value)):
            yield stmt.target.id, stmt


def assigned_names(node):
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and isinstance(
        node.target, ast.Name
    ):
        return [node.target.id]
    return []


def is_none_compare(node):
    ops = node.ops if isinstance(node, ast.Compare) else []
    return any(isinstance(op, (ast.Is, ast.IsNot)) for op in ops)


# --- REP001 ------------------------------------------------------------
CACHE_NAME = re.compile(r"(_MEMO|_CACHE)S?$")


def rep001(modules):
    for module in modules:
        if module.name == "repro.caches":  # holds registrations, not a cache
            continue
        registered = {
            sub.id
            for call in calls(module.tree) if call_name(call) == "register_cache"
            for arg in [*call.args, *(kw.value for kw in call.keywords)]
            for sub in ast.walk(arg) if isinstance(sub, ast.Name)
        }
        for name, stmt in module_mutables(module):
            if CACHE_NAME.search(name) and name not in registered:
                yield (module.path, stmt.lineno, "REP001",
                       f"cache {name!r} is not registered with repro.caches")


# --- REP002 ------------------------------------------------------------
def creates_segment(call):
    if call_name(call) != "SharedMemory":
        return False
    for kw in call.keywords:
        if kw.arg == "create" and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        return bool(call.args[1].value)
    return False


def rep002(modules):
    for module in modules:
        if module.path.endswith("repro/distributed/transport.py"):
            continue
        for call in calls(module.tree):
            if creates_segment(call):
                yield (module.path, call.lineno, "REP002",
                       "SharedMemory(create=True) outside the transport")
            # A segment's unlink() takes no arguments; pathlib's may.
            elif (isinstance(call.func, ast.Attribute)
                  and call.func.attr == "unlink"
                  and not call.args and not call.keywords):
                yield (module.path, call.lineno, "REP002",
                       ".unlink() outside the transport")


# --- REP003 ------------------------------------------------------------
TOGGLE_NAME = re.compile(r"^set_[a-z0-9_]+$")


def rep003(modules):
    for module in modules:
        for fn in ast.walk(module.tree):
            # A toggle's own definition is the entry point, not a use.
            if not isinstance(fn, FUNCTIONS) or TOGGLE_NAME.match(fn.name):
                continue
            toggles = sorted(
                (call for call in calls(fn)
                 if isinstance(call.func, ast.Name)
                 and TOGGLE_NAME.match(call.func.id)
                 and module.enclosing_function(call) is fn),
                key=lambda c: (c.lineno, c.col_offset))
            finally_lines = {
                line
                for node in ast.walk(fn)
                if isinstance(node, ast.Try) and node.finalbody
                for line in range(node.finalbody[0].lineno,
                                  node.finalbody[-1].end_lineno + 1)
            }
            saved = set()
            for call in toggles:
                if call.lineno in finally_lines:
                    continue
                names = []
                for anc in module.ancestors(call):
                    if (names := assigned_names(anc)) or anc is fn:
                        break
                if names:
                    saved.update(names)
                    continue
                args = [*call.args, *(kw.value for kw in call.keywords)]
                if {a.id for a in args if isinstance(a, ast.Name)} & saved:
                    continue
                yield (module.path, call.lineno, "REP003",
                       f"{call.func.id}(...) is neither saved nor restored")


# --- REP004 ------------------------------------------------------------
DOMAINS = ("repro/distributed/", "repro/serving/", "repro/reliability/")
TELEMETRY = frozenset({"FailureReason", "FailureEvent", "DemotionEvent"})
RECORDERS = frozenset({"record", "record_failure", "_failed_round"})


def is_broad(handler):
    kind = handler.type
    names = [kind] if isinstance(kind, ast.Name) else getattr(kind, "elts", [])
    return kind is None or any(
        getattr(n, "id", "") in ("Exception", "BaseException") for n in names)


def records_failure(handler):
    return any(
        isinstance(node, ast.Raise)
        or getattr(node, "id", getattr(node, "attr", "")) in TELEMETRY
        or (isinstance(node, ast.Call) and call_name(node) in RECORDERS)
        for node in ast.walk(handler))


def rep004(modules):
    for module in modules:
        if not any(domain in module.path for domain in DOMAINS):
            continue
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.ExceptHandler) and is_broad(node)
                    and not records_failure(node)):
                yield (module.path, node.lineno, "REP004",
                       "broad except neither re-raises nor records telemetry")


# --- REP005 ------------------------------------------------------------
FASTPATH_NAME = re.compile(r"^_try_\w+$|^_\w+_columnar$")


def none_checked_names(fn):
    """Names compared with ``is (not) None`` anywhere in ``fn``."""
    names = set()
    for node in ast.walk(fn):
        operands = [node.left, *node.comparators] if is_none_compare(node) else []
        if any(isinstance(o, ast.Constant) and o.value is None for o in operands):
            for o in operands:
                names.update([o.id] if isinstance(o, ast.Name) else assigned_names(o))
    return names


def is_guarded(module, call):
    fn = module.enclosing_function(call)
    if fn is None:
        return False
    # A fast path may delegate to another in return position: the None
    # signal propagates and the outermost caller holds the guard.
    if FASTPATH_NAME.match(fn.name) and any(
        isinstance(anc, ast.Return) for anc in module.ancestors(call)
    ):
        return True
    for anc in module.ancestors(call):
        if is_none_compare(anc):  # if (x := _try_f(...)) is not None
            return True
        if targets := assigned_names(anc):
            return bool(set(targets) & none_checked_names(fn))
        if anc is fn:
            return False
    return False


def rep005(modules):
    for module in modules:
        for call in calls(module.tree):
            name = call_name(call)
            if FASTPATH_NAME.match(name) and not is_guarded(module, call):
                yield (module.path, call.lineno, "REP005",
                       f"{name}(...) result is not checked for None")


# --- REP006 ------------------------------------------------------------
WORKER_SEEDS = (
    "repro.distributed.shard._run_worker_blob",
    "repro.distributed.shard._run_local_task",
)
MUTATORS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "pop", "popitem", "remove", "setdefault", "update",
})


def import_aliases(module):
    """Names bound by top-level imports -> the dotted target they mean."""
    aliases = {}
    # A package's __init__ is the package: ``from .m`` is one of its modules.
    package = module.name.split(".")
    if not module.path.endswith("__init__.py"):
        package = package[:-1]
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                head = alias.name.split(".", 1)[0]
                aliases[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                parts = package[: len(package) - stmt.level + 1]
                base = ".".join(parts + ([base] if base else []))
            for alias in stmt.names:
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def resolve(call, module, aliases, functions):
    """Qualname of a statically resolvable callee, else ``""``.

    Only a bare name defined or imported in the module, or a dotted
    ``module.function`` chain through an import, resolves; methods and
    callbacks do not, so reachability is an under-approximation.
    """
    if isinstance(call.func, ast.Name):
        for target in (f"{module.name}.{call.func.id}",
                       aliases.get(call.func.id, "")):
            if target in functions:
                return target
        return ""
    dotted = ast.unparse(call.func)  # resolves only as a pure a.b.c chain
    head, _, rest = dotted.partition(".")
    if aliases.get(head) and rest and f"{aliases[head]}.{rest}" in functions:
        return f"{aliases[head]}.{rest}"
    return dotted if dotted in functions else ""


def worker_reachable(modules):
    functions = {
        f"{module.name}.{stmt.name}": (module, stmt)
        for module in modules
        for stmt in module.tree.body if isinstance(stmt, FUNCTIONS)
    }
    aliases = {module.name: import_aliases(module) for module in modules}
    seen, frontier = set(), [s for s in WORKER_SEEDS if s in functions]
    while frontier:
        qualname = frontier.pop()
        if qualname in seen:
            continue
        seen.add(qualname)
        module, fn = functions[qualname]
        frontier.extend(
            target for call in calls(fn)
            if (target := resolve(call, module, aliases[module.name],
                                  functions))
        )
    return [(q, *functions[q]) for q in sorted(seen)]


def base_name(node):
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def mutated_name(node, mutables, declared_global):
    """The module-level container ``node`` writes to, else ``""``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        bases = [base_name(node.func.value)] if node.func.attr in MUTATORS else []
    elif isinstance(node, (ast.Assign, ast.AugAssign)):
        bases = [
            base_name(t)
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, (ast.Subscript, ast.Attribute))
            or (isinstance(t, ast.Name) and t.id in declared_global)
        ]
    else:
        bases = []
    return next((b for b in reversed(bases) if b in mutables), "")


def under_lock(module, node):
    return any(
        "lock" in ast.unparse(item.context_expr).lower()
        for anc in module.ancestors(node)
        if isinstance(anc, (ast.With, ast.AsyncWith))
        for item in anc.items
    )


def rep006(modules):
    for qualname, module, fn in worker_reachable(modules):
        mutables = {name for name, _ in module_mutables(module)}
        declared_global = {
            name for node in ast.walk(fn) if isinstance(node, ast.Global)
            for name in node.names
        }
        for node in ast.walk(fn):
            name = mutated_name(node, mutables, declared_global)
            if name and not under_lock(module, node):
                yield (module.path, node.lineno, "REP006",
                       f"module state {name!r} is mutated by worker-run {qualname}")


RULES = {"REP001": rep001, "REP002": rep002, "REP003": rep003,
         "REP004": rep004, "REP005": rep005, "REP006": rep006}

MARKER = re.compile(
    r"#\s*repro:\s*ignore\[(?P<rules>[^\]]*)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)


def markers(module):
    """``(line, covered line, rules, problem)`` for each marker comment."""
    code = [i + 1 for i, text in enumerate(module.source.splitlines())
            if text.strip() and not text.lstrip().startswith("#")]
    for tok in tokenize.generate_tokens(io.StringIO(module.source).readline):
        match = MARKER.search(tok.string) if tok.type == tokenize.COMMENT else None
        if match is None:
            continue
        line = tok.start[0]
        rules = [r.strip() for r in match["rules"].split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        problem = ("names no rule" if not rules
                   else f"names unknown rule(s) {unknown}" if unknown
                   else "" if match["reason"] else "gives no reason")
        covers = line if line in code else min(
            (n for n in code if n > line), default=line)
        yield line, covers, rules, problem


def check(modules):
    """Findings no marker silences, plus every malformed or idle marker."""
    raw = sorted(f for rule in RULES.values() for f in rule(modules))
    out = []
    for module in modules:
        found = [f for f in raw if f[0] == module.path]
        silenced = set()
        for line, covers, rules, problem in markers(module):
            hits = {f for f in found if f[1] == covers and f[2] in rules}
            if problem or not hits:
                out.append((module.path, line, "marker",
                            f"marker {problem or 'silences no finding'}"))
            if not problem:
                silenced |= hits
        out.extend(f for f in found if f not in silenced)
    return sorted(out)


# --- The library itself -----------------------------------------------
@pytest.fixture(scope="module")
def src_modules():
    """Every ``src/repro`` module, parsed once; a syntax error fails here."""
    modules = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC)
        name = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")
        modules.append(Module(name, rel.as_posix(), path.read_text("utf-8")))
    return modules


def test_source_tree_is_clean(src_modules):
    assert len(src_modules) > 50
    findings = check(src_modules)
    assert findings == [], "\n".join(
        f"{path}:{line}: {rule} {message}"
        for path, line, rule, message in findings
    )


def test_every_inline_marker_silences_a_live_finding(src_modules):
    # check() reports an idle marker; this pins that the tree's
    # documented single-writer and teardown patterns are still found.
    sites = [(m.path, covers, rule)
             for m in src_modules for _, covers, rules, _ in markers(m)
             for rule in rules]
    raw = {f[:3] for rule in RULES.values() for f in rule(src_modules)}
    assert len(sites) >= 10
    assert set(sites) <= raw


# --- Seeded cases: {module name: source} -> the rules that must fire ----
def lint(sources):
    """Findings of ``{module name: source}``; a ``pkg.__init__`` name is
    the package ``pkg``, parsed from ``pkg/__init__.py``."""
    modules = [Module(name.removesuffix(".__init__"),
                      name.replace(".", "/") + ".py", textwrap.dedent(src))
               for name, src in sources.items()]
    return sorted(rule for _, _, rule, _ in check(modules))


SHM = """
    from multiprocessing.shared_memory import SharedMemory
    def export(nbytes):
        return SharedMemory(create=True, size=nbytes)
    def retire(seg):
        seg.unlink()
"""
TOGGLE = """
    def run():
        set_columnar_enabled(True){}
        return 1
"""
SWALLOW = """
    def run(step):
        try:
            step()
        except {}:
            {}
"""
WORKER = """
    import threading
    _LOCK = threading.Lock()
    _RESULTS = {{}}
    def _run_worker_blob(blob):
        return {}
    def _evaluate(blob):
        {}
    def coordinator_only(key):
        _RESULTS[key] = 1
"""

CASES = {
    # REP001
    "rep001-unregistered": ({"repro.algebra.memo": "_PLAN_CACHE = {}"},
                            ["REP001"]),
    "rep001-registered": ({"repro.algebra.memo": """
        from repro.caches import register_cache
        _PLAN_CACHE = {}
        def _clear():
            _PLAN_CACHE.clear()
        register_cache("algebra.memo.plan_cache", clear=_clear,
                       size=lambda: len(_PLAN_CACHE))
    """}, []),
    "rep001-non-cache-names-and-immutables": ({"repro.algebra.memo": """
        _ROWS = []
        _SIZE_CACHE = 128
        _KEY_MEMO = ("a",)
    """}, []),
    "rep001-list-and-annotated": ({"repro.db.memo": """
        from typing import Dict
        _SHARD_MEMOS = []
        _CALIBRATION_CACHE: Dict = dict()
    """}, ["REP001", "REP001"]),
    "rep001-registry-module-exempt": ({"repro.caches": "_REGISTRY_CACHE = {}"},
                                      []),
    # REP002
    "rep002-outside-transport": ({"repro.db.export": SHM},
                                 ["REP002", "REP002"]),
    "rep002-inside-transport": ({"repro.distributed.transport": SHM}, []),
    "rep002-pathlib-unlink": ({"repro.db.files": """
        def cleanup(path):
            path.unlink(missing_ok=True)
    """}, []),
    "rep002-attach-without-create": ({"repro.db.attach": """
        def attach(name):
            return SharedMemory(name=name)
    """}, []),
    "rep002-positional-create": ({"repro.db.export": """
        def export(name):
            return SharedMemory(name, True, 64)
    """}, ["REP002"]),
    # REP003
    "rep003-unrestored": ({"repro.workloads.run": TOGGLE.format("")},
                          ["REP003"]),
    "rep003-save-restore": ({"repro.workloads.run": """
        def run():
            old = set_columnar_enabled(True)
            try:
                return 1
            finally:
                set_columnar_enabled(old)
    """}, []),
    "rep003-restore-outside-finally": ({"repro.workloads.run": """
        def run():
            old = set_hash_family("tab")
            out = work()
            set_hash_family(old)
            return out
    """}, []),
    "rep003-setters-and-own-definition": ({"repro.workloads.run": """
        def set_columnar_enabled(flag):
            set_flag(flag)
        def configure(view):
            view.set_data([1, 2])
    """}, []),
    # REP004
    "rep004-silent-swallow": ({"repro.distributed.rounds": SWALLOW.format(
        "Exception", "pass")}, ["REP004"]),
    "rep004-bare-except": ({"repro.serving.tick": """
        def tick(step):
            try:
                step()
            except:  # noqa: E722
                return None
    """}, ["REP004"]),
    "rep004-base-exception-in-tuple": ({"repro.reliability.guard": SWALLOW.format(
        "(ValueError, BaseException)", "pass")}, ["REP004"]),
    "rep004-telemetry": ({"repro.distributed.rounds": """
        def run(step, events):
            try:
                step()
            except Exception as err:
                events.append(FailureEvent(reason=FailureReason.WORKER_FAULT,
                                           detail=repr(err)))
    """}, []),
    "rep004-recorder-call": ({"repro.serving.tick": SWALLOW.format(
        "Exception", "telemetry.record(e)")}, []),
    "rep004-reraise": (
        {"repro.reliability.guard": SWALLOW.format("Exception", "raise")}, []),
    "rep004-outside-domains": (
        {"repro.algebra.util": SWALLOW.format("Exception", "pass")}, []),
    "rep004-narrow-handler": ({"repro.distributed.rounds": SWALLOW.format(
        "ValueError", "return None")}, []),
    # REP005
    "rep005-unguarded": ({"repro.algebra.dispatch": """
        def dispatch(rel):
            return _try_mask(rel)
    """}, ["REP005"]),
    "rep005-none-guard": ({"repro.algebra.dispatch": """
        def dispatch(rel):
            fast = _try_mask(rel)
            if fast is not None:
                return fast
            return slow_path(rel)
    """}, []),
    "rep005-walrus-guard": ({"repro.algebra.dispatch": """
        def dispatch(rel):
            if (fast := _select_columnar(rel)) is not None:
                return fast
            return slow_path(rel)
    """}, []),
    "rep005-delegates-in-return": ({"repro.algebra.dispatch": """
        def _join_columnar(rel):
            return _try_mask(rel)
    """}, []),
    "rep005-module-level-call": ({"repro.algebra.dispatch":
                                  "ROWS = _try_mask(None)"}, ["REP005"]),
    "rep005-unguarded-estimator-kernels": ({"repro.core.estimators": """
        def evaluate(query, rel):
            mask, values = _try_columns(rel, query)
            return values[mask].sum()
        def subtract(clean, dirty, query, ratio, key):
            return _try_diff_columns(clean, dirty, query, ratio, key)
    """}, ["REP005", "REP005"]),
    "rep005-guarded-estimator-kernels": ({"repro.core.estimators": """
        def evaluate(query, rel):
            cols = _try_columns(rel, query)
            if cols is not None:
                mask, values = cols
                return values[mask].sum()
            return row_loop(query, rel)
        def _try_diff_columns(clean, dirty, query):
            alignment = _try_alignment(clean, dirty)
            if alignment is None:
                return None
            return scatter(alignment)
    """}, []),
    # REP006
    "rep006-reachable-unlocked": ({"repro.distributed.shard": WORKER.format(
        "_evaluate(blob)", "_RESULTS[blob] = 1")}, ["REP006"]),
    "rep006-under-lock": ({"repro.distributed.shard": WORKER.format(
        "_evaluate(blob)", "with _LOCK:\n            _RESULTS[blob] = 1")}, []),
    "rep006-not-reachable": ({"repro.distributed.shard": WORKER.format(
        "blob", "pass")}, []),
    "rep006-mutator-method": ({"repro.distributed.shard": """
        _PENDING = []
        def _run_local_task(task):
            _PENDING.append(task)
    """}, ["REP006"]),
    "rep006-follows-imports": ({
        "repro.distributed.shard": """
            from repro.distributed import tasks as t
            from .tasks import handle
            def _run_worker_blob(blob):
                return handle(blob), t.other(blob)
        """,
        "repro.distributed.tasks": """
            _SEEN = set()
            def handle(blob):
                _SEEN.add(blob)
            def other(blob):
                _SEEN.discard(blob)
        """,
    }, ["REP006", "REP006"]),
    "rep006-follows-package-relative-imports": ({
        "repro.distributed.shard.__init__": """
            from .tasks import handle
            def _run_worker_blob(blob):
                return handle(blob)
        """,
        "repro.distributed.shard.tasks": """
            _SEEN = set()
            def handle(blob):
                _SEEN.add(blob)
        """,
    }, ["REP006"]),
    "rep006-global-rebind": ({"repro.distributed.shard": """
        _STATE = {}
        def _run_local_task(task):
            global _STATE
            _STATE = {task: 1}
    """}, ["REP006"]),
    # Markers
    "marker-same-line": ({"repro.workloads.run": TOGGLE.format(
        "  # repro: ignore[REP003] -- deliberate sticky install")}, []),
    "marker-line-above": ({"repro.workloads.run": """
        def run():
            # repro: ignore[REP003] -- deliberate sticky install
            set_columnar_enabled(True)
    """}, []),
    "marker-wrong-rule": ({"repro.workloads.run": TOGGLE.format(
        "  # repro: ignore[REP005] -- wrong rule for this site")},
        ["REP003", "marker"]),
    "marker-missing-reason": ({"repro.workloads.run": TOGGLE.format(
        "  # repro: ignore[REP003]")}, ["REP003", "marker"]),
    "marker-unknown-rule": (
        {"repro.workloads.run": "X = 1  # repro: ignore[REP999] -- no such rule"},
        ["marker"]),
    "marker-in-a-string-is-not-a-marker": (
        {"repro.workloads.run": 'X = "# repro: ignore[REP999]"'}, []),
}


@pytest.mark.parametrize("sources, expected", CASES.values(), ids=CASES.keys())
def test_seeded_case(sources, expected):
    assert lint(sources) == expected


def test_every_rule_has_a_seeded_violation():
    fired = {rule for sources, expected in CASES.values() for rule in expected}
    assert fired >= set(RULES)
