"""Self-hosting rule tests: each rule fires on its minimal bad snippet
and stays quiet on the repaired form."""


# ---------------------------------------------------------------------------
# REP001 — unregistered module-level cache
# ---------------------------------------------------------------------------


class TestRep001Caches:
    def test_fires_on_unregistered_cache(self, project):
        project.write(
            "src/repro/algebra/memo.py",
            """
            _PLAN_CACHE = {}
            """,
        )
        assert project.rules() == ["REP001"]

    def test_quiet_when_registered(self, project):
        project.write(
            "src/repro/algebra/memo.py",
            """
            from repro.caches import register_cache

            _PLAN_CACHE = {}


            def _clear():
                _PLAN_CACHE.clear()


            register_cache(
                "algebra.memo.plan_cache",
                clear=_clear,
                size=lambda: len(_PLAN_CACHE),
            )
            """,
        )
        assert project.rules() == []

    def test_ignores_non_cache_names_and_immutables(self, project):
        project.write(
            "src/repro/algebra/memo.py",
            """
            _ROWS = []          # mutable but not named like a cache
            _SIZE_CACHE = 128   # cache-named but not a container
            _KEY_MEMO = ("a",)  # cache-named but immutable
            """,
        )
        assert project.rules() == []

    def test_list_and_annotated_caches_fire_too(self, project):
        project.write(
            "src/repro/db/memo.py",
            """
            from typing import Dict

            _SHARD_MEMOS = []
            _CALIBRATION_CACHE: Dict = dict()
            """,
        )
        assert project.rules() == ["REP001", "REP001"]


# ---------------------------------------------------------------------------
# REP002 — raw SharedMemory lifecycle outside the transport/probe
# ---------------------------------------------------------------------------


SHM_SNIPPET = """
from multiprocessing.shared_memory import SharedMemory


def export(nbytes):
    return SharedMemory(create=True, size=nbytes)


def retire(seg):
    seg.unlink()
"""


class TestRep002SharedMemory:
    def test_fires_outside_allowlist(self, project):
        project.write("src/repro/db/export.py", SHM_SNIPPET)
        assert project.rules() == ["REP002", "REP002"]

    def test_quiet_inside_transport_and_probe(self, project):
        project.write("src/repro/distributed/transport.py", SHM_SNIPPET)
        project.write("src/repro/tuning/probe.py", SHM_SNIPPET)
        assert project.rules() == []

    def test_pathlib_unlink_with_args_not_flagged(self, project):
        project.write(
            "src/repro/db/files.py",
            """
            def cleanup(path):
                path.unlink(missing_ok=True)
            """,
        )
        assert project.rules() == []

    def test_attach_without_create_not_flagged(self, project):
        project.write(
            "src/repro/db/attach.py",
            """
            from multiprocessing.shared_memory import SharedMemory


            def attach(name):
                return SharedMemory(name=name)
            """,
        )
        assert project.rules() == []


# ---------------------------------------------------------------------------
# REP003 — set_* toggle without save/restore pairing
# ---------------------------------------------------------------------------


class TestRep003Toggles:
    def test_fires_on_unrestored_toggle(self, project):
        project.write(
            "src/repro/workloads/run.py",
            """
            from repro.algebra.evaluator import set_columnar_enabled


            def run():
                set_columnar_enabled(True)
                return 1
            """,
        )
        assert project.rules() == ["REP003"]

    def test_quiet_on_save_restore_pairing(self, project):
        project.write(
            "src/repro/workloads/run.py",
            """
            from repro.algebra.evaluator import set_columnar_enabled


            def run():
                old = set_columnar_enabled(True)
                try:
                    return 1
                finally:
                    set_columnar_enabled(old)
            """,
        )
        assert project.rules() == []

    def test_quiet_on_restore_outside_finally(self, project):
        project.write(
            "src/repro/workloads/run.py",
            """
            def run():
                old = set_hash_family("tab")
                out = work()
                set_hash_family(old)
                return out
            """,
        )
        assert project.rules() == []

    def test_method_setters_and_own_definition_exempt(self, project):
        project.write(
            "src/repro/workloads/run.py",
            """
            def set_columnar_enabled(flag):
                set_flag(flag)  # a toggle's own body is the entry point


            def configure(view):
                view.set_data([1, 2])  # attribute call: setter, not toggle
            """,
        )
        assert project.rules() == []


# ---------------------------------------------------------------------------
# REP004 — silent except Exception in a failure domain
# ---------------------------------------------------------------------------


class TestRep004Failures:
    def test_fires_on_silent_swallow_in_domain(self, project):
        project.write(
            "src/repro/distributed/rounds.py",
            """
            def run(step):
                try:
                    step()
                except Exception:
                    pass
            """,
        )
        assert project.rules() == ["REP004"]

    def test_bare_except_fires_too(self, project):
        project.write(
            "src/repro/serving/tick.py",
            """
            def tick(step):
                try:
                    step()
                except:  # noqa: E722
                    return None
            """,
        )
        assert project.rules() == ["REP004"]

    def test_quiet_when_telemetry_recorded(self, project):
        project.write(
            "src/repro/distributed/rounds.py",
            """
            from repro.reliability.telemetry import FailureEvent, FailureReason


            def run(step, events):
                try:
                    step()
                except Exception as err:
                    events.append(
                        FailureEvent(
                            reason=FailureReason.WORKER_FAULT,
                            detail=repr(err),
                        )
                    )
            """,
        )
        assert project.rules() == []

    def test_quiet_on_reraise(self, project):
        project.write(
            "src/repro/reliability/guard.py",
            """
            def run(step):
                try:
                    step()
                except Exception:
                    raise
            """,
        )
        assert project.rules() == []

    def test_quiet_outside_failure_domains(self, project):
        project.write(
            "src/repro/algebra/util.py",
            """
            def run(step):
                try:
                    step()
                except Exception:
                    pass
            """,
        )
        assert project.rules() == []

    def test_narrow_handler_not_flagged(self, project):
        project.write(
            "src/repro/distributed/rounds.py",
            """
            def run(step):
                try:
                    step()
                except ValueError:
                    return None
            """,
        )
        assert project.rules() == []


# ---------------------------------------------------------------------------
# REP005 — columnar fast path outside the fallback guard
# ---------------------------------------------------------------------------


class TestRep005Fallback:
    def test_fires_on_unguarded_fastpath(self, project):
        project.write(
            "src/repro/algebra/dispatch.py",
            """
            def dispatch(rel):
                return _try_mask(rel)
            """,
        )
        assert project.rules() == ["REP005"]

    def test_quiet_on_none_guarded_dispatch(self, project):
        project.write(
            "src/repro/algebra/dispatch.py",
            """
            def dispatch(rel):
                fast = _try_mask(rel)
                if fast is not None:
                    return fast
                return slow_path(rel)
            """,
        )
        assert project.rules() == []

    def test_quiet_on_walrus_guard(self, project):
        project.write(
            "src/repro/algebra/dispatch.py",
            """
            def dispatch(rel):
                if (fast := _select_columnar(rel)) is not None:
                    return fast
                return slow_path(rel)
            """,
        )
        assert project.rules() == []

    def test_fastpath_may_delegate_in_return_position(self, project):
        project.write(
            "src/repro/algebra/dispatch.py",
            """
            def _join_columnar(rel):
                return _try_mask(rel)  # None propagates to the real guard
            """,
        )
        assert project.rules() == []

    def test_module_level_call_fires(self, project):
        project.write(
            "src/repro/algebra/dispatch.py",
            """
            ROWS = _try_mask(None)
            """,
        )
        assert project.rules() == ["REP005"]

    def test_fires_on_unguarded_estimator_kernel(self, project):
        # The repro/core batch helpers follow the same naming, so the
        # rule covers them: using (mask, values) unchecked is a finding.
        project.write(
            "src/repro/core/estimators.py",
            """
            def evaluate(query, rel):
                mask, values = _try_columns(rel, query)
                return values[mask].sum()


            def subtract(clean, dirty, query, ratio, key):
                return _try_diff_columns(clean, dirty, query, ratio, key)
            """,
        )
        assert project.rules() == ["REP005", "REP005"]

    def test_quiet_on_guarded_estimator_kernel(self, project):
        project.write(
            "src/repro/core/estimators.py",
            """
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
            """,
        )
        assert project.rules() == []


# ---------------------------------------------------------------------------
# REP006 — worker-reachable mutation of module-level mutable state
# ---------------------------------------------------------------------------


class TestRep006Workers:
    def test_fires_on_reachable_unlocked_mutation(self, project):
        project.write(
            "src/repro/distributed/shard.py",
            """
            _RESULTS = {}


            def _run_worker_blob(blob):
                return _evaluate(blob)


            def _evaluate(blob):
                _RESULTS[blob] = 1  # raced by thread-pool workers
                return _RESULTS[blob]
            """,
        )
        assert project.rules() == ["REP006"]

    def test_quiet_under_lock(self, project):
        project.write(
            "src/repro/distributed/shard.py",
            """
            import threading

            _LOCK = threading.Lock()
            _RESULTS = {}


            def _run_worker_blob(blob):
                return _evaluate(blob)


            def _evaluate(blob):
                with _LOCK:
                    _RESULTS[blob] = 1
                return 1
            """,
        )
        assert project.rules() == []

    def test_quiet_when_not_worker_reachable(self, project):
        project.write(
            "src/repro/distributed/shard.py",
            """
            _RESULTS = {}


            def _run_worker_blob(blob):
                return blob


            def coordinator_only(key):
                _RESULTS[key] = 1  # never runs on a pool worker
            """,
        )
        assert project.rules() == []

    def test_follows_imports_across_modules(self, project):
        project.write(
            "src/repro/distributed/shard.py",
            """
            from repro.distributed.tasks import handle


            def _run_worker_blob(blob):
                return handle(blob)
            """,
        )
        project.write(
            "src/repro/distributed/tasks.py",
            """
            _SEEN = set()


            def handle(blob):
                _SEEN.add(blob)
                return blob
            """,
        )
        assert project.rules() == ["REP006"]

    def test_mutator_methods_fire(self, project):
        project.write(
            "src/repro/distributed/shard.py",
            """
            _PENDING = []


            def _run_local_task(task):
                _PENDING.append(task)
                return task
            """,
        )
        assert project.rules() == ["REP006"]
