"""The plan compiler: fingerprints, fusion, CSE, fallback, invalidation.

Every compiled pipeline must be *value-identical* to the interpreter
(:func:`repro.algebra.evaluator.evaluate`): the equivalence checks here
compare ``repr``-exact row tuples, so dtype-laundering (int → float,
bool → int) fails loudly.  Row-engine comparisons for float aggregations
use a tolerance — the columnar and row interpreters already differ in
float summation order, which is an engine property, not a compiler one.
"""

import numpy as np
import pytest

from repro.algebra import (
    AggSpec,
    Aggregate,
    BaseRel,
    Difference,
    Hash,
    Intersect,
    Join,
    Output,
    Project,
    Relation,
    Schema,
    Select,
    Union,
    col,
    evaluate,
    func,
    lit,
    set_columnar_enabled,
)
from repro.algebra import evaluator
from repro.algebra.compiler import (
    CompiledPlan,
    bump_plan_epoch,
    clear_plan_cache,
    compile_count,
    compile_plan,
    compiled_evaluate,
    plan_epoch,
    plan_key,
)
from repro.algebra.evaluator import _union_disjoint
from repro.algebra.keys import derive_schema
from repro.algebra.predicates import Col, Const, IsIn


def exact_rows(rel):
    """Sorted repr-exact row tuples (value *and* type faithful)."""
    return sorted(tuple(map(repr, r)) for r in rel.rows)


def assert_equivalent(expr, leaves):
    """Compiled output must match the interpreter repr-exactly."""
    ref = evaluate(expr, leaves)
    plan = compile_plan(expr, leaves)
    got = plan.execute(leaves)
    assert exact_rows(got) == exact_rows(ref)
    assert got.key == ref.key
    assert got.schema == ref.schema
    return plan


def disjoint(expr, leaves):
    return _union_disjoint(expr, derive_schema(expr.left, leaves), leaves)


@pytest.fixture
def probes(monkeypatch):
    """Every key probe a set operator runs (a proven-disjoint union
    concatenates without one)."""
    calls = []
    probe = evaluator._try_key_matches

    def spy(left, right, key):
        calls.append((len(left), len(right)))
        return probe(left, right, key)

    monkeypatch.setattr(evaluator, "_try_key_matches", spy)
    return calls


@pytest.fixture
def leaves():
    rng = np.random.default_rng(11)
    r = Relation(
        Schema(["id", "grp", "val", "flag"]),
        [
            (
                i,
                int(rng.integers(0, 12)),
                float(rng.normal(50.0, 20.0)),
                int(rng.integers(0, 3)),
            )
            for i in range(400)
        ],
        key=("id",),
        name="R",
    )
    s = Relation(
        Schema(["grp", "label"]),
        [(g, f"g{g}") for g in range(12)],
        key=("grp",),
        name="S",
    )
    return {"R": r, "S": s}


class TestPlanKey:
    def test_rebuilt_trees_share_a_key(self):
        def build():
            return Select(
                Project(BaseRel("R"), [Output("id", col("id")),
                                       Output("v2", col("val") * lit(2))]),
                col("v2") > 10,
            )

        assert plan_key(build()) == plan_key(build())

    def test_literal_types_do_not_unify(self):
        # 1 == True == 1.0 in Python, but they project to different
        # output values — their plans must not be interchangeable.
        keys = {
            plan_key(Project(BaseRel("R"), [Output("m", Const(v))]))
            for v in (1, True, 1.0)
        }
        assert len(keys) == 3

    def test_structure_differences_split_keys(self):
        base = Select(BaseRel("R"), col("val") > 10)
        assert plan_key(base) != plan_key(Select(BaseRel("R"), col("val") >= 10))
        assert plan_key(base) != plan_key(Select(BaseRel("Q"), col("val") > 10))
        assert plan_key(Union(base, base)) != plan_key(Intersect(base, base))

    def test_isin_is_order_insensitive(self):
        a = Select(BaseRel("R"), IsIn(Col("grp"), frozenset({1, 2, 3})))
        b = Select(BaseRel("R"), IsIn(Col("grp"), frozenset({3, 2, 1})))
        assert plan_key(a) == plan_key(b)

    def test_function_identity_is_part_of_the_key(self):
        f = func("f", lambda v: v + 1, col("val"))
        g = func("f", lambda v: v + 2, col("val"))
        ka = plan_key(Project(BaseRel("R"), [Output("x", f)]))
        kb = plan_key(Project(BaseRel("R"), [Output("x", g)]))
        assert ka != kb


class TestFusionAndCSE:
    def test_select_project_chain_fuses_to_one_stage(self, leaves):
        expr = Project(
            Select(
                Select(BaseRel("R"), col("val") > 30),
                col("flag") < 2,
            ),
            [Output("id", col("id")), Output("scaled", col("val") * lit(2))],
        )
        plan = assert_equivalent(expr, leaves)
        assert plan.stage_kinds() == ["leaf", "chain"]

    def test_shared_subexpression_compiles_once(self, leaves):
        # Distinct objects, identical structure below the final output —
        # the σ subtree must own exactly one slot despite two parents.
        shared_a = Select(BaseRel("R"), col("val") > 30)
        shared_b = Select(BaseRel("R"), col("val") > 30)
        expr = Union(
            Project(shared_a, [Output("id", col("id")), Output("m", Const(1))]),
            Project(shared_b, [Output("id", col("id")), Output("m", Const(2))]),
        )
        plan = assert_equivalent(expr, leaves)
        # leaf, shared select, two project chains, union = 5 slots;
        # without CSE the select would compile twice.
        kinds = plan.stage_kinds()
        assert kinds.count("leaf") == 1
        assert kinds.count("node") == 1
        assert len(kinds) == 5

    def test_disjoint_union_fuses(self, leaves, probes):
        expr = Union(
            Project(BaseRel("R"), [Output("id", col("id")),
                                   Output("m", Const(1))]),
            Project(BaseRel("R"), [Output("id", col("id")),
                                   Output("m", Const(-1))]),
        )
        assert disjoint(expr, leaves)
        assert_equivalent(expr, leaves)
        assert probes == []  # concatenated in both engines, never probed

    def test_equal_literals_of_different_type_block_union_fusion(
        self, leaves, probes
    ):
        # Const(1) and Const(True) compare equal row-wise, so the union
        # CAN deduplicate across sides — fusing would skip that.
        expr = Union(
            Project(BaseRel("R"), [Output("id", col("id")),
                                   Output("m", Const(1))]),
            Project(BaseRel("R"), [Output("id", col("id")),
                                   Output("m", Const(True))]),
        )
        assert not disjoint(expr, leaves)
        assert_equivalent(expr, leaves)
        assert probes  # the rows the sides share are looked up by key

    def test_overlapping_domains_block_union_fusion(self, leaves, probes):
        expr = Union(
            Project(BaseRel("R"), [Output("id", col("id")),
                                   Output("m", Const(1))]),
            Project(BaseRel("R"), [Output("id", col("id")),
                                   Output("m", Const(1))]),
        )
        assert not disjoint(expr, leaves)
        assert_equivalent(expr, leaves)
        assert probes

    def test_indexed_membership_select_stays_generic(self, leaves):
        # σ_{id ∈ K}(R) is served by the leaf value index, whose output
        # order follows the key set, not the scan — it must not fuse.
        expr = Select(BaseRel("R"), IsIn(Col("id"), frozenset({7, 3, 250})))
        plan = compile_plan(expr, leaves)
        assert plan.stage_kinds() == ["leaf", "node"]
        ref = evaluate(expr, leaves)
        got = plan.execute(leaves)
        # Order-sensitive comparison: the fast path's order is part of
        # the reference semantics.
        assert [tuple(map(repr, r)) for r in got.rows] == [
            tuple(map(repr, r)) for r in ref.rows
        ]

    def test_shared_chain_interior_is_not_absorbed(self, leaves):
        shared = Select(BaseRel("R"), col("val") > 30)
        expr = Union(
            Project(shared, [Output("id", col("id")), Output("m", Const(1))]),
            Project(
                Select(shared, col("flag") < 1),
                [Output("id", col("id")), Output("m", Const(2))],
            ),
        )
        plan = assert_equivalent(expr, leaves)
        # The shared σ owns a slot; both branches read it from the
        # materialized map instead of recomputing it.
        assert plan.stage_kinds().count("chain") == 3


class TestOperatorBattery:
    """Compiled == interpreted over every operator kind."""

    def test_join_select_aggregate(self, leaves):
        join = Join(BaseRel("R"), BaseRel("S"), on=[("grp", "grp")],
                    foreign_key=True)
        expr = Aggregate(
            Select(join, col("val") > 20),
            ["label"],
            [AggSpec("n", "count"), AggSpec("lo", "min", col("val"))],
        )
        assert_equivalent(expr, leaves)

    def test_hash_eta(self, leaves):
        expr = Hash(BaseRel("R"), ("id",), 0.4, seed=3)
        assert_equivalent(expr, leaves)

    def test_set_operations(self, leaves):
        hi = Select(BaseRel("R"), col("val") > 40)
        lo = Select(BaseRel("R"), col("val") < 60)
        assert_equivalent(Intersect(hi, lo), leaves)
        assert_equivalent(Difference(hi, lo), leaves)

    def test_computed_projection(self, leaves):
        expr = Project(
            BaseRel("R"),
            [
                Output("id", col("id")),
                Output("ratio", col("val") / lit(2.0)),
                Output("tag", lit("x")),
            ],
        )
        assert_equivalent(expr, leaves)

    def test_empty_inputs(self, leaves):
        empty = {
            "R": Relation(Schema(["id", "grp", "val", "flag"]), [],
                          key=("id",), name="R"),
            "S": leaves["S"],
        }
        expr = Project(
            Select(BaseRel("R"), col("val") > 0),
            [Output("id", col("id"))],
        )
        assert_equivalent(expr, empty)


class TestFallback:
    def test_opaque_function_predicate_demotes_the_chain(self, leaves):
        # func terms have no columnar form: the fused mask fails and the
        # stage demotes to the interpreter, which runs the row loop.
        pred = func("odd", lambda v: v % 2 == 1, col("flag")) == lit(True)
        expr = Project(
            Select(Select(BaseRel("R"), col("val") > 30), pred),
            [Output("id", col("id"))],
        )
        plan = assert_equivalent(expr, leaves)
        assert "chain" in plan.stage_kinds()

    def test_masked_division_error_demotes_not_corrupts(self):
        # σ(10/val > 1) after σ(val != 0): the combined mask divides by
        # zero on rows the inner filter removes, so the fused body must
        # demote and reproduce the reference result (which filters
        # first and never divides by zero).
        rel = Relation(
            Schema(["id", "val"]),
            [(0, 0), (1, 2), (2, 4), (3, 0), (4, 8)],
            key=("id",),
            name="T",
        )
        leaves = {"T": rel}
        expr = Select(
            Select(BaseRel("T"), col("val") != lit(0)),
            (lit(10) / col("val")) > lit(1),
        )
        plan = compile_plan(expr, leaves)
        assert plan.stage_kinds() == ["leaf", "chain"]
        ref = evaluate(expr, leaves)
        got = plan.execute(leaves)
        assert exact_rows(got) == exact_rows(ref)

    def test_reference_errors_survive_compilation(self, leaves):
        expr = Select(BaseRel("T_missing"), col("val") > 0)
        plan = compile_plan(expr, leaves)
        with pytest.raises(Exception, match="T_missing"):
            plan.execute(leaves)


class TestRowEngineContract:
    def test_row_engine_plans_compile_all_generic(self, leaves):
        expr = Project(
            Select(BaseRel("R"), col("val") > 30),
            [Output("id", col("id"))],
        )
        old = set_columnar_enabled(False)
        try:
            plan = compile_plan(expr, leaves)
            assert set(plan.stage_kinds()) == {"leaf", "node"}
            ref = evaluate(expr, leaves)
            got = plan.execute(leaves)
            assert exact_rows(got) == exact_rows(ref)
        finally:
            set_columnar_enabled(old)


class TestInvalidationAndCache:
    def test_epoch_invalidates_on_columnar_toggle(self, leaves):
        expr = Select(BaseRel("R"), col("val") > 30)
        plan = compile_plan(expr, leaves)
        assert plan.valid_for(leaves)
        old = set_columnar_enabled(False)
        try:
            assert not plan.valid_for(leaves)
        finally:
            set_columnar_enabled(old)
        # Restoring toggles again — still a new epoch, still invalid.
        assert not plan.valid_for(leaves)

    def test_epoch_invalidates_on_hash_family_change(self, leaves):
        from repro.stats.hashing import set_hash_family

        expr = Hash(BaseRel("R"), ("id",), 0.5, seed=1)
        plan = compile_plan(expr, leaves)
        assert plan.valid_for(leaves)
        set_hash_family("linear")
        try:
            assert not plan.valid_for(leaves)
        finally:
            set_hash_family("sha1")

    def test_epoch_invalidates_on_shard_count_change(self, leaves):
        from repro.distributed import set_shard_count

        expr = Select(BaseRel("R"), col("val") > 30)
        plan = compile_plan(expr, leaves)
        assert plan.valid_for(leaves)
        set_shard_count(2)
        try:
            assert not plan.valid_for(leaves)
        finally:
            set_shard_count(1)

    def test_leaf_signature_invalidates_on_schema_change(self, leaves):
        expr = Select(BaseRel("R"), col("val") > 30)
        plan = compile_plan(expr, leaves)
        widened = dict(leaves)
        widened["R"] = Relation(
            Schema(["id", "grp", "val", "flag", "extra"]),
            [r + (0,) for r in leaves["R"].rows],
            key=("id",),
            name="R",
        )
        assert plan.valid_for(leaves)
        assert not plan.valid_for(widened)

    def test_compiled_evaluate_caches_by_structure(self, leaves):
        clear_plan_cache()

        def build():
            return Project(
                Select(BaseRel("R"), col("val") > 25),
                [Output("id", col("id")), Output("v", col("val"))],
            )

        before = compile_count()
        first = compiled_evaluate(build(), leaves)
        after_first = compile_count()
        second = compiled_evaluate(build(), leaves)
        assert after_first == before + 1
        assert compile_count() == after_first  # structural hit, no recompile
        assert exact_rows(first) == exact_rows(second)

    def test_bump_plan_epoch_forces_recompile(self, leaves):
        clear_plan_cache()
        expr = Select(BaseRel("R"), col("val") > 25)
        compiled_evaluate(expr, leaves)
        n = compile_count()
        epoch = plan_epoch()
        bump_plan_epoch()
        assert plan_epoch() == epoch + 1
        compiled_evaluate(expr, leaves)
        assert compile_count() == n + 1

    def test_compile_returns_plan_object(self, leaves):
        plan = compile_plan(Select(BaseRel("R"), col("val") > 0), leaves)
        assert isinstance(plan, CompiledPlan)
        assert "CompiledPlan" in repr(plan)
