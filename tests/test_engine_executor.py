"""Executor tests: full SQL execution semantics over the demo database."""

import datetime

import pytest

from repro.engine.errors import (
    AmbiguousColumnError,
    ExecutionError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.engine.executor import Executor, execute_sql
from repro.engine.reference import ReferenceExecutor
from repro.engine.stats import engine_snapshot, reset_engine_stats


def rows(executor, sql):
    return executor.execute(sql).rows


class TestProjection:
    def test_select_columns(self, executor):
        result = executor.execute("SELECT EMP_NAME, SALARY FROM EMP")
        assert result.columns == ["EMP_NAME", "SALARY"]
        assert len(result.rows) == 6

    def test_select_star(self, executor):
        result = executor.execute("SELECT * FROM DEPT")
        assert result.columns == ["DEPT_ID", "DEPT_NAME", "REGION", "BUDGET"]

    def test_qualified_star(self, executor):
        result = executor.execute(
            "SELECT d.* FROM DEPT d JOIN EMP e ON d.DEPT_ID = e.DEPT_ID"
        )
        assert result.columns == ["DEPT_ID", "DEPT_NAME", "REGION", "BUDGET"]

    def test_expression_projection(self, executor):
        result = executor.execute("SELECT SALARY * 2 AS double_pay FROM EMP")
        assert result.columns == ["double_pay"]

    def test_literal_select_without_from(self, executor):
        assert rows(executor, "SELECT 1 + 1") == [(2,)]

    def test_alias_used_as_output_name(self, executor):
        result = executor.execute("SELECT COUNT(*) AS n FROM EMP")
        assert result.columns == ["n"]

    def test_case_insensitive_resolution(self, executor):
        assert len(rows(executor, "select emp_name from emp")) == 6


class TestWhere:
    def test_comparison_filter(self, executor):
        assert len(rows(executor, "SELECT 1 FROM EMP WHERE SALARY > 100")) == 2

    def test_null_comparison_rejects_row(self, executor):
        # Donald has NULL salary: not matched by either side
        low = rows(executor, "SELECT 1 FROM EMP WHERE SALARY < 1000")
        high = rows(executor, "SELECT 1 FROM EMP WHERE SALARY >= 1000")
        assert len(low) + len(high) == 5

    def test_is_null(self, executor):
        result = rows(
            executor, "SELECT EMP_NAME FROM EMP WHERE SALARY IS NULL"
        )
        assert result == [("Donald",)]

    def test_boolean_column_filter(self, executor):
        assert len(rows(executor, "SELECT 1 FROM EMP WHERE ACTIVE")) == 5

    def test_in_list(self, executor):
        result = rows(
            executor,
            "SELECT EMP_NAME FROM EMP WHERE EMP_NAME IN ('Ada', 'Alan')",
        )
        assert {r[0] for r in result} == {"Ada", "Alan"}

    def test_between(self, executor):
        assert len(
            rows(executor, "SELECT 1 FROM EMP WHERE SALARY BETWEEN 90 AND 120")
        ) == 3

    def test_like_case_insensitive(self, executor):
        result = rows(executor, "SELECT EMP_NAME FROM EMP WHERE EMP_NAME LIKE 'a%'")
        assert {r[0] for r in result} == {"Ada", "Alan"}

    def test_date_comparison_with_iso_text(self, executor):
        result = rows(
            executor, "SELECT EMP_NAME FROM EMP WHERE HIRED >= '2022-01-01'"
        )
        assert {r[0] for r in result} == {"Edsger", "Barbara"}


class TestJoins:
    def test_inner_join(self, executor):
        result = rows(
            executor,
            "SELECT e.EMP_NAME, d.DEPT_NAME FROM EMP e JOIN DEPT d "
            "ON e.DEPT_ID = d.DEPT_ID",
        )
        assert len(result) == 6

    def test_left_join_pads_nulls(self, demo_db):
        demo_db.create_table(
            "BONUS",
            [
                __import__("repro.engine", fromlist=["Column"]).Column(
                    "EMP_ID", "INTEGER"
                ),
                __import__("repro.engine", fromlist=["Column"]).Column(
                    "AMOUNT", "FLOAT"
                ),
            ],
            rows=[(1, 10.0)],
        )
        executor = Executor(demo_db)
        result = rows(
            executor,
            "SELECT e.EMP_NAME, b.AMOUNT FROM EMP e LEFT JOIN BONUS b "
            "ON e.EMP_ID = b.EMP_ID ORDER BY e.EMP_ID",
        )
        assert result[0] == ("Ada", 10.0)
        assert all(r[1] is None for r in result[1:])

    def test_right_join(self, executor):
        result = rows(
            executor,
            "SELECT d.DEPT_NAME, e.EMP_NAME FROM EMP e RIGHT JOIN DEPT d "
            "ON e.DEPT_ID = d.DEPT_ID",
        )
        assert len(result) == 6  # every dept has employees

    def test_full_join_unmatched_both_sides(self, demo_db):
        from repro.engine import Column

        demo_db.create_table(
            "OTHER", [Column("X", "INTEGER")], rows=[(99,)]
        )
        executor = Executor(demo_db)
        result = rows(
            executor,
            "SELECT d.DEPT_ID, o.X FROM DEPT d FULL JOIN OTHER o "
            "ON d.DEPT_ID = o.X",
        )
        assert len(result) == 4  # 3 unmatched depts + 1 unmatched other

    def test_cross_join_cardinality(self, executor):
        assert len(rows(executor, "SELECT 1 FROM DEPT CROSS JOIN DEPT d2")) == 9

    def test_duplicate_binding_rejected(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute("SELECT 1 FROM DEPT JOIN DEPT ON 1 = 1")

    def test_ambiguous_column_over_join(self, executor):
        with pytest.raises(AmbiguousColumnError):
            executor.execute(
                "SELECT DEPT_ID FROM EMP JOIN DEPT "
                "ON EMP.DEPT_ID = DEPT.DEPT_ID"
            )


class TestAggregation:
    def test_global_aggregates(self, executor):
        result = rows(
            executor,
            "SELECT COUNT(*), COUNT(SALARY), SUM(SALARY), AVG(SALARY), "
            "MIN(SALARY), MAX(SALARY) FROM EMP",
        )
        count_all, count_salary, total, avg, low, high = result[0]
        assert count_all == 6 and count_salary == 5
        assert total == 515.0 and avg == 103.0
        assert low == 70.0 and high == 140.0

    def test_group_by(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID, COUNT(*) FROM EMP GROUP BY DEPT_ID ORDER BY 1",
        )
        assert result == [(1, 2), (2, 2), (3, 2)]

    def test_group_by_expression(self, executor):
        result = rows(
            executor,
            "SELECT YEAR(HIRED) AS y, COUNT(*) FROM EMP GROUP BY y ORDER BY y",
        )
        assert result[0] == (2018, 1)

    def test_having(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID, SUM(SALARY) AS s FROM EMP GROUP BY DEPT_ID "
            "HAVING SUM(SALARY) > 100 ORDER BY s DESC",
        )
        assert [r[0] for r in result] == [1, 2]

    def test_count_distinct(self, executor):
        assert rows(
            executor, "SELECT COUNT(DISTINCT DEPT_ID) FROM EMP"
        ) == [(3,)]

    def test_global_aggregate_on_empty_input(self, executor):
        assert rows(
            executor, "SELECT COUNT(*), SUM(SALARY) FROM EMP WHERE SALARY > 999"
        ) == [(0, None)]

    def test_group_by_empty_input_no_groups(self, executor):
        assert rows(
            executor,
            "SELECT DEPT_ID, COUNT(*) FROM EMP WHERE SALARY > 999 "
            "GROUP BY DEPT_ID",
        ) == []

    def test_conditional_aggregation(self, executor):
        result = rows(
            executor,
            "SELECT SUM(CASE WHEN ACTIVE THEN 1 ELSE 0 END) FROM EMP",
        )
        assert result == [(5,)]

    def test_aggregate_of_expression(self, executor):
        result = rows(executor, "SELECT SUM(SALARY * 2) FROM EMP")
        assert result == [(1030.0,)]


class TestWindows:
    def test_row_number_over_order(self, executor):
        result = rows(
            executor,
            "SELECT EMP_NAME, ROW_NUMBER() OVER (ORDER BY SALARY DESC) AS r "
            "FROM EMP WHERE SALARY IS NOT NULL ORDER BY r",
        )
        assert result[0] == ("Grace", 1)

    def test_partitioned_rank(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID, EMP_NAME, ROW_NUMBER() OVER "
            "(PARTITION BY DEPT_ID ORDER BY SALARY DESC) AS r FROM EMP "
            "WHERE SALARY IS NOT NULL ORDER BY DEPT_ID, r",
        )
        top_per_dept = [row for row in result if row[2] == 1]
        assert [row[1] for row in top_per_dept] == ["Grace", "Edsger", "Barbara"]

    def test_window_sum_share(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID, CAST(SUM(SALARY) AS FLOAT) / "
            "NULLIF(SUM(SUM(SALARY)) OVER (), 0) AS share FROM EMP "
            "WHERE SALARY IS NOT NULL GROUP BY DEPT_ID ORDER BY DEPT_ID",
        )
        assert sum(row[1] for row in result) == pytest.approx(1.0)

    def test_window_after_group_by(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID, ROW_NUMBER() OVER (ORDER BY SUM(SALARY) DESC) "
            "AS r FROM EMP WHERE SALARY IS NOT NULL GROUP BY DEPT_ID "
            "ORDER BY r",
        )
        assert result[0][0] == 1  # Engineering has highest total

    def test_window_in_order_by(self, executor):
        result = rows(
            executor,
            "SELECT EMP_NAME FROM EMP WHERE SALARY IS NOT NULL "
            "ORDER BY ROW_NUMBER() OVER (ORDER BY SALARY ASC)",
        )
        assert result[0] == ("Barbara",)


class TestSubqueries:
    def test_scalar_subquery(self, executor):
        result = rows(
            executor,
            "SELECT EMP_NAME FROM EMP WHERE SALARY > "
            "(SELECT AVG(SALARY) FROM EMP)",
        )
        assert {r[0] for r in result} == {"Ada", "Grace"}

    def test_scalar_subquery_empty_is_null(self, executor):
        assert rows(
            executor,
            "SELECT (SELECT SALARY FROM EMP WHERE EMP_ID = 99)",
        ) == [(None,)]

    def test_scalar_subquery_multiple_rows_raises(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute("SELECT (SELECT SALARY FROM EMP)")

    def test_correlated_exists(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_NAME FROM DEPT d WHERE EXISTS "
            "(SELECT 1 FROM EMP e WHERE e.DEPT_ID = d.DEPT_ID "
            "AND e.SALARY > 100)",
        )
        assert {r[0] for r in result} == {"Engineering"}

    def test_in_subquery(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_NAME FROM DEPT WHERE DEPT_ID IN "
            "(SELECT DEPT_ID FROM EMP WHERE ACTIVE = FALSE)",
        )
        assert result == [("Sales",)]

    def test_correlated_scalar_subquery(self, executor):
        result = rows(
            executor,
            "SELECT d.DEPT_NAME, (SELECT MAX(SALARY) FROM EMP e "
            "WHERE e.DEPT_ID = d.DEPT_ID) AS top FROM DEPT d ORDER BY 1",
        )
        assert result[0] == ("Engineering", 140.0)

    def test_derived_table(self, executor):
        result = rows(
            executor,
            "SELECT AVG(s) FROM (SELECT SUM(SALARY) AS s FROM EMP "
            "GROUP BY DEPT_ID) AS per_dept",
        )
        assert result[0][0] == pytest.approx(515.0 / 3)


class TestCtes:
    def test_cte_referenced_twice_in_body(self, executor):
        result = rows(
            executor,
            "WITH s AS (SELECT DEPT_ID, SUM(SALARY) AS total FROM EMP "
            "GROUP BY DEPT_ID) SELECT a.DEPT_ID FROM s a JOIN s b "
            "ON a.total >= b.total GROUP BY a.DEPT_ID "
            "HAVING COUNT(*) = 3",
        )
        assert result == [(1,)]  # Engineering dominates all

    def test_cte_chain(self, executor):
        result = rows(
            executor,
            "WITH a AS (SELECT SALARY FROM EMP WHERE SALARY IS NOT NULL), "
            "b AS (SELECT SALARY FROM a WHERE SALARY > 90) "
            "SELECT COUNT(*) FROM b",
        )
        assert result == [(3,)]  # salaries 120, 140, 95 exceed 90

    def test_cte_column_aliases(self, executor):
        result = rows(
            executor,
            "WITH c(name, pay) AS (SELECT EMP_NAME, SALARY FROM EMP) "
            "SELECT name FROM c WHERE pay > 120",
        )
        assert result == [("Grace",)]

    def test_cte_shadows_nothing_outside(self, executor):
        executor.execute("WITH tmp AS (SELECT 1 AS x) SELECT x FROM tmp")
        with pytest.raises(UnknownTableError):
            executor.execute("SELECT x FROM tmp")


class TestSetOperations:
    def test_union_dedupes(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID FROM EMP UNION SELECT DEPT_ID FROM DEPT",
        )
        assert len(result) == 3

    def test_union_all_keeps_duplicates(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID FROM EMP UNION ALL SELECT DEPT_ID FROM DEPT",
        )
        assert len(result) == 9

    def test_intersect(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID FROM EMP WHERE SALARY > 100 INTERSECT "
            "SELECT DEPT_ID FROM DEPT",
        )
        assert result == [(1,)]

    def test_except(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID FROM DEPT EXCEPT "
            "SELECT DEPT_ID FROM EMP WHERE SALARY < 100",
        )
        assert {r[0] for r in result} == {1}

    def test_set_arity_mismatch_raises(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute(
                "SELECT DEPT_ID, 1 FROM DEPT UNION SELECT DEPT_ID FROM DEPT"
            )

    def test_union_order_by_output_column(self, executor):
        result = rows(
            executor,
            "SELECT DEPT_ID FROM EMP UNION SELECT DEPT_ID FROM DEPT "
            "ORDER BY DEPT_ID DESC LIMIT 1",
        )
        assert result == [(3,)]


class TestOrderingAndLimits:
    def test_order_by_column(self, executor):
        result = rows(
            executor,
            "SELECT EMP_NAME FROM EMP WHERE SALARY IS NOT NULL "
            "ORDER BY SALARY DESC",
        )
        assert result[0] == ("Grace",)

    def test_order_by_alias(self, executor):
        result = rows(
            executor,
            "SELECT SALARY * 2 AS d FROM EMP WHERE SALARY IS NOT NULL "
            "ORDER BY d LIMIT 1",
        )
        assert result == [(140.0,)]

    def test_order_by_ordinal(self, executor):
        result = rows(
            executor,
            "SELECT EMP_NAME, SALARY FROM EMP WHERE SALARY IS NOT NULL "
            "ORDER BY 2 DESC LIMIT 2",
        )
        assert [r[0] for r in result] == ["Grace", "Ada"]

    def test_nulls_last_ascending_default(self, executor):
        result = rows(executor, "SELECT SALARY FROM EMP ORDER BY SALARY")
        assert result[-1] == (None,)

    def test_limit_offset(self, executor):
        result = rows(
            executor,
            "SELECT EMP_ID FROM EMP ORDER BY EMP_ID LIMIT 2 OFFSET 3",
        )
        assert result == [(4,), (5,)]

    def test_distinct(self, executor):
        assert len(rows(executor, "SELECT DISTINCT DEPT_ID FROM EMP")) == 3

    def test_distinct_with_order(self, executor):
        result = rows(
            executor, "SELECT DISTINCT REGION FROM DEPT ORDER BY REGION"
        )
        assert result == [("East",), ("West",)]


class TestErrors:
    def test_unknown_table(self, executor):
        with pytest.raises(UnknownTableError):
            executor.execute("SELECT 1 FROM nope")

    def test_unknown_column(self, executor):
        with pytest.raises(UnknownColumnError):
            executor.execute("SELECT nope FROM EMP")

    def test_aggregate_without_group_context(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute("SELECT 1 FROM EMP WHERE SUM(SALARY) > 1")

    def test_having_without_group(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute("SELECT EMP_NAME FROM EMP HAVING EMP_ID > 1")


class TestResultHelpers:
    def test_comparable_is_order_insensitive(self, executor):
        first = executor.execute("SELECT DEPT_ID FROM EMP ORDER BY EMP_ID")
        second = executor.execute(
            "SELECT DEPT_ID FROM EMP ORDER BY EMP_ID DESC"
        )
        assert first.comparable() == second.comparable()

    def test_execute_sql_helper(self, demo_db):
        assert execute_sql(demo_db, "SELECT COUNT(*) FROM EMP").rows == [(6,)]


def counters(executor, sql):
    """Engine counters for one statement; the error, if any, is returned."""
    reset_engine_stats()
    try:
        executor.execute(sql)
        error = None
    except ExecutionError as raised:
        error = raised
    return engine_snapshot(), error


class TestStagingCounters:
    """Which selects run columnar, fall back to rows, or re-run on error.

    One executor serves every statement of a test, so state left behind by
    an erroring statement cannot leak into the next call unnoticed.
    """

    def test_error_rerun_matches_row_interpreter(self, demo_db):
        executor = Executor(demo_db)
        stats, error = counters(executor, "SELECT x FROM nope")
        assert isinstance(error, UnknownTableError)
        assert stats["error_reruns"] == 1
        with pytest.raises(type(error)) as expected:
            ReferenceExecutor(demo_db).execute("SELECT x FROM nope")
        assert str(error) == str(expected.value)

    def test_clean_select_after_error_runs_columnar(self, demo_db):
        executor = Executor(demo_db)
        stats, error = counters(executor, "SELECT NOPE FROM EMP")
        assert isinstance(error, UnknownColumnError)
        assert stats["row_fallback_selects"] == 1
        assert stats["error_reruns"] == 1
        stats, error = counters(executor, "SELECT EMP_NAME FROM EMP")
        assert error is None
        assert stats["columnar_selects"] == 1
        assert stats["row_fallback_selects"] == 0
        assert stats["error_reruns"] == 0

    def test_window_select_falls_back(self, demo_db):
        executor = Executor(demo_db)
        counters(executor, "SELECT NOPE FROM EMP")
        stats, error = counters(
            executor, "SELECT EMP_NAME, RANK() OVER (ORDER BY SALARY) FROM EMP"
        )
        assert error is None
        assert stats["row_fallback_selects"] == 1
        assert stats["columnar_selects"] == 0

    def test_correlated_where_falls_back_inner_stays_columnar(self, demo_db):
        executor = Executor(demo_db)
        counters(executor, "SELECT NOPE FROM EMP")
        stats, error = counters(
            executor,
            "SELECT EMP_NAME FROM EMP e WHERE SALARY > "
            "(SELECT AVG(SALARY) FROM EMP x WHERE x.DEPT_ID = e.DEPT_ID)",
        )
        assert error is None
        assert stats["row_fallback_selects"] == 1
        # The outer select falls back; its subquery runs once per EMP row,
        # columnar each time.
        assert stats["columnar_selects"] == 6
        assert stats["error_reruns"] == 0
