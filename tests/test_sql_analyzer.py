"""Semantic analysis against a catalog: the error-level findings of
:class:`~repro.sql.diagnostics.DiagnosticsEngine` on scoping and
name-resolution cases (warnings are covered in test_sql_diagnostics)."""

import pytest

from repro.sql.diagnostics import DiagnosticsEngine, Severity
from repro.sql.errors import SqlAnalysisError
from repro.sql.parser import parse


@pytest.fixture()
def analyzer(demo_db):
    return DiagnosticsEngine(demo_db)


def issues(analyzer, sql):
    """Slugs of the error-level diagnostics for ``sql``."""
    return [
        diag.slug for diag in analyzer.run(parse(sql))
        if diag.severity is Severity.ERROR
    ]


class TestCleanQueries:
    @pytest.mark.parametrize("sql", [
        "SELECT EMP_NAME FROM EMP",
        "SELECT e.EMP_NAME, d.DEPT_NAME FROM EMP e JOIN DEPT d "
        "ON e.DEPT_ID = d.DEPT_ID",
        "SELECT DEPT_ID, COUNT(*) FROM EMP GROUP BY DEPT_ID "
        "HAVING COUNT(*) > 1",
        "WITH big AS (SELECT * FROM DEPT WHERE BUDGET > 500) "
        "SELECT DEPT_NAME FROM big",
        "SELECT EMP_NAME FROM EMP WHERE SALARY > "
        "(SELECT AVG(SALARY) FROM EMP)",
        "SELECT EMP_NAME FROM EMP ORDER BY 1",
        "SELECT SALARY AS s FROM EMP ORDER BY s",
        "SELECT DEPT_ID FROM EMP UNION SELECT DEPT_ID FROM DEPT",
    ])
    def test_no_issues(self, analyzer, sql):
        assert issues(analyzer, sql) == []


class TestDetection:
    def test_unknown_table(self, analyzer):
        assert "unknown-table" in issues(analyzer, "SELECT x FROM nope")

    def test_unknown_column(self, analyzer):
        assert "unknown-column" in issues(analyzer, "SELECT wages FROM EMP")

    def test_unknown_qualified_column(self, analyzer):
        assert "unknown-column" in issues(
            analyzer, "SELECT e.nope FROM EMP e"
        )

    def test_ambiguous_column_across_join(self, analyzer):
        found = issues(
            analyzer,
            "SELECT DEPT_ID FROM EMP JOIN DEPT ON EMP.DEPT_ID = DEPT.DEPT_ID",
        )
        assert "ambiguous-column" in found

    def test_aggregate_in_where(self, analyzer):
        assert "aggregate-in-where" in issues(
            analyzer, "SELECT 1 FROM EMP WHERE SUM(SALARY) > 10"
        )

    def test_windowed_aggregate_in_where_not_flagged(self, analyzer):
        # not valid SQL either, but it is not the aggregate-in-where class
        found = issues(
            analyzer,
            "SELECT 1 FROM EMP WHERE SUM(SALARY) OVER () > 10",
        )
        assert "aggregate-in-where" not in found

    def test_set_operation_arity(self, analyzer):
        assert "set-arity" in issues(
            analyzer, "SELECT EMP_ID, EMP_NAME FROM EMP UNION "
            "SELECT DEPT_ID FROM DEPT"
        )

    def test_cte_arity_mismatch(self, analyzer):
        assert "cte-arity" in issues(
            analyzer,
            "WITH c(a, b) AS (SELECT EMP_ID FROM EMP) SELECT a FROM c",
        )

    def test_correlated_subquery_resolves_outer(self, analyzer):
        clean = issues(
            analyzer,
            "SELECT EMP_NAME FROM EMP e WHERE EXISTS "
            "(SELECT 1 FROM DEPT d WHERE d.DEPT_ID = e.DEPT_ID)",
        )
        assert clean == []

    def test_cte_visible_to_body(self, analyzer):
        assert issues(
            analyzer, "WITH c AS (SELECT EMP_ID AS i FROM EMP) "
            "SELECT i FROM c"
        ) == []

    def test_later_cte_sees_earlier(self, analyzer):
        assert issues(
            analyzer,
            "WITH a AS (SELECT EMP_ID AS i FROM EMP), "
            "b AS (SELECT i FROM a) SELECT i FROM b",
        ) == []

    def test_check_raises_on_first_issue(self, analyzer):
        with pytest.raises(SqlAnalysisError):
            analyzer.check(parse("SELECT x FROM nope"))

    def test_group_by_alias_allowed(self, analyzer):
        assert issues(
            analyzer,
            "SELECT DEPT_ID AS d, COUNT(*) FROM EMP GROUP BY d",
        ) == []

    def test_derived_table_columns_visible(self, analyzer):
        assert issues(
            analyzer,
            "SELECT s FROM (SELECT SUM(SALARY) AS s FROM EMP) AS sub",
        ) == []
