"""Differential suite: columnar executor vs the frozen row-at-a-time oracle.

Every statement in ``tests/fixtures/sql_corpus/``, every workload gold
query, every training-log query, and a set of handwritten stress queries
runs through both :class:`repro.engine.Executor` (columnar, rewritten
plans, hash joins) and :class:`repro.engine.reference.ReferenceExecutor`
(the pre-columnar engine, preserved verbatim). The two must agree exactly:
same ``Result.comparable()`` and columns on success, same exception type
and message on failure. This is the evidence that the columnar fast paths
are safe to trust for the EX metric.
"""

from __future__ import annotations

import datetime
import pathlib

import pytest

from repro.engine import ExecutionError, Executor, Result
from repro.engine.reference import _stable_key
from repro.engine.reference import ReferenceExecutor
from repro.engine.values import comparable_cell
from repro.sql.errors import SqlError

CORPUS_DIR = pathlib.Path(__file__).parent / "fixtures" / "sql_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.sql"))

#: Handwritten queries stressing exactly the surfaces the columnar engine
#: rewrote: hash joins (equi and non-equi fallback), outer joins with
#: NULL padding, hash grouping, correlated subqueries (row fallback),
#: window functions, set operations, DISTINCT + ORDER BY, ordinals.
STRESS_QUERIES = [
    "SELECT * FROM EMP",
    "SELECT EMP_NAME, SALARY FROM EMP WHERE SALARY > 90 ORDER BY SALARY DESC",
    "SELECT EMP_NAME FROM EMP WHERE SALARY IS NULL",
    "SELECT EMP_NAME FROM EMP WHERE NOT (ACTIVE AND SALARY > 100)",
    # Equi-joins take the hash path; the ON residual must still apply.
    "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E JOIN DEPT D"
    " ON E.DEPT_ID = D.DEPT_ID ORDER BY E.EMP_ID",
    "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E JOIN DEPT D"
    " ON E.DEPT_ID = D.DEPT_ID AND D.BUDGET > 500",
    # Non-equi join predicate: must fall back to the loop join.
    "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E JOIN DEPT D"
    " ON E.SALARY > D.BUDGET",
    "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E LEFT JOIN DEPT D"
    " ON E.DEPT_ID = D.DEPT_ID AND D.REGION = 'West'",
    "SELECT D.DEPT_NAME, E.EMP_NAME FROM DEPT D LEFT JOIN EMP E"
    " ON D.DEPT_ID = E.DEPT_ID AND E.SALARY > 100 ORDER BY D.DEPT_ID",
    # NULL join keys never match but LEFT rows must survive padded.
    "SELECT E1.EMP_NAME, E2.EMP_NAME FROM EMP E1 LEFT JOIN EMP E2"
    " ON E1.SALARY = E2.SALARY AND E1.EMP_ID <> E2.EMP_ID",
    "SELECT DEPT_ID, COUNT(*), SUM(SALARY), AVG(SALARY), MIN(HIRED),"
    " MAX(EMP_NAME) FROM EMP GROUP BY DEPT_ID ORDER BY DEPT_ID",
    "SELECT ACTIVE, COUNT(DISTINCT DEPT_ID) FROM EMP GROUP BY ACTIVE",
    # Grouping on an expression and on a nullable column.
    "SELECT SALARY, COUNT(*) FROM EMP GROUP BY SALARY ORDER BY COUNT(*)",
    "SELECT DEPT_ID, ACTIVE, COUNT(*) FROM EMP GROUP BY DEPT_ID, ACTIVE"
    " HAVING COUNT(*) > 1",
    "SELECT COUNT(*) FROM EMP WHERE SALARY > 1000",
    "SELECT DISTINCT REGION FROM DEPT ORDER BY REGION",
    "SELECT DISTINCT DEPT_ID, ACTIVE FROM EMP ORDER BY 1 DESC, 2",
    # Correlated subqueries force the executor's row fallback.
    "SELECT EMP_NAME FROM EMP E WHERE SALARY > (SELECT AVG(SALARY)"
    " FROM EMP WHERE DEPT_ID = E.DEPT_ID)",
    "SELECT EMP_NAME FROM EMP E WHERE EXISTS (SELECT 1 FROM DEPT D"
    " WHERE D.DEPT_ID = E.DEPT_ID AND D.REGION = 'West')",
    "SELECT EMP_NAME FROM EMP WHERE DEPT_ID IN (SELECT DEPT_ID FROM DEPT"
    " WHERE BUDGET > 500)",
    "SELECT EMP_NAME FROM EMP WHERE DEPT_ID NOT IN (SELECT DEPT_ID"
    " FROM DEPT WHERE REGION = 'East')",
    # Window functions always run on the row path.
    "SELECT EMP_NAME, RANK() OVER (PARTITION BY DEPT_ID ORDER BY SALARY"
    " DESC) FROM EMP",
    "SELECT EMP_NAME, SUM(SALARY) OVER (ORDER BY EMP_ID) FROM EMP",
    "SELECT EMP_ID FROM EMP WHERE ACTIVE UNION SELECT DEPT_ID FROM DEPT",
    "SELECT DEPT_ID FROM EMP INTERSECT SELECT DEPT_ID FROM DEPT",
    "SELECT DEPT_ID FROM DEPT EXCEPT SELECT DEPT_ID FROM EMP WHERE ACTIVE",
    "SELECT EMP_ID FROM EMP UNION ALL SELECT EMP_ID FROM EMP"
    " ORDER BY EMP_ID LIMIT 4 OFFSET 2",
    "WITH west AS (SELECT DEPT_ID FROM DEPT WHERE REGION = 'West'),"
    " staff AS (SELECT * FROM EMP WHERE DEPT_ID IN (SELECT DEPT_ID"
    " FROM west)) SELECT COUNT(*) FROM staff",
    "SELECT T.DEPT_ID, T.TOTAL FROM (SELECT DEPT_ID, SUM(SALARY) AS TOTAL"
    " FROM EMP GROUP BY DEPT_ID) T WHERE T.TOTAL > 150",
    # Constant folding and pushdown targets: the rewrite must not change
    # results even when predicates are partially constant.
    "SELECT EMP_NAME FROM EMP WHERE 1 = 1 AND SALARY > 40 + 50",
    "SELECT EMP_NAME FROM EMP WHERE 1 = 0 OR DEPT_ID = 1",
    "SELECT UPPER(EMP_NAME), LENGTH(EMP_NAME) FROM EMP"
    " WHERE LOWER(EMP_NAME) LIKE 'a%'",
    "SELECT EMP_NAME, CASE WHEN SALARY IS NULL THEN 'unknown'"
    " WHEN SALARY > 100 THEN 'high' ELSE 'low' END FROM EMP",
    "SELECT EMP_NAME, HIRED FROM EMP WHERE HIRED >= '2020-01-01'"
    " ORDER BY HIRED",
    # Literal IN lists probe a set; NULL needles, NULL items and
    # cross-type coercions must still answer as the row interpreter does.
    "SELECT EMP_NAME FROM EMP WHERE CASE WHEN SALARY > 100 THEN NULL"
    " ELSE EMP_NAME END IN ('Alan', 'Barbara', 'Grace')",
    "SELECT EMP_NAME FROM EMP WHERE CASE WHEN SALARY > 100 THEN NULL"
    " ELSE EMP_NAME END NOT IN ('Alan', 'Barbara')",
    "SELECT EMP_NAME, CASE WHEN SALARY > 100 THEN NULL ELSE EMP_NAME END"
    " IN ('Alan', 'Ada'), CASE WHEN SALARY > 100 THEN NULL ELSE EMP_NAME"
    " END NOT IN ('Alan', 'Ada') FROM EMP",
    "SELECT EMP_NAME, EMP_NAME IN ('Ada', NULL), EMP_NAME NOT IN"
    " ('Ada', NULL) FROM EMP",
    "SELECT EMP_NAME FROM EMP WHERE EMP_NAME NOT IN ('Grace', NULL)",
    "SELECT EMP_NAME FROM EMP WHERE EMP_NAME IN ('Ada', 'Ada', '', 'ada',"
    " 'ALAN', 'Alan')",
    "SELECT EMP_NAME, EMP_NAME NOT IN ('', 'grace', 'Grace', 'Grace')"
    " FROM EMP",
    "SELECT EMP_NAME FROM EMP WHERE EMP_ID IN ('2', '4.0', 'x')",
    "SELECT EMP_NAME, SALARY IN ('90', '95.0', '140') FROM EMP",
    "SELECT EMP_NAME FROM EMP WHERE CAST(EMP_ID AS TEXT) IN (1, 3.0, 5)",
    "SELECT EMP_NAME, CAST(EMP_ID AS TEXT) NOT IN (2, 4) FROM EMP",
    "SELECT EMP_NAME FROM EMP WHERE EMP_NAME IN (1, 2)",
    "SELECT EMP_NAME FROM EMP WHERE HIRED IN ('2020-01-15', '2019-06-01')",
    "SELECT EMP_NAME, HIRED NOT IN ('2023-02-05') FROM EMP",
    # One batch, three needle kinds: probed text, coerced integers, NULL.
    "SELECT EMP_NAME, CASE WHEN EMP_ID = 6 THEN NULL WHEN EMP_ID > 3"
    " THEN EMP_ID ELSE EMP_NAME END IN ('Ada', '5') FROM EMP",
    "SELECT EMP_NAME FROM EMP WHERE EMP_ID IN (1.0, 3)",
    "SELECT EMP_NAME, EMP_ID IN (1.0, 3), SALARY NOT IN (90, 95.0)"
    " FROM EMP",
    "SELECT EMP_NAME, ACTIVE IN (1, 2), ACTIVE NOT IN (0) FROM EMP",
    "SELECT DEPT_ID, COUNT(*) FROM EMP WHERE DEPT_ID NOT IN (2)"
    " GROUP BY DEPT_ID",
]


def _read_corpus_sql(path):
    lines = path.read_text().splitlines()
    return "\n".join(
        line for line in lines if not line.lstrip().startswith("--")
    ).strip()


def _outcome(make_engine, database, sql):
    """Run ``sql`` and normalise to a comparable outcome tuple."""
    try:
        result = make_engine(database).execute(sql)
    except (SqlError, ExecutionError) as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", list(result.columns), result.comparable())


def assert_equivalent(database, sql):
    columnar = _outcome(Executor, database, sql)
    reference = _outcome(ReferenceExecutor, database, sql)
    assert columnar == reference, (
        f"engines disagree on {sql!r}:\n"
        f"  columnar:  {columnar!r}\n  reference: {reference!r}"
    )
    return columnar


class TestCorpusEquivalence:
    """Every corpus statement — valid or not — behaves identically."""

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[path.stem for path in CORPUS_FILES]
    )
    def test_corpus_statement(self, demo_db, path):
        sql = _read_corpus_sql(path)
        assert sql, f"{path.name} has no SQL after stripping comments"
        assert_equivalent(demo_db, sql)

    def test_corpus_is_nonempty(self):
        assert len(CORPUS_FILES) >= 19


class TestStressEquivalence:
    """Handwritten queries aimed at each columnar fast path."""

    @pytest.mark.parametrize("sql", STRESS_QUERIES)
    def test_stress_query(self, demo_db, sql):
        outcome = assert_equivalent(demo_db, sql)
        # Stress queries are all valid SQL; a silent parse/exec error on
        # both sides would make the equivalence vacuous.
        assert outcome[0] == "ok", f"stress query failed: {outcome!r}"


class TestInListProbe:
    """Literal IN lists probe a set only where set membership is equality."""

    def test_uncoercible_item_raises_like_the_oracle(self, demo_db):
        outcome = assert_equivalent(
            demo_db,
            "SELECT EMP_NAME FROM EMP WHERE HIRED IN ('2020-01-15', 'soon')",
        )
        assert outcome[0] == "error"

    def test_nan_needle_takes_the_equals_loop(self):
        from repro.engine import Column, Database

        database = Database("nan_probe")
        database.create_table(
            "T", [Column("X", "FLOAT", "Measure.")],
            rows=[(float("nan"),), (1.0,), (None,), (2.0,)],
        )
        # compare() finds NaN equal to every number; a set finds it equal
        # to nothing, so a probed NaN would answer the other way.
        sql = "SELECT X IN (1, 3), X NOT IN (1, 3) FROM T"
        assert Executor(database).execute(sql).rows == [
            (True, False), (True, False), (None, None), (False, True),
        ]
        assert_equivalent(database, sql)
        assert assert_equivalent(
            database, "SELECT COUNT(*) FROM T WHERE X IN (7, 8)"
        )[2] == [(1,)]

    @pytest.mark.parametrize("values, probed", [
        (["a", "b"], True),
        ([1, 2.5], True),
        ([datetime.date(2023, 1, 1)], True),
        (["a", 1], False),
        (["a", None], False),
        ([True, 1], False),
        ([1.0, float("nan")], False),
        ([datetime.datetime(2023, 1, 1)], False),
    ])
    def test_probe_classes(self, values, probed):
        from repro.engine.evaluator import _probe_set
        from repro.sql import ast_nodes as ast

        types, members = _probe_set([ast.Literal(value=v) for v in values])
        assert bool(members) is probed
        assert bool(types) is probed

    def test_probe_counted_once_per_batch(self, demo_db):
        from repro.engine.stats import engine_snapshot

        before = engine_snapshot()["in_list_probes"]
        Executor(demo_db).execute(
            "SELECT EMP_NAME FROM EMP WHERE EMP_NAME IN ('Ada', 'Alan')"
        )
        assert engine_snapshot()["in_list_probes"] == before + 1


class TestWorkloadEquivalence:
    """Every gold and training-log query from the table1 workload."""

    def test_gold_queries_agree(self, experiment_context):
        workload = experiment_context.workload
        databases = {
            name: profile.database
            for name, profile in experiment_context.profiles.items()
        }
        checked = 0
        for question in workload.questions:
            outcome = assert_equivalent(
                databases[question.database], question.gold_sql
            )
            assert outcome[0] == "ok", (
                f"gold SQL for {question.question_id} failed: {outcome!r}"
            )
            checked += 1
        assert checked >= 100

    def test_training_log_queries_agree(self, experiment_context):
        workload = experiment_context.workload
        databases = {
            name: profile.database
            for name, profile in experiment_context.profiles.items()
        }
        checked = 0
        for db_name, logged_queries in workload.training_logs.items():
            for logged in logged_queries:
                assert_equivalent(databases[db_name], logged.sql)
                checked += 1
        assert checked >= 20


class TestComparableContract:
    """``Result.comparable()`` output is unchanged by the DSU rewrite."""

    def test_matches_naive_key_sort(self):
        rows = [
            (2, "b", None),
            (1, "a", 3.14159265),
            (None, "a", 1.0),
            (1, None, True),
            (2, "a", datetime.date(2020, 1, 1)),
        ]
        result = Result(["X", "Y", "Z"], rows)
        normalised = [
            tuple(comparable_cell(value) for value in row) for row in rows
        ]
        naive = sorted(
            normalised, key=lambda row: tuple(map(_stable_key, row))
        )
        assert result.comparable() == naive

    def test_duplicates_and_float_rounding_survive(self):
        rows = [(1.0000001, "x"), (1.0000002, "x"), (None, "y")]
        result = Result(["A", "B"], rows)
        comparable = result.comparable()
        # comparable_cell rounds floats to 6 places: both rows collapse to
        # the same normalised tuple and the multiset keeps both copies.
        assert comparable.count((1.0, "x")) == 2
        assert len(comparable) == 3


class TestNanComparable:
    """Every NaN cell normalises to one shared NaN object, so EX and
    grouping see NaN == NaN on both engines."""

    NAN_EXPR = "X * 1e308 * 10 - X * 1e308 * 10"

    @pytest.fixture()
    def nan_db(self):
        from repro.engine import Column, Database

        database = Database("nan_cells")
        database.create_table(
            "T", [Column("X", "FLOAT", "Measure."),
                  Column("G", "TEXT", "Group.")],
            rows=[(1.0, "a"), (2.0, "a"), (3.0, "b"), (None, "b")],
        )
        return database

    def test_nan_cells_share_one_object(self):
        from repro.engine.values import NAN

        assert comparable_cell(float("nan")) is NAN
        assert comparable_cell(float("inf") - float("inf")) is NAN

    def test_nan_result_matches_itself(self, nan_db):
        from repro.bench.metrics import execution_match

        sql = f"SELECT {self.NAN_EXPR} FROM T"
        outcome = assert_equivalent(nan_db, sql)
        assert outcome[0] == "ok"
        assert len(outcome[2]) == 4
        assert execution_match(nan_db, sql, sql)
        assert not execution_match(nan_db, "SELECT X FROM T", sql)

    def test_nan_rows_sort_the_same_from_any_input_order(self):
        nan = float("nan")
        rows = [(nan, "x"), (1.0, "y"), (None, "z"), (nan, "w")]
        assert (
            Result(["A", "B"], rows).comparable()
            == Result(["A", "B"], rows[::-1]).comparable()
        )

    @pytest.mark.parametrize("group_by", [
        "{nan}", "G, {nan}",
    ])
    def test_group_by_puts_nan_cells_in_one_group(self, nan_db, group_by):
        key = group_by.format(nan=self.NAN_EXPR)
        sql = f"SELECT {key}, COUNT(*) FROM T GROUP BY {key}"
        outcome = assert_equivalent(nan_db, sql)
        counts = sorted(row[-1] for row in outcome[2])
        # NULL X makes a NULL key; the three finite X values one NaN key.
        expected = [1, 3] if group_by == "{nan}" else [1, 1, 2]
        assert counts == expected
