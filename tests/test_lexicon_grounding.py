"""Schema lexicon and grounding tests."""

import pytest

from repro.knowledge import Instruction, SchemaElement
from repro.llm.grounding import Grounder, GroundingInput
from repro.pipeline.lexicon import SchemaLexicon
from repro.pipeline.nlparse import parse_question
from repro.pipeline.spec import (
    SHAPE_RATIO_DELTA_RANK,
    SHAPE_SHARE_OF_TOTAL,
    SHAPE_STANDARD,
    SHAPE_TOPK_BOTH_ENDS,
)


def make_elements():
    """Schema elements mirroring the demo-db conventions."""
    return [
        SchemaElement("s1", "DEPT", description="Each row is a department."),
        SchemaElement("s2", "DEPT", "DEPT_ID", "INTEGER", "Unique id."),
        SchemaElement("s3", "DEPT", "DEPT_NAME", "TEXT", "Department name."),
        SchemaElement(
            "s4", "DEPT", "REGION", "TEXT", "Region.",
            top_values=("West", "East"),
        ),
        SchemaElement("s5", "DEPT", "BUDGET", "FLOAT", "Annual budget."),
        SchemaElement("s6", "EMP", description="Each row is an employee."),
        SchemaElement("s7", "EMP", "EMP_ID", "INTEGER", "Unique id."),
        SchemaElement("s8", "EMP", "EMP_NAME", "TEXT", "Employee name."),
        SchemaElement(
            "s9", "EMP", "DEPT_ID", "INTEGER",
            "Department. Foreign key to DEPT.DEPT_ID.",
        ),
        SchemaElement(
            "s10", "EMP", "SALARY", "FLOAT",
            "Annual salary. Also called: pay, wages.",
        ),
        SchemaElement("s11", "EMP", "HIRED", "DATE", "Hire date."),
    ]


@pytest.fixture()
def lexicon():
    return SchemaLexicon(make_elements())


class TestLexicon:
    def test_tables(self, lexicon):
        assert lexicon.tables() == ["DEPT", "EMP"]
        assert lexicon.has_table("emp")

    def test_match_column_by_name(self, lexicon):
        match = lexicon.match_column("budget")[0]
        assert (match.table, match.column) == ("DEPT", "BUDGET")

    def test_match_column_by_synonym(self, lexicon):
        match = lexicon.match_column("wages")[0]
        assert match.column == "SALARY"

    def test_preferred_table_bonus(self, lexicon):
        # DEPT_ID exists in both tables; preference decides
        match = lexicon.match_column("dept id", preferred_tables=["EMP"])[0]
        assert match.table == "EMP"

    def test_boosted_columns(self, lexicon):
        plain = lexicon.match_column("dept id")[0]
        boosted = lexicon.match_column(
            "dept id", boosted_columns=[("EMP", "DEPT_ID")]
        )[0]
        assert boosted.table == "EMP" or plain.table == boosted.table

    def test_no_match_empty(self, lexicon):
        assert lexicon.match_column("frobnicator") == []

    def test_match_entity(self, lexicon):
        assert lexicon.match_entity("employees")[0][0] == "EMP"
        assert lexicon.match_entity("department")[0][0] == "DEPT"

    def test_match_value_canonical_form(self, lexicon):
        hits = lexicon.match_value("west")
        assert hits == [("DEPT", "REGION", "West")]

    def test_fk_join_both_directions(self, lexicon):
        join = lexicon.join_between("EMP", "DEPT")
        assert join.table == "DEPT"
        assert join.left_column == "DEPT_ID"
        reverse = lexicon.join_between("DEPT", "EMP")
        assert reverse.table == "EMP"

    def test_no_fk_returns_none(self):
        lexicon = SchemaLexicon(make_elements()[:5])
        assert lexicon.join_between("DEPT", "EMP") is None

    def test_date_and_label_columns(self, lexicon):
        assert lexicon.date_column("EMP") == "HIRED"
        assert lexicon.label_column("EMP") == "EMP_NAME"
        assert lexicon.label_column("DEPT") == "DEPT_NAME"

    def test_has_column(self, lexicon):
        assert lexicon.has_column("emp", "salary")
        assert not lexicon.has_column("emp", "BUDGET")


def ground(question, instructions=(), patterns=(), elements=None):
    grounder = Grounder()
    parsed = parse_question(question)
    grounding_input = GroundingInput(
        database_name="demo",
        schema_elements=elements if elements is not None else make_elements(),
        instructions=list(instructions),
        patterns=set(patterns),
    )
    return grounder.ground(parsed, grounding_input)


class TestGroundingBasics:
    def test_count_entity(self):
        spec = ground("How many employees are there?")[0].spec
        assert spec.base_table == "EMP"
        assert spec.metrics[0].agg == "COUNT"

    def test_sum_metric_resolves_table(self):
        spec = ground("What is the total budget?")[0].spec
        assert spec.base_table == "DEPT"
        assert spec.metrics[0].column == "BUDGET"

    def test_value_filter_grounded_by_profile(self):
        spec = ground("How many departments are in West?")[0].spec
        assert spec.filters[0].column == "REGION"
        assert spec.filters[0].value == "West"

    def test_metric_synonym(self):
        spec = ground("What is the average pay?")[0].spec
        assert spec.metrics[0].render() == "AVG(SALARY)"

    def test_group_join_via_fk(self):
        spec = ground("Show me the average salary per region")[0].spec
        assert spec.base_table == "EMP"
        assert spec.joins and spec.joins[0].table == "DEPT"
        assert spec.group_by == ("REGION",)

    def test_unresolvable_metric_records_issue(self):
        candidate = ground("What is the total frobnication?")[0]
        assert any(
            issue.startswith("unresolved-") for issue in candidate.issues
        )

    def test_term_instruction_resolves_metric(self):
        instruction = Instruction(
            "i1", "payroll means total salary", kind="term_definition",
            term="payroll", sql_pattern="SUM(SALARY)", tables=("EMP",),
        )
        spec = ground("What is the payroll?", [instruction])[0].spec
        assert spec.metrics[0].agg == "EXPR"
        assert spec.metrics[0].expression == "SUM(SALARY)"
        assert spec.base_table == "EMP"

    def test_missing_term_falls_back(self):
        candidate = ground("What is the payroll?")[0]
        assert any("unresolved-term" in issue for issue in candidate.issues)

    def test_adjective_instruction_becomes_filter(self):
        instruction = Instruction(
            "i2", "'active' employees means ACTIVE = TRUE",
            sql_pattern="ACTIVE = TRUE",
        )
        elements = make_elements() + [
            SchemaElement("s12", "EMP", "ACTIVE", "BOOLEAN", "Employed."),
        ]
        spec = ground(
            "How many active employees are there?", [instruction],
            elements=elements,
        )[0].spec
        assert any(flt.raw == "ACTIVE = TRUE" for flt in spec.filters)

    def test_unknown_adjective_dropped_with_issue(self):
        candidate = ground("How many active employees are there?")
        assert "unresolved-adjective:active" in candidate[0].issues

    def test_column_alias_instruction(self):
        instruction = Instruction(
            "i3", "'compensation' refers to the SALARY column",
            kind="term_definition", term="compensation",
            sql_pattern="COLUMN EMP.SALARY",
        )
        spec = ground(
            "What is the total compensation?", [instruction]
        )[0].spec
        assert spec.metrics[0].column == "SALARY"

    def test_value_hint_instruction(self):
        instruction = Instruction(
            "i4", "'Northwest' is a value of DEPT.REGION",
            kind="term_definition", term="Northwest",
            sql_pattern="VALUE DEPT.REGION",
        )
        spec = ground(
            "How many departments are in Northwest?", [instruction]
        )[0].spec
        assert spec.filters[0].column == "REGION"

    def test_quarter_needs_date_column(self):
        candidate = ground("What is the total budget for Q2 2023?")
        assert "no-date-column-for-quarter" in candidate[0].issues

    def test_quarter_uses_date_column(self):
        spec = ground("What is the total salary for Q2 2023?")[0].spec
        assert spec.quarter_filters[0].date_column == "HIRED"


class TestGroundingShapes:
    def test_topk_is_standard_with_limit(self):
        spec = ground("Show me the top 3 regions by total salary")[0].spec
        assert spec.shape == SHAPE_STANDARD
        assert spec.order.limit == 3

    def test_both_ends_needs_pattern(self):
        without = ground(
            "Show me the 3 employees with the best and worst total salary"
        )[0]
        assert without.spec.shape == SHAPE_STANDARD
        assert "missing-pattern:topk_both_ends" in without.issues
        with_pattern = ground(
            "Show me the 3 employees with the best and worst total salary",
            patterns={"topk_both_ends"},
        )[0]
        assert with_pattern.spec.shape == SHAPE_TOPK_BOTH_ENDS

    def test_share_needs_pattern(self):
        spec = ground(
            "Show me the share of total salary per region",
            patterns={"share_of_total"},
        )[0].spec
        assert spec.shape == SHAPE_SHARE_OF_TOTAL

    def test_delta_needs_pivot_pattern(self):
        question = (
            "Show me the 3 regions with the largest increase in total "
            "salary versus the previous quarter for Q2 2023"
        )
        fallback = ground(question)[0]
        assert fallback.spec.shape == SHAPE_STANDARD
        grounded = ground(question, patterns={"quarter_pivot"})[0]
        assert grounded.spec.shape == SHAPE_RATIO_DELTA_RANK
        assert grounded.spec.ratio_delta.previous_label == "2023Q1"

    def test_ratio_term_dsl(self):
        instruction = Instruction(
            "i5", "PPE means pay per employee quarter over quarter",
            kind="term_definition", term="PPE",
            sql_pattern=(
                "RATIO_DELTA numerator=EMP.HIRED.SALARY entity=EMP_NAME "
                "negate=false"
            ),
            tables=("EMP",),
        )
        candidate = ground(
            "Show me the 3 employees with the best and worst PPE for Q2 2023",
            [instruction], patterns={"quarter_pivot"},
        )[0]
        assert candidate.spec.shape == SHAPE_RATIO_DELTA_RANK
        params = candidate.spec.ratio_delta
        assert params.numerator_value_column == "SALARY"
        assert params.both_ends

    def test_ratio_term_without_pattern_falls_back(self):
        instruction = Instruction(
            "i5", "PPE term", kind="term_definition", term="PPE",
            sql_pattern="RATIO_DELTA numerator=EMP.HIRED.SALARY entity=EMP_NAME",
            tables=("EMP",),
        )
        candidate = ground(
            "Show me the 3 employees with the best and worst PPE for Q2 2023",
            [instruction],
        )[0]
        assert candidate.spec.shape == SHAPE_STANDARD
        assert "missing-pattern:quarter_pivot" in candidate.issues

    def test_listing(self):
        spec = ground(
            "Show me the emp name and salary of the employees, ordered by "
            "salary from highest to lowest"
        )[0].spec
        assert spec.projection == ("EMP_NAME", "SALARY")
        assert spec.order.column == "SALARY"
        assert spec.order.descending

    def test_alternates_offered_for_near_ties(self):
        candidates = ground("How many employees are there?")
        assert len(candidates) >= 1  # primary always present

    def test_truncated_context_loses_tables(self):
        elements = make_elements()[:5]  # DEPT only
        candidate = ground("What is the total salary?", elements=elements)[0]
        # SALARY is unknowable; grounding degrades instead of crashing
        assert candidate.spec.base_table == "DEPT"


def _fresh_copies(elements):
    """Field-equal copies that carry no memoized lexicon record."""
    import dataclasses

    return [dataclasses.replace(element) for element in elements]


def _lexicon_answers(lexicon, elements):
    """Every match/join answer over phrases drawn from ``elements``."""
    from repro.pipeline.lexicon import element_record

    tables = sorted({element.table for element in elements})
    columns = [element for element in elements if not element.is_table]
    phrases = sorted({
        surface
        for element in columns
        for surface in element_record(element).surfaces
    } | {table.lower().replace("_", " ") for table in tables})
    values = sorted({
        str(value) for element in columns for value in element.top_values
    })
    return (
        lexicon.tables(),
        [lexicon.match_column(phrase) for phrase in phrases],
        [
            lexicon.match_column(phrase, tables[:1], [
                (element.table, element.column) for element in columns[:2]
            ])
            for phrase in phrases
        ],
        [lexicon.match_entity(phrase) for phrase in phrases],
        [lexicon.match_value(value) for value in values],
        [
            lexicon.join_between(left, right)
            for left in tables for right in tables if left != right
        ],
        [
            (lexicon.date_column(table), lexicon.label_column(table))
            for table in tables
        ],
    )


class TestMemoizedRecords:
    def test_dev_subsets_match_lexicons_built_from_scratch(
        self, dev_generations
    ):
        subsets = [
            result.context.schema_elements
            for result in dev_generations.values()
            if result.context.schema_elements
        ]
        assert len(subsets) == 132
        for elements in subsets:
            # The shared elements already carry records from the dev run.
            memoized = SchemaLexicon(elements)
            scratch = SchemaLexicon(_fresh_copies(elements))
            assert _lexicon_answers(memoized, elements) == _lexicon_answers(
                scratch, elements
            )

    def test_edited_element_gets_a_fresh_record(self):
        import dataclasses

        from repro.knowledge import KnowledgeSet
        from repro.pipeline.lexicon import element_record

        knowledge = KnowledgeSet("demo")
        for element in make_elements():
            knowledge.add_schema_element(element)
        before = knowledge.schema_element("s5")
        assert SchemaLexicon(knowledge.schema_elements()).match_column(
            "outlay"
        ) == []
        knowledge.add_schema_element(dataclasses.replace(
            before, description="Annual budget. Also called: outlay.",
        ))
        after = knowledge.schema_element("s5")
        assert element_record(after) is not element_record(before)
        assert element_record(before).surfaces == ("budget",)
        match = SchemaLexicon(knowledge.schema_elements()).match_column(
            "outlay"
        )[0]
        assert (match.table, match.column) == ("DEPT", "BUDGET")

    def test_alternates_reuse_the_session_lexicon(self, monkeypatch):
        import repro.llm.grounding as grounding

        built = []

        class CountingLexicon(SchemaLexicon):
            def __init__(self, schema_elements):
                built.append(1)
                super().__init__(schema_elements)

        monkeypatch.setattr(grounding, "SchemaLexicon", CountingLexicon)
        candidates = ground(
            "Show the total pay of employees in each department"
        )
        assert len(candidates) > 1
        assert len(built) == 1
