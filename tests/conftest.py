"""Shared fixtures for the test suite."""

from __future__ import annotations

import datetime

import pytest

from repro.engine import Column, Database


@pytest.fixture()
def demo_db():
    """A small two-table database exercising every value type."""
    db = Database("demo")
    db.create_table(
        "DEPT",
        [
            Column("DEPT_ID", "INTEGER", "Unique department id."),
            Column("DEPT_NAME", "TEXT", "Department name."),
            Column("REGION", "TEXT", "Region."),
            Column("BUDGET", "FLOAT", "Annual budget."),
        ],
        rows=[
            (1, "Engineering", "West", 1200.0),
            (2, "Sales", "East", 800.0),
            (3, "Support", "West", 300.0),
        ],
        description="Each row is a department.",
    )
    db.create_table(
        "EMP",
        [
            Column("EMP_ID", "INTEGER", "Unique employee id."),
            Column("EMP_NAME", "TEXT", "Employee name."),
            Column("DEPT_ID", "INTEGER", "Department. Foreign key to DEPT.DEPT_ID."),
            Column("SALARY", "FLOAT", "Annual salary. Also called: pay, wages."),
            Column("HIRED", "DATE", "Hire date."),
            Column("ACTIVE", "BOOLEAN", "Still employed."),
        ],
        rows=[
            (1, "Ada", 1, 120.0, datetime.date(2020, 1, 15), True),
            (2, "Grace", 1, 140.0, datetime.date(2019, 6, 1), True),
            (3, "Alan", 2, 90.0, datetime.date(2021, 3, 10), False),
            (4, "Edsger", 2, 95.0, datetime.date(2022, 7, 20), True),
            (5, "Barbara", 3, 70.0, datetime.date(2023, 2, 5), True),
            (6, "Donald", 3, None, datetime.date(2018, 11, 30), True),
        ],
        description="Each row is an employee.",
    )
    return db


@pytest.fixture()
def executor(demo_db):
    from repro.engine import Executor

    return Executor(demo_db)


@pytest.fixture(scope="session")
def sports_profile():
    from repro.bench.schemas import build_profile

    return build_profile("sports_holdings")


@pytest.fixture(scope="session")
def experiment_context():
    """The shared dev workload + knowledge sets (built once per session)."""
    from repro.bench.harness import ExperimentContext

    context = ExperimentContext()
    # Touch the lazy pieces so later tests share the cached build.
    context.workload
    context.knowledge_sets
    return context


@pytest.fixture(scope="session")
def sports_pipeline(experiment_context):
    from repro.pipeline import GenEditPipeline

    profile = experiment_context.profiles["sports_holdings"]
    knowledge = experiment_context.knowledge_sets["sports_holdings"]
    return GenEditPipeline(profile.database, knowledge)


def generate_dev(experiment_context):
    """question_id -> GenerationResult for the 132 dev questions, run
    through one default ``GenEditPipeline`` per database."""
    from repro.pipeline import GenEditPipeline

    questions = experiment_context.workload.questions
    pipelines = {
        name: GenEditPipeline(
            experiment_context.profiles[name].database,
            experiment_context.knowledge_sets[name],
        )
        for name in sorted({question.database for question in questions})
    }
    return {
        question.question_id: pipelines[question.database].generate(
            question.question
        )
        for question in questions
    }


@pytest.fixture(scope="session")
def dev_generations(experiment_context):
    """:func:`generate_dev` over the shared context, run once."""
    return generate_dev(experiment_context)
