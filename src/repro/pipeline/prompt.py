"""Generation prompt assembly (the Fig. 2 structure) and budget fitting.

The prompt mirrors the paper's figure: retrieved instructions, decomposed
examples with their pseudo-SQL, the CoT plan, and the schema with top
values. Because the model has a finite context, the prompt is fitted to the
configured budget; sections lose entries from the end, schema first (it is
the bulkiest section). :func:`assemble_prompt` returns both the prompt and
the components that *survived* fitting — grounding only sees survivors,
which is what makes context overflow an actual failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..knowledge.models import element_memo
from ..llm.interface import Prompt


@dataclass
class FittedPrompt:
    """A budget-fitted prompt plus the surviving retrieved components."""

    prompt: Prompt
    instructions: list = field(default_factory=list)
    examples: list = field(default_factory=list)
    schema_elements: list = field(default_factory=list)
    dropped: dict = field(default_factory=dict)


def render_instruction(instruction):
    text = instruction.text
    if instruction.sql_pattern and not instruction.sql_pattern.startswith(
        "RATIO_DELTA"
    ):
        text += f"  => {instruction.sql_pattern}"
    return f"- {text}"


def render_example(example):
    return f"- {example.description}\n  {example.pseudo_sql}"


def render_schema_element(element):
    """The element's schema line. Both the plan and the generation prompt
    list the same linked elements, so the line is rendered once per element
    (:func:`~repro.knowledge.models.element_memo`)."""
    return element_memo(element, "_prompt_line", _render_schema_line)


def _render_schema_line(element):
    if element.is_table:
        return f"TABLE {element.table}: {element.description}"
    entry = f"  {element.table}.{element.column} {element.data_type}"
    if element.description:
        entry += f" -- {element.description}"
    if element.top_values:
        rendered = ", ".join(str(value) for value in element.top_values)
        entry += f" [top: {rendered}]"
    return entry


def assemble_prompt(question, instructions, examples, schema_elements,
                    plan_text="", budget_tokens=None,
                    task="Generate a SQL query answering the question."):
    """Build the generation prompt and fit it to the context budget.

    Section order (later sections are truncated first): question,
    instructions, examples, plan, schema.
    """
    prompt = Prompt(task=task)
    prompt.add_section("Question", [question])
    instruction_section = prompt.add_section(
        "Instructions", [render_instruction(item) for item in instructions]
    )
    example_section = prompt.add_section(
        "Examples", [render_example(item) for item in examples]
    )
    if plan_text:
        prompt.add_section("Plan", [plan_text])
    schema_section = prompt.add_section(
        "Schema", [render_schema_element(item) for item in schema_elements]
    )
    dropped = {}
    if budget_tokens is not None:
        dropped = prompt.fit_to_budget(budget_tokens)
    return FittedPrompt(
        prompt=prompt,
        instructions=list(instructions[: len(instruction_section.entries)]),
        examples=list(examples[: len(example_section.entries)]),
        schema_elements=list(
            schema_elements[: len(schema_section.entries)]
        ),
        dropped=dropped,
    )
