"""The knowledge set: a materialised view with retrieval indexes.

:class:`KnowledgeSet` stores intents, decomposed examples, instructions,
and schema elements, and maintains retrieval indexes over each component so
the pipeline's compounding retrieval operators can do intent-keyed lookup
followed by cosine re-ranking. It supports the full edit vocabulary of the
paper's continuous-improvement module: insert, update, and delete of
examples and instructions (§4.1), plus snapshot/restore for the history and
checkpointing machinery (§4.2.2).

Components are frozen values (see :mod:`repro.knowledge.models`), so
snapshots, restores and clones share them instead of copying. A
:meth:`KnowledgeSet.clone` — the Feedback Solver's staging set — also
shares each index's built state through :meth:`RetrievalIndex.copy`: it
costs what the staged edits change, not what the set holds.

Work that depends only on one version of the contents — a golden query's
regression outcome, the knowledge gate's lint — is memoized per version
through :meth:`KnowledgeSet.derived`. Every edit gives the set a fresh
memo (replaced, never cleared) and a clone shares its source's memo, so
an unedited staging or session clone reuses everything the live set has
already computed, and an edit on either side never leaks into the other.
"""

from __future__ import annotations

from ..text.index import RetrievalIndex
from .models import (
    DecomposedExample,
    Instruction,
    Intent,
    SchemaElement,
)

#: Entries a version memo holds before it is cleared (the same
#: clear-on-overflow bound as the retrieval index's query cache).
DERIVED_SIZE = 256

_MISSING = object()


class KnowledgeSet:
    """Materialised view of company-specific Text-to-SQL knowledge."""

    def __init__(self, name="knowledge"):
        self.name = name
        self._intents = {}
        self._examples = {}
        self._instructions = {}
        self._schema_elements = {}
        self._example_index = RetrievalIndex()
        self._instruction_index = RetrievalIndex()
        self._schema_index = RetrievalIndex()
        self._intent_index = RetrievalIndex()
        self._derived = {}

    # -- per-version memo ----------------------------------------------------

    @property
    def version(self):
        """Opaque token for the current contents: compare with ``is``.

        Every edit replaces it; an unedited clone shares its source's.
        """
        return self._derived

    def derived(self, key, compute):
        """``compute()``, memoized for this version of the contents.

        ``key`` must name everything else the value depends on (database
        version, config, ...). Two threads missing the same key at once
        both compute it, and the last write wins: entries are
        deterministic, so either value is correct.
        """
        memo = self._derived
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            if len(memo) >= DERIVED_SIZE:
                memo.clear()
            memo[key] = value
        return value

    def _edited(self):
        # Replace, never clear: a clone may still share the old memo.
        self._derived = {}

    # -- intents ----------------------------------------------------------

    def add_intent(self, intent: Intent):
        self._intents[intent.intent_id] = intent
        self._intent_index.add(
            intent.intent_id,
            f"{intent.name}\n{intent.description}",
            {"kind": "intent"},
        )
        self._edited()
        return intent

    def intent(self, intent_id):
        return self._intents.get(intent_id)

    def intents(self):
        return sorted(self._intents.values(), key=lambda item: item.intent_id)

    def search_intents(self, query, k=3):
        return self._intent_index.search(query, k=k)

    # -- examples ----------------------------------------------------------

    def add_example(self, example: DecomposedExample):
        self._examples[example.example_id] = example
        self._example_index.add(
            example.example_id,
            example.retrieval_text,
            {"kind": "example"},
        )
        self._edited()
        return example

    def update_example(self, example: DecomposedExample):
        if example.example_id not in self._examples:
            raise KeyError(f"Unknown example {example.example_id!r}")
        return self.add_example(example)

    def delete_example(self, example_id):
        self._examples.pop(example_id, None)
        self._example_index.remove(example_id)
        self._edited()

    def example(self, example_id):
        return self._examples.get(example_id)

    def examples(self):
        return sorted(
            self._examples.values(), key=lambda item: item.example_id
        )

    def examples_for_intents(self, intent_ids):
        wanted = set(intent_ids)
        return [
            example for example in self.examples()
            if wanted & set(example.intent_ids)
        ]

    def search_examples(self, query, k=10, candidates=None, extra_text=""):
        return self._example_index.search(
            query, k=k, candidates=candidates, extra_text=extra_text
        )

    # -- instructions ----------------------------------------------------------

    def add_instruction(self, instruction: Instruction):
        self._instructions[instruction.instruction_id] = instruction
        self._instruction_index.add(
            instruction.instruction_id,
            instruction.retrieval_text,
            {"kind": "instruction"},
        )
        self._edited()
        return instruction

    def update_instruction(self, instruction: Instruction):
        if instruction.instruction_id not in self._instructions:
            raise KeyError(
                f"Unknown instruction {instruction.instruction_id!r}"
            )
        return self.add_instruction(instruction)

    def delete_instruction(self, instruction_id):
        self._instructions.pop(instruction_id, None)
        self._instruction_index.remove(instruction_id)
        self._edited()

    def instruction(self, instruction_id):
        return self._instructions.get(instruction_id)

    def instructions(self):
        return sorted(
            self._instructions.values(), key=lambda item: item.instruction_id
        )

    def instructions_for_intents(self, intent_ids):
        wanted = set(intent_ids)
        return [
            instruction for instruction in self.instructions()
            if wanted & set(instruction.intent_ids)
        ]

    def term_definitions(self):
        """All instructions that define a domain term, keyed by lower term."""
        return {
            instruction.term.lower(): instruction
            for instruction in self.instructions()
            if instruction.term
        }

    def search_instructions(self, query, k=10, candidates=None, extra_text=""):
        return self._instruction_index.search(
            query, k=k, candidates=candidates, extra_text=extra_text
        )

    # -- schema elements ----------------------------------------------------------

    def add_schema_element(self, element: SchemaElement):
        self._schema_elements[element.element_id] = element
        self._schema_index.add(
            element.element_id,
            element.retrieval_text,
            {"kind": "schema"},
        )
        self._edited()
        return element

    def delete_schema_element(self, element_id):
        self._schema_elements.pop(element_id, None)
        self._schema_index.remove(element_id)
        self._edited()

    def schema_element(self, element_id):
        return self._schema_elements.get(element_id)

    def schema_elements(self):
        return sorted(
            self._schema_elements.values(), key=lambda item: item.element_id
        )

    def schema_for_intents(self, intent_ids):
        wanted = set(intent_ids)
        return [
            element for element in self.schema_elements()
            if wanted & set(element.intent_ids)
        ]

    def schema_for_table(self, table):
        upper = table.upper()
        return [
            element for element in self.schema_elements()
            if element.table.upper() == upper
        ]

    def search_schema(self, query, k=20, candidates=None, extra_text=""):
        return self._schema_index.search(
            query, k=k, candidates=candidates, extra_text=extra_text
        )

    # -- bulk / stats ----------------------------------------------------------

    def stats(self):
        return {
            "intents": len(self._intents),
            "examples": len(self._examples),
            "instructions": len(self._instructions),
            "schema_elements": len(self._schema_elements),
        }

    # -- snapshot / restore ----------------------------------------------------------

    def snapshot(self):
        """All components, sorted by id (for checkpoints).

        Components are frozen, so the snapshot shares them with the live
        set; only the lists are new.
        """
        return {
            "name": self.name,
            "intents": self.intents(),
            "examples": self.examples(),
            "instructions": self.instructions(),
            "schema_elements": self.schema_elements(),
        }

    def restore(self, snapshot):
        """Replace all contents with ``snapshot`` (from :meth:`snapshot`)."""
        self.name = snapshot["name"]
        self._intents = {}
        self._examples = {}
        self._instructions = {}
        self._schema_elements = {}
        self._example_index = RetrievalIndex()
        self._instruction_index = RetrievalIndex()
        self._schema_index = RetrievalIndex()
        self._intent_index = RetrievalIndex()
        self._edited()
        for intent in snapshot["intents"]:
            self.add_intent(intent)
        for example in snapshot["examples"]:
            self.add_example(example)
        for instruction in snapshot["instructions"]:
            self.add_instruction(instruction)
        for element in snapshot["schema_elements"]:
            self.add_schema_element(element)
        return self

    def clone(self):
        """Independent copy (used to build staging environments).

        Copies the four component maps (the frozen components themselves
        are shared) and each retrieval index via
        :meth:`RetrievalIndex.copy`, which shares the built postings and
        per-document token caches. An unedited clone never rebuilds an
        index; an edited one re-fits IDF without re-tokenizing. The twin
        shares the version memo until either side's first edit. Edits to
        either side never reach the other.
        """
        twin = KnowledgeSet(self.name)
        twin._intents = dict(self._intents)
        twin._examples = dict(self._examples)
        twin._instructions = dict(self._instructions)
        twin._schema_elements = dict(self._schema_elements)
        twin._example_index = self._example_index.copy()
        twin._instruction_index = self._instruction_index.copy()
        twin._schema_index = self._schema_index.copy()
        twin._intent_index = self._intent_index.copy()
        twin._derived = self._derived
        return twin
