"""Knowledge-set tests: models, store, mining, versioning, library."""

import dataclasses

import pytest

from repro.knowledge import (
    DecomposedExample,
    DomainDocument,
    GlossaryEntry,
    GuidelineEntry,
    Instruction,
    Intent,
    KnowledgeLibrary,
    KnowledgeSet,
    KnowledgeSetHistory,
    LoggedQuery,
    Provenance,
    SchemaElement,
    build_examples,
    build_full_query_example,
    describe_unit,
    mine_knowledge_set,
    next_component_id,
)


@pytest.fixture()
def knowledge():
    ks = KnowledgeSet("test")
    intent = Intent(intent_id="i1", name="finance", description="money stuff")
    ks.add_intent(intent)
    ks.add_example(
        DecomposedExample(
            example_id="ex1",
            description="Filter rows where country is Canada",
            sql="WHERE COUNTRY = 'Canada'",
            kind="where",
            intent_ids=("i1",),
        )
    )
    ks.add_example(
        DecomposedExample(
            example_id="ex2",
            description="Rank organisations from both ends",
            sql="ROW_NUMBER() OVER (ORDER BY X DESC)",
            kind="window_function",
            pattern="topk_both_ends",
            intent_ids=("i1",),
        )
    )
    ks.add_instruction(
        Instruction(
            instruction_id="in1",
            text="RPV means revenue per viewer",
            kind="term_definition",
            term="RPV",
            sql_pattern="SUM(R)/NULLIF(SUM(V),0)",
            intent_ids=("i1",),
        )
    )
    return ks


class TestModels:
    def test_component_ids_unique(self):
        first, second = next_component_id("x"), next_component_id("x")
        assert first != second

    def test_pseudo_sql_form(self):
        example = DecomposedExample("e", "d", "WHERE X = 1")
        assert example.pseudo_sql == "... WHERE X = 1 ..."

    def test_retrieval_text_includes_term_and_pattern(self):
        instruction = Instruction(
            "i", "text here", term="AOV", sql_pattern="AVG(A)"
        )
        assert "AOV" in instruction.retrieval_text
        assert "AVG(A)" in instruction.retrieval_text

    def test_schema_element_names(self):
        from repro.knowledge import SchemaElement

        table = SchemaElement("s1", "T")
        column = SchemaElement("s2", "T", "C")
        assert table.is_table and table.qualified_name == "T"
        assert not column.is_table and column.qualified_name == "T.C"


class TestStore:
    def test_stats(self, knowledge):
        stats = knowledge.stats()
        assert stats == {
            "intents": 1, "examples": 2, "instructions": 1,
            "schema_elements": 0,
        }

    def test_intent_keyed_lookup(self, knowledge):
        assert len(knowledge.examples_for_intents(["i1"])) == 2
        assert knowledge.examples_for_intents(["nope"]) == []

    def test_search_examples(self, knowledge):
        hits = knowledge.search_examples("filter by country", k=1)
        assert hits[0].doc_id == "ex1"

    def test_term_definitions(self, knowledge):
        assert "rpv" in knowledge.term_definitions()

    def test_update_requires_existing(self, knowledge):
        with pytest.raises(KeyError):
            knowledge.update_example(
                DecomposedExample("ghost", "d", "SQL")
            )

    def test_delete_example(self, knowledge):
        knowledge.delete_example("ex1")
        assert knowledge.example("ex1") is None
        assert all(
            hit.doc_id != "ex1" for hit in knowledge.search_examples("country")
        )

    def test_snapshot_restore_round_trip(self, knowledge):
        snapshot = knowledge.snapshot()
        knowledge.delete_example("ex1")
        knowledge.delete_instruction("in1")
        knowledge.restore(snapshot)
        assert knowledge.example("ex1") is not None
        assert knowledge.instruction("in1") is not None

    def test_clone_is_independent(self, knowledge):
        clone = knowledge.clone()
        clone.delete_example("ex1")
        assert knowledge.example("ex1") is not None

    def test_snapshot_deep_copies(self, knowledge):
        """Snapshots share frozen components, so they cannot be mutated."""
        snapshot = knowledge.snapshot()
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot["examples"][0].description = "mutated"
        assert knowledge.example("ex1").description != "mutated"

    def test_add_example_invalidates_index_norms(self, knowledge):
        from repro.text import l2_norm

        knowledge.search_examples("country", k=1)  # warm index + norms
        knowledge.add_example(
            DecomposedExample("ex-new", "wombat census by country",
                              "SELECT COUNT(*) FROM WOMBATS")
        )
        hits = knowledge.search_examples("wombat census", k=1)
        assert hits[0].doc_id == "ex-new"
        document = knowledge._example_index.get("ex-new")
        assert document.norm == pytest.approx(l2_norm(document.vector))

    def test_delete_example_invalidates_cached_search(self, knowledge):
        assert any(
            hit.doc_id == "ex1"
            for hit in knowledge.search_examples("filter by country", k=2)
        )
        knowledge.delete_example("ex1")
        assert all(
            hit.doc_id != "ex1"
            for hit in knowledge.search_examples("filter by country", k=2)
        )


def _all_hits(knowledge, queries):
    """Every ``search_*`` result for ``queries``, as (id, score) lists."""
    results = []
    for query in queries:
        candidates = [example.example_id for example in knowledge.examples()]
        for hits in (
            knowledge.search_examples(query),
            knowledge.search_examples(
                query, k=5, candidates=candidates[::3], extra_text="total"
            ),
            knowledge.search_instructions(query),
            knowledge.search_schema(query),
            knowledge.search_intents(query),
        ):
            results.append([(hit.doc_id, hit.score) for hit in hits])
    return results


def _refreshes():
    from repro.obs.metrics import get_metrics

    return get_metrics().counter_value("retrieval.index_refreshes")


class TestCopyOnWriteClone:
    """``clone()`` shares built index state without sharing edits."""

    @pytest.fixture()
    def live(self, experiment_context):
        return experiment_context.knowledge_sets["sports_holdings"]

    @pytest.fixture()
    def queries(self, experiment_context):
        return [
            question.question for question in
            experiment_context.workload.for_database("sports_holdings")[:6]
        ]

    @staticmethod
    def _edit(clone):
        example = clone.examples()[0]
        clone.add_example(DecomposedExample(
            "ex-cow-new", "wombat census per organisation country",
            "WHERE COUNTRY = 'Wombatia'", kind="where",
            intent_ids=example.intent_ids,
        ))
        clone.update_example(dataclasses.replace(
            example, description=f"{example.description} revenue total",
        ))
        clone.delete_instruction(clone.instructions()[0].instruction_id)

    def test_live_set_unaffected_by_clone_edits(self, live, queries):
        before = _all_hits(live, queries)
        clone = live.clone()
        self._edit(clone)
        _all_hits(clone, queries)
        assert _all_hits(live, queries) == before
        assert live.example("ex-cow-new") is None

    def test_edited_clone_matches_rebuild(self, live, queries):
        _all_hits(live, queries)
        clone = live.clone()
        self._edit(clone)
        rebuilt = KnowledgeSet(live.name).restore(clone.snapshot())
        assert _all_hits(clone, queries) == _all_hits(rebuilt, queries)

    def test_unedited_clone_never_refreshes(self, live, queries):
        before = _all_hits(live, queries)
        refreshes = _refreshes()
        clone = live.clone()
        assert _all_hits(clone, queries) == before
        assert _refreshes() == refreshes

    def test_edited_clone_refreshes_only_edited_indexes(self, live, queries):
        _all_hits(live, queries)
        refreshes = _refreshes()
        clone = live.clone()
        clone.delete_example(clone.examples()[0].example_id)
        _all_hits(clone, queries)
        assert _refreshes() == refreshes + 1

    def test_deleting_absent_id_is_a_no_op(self, knowledge):
        knowledge.search_examples("country")
        knowledge.search_instructions("country")
        refreshes = _refreshes()
        knowledge.delete_example("nope")
        knowledge.delete_instruction("nope")
        assert not knowledge._example_index._dirty
        assert not knowledge._instruction_index._dirty
        knowledge.search_examples("country")
        knowledge.search_instructions("country")
        assert _refreshes() == refreshes

    def test_top_values_memo_invalidates_on_insert(self, demo_db):
        table = demo_db.table("DEPT")
        first = table.top_values("REGION", 2)
        assert first == ["West", "East"]
        first.append("mutated")
        assert table.top_values("region", 2) == ["West", "East"]
        assert table.top_values("REGION", 2) is not table.top_values(
            "REGION", 2
        )
        table.insert((4, "Ops", "East", 10.0))
        table.insert((5, "Legal", "East", 10.0))
        assert table.top_values("REGION", 2) == ["East", "West"]


def _memoized(knowledge, key="k", value="fresh"):
    """``knowledge.derived(key)`` and whether it computed ``value``."""
    calls = []
    result = knowledge.derived(key, lambda: calls.append(1) or value)
    return result, bool(calls)


_MUTATIONS = {
    "add_intent": lambda ks: ks.add_intent(Intent("i9", "ops", "ops")),
    "add_example": lambda ks: ks.add_example(
        DecomposedExample("ex9", "Count rows", "COUNT(*)", kind="select")
    ),
    "update_example": lambda ks: ks.update_example(dataclasses.replace(
        ks.example("ex1"), description="Filter rows by nation",
    )),
    "delete_example": lambda ks: ks.delete_example("ex1"),
    "add_instruction": lambda ks: ks.add_instruction(
        Instruction("in9", "AOV means average order value")
    ),
    "update_instruction": lambda ks: ks.update_instruction(
        dataclasses.replace(ks.instruction("in1"), text="RPV is R / V")
    ),
    "delete_instruction": lambda ks: ks.delete_instruction("in1"),
    "add_schema_element": lambda ks: ks.add_schema_element(
        SchemaElement("se9", "ORGS", "COUNTRY")
    ),
    "delete_schema_element": lambda ks: ks.delete_schema_element("se9"),
    "restore": lambda ks: ks.restore(ks.snapshot()),
}


class TestVersionMemo:
    """``derived()`` memoizes per version of a knowledge set's contents."""

    def test_hit_after_miss(self, knowledge):
        assert _memoized(knowledge) == ("fresh", True)
        assert _memoized(knowledge, value="other") == ("fresh", False)
        assert _memoized(knowledge, key="k2") == ("fresh", True)

    def test_clone_shares_memo(self, knowledge):
        _memoized(knowledge)
        clone = knowledge.clone()
        assert clone.version is knowledge.version
        assert _memoized(clone, value="clone") == ("fresh", False)
        _memoized(clone, key="from-clone", value="clone")
        assert _memoized(knowledge, key="from-clone") == ("clone", False)

    def test_edit_on_clone_replaces_only_its_memo(self, knowledge):
        _memoized(knowledge)
        clone = knowledge.clone()
        clone.delete_example("ex1")
        assert clone.version is not knowledge.version
        assert _memoized(clone, value="edited") == ("edited", True)
        assert _memoized(knowledge) == ("fresh", False)

    def test_edit_on_live_replaces_only_its_memo(self, knowledge):
        _memoized(knowledge)
        clone = knowledge.clone()
        knowledge.delete_example("ex1")
        assert _memoized(knowledge, value="edited") == ("edited", True)
        assert _memoized(clone) == ("fresh", False)

    def test_shared_empty_memo_is_replaced_not_reused(self, knowledge):
        clone = knowledge.clone()
        knowledge.delete_example("ex1")  # before any entry exists
        assert _memoized(clone, value="clone") == ("clone", True)
        assert _memoized(knowledge, value="live") == ("live", True)

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_every_mutator_gives_a_fresh_memo(self, knowledge, mutation):
        knowledge.add_schema_element(SchemaElement("se9", "ORGS", "COUNTRY"))
        clone = knowledge.clone()
        _memoized(knowledge)
        _MUTATIONS[mutation](knowledge)
        assert _memoized(knowledge, value="after") == ("after", True)
        assert _memoized(clone, value="clone") == ("fresh", False)

    def test_restore_resets_memo(self, knowledge):
        snapshot = knowledge.snapshot()
        _memoized(knowledge)
        knowledge.restore(snapshot)
        assert _memoized(knowledge, value="restored") == ("restored", True)
        empty = KnowledgeSet("empty")
        _memoized(empty)
        empty.restore(KnowledgeSet("empty").snapshot())
        assert _memoized(empty, value="restored") == ("restored", True)

    def test_overflow_clears_memo(self, knowledge, monkeypatch):
        from repro.knowledge import store

        monkeypatch.setattr(store, "DERIVED_SIZE", 3)
        version = knowledge.version
        for key in ("a", "b", "c"):
            _memoized(knowledge, key=key)
        assert _memoized(knowledge, key="a") == ("fresh", False)
        assert _memoized(knowledge, key="d") == ("fresh", True)
        assert knowledge.version is version
        assert _memoized(knowledge, key="d") == ("fresh", False)
        assert _memoized(knowledge, key="a") == ("fresh", True)


class TestDecompositionBuilders:
    SQL = (
        "SELECT DEPT_ID, SUM(SALARY) AS total FROM EMP "
        "WHERE ACTIVE = TRUE GROUP BY DEPT_ID"
    )

    def test_build_examples_skips_full_query_by_default(self):
        examples = build_examples("q?", self.SQL, source_query_id="q1")
        assert all(example.kind != "query" for example in examples)
        assert len(examples) >= 4

    def test_build_examples_provenance(self):
        examples = build_examples("q?", self.SQL, source_query_id="q1")
        assert all(
            example.provenance.source_kind == "query_log"
            and example.source_query_id == "q1"
            for example in examples
        )

    def test_full_query_example(self):
        example = build_full_query_example("q?", self.SQL)
        assert example.kind == "query"
        assert example.description == "q?"
        assert example.tables == ("EMP",)

    def test_describe_unit_templates(self):
        from repro.sql.decompose import decompose
        from repro.sql.parser import parse

        units = decompose(parse(self.SQL))
        where_unit = next(unit for unit in units if unit.kind == "where")
        assert describe_unit(where_unit).startswith("Filter rows where")


class TestMining:
    def test_mine_full_pipeline(self, demo_db):
        log = [
            LoggedQuery(
                "q1", "Show me total salary",
                "SELECT SUM(SALARY) FROM EMP", "hr analytics",
            )
        ]
        documents = [
            DomainDocument(
                "doc1", "handbook",
                glossary=[
                    GlossaryEntry(
                        "headcount", "number of employees",
                        "COUNT(*)", ("EMP",), "hr analytics",
                    )
                ],
                guidelines=[
                    GuidelineEntry(
                        "'active' means ACTIVE = TRUE",
                        "ACTIVE = TRUE", ("EMP",), "hr analytics",
                    )
                ],
            )
        ]
        knowledge = mine_knowledge_set(demo_db, log, documents)
        assert knowledge.stats()["intents"] == 1
        assert knowledge.stats()["examples"] >= 3
        assert "headcount" in knowledge.term_definitions()
        # schema elements: 2 tables + 10 columns
        assert knowledge.stats()["schema_elements"] == 12

    def test_schema_elements_carry_top_values(self, demo_db):
        knowledge = mine_knowledge_set(demo_db, [], [])
        region = next(
            element for element in knowledge.schema_elements()
            if element.column == "REGION"
        )
        assert "West" in region.top_values

    def test_undecomposed_mode(self, demo_db):
        log = [
            LoggedQuery("q1", "total salary", "SELECT SUM(SALARY) FROM EMP")
        ]
        knowledge = mine_knowledge_set(
            demo_db, log, [], decompose_examples=False
        )
        assert all(
            example.kind == "query" for example in knowledge.examples()
        )

    def test_intent_from_table_footprint_when_unnamed(self, demo_db):
        log = [LoggedQuery("q1", "q", "SELECT SUM(SALARY) FROM EMP")]
        knowledge = mine_knowledge_set(demo_db, log, [])
        assert knowledge.intents()[0].name == "emp"


class TestVersioning:
    def test_initial_checkpoint_exists(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        assert len(history.checkpoints()) == 1

    def test_records_newest_first(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        history.record("insert", "example", "e1", "first")
        history.record("delete", "example", "e2", "second")
        records = history.records()
        assert records[0].summary == "second"

    def test_filter_by_feedback(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        history.record("insert", "example", "e1", "s", feedback_id="fb-1")
        history.record("insert", "example", "e2", "s")
        assert len(history.records(feedback_id="fb-1")) == 1

    def test_revert_restores_contents(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        checkpoint = history.checkpoint("before damage")
        knowledge.delete_example("ex1")
        history.revert_to(checkpoint.checkpoint_id)
        assert knowledge.example("ex1") is not None

    def test_revert_unknown_checkpoint(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        with pytest.raises(KeyError):
            history.revert_to("ckpt-9999")

    def test_diff_between_checkpoints(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        first = history.checkpoint("a")
        knowledge.add_instruction(
            Instruction("in2", "new guideline")
        )
        knowledge.delete_example("ex2")
        second = history.checkpoint("b")
        diff = history.diff(first.checkpoint_id, second.checkpoint_id)
        assert diff["instructions"]["added"] == ["in2"]
        assert diff["examples"]["removed"] == ["ex2"]


class TestLibrary:
    @pytest.fixture()
    def library(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        return KnowledgeLibrary(knowledge, history)

    def test_overview(self, library):
        overview = library.overview()
        assert overview["stats"]["examples"] == 2
        assert overview["checkpoints"]

    def test_direct_instruction_edit_recorded(self, library):
        instruction = library.add_instruction(
            "'gross' means before discounts", term="gross"
        )
        assert library.knowledge_set.instruction(instruction.instruction_id)
        assert library.history.records()[0].action == "insert"

    def test_direct_example_edit(self, library):
        example = library.add_example("demo", "WHERE X = 1", kind="where")
        assert library.knowledge_set.example(example.example_id)

    def test_delete_component(self, library):
        library.delete_component("ex1")
        assert library.knowledge_set.example("ex1") is None
        with pytest.raises(KeyError):
            library.delete_component("missing")

    def test_component_provenance(self, library):
        info = library.component_provenance("in1")
        assert isinstance(info["provenance"], Provenance)
        with pytest.raises(KeyError):
            library.component_provenance("nope")

    def test_feedback_timeline_groups(self, library):
        library.history.record(
            "insert", "example", "e9", "s", feedback_id="fb-9"
        )
        timeline = library.feedback_timeline()
        assert timeline[0][0] == "fb-9"
