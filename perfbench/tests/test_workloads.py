"""A tiny run of each workload, then the same run with one wrong answer
planted: the answer check must pass the first and fail the second."""

import json
import os

import pytest

import inproc
import run
import serveload
import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def corrupt_generate(monkeypatch, question_text):
    """Make the pipeline answer ``question_text`` with wrong SQL."""
    from repro.pipeline.pipeline import GenEditPipeline

    real = GenEditPipeline.generate

    def generate(self, question, config=None):
        result = real(self, question, config)
        if question == question_text:
            result.sql = "SELECT 1"
        return result
    monkeypatch.setattr(GenEditPipeline, "generate", generate)


@pytest.mark.parametrize("enterprise,expected_ex", [(False, 65.15),
                                                    (True, 79.17)])
def test_ask_check_fails_on_a_planted_wrong_answer(monkeypatch, enterprise,
                                                   expected_ex):
    workload = inproc.Ask(enterprise=enterprise)
    errors, failed, ex = workload.check([workload.run(0.0, seed=1)])
    assert (errors, failed) == ([], 0)
    assert ex == pytest.approx(expected_ex, abs=0.01)

    text = workload.items[0].question
    corrupt_generate(monkeypatch, text)
    errors, failed, _ex = workload.check([workload.run(0.0, seed=2)])
    assert failed == sum(q.question == text for q in workload.items) >= 1
    assert "differs from warm-up" in errors[0]


def test_ask_check_fails_when_accuracy_moves():
    workload = inproc.Ask(enterprise=True)
    question = workload.items[0]
    workload.reference[question.question_id] = "SELECT 1"
    errors, _failed, _ex = workload.check([])
    assert errors and "expected 19" in errors[-1]


def test_feedback_check_fails_on_a_planted_wrong_answer(monkeypatch):
    from repro.feedback.solver import FeedbackSolver

    warm_up = inproc.FeedbackSessions.warm_up

    def three_sessions(self):
        self.items = self.items[:3]
        warm_up(self)
    monkeypatch.setattr(inproc.FeedbackSessions, "warm_up", three_sessions)
    monkeypatch.setattr(inproc, "FEEDBACK_SESSIONS", 3)
    workload = inproc.FeedbackSessions()
    errors, failed, ex = workload.check([workload.run(0.0, seed=1)])
    assert (errors, failed, ex) == ([], 0, 100.0)

    regenerate = FeedbackSolver.regenerate

    def wrong_regenerate(self):
        result = regenerate(self)
        result.sql = "SELECT 1"
        return result
    monkeypatch.setattr(FeedbackSolver, "regenerate", wrong_regenerate)
    errors, failed, _ex = workload.check([workload.run(0.0, seed=2)])
    assert failed == 3 and errors


def test_serve_check_fails_on_a_planted_wrong_answer():
    workload = serveload.ServeWorkload(ROOT, seed=1)
    try:
        step = workload.step(40.0, 0.5, 0)
    finally:
        workload.server.stop()
    errors, failed, ex = workload.check([step])
    assert (errors, failed) == ([], 0)
    assert ex == pytest.approx(65.15, abs=0.01)

    from repro.bench.metrics import execution_match
    from repro.bench.schemas import build_all

    profiles = build_all(spec.DATA_SEED)

    def answered_right(sample):
        question = workload.questions[sample.answer[0]]
        return execution_match(profiles[question.database].database,
                               sample.answer[1], question.gold_sql)

    sample = next(s for s in step.samples if answered_right(s))
    sample.answer = (sample.answer[0], "SELECT 1")
    errors, failed, _ex = workload.check([step])
    assert failed == 1 and "sweep scored True" in errors[0]


def test_run_prints_every_metric_with_its_unit(capsys):
    code = run.main(["--workload", "ask_enterprise", "--seconds", "0.1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(spec.END_TO_END)
    for name, (unit, _better, _bound) in spec.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") for line in lines)


def test_run_refuses_a_directory_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", os.path.join(ROOT, "perfbench"))
    assert run.main(["--workload", "ask_dev"]) != 0
    assert capsys.readouterr().out == ""
