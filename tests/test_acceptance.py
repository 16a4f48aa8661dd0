"""Acceptance gate: every criterion runs at its stated tolerance and prints a
pass/fail line (visible with pytest -s or in failure output)."""

import pytest

from finfactor import acceptance, compression

SEED = 0


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _, _ in acceptance.CRITERIA],
    ids=[f"criterion-{num:02d}" for num, _, _, _ in acceptance.CRITERIA],
)
def test_criterion(number, name):
    result = acceptance.run_criterion(number, seed=SEED)
    print(result.line())
    assert result.passed, result.line()


def test_suite_is_deterministic_for_fixed_seed():
    first = acceptance.run_criterion(5, seed=123)
    second = acceptance.run_criterion(5, seed=123)
    assert first.details == second.details


def test_broken_eta_keeps_refinement_monotonicity():
    # an absurd zero-block threshold changes measured indices but cannot break
    # refinement monotonicity; bound criteria may fail with diagnostics instead
    result = acceptance.run_criterion(6, seed=SEED, eta=0.5)
    assert result.passed

    bound_result = acceptance.run_criterion(2, seed=SEED, eta=0.5)
    assert bound_result.details  # completes with report content, never raises


@pytest.fixture
def cut_and_paste_calls(monkeypatch):
    calls = []
    real = compression.cut_and_paste

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(compression, "cut_and_paste", counting)
    return calls


def test_run_all_compresses_each_tuple_once(cut_and_paste_calls):
    # criteria 3, 4 and 10 share one verified compression of each of the
    # 40 sparse tuples, and every run_all computes them afresh
    acceptance.run_all(seed=SEED)
    assert len(cut_and_paste_calls) == 40
    acceptance.run_all(seed=SEED)
    assert len(cut_and_paste_calls) == 80


@pytest.mark.parametrize("number", [3, 4, 10])
def test_compression_criteria_pass_from_a_cold_cache(number, cut_and_paste_calls):
    acceptance._compressions.cache_clear()
    result = acceptance.run_criterion(number, seed=SEED)
    assert result.passed, result.line()
    assert len(cut_and_paste_calls) == 40
