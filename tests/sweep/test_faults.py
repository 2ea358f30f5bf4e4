"""The deterministic fault injectors themselves."""

import numpy as np
import pytest

from repro.experiments import ScenarioSpec, apply_axis
from repro.sweep import map_tasks_resilient
from repro.sweep.faults import FailEveryNth, FaultyStimulus, InjectedFault, task_index


def _identity(task, rng):
    return task


def _own_task_index(task, rng):
    return task_index(rng)


class TestTaskIndex:
    def test_recovers_flat_index_from_spawned_generator(self):
        children = np.random.SeedSequence(7).spawn(5)
        for expected, child in enumerate(children):
            assert task_index(np.random.default_rng(child)) == expected

    def test_matches_runner_task_order(self):
        tasks = list("abcd")
        children = np.random.SeedSequence(0).spawn(len(tasks))
        oracle = [_own_task_index(t, np.random.default_rng(c)) for t, c in zip(tasks, children)]
        result = map_tasks_resilient(_own_task_index, tasks, seed=0, workers=1)
        assert result.values == oracle == [0, 1, 2, 3]


class TestFailEveryNth:
    def test_fails_at_exactly_the_selected_points(self):
        faulty = FailEveryNth(_identity, every=3, offset=1)
        children = np.random.SeedSequence(0).spawn(7)
        outcomes = []
        for task, child in enumerate(children):
            try:
                outcomes.append(faulty(task, np.random.default_rng(child)))
            except InjectedFault:
                outcomes.append("boom")
        assert outcomes == [0, "boom", 2, 3, "boom", 5, 6]

    def test_selection_depends_on_index_not_seed(self):
        faulty = FailEveryNth(_identity, every=2)
        for seed in (0, 1, 99):
            children = np.random.SeedSequence(seed).spawn(2)
            with pytest.raises(InjectedFault):
                faulty("x", np.random.default_rng(children[0]))
            assert faulty("x", np.random.default_rng(children[1])) == "x"

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError, match="every must be positive"):
            FailEveryNth(_identity, every=0)


class TestFaultAxis:
    def test_axis_swaps_in_a_detonating_stimulus(self):
        spec = apply_axis(ScenarioSpec(), "inject_fault", True)
        assert isinstance(spec.stimulus, FaultyStimulus)
        with pytest.raises(InjectedFault, match="injected stimulus fault"):
            spec.stimulus.bits()

    def test_false_keeps_the_stimulus_equivalent(self):
        base = ScenarioSpec()
        spec = apply_axis(base, "inject_fault", False)
        assert np.array_equal(spec.stimulus.bits(), base.stimulus.bits())
