from dataclasses import replace

import numpy as np
import pytest

from modnlp.corpus import corpus_get
from modnlp.driver import Options
from modnlp.errors import (
    NonFiniteEvaluationError,
    RegularizationFailedError,
    SingularMatrixError,
    StepTooSmallError,
    TinyRadiusError,
)
from modnlp.mechanism import (
    BacktrackingLineSearch,
    TrustRegionMethod,
    assemble_trial,
)
from modnlp.model import EvaluationRecord
from modnlp.reformulation import to_equality_form
from modnlp.state import Iterate, Workspace
from modnlp.subproblem import Direction


class StubRelaxation:
    """Scripted relaxation strategy for exercising the mechanisms: its
    compute_direction raises error if one is given, and handle_small_step
    returns recovery."""

    def __init__(self, ws, direction, accept_rule, recovery=None, error=None):
        self.ws = ws
        self.direction = direction
        self.accept_rule = accept_rule
        self.recovery = recovery
        self.error = error
        self.trials = []
        self.radii = []
        self.recoveries = 0  # handle_small_step calls

    def compute_direction(self, iterate, trust_radius=None):
        if self.error is not None:
            raise self.error("scripted")
        self.radii.append(trust_radius)
        if callable(self.direction):
            return self.direction(trust_radius)
        return self.direction

    def acceptance_test(self, iterate, direction):
        def accepts(trial, alpha):
            self.trials.append(alpha)
            return self.accept_rule(trial, alpha, len(self.trials))

        return accepts

    def handle_small_step(self, iterate):
        self.recoveries += 1
        return self.recovery


def make_workspace():
    model = corpus_get("hs028")
    return Workspace(to_equality_form(EvaluationRecord(model, model.initial_point)).model)


def make_iterate(ws):
    x = ws.model.initial_point.astype(float)
    return Iterate(
        x=x, y=np.zeros(ws.model.m), zl=np.zeros(ws.model.n), zu=np.zeros(ws.model.n),
        evals=EvaluationRecord(ws.model, x),
    )


def simple_direction(n, m, dx_value=0.1):
    return Direction(
        dx=np.full(n, dx_value), dy=np.zeros(m), dzl=np.zeros(n), dzu=np.zeros(n),
        status="Optimal",
    )


class TestLineSearch:
    def test_accept_first_trial(self):
        ws = make_workspace()
        it = make_iterate(ws)
        relax = StubRelaxation(ws, simple_direction(ws.model.n, ws.model.m),
                               lambda t, a, k: True)
        ls = BacktrackingLineSearch(relax, Options())
        trial = ls.compute_acceptable_iterate(it)
        assert relax.trials == [1.0]
        np.testing.assert_allclose(trial.x, it.x + 0.1)

    def test_accept_third_trial(self):
        ws = make_workspace()
        it = make_iterate(ws)
        relax = StubRelaxation(ws, simple_direction(ws.model.n, ws.model.m),
                               lambda t, a, k: k == 3)
        ls = BacktrackingLineSearch(relax, replace(Options(), backtrack_factor=0.5))
        ls.compute_acceptable_iterate(it)
        assert relax.trials == [1.0, 0.5, 0.25]
        assert ls.last_step_length == 0.25

    def test_step_lengths_strictly_decreasing(self):
        ws = make_workspace()
        it = make_iterate(ws)
        relax = StubRelaxation(ws, simple_direction(ws.model.n, ws.model.m),
                               lambda t, a, k: k == 10)
        ls = BacktrackingLineSearch(relax, Options())
        ls.compute_acceptable_iterate(it)
        assert all(b < a for a, b in zip(relax.trials, relax.trials[1:]))

    def test_step_too_small(self):
        ws = make_workspace()
        it = make_iterate(ws)
        relax = StubRelaxation(ws, simple_direction(ws.model.n, ws.model.m),
                               lambda t, a, k: False)
        ls = BacktrackingLineSearch(relax, replace(Options(), alpha_min=1e-7,
                                                           backtrack_factor=0.5))
        with pytest.raises(StepTooSmallError):
            ls.compute_acceptable_iterate(it)
        # ceil(log2(1e7)) = 24 trials before the threshold is crossed
        assert len(relax.trials) == 24

    def test_nonfinite_trial_is_rejected(self):
        ws = make_workspace()
        it = make_iterate(ws)
        calls = []

        def rule(trial, alpha, k):
            calls.append(alpha)
            return True

        bad = simple_direction(ws.model.n, ws.model.m, dx_value=np.inf)
        relax = StubRelaxation(ws, bad, rule)
        ls = BacktrackingLineSearch(relax, replace(Options(), max_inner=5))
        from modnlp.errors import InnerIterationLimitError

        with pytest.raises((StepTooSmallError, InnerIterationLimitError)):
            ls.compute_acceptable_iterate(it)
        assert calls == []  # acceptance rule never sees non-finite trials

    @pytest.mark.parametrize("error", [
        NonFiniteEvaluationError, RegularizationFailedError, SingularMatrixError])
    def test_recoverable_error_takes_the_recovery_direction(self, error):
        ws = make_workspace()
        it = make_iterate(ws)
        n, m = ws.model.n, ws.model.m
        relax = StubRelaxation(ws, simple_direction(n, m), lambda t, a, k: True,
                               recovery=simple_direction(n, m, dx_value=0.25), error=error)
        trial = BacktrackingLineSearch(relax, Options()).compute_acceptable_iterate(it)
        assert relax.recoveries == 1 and relax.trials == [1.0]
        np.testing.assert_array_equal(trial.x, it.x + 0.25)

    def test_recoverable_error_without_recovery_raises(self):
        ws = make_workspace()
        relax = StubRelaxation(ws, None, lambda t, a, k: True, error=SingularMatrixError)
        with pytest.raises(SingularMatrixError):
            BacktrackingLineSearch(relax, Options()).compute_acceptable_iterate(make_iterate(ws))

    @pytest.mark.parametrize("error", [None, SingularMatrixError])
    def test_at_most_four_recoveries(self, error):
        # every trial is rejected, so each direction ends in StepTooSmall:
        # four recovery directions are tried (a recoverable error in the
        # first direction uses one of them), and the fifth StepTooSmall raises
        ws = make_workspace()
        n, m = ws.model.n, ws.model.m
        relax = StubRelaxation(ws, simple_direction(n, m), lambda t, a, k: False,
                               recovery=simple_direction(n, m), error=error)
        ls = BacktrackingLineSearch(relax, replace(Options(), alpha_min=0.1))
        with pytest.raises(StepTooSmallError):
            ls.compute_acceptable_iterate(make_iterate(ws))
        assert relax.recoveries == 4
        # 4 trials (1, 1/2, 1/4, 1/8) per backtracked direction
        assert len(relax.trials) == 4 * (4 + (error is None))


class TestTrustRegion:
    def test_radius_unchanged_when_inactive(self):
        ws = make_workspace()
        it = make_iterate(ws)
        relax = StubRelaxation(ws, simple_direction(ws.model.n, ws.model.m, 0.1),
                               lambda t, a, k: True)
        tr = TrustRegionMethod(relax, replace(Options(), radius_initial=10.0))
        tr.compute_acceptable_iterate(it)
        assert tr.radius == 10.0

    def test_radius_increase_when_active(self):
        ws = make_workspace()
        it = make_iterate(ws)

        def direction(radius):
            return simple_direction(ws.model.n, ws.model.m, radius)

        relax = StubRelaxation(ws, direction, lambda t, a, k: True)
        tr = TrustRegionMethod(relax, replace(Options(), radius_initial=1.0, radius_increase_factor=2.0))
        tr.compute_acceptable_iterate(it)
        assert tr.radius == 2.0

    def test_rejection_shrinks_by_step_norm(self):
        ws = make_workspace()
        it = make_iterate(ws)
        seen = []

        def direction(radius):
            seen.append(radius)
            return simple_direction(ws.model.n, ws.model.m, 0.3)

        relax = StubRelaxation(ws, direction, lambda t, a, k: k >= 2)
        tr = TrustRegionMethod(relax, replace(Options(), radius_initial=1.0, radius_decrease_factor=0.5))
        tr.compute_acceptable_iterate(it)
        assert seen == [1.0, 0.15]  # 0.5 * min(1.0, 0.3)

    def test_radii_strictly_decreasing_across_rejections(self):
        ws = make_workspace()
        it = make_iterate(ws)
        relax = StubRelaxation(
            ws, lambda r: simple_direction(ws.model.n, ws.model.m, min(r, 0.5)),
            lambda t, a, k: k >= 6,
        )
        tr = TrustRegionMethod(relax, replace(Options(), radius_initial=4.0))
        tr.compute_acceptable_iterate(it)
        rejected = relax.radii
        assert all(b < a for a, b in zip(rejected, rejected[1:]))

    def test_tiny_radius_error(self):
        ws = make_workspace()
        it = make_iterate(ws)
        relax = StubRelaxation(
            ws, lambda r: simple_direction(ws.model.n, ws.model.m, min(r, 1.0)),
            lambda t, a, k: False,
        )
        tr = TrustRegionMethod(relax, replace(Options(), radius_initial=1.0, max_inner=500))
        with pytest.raises(TinyRadiusError):
            tr.compute_acceptable_iterate(it)

    def test_returned_trial_satisfies_acceptance(self):
        ws = make_workspace()
        it = make_iterate(ws)
        accepted = []

        def rule(trial, alpha, k):
            ok = k >= 3
            if ok:
                accepted.append(trial)
            return ok

        relax = StubRelaxation(
            ws, lambda r: simple_direction(ws.model.n, ws.model.m, min(r, 0.4)), rule
        )
        tr = TrustRegionMethod(relax, replace(Options(), radius_initial=2.0))
        trial = tr.compute_acceptable_iterate(it)
        assert trial is accepted[-1]


def test_assemble_trial_dual_steps():
    ws = make_workspace()
    it = make_iterate(ws)
    it.zl = np.full(ws.model.n, 2.0)
    d = Direction(
        dx=np.ones(ws.model.n), dy=np.ones(ws.model.m),
        dzl=np.full(ws.model.n, -1.0), dzu=np.zeros(ws.model.n),
        status="Optimal", dual_scale=0.5,
    )
    trial = assemble_trial(it, d, alpha=0.25)
    np.testing.assert_allclose(trial.x, it.x + 0.25)
    np.testing.assert_allclose(trial.y, it.y + 0.25)
    # bound multipliers step by dual_scale regardless of the backtracked alpha
    np.testing.assert_allclose(trial.zl, 2.0 - 0.5)
