from dataclasses import replace

import numpy as np
import pytest

from modnlp.driver import Options
from modnlp.globalization import (
    FilterMethod,
    MeritL1,
    ProgressMeasures,
    ReductionModels,
    WaechterFilter,
    barrier_value,
    infeasibility_armijo,
)
from modnlp.linalg import OPTIMAL
from modnlp.model import Evaluations
from modnlp.relaxation import FeasibilityRestoration, L1Relaxation, QPSubproblem
from modnlp.state import Bounds, Iterate
from modnlp.subproblem import Direction


OPTS = Options()


def merit_is_acceptable(cur, tri, models, step, sigma):
    return MeritL1(replace(OPTS, armijo_sigma=sigma)).check_acceptance(cur, tri, models, step)


def filter_with(cls=FilterMethod, entries=(), **constants):
    """A filter strategy on OPTS with the given constants, holding the
    given (eta, phi) entries, initialized at eta0 = 0."""
    strategy = cls(replace(OPTS, **constants))
    strategy.initialize(0.0)
    for eta, phi in entries:
        strategy.add(eta, phi)
    return strategy


def models_for(c=(0.0,), jd=(0.0,), gtd=0.0, dwd=0.0, rho=1.0, btd=0.0, dbd=0.0):
    return ReductionModels(
        c=np.asarray(c, dtype=float), jd=np.asarray(jd, dtype=float),
        gtd=gtd, dwd=dwd, rho=rho, btd=btd, dbd=dbd,
    )


class ReadRecord:
    """An evaluation record holding f and c that notes each read of them."""

    def __init__(self, f, c, reads):
        self._f, self._c, self.reads = f, np.asarray(c, dtype=float), reads

    @property
    def f(self):
        self.reads.append("f")
        return self._f

    @property
    def c(self):
        self.reads.append("c")
        return self._c


def measures_at(f, c, rho=1.0, xi=0.0, reads=None):
    """The ProgressMeasures an l1 relaxation at rho builds at an iterate
    whose record holds f and c, over a subproblem whose barrier term is xi."""
    subproblem = QPSubproblem(None, OPTS)
    subproblem.barrier_term = lambda x: xi
    relaxation = L1Relaxation(None, subproblem, MeritL1(OPTS), replace(OPTS, rho_initial=rho))
    record = ReadRecord(f, c, [] if reads is None else reads)
    iterate = Iterate(np.zeros(1), np.zeros(np.size(c)), np.zeros(1), np.zeros(1), record)
    return relaxation.measures_from(iterate)


class TestMeasures:
    def test_feasible_eta_zero(self):
        m = measures_at(1.0, np.zeros(3), rho=1.0)
        assert m.eta == 0.0

    def test_l1_norm(self):
        m = measures_at(0.0, np.array([1.0, -2.0]))
        assert m.eta == 3.0

    def test_phi_is_unpenalized_and_merit_is_penalized(self):
        m = measures_at(2.0, np.array([1.0, -0.5]), rho=0.5, xi=0.25)
        assert (m.f, m.rho) == (2.0, 0.5)
        assert m.phi == 2.0 + 0.25
        assert m.merit == 0.5 * 2.0 + 1.5 + 0.25

    def test_f_is_read_before_c(self):
        reads = []
        measures_at(1.0, np.ones(2), reads=reads)
        assert reads == ["f", "c"]

    def test_barrier_term(self):
        xi = barrier_value(np.array([0.5]), Bounds(np.array([0.0]), np.array([np.inf])), 0.1)
        assert xi == pytest.approx(-0.1 * np.log(0.5))
        m = measures_at(0.0, np.zeros(1), xi=xi)
        assert m.xi == pytest.approx(0.0693147, rel=1e-5)

    def test_barrier_infinite_outside(self):
        bounds = Bounds(np.array([0.0]), np.array([np.inf]))
        assert barrier_value(np.array([0.0]), bounds, 0.1) == np.inf

    def test_barrier_matches_loop_bitwise(self):
        def loop(x, lower, upper, mu):
            total = 0.0
            for xi, lo, hi in zip(x, lower, upper):
                if np.isfinite(lo):
                    gap = xi - lo
                    if gap <= 0.0:
                        return np.inf
                    total -= np.log(gap)
                if np.isfinite(hi):
                    gap = hi - xi
                    if gap <= 0.0:
                        return np.inf
                    total -= np.log(gap)
            return mu * total

        rng = np.random.RandomState(5)
        outside = 0
        for trial in range(300):
            n = rng.randint(0, 30)
            lower = rng.randn(n)
            upper = lower + 0.1 + 3.0 * rng.rand(n)
            x = lower + (upper - lower) * rng.uniform(0.01, 0.99, n)
            lower[rng.rand(n) < 0.3] = -np.inf
            upper[rng.rand(n) < 0.3] = np.inf
            if trial % 3 == 0 and n:  # one component on or beyond a finite bound
                i = rng.randint(n)
                step = 0.0 if trial % 2 else 0.3
                if np.isfinite(lower[i]):
                    x[i] = lower[i] - step
                elif np.isfinite(upper[i]):
                    x[i] = upper[i] + step
            mu = 10.0 ** rng.uniform(-9.0, 0.0)
            expected = loop(x, lower, upper, mu)
            outside += expected == np.inf
            assert np.float64(barrier_value(x, Bounds(lower, upper), mu)).tobytes() == \
                np.float64(expected).tobytes()
        assert outside > 20


    def test_barrier_equals_the_oracle_on_non_finite_input(self):
        # the body before barrier_value built its gaps in place: NaN and
        # +-inf in x and in either bound, gaps of exactly 1 (a -0.0 log),
        # zero gaps and empty vectors give the same bytes
        def oracle(x, lower, upper, mu):
            bounds = np.array([lower, upper]).T
            gaps = np.array([x - lower, upper - x]).T[np.isfinite(bounds)]
            if (gaps <= 0.0).any():
                return np.inf
            return mu * np.cumsum(np.concatenate(([0.0], -np.log(gaps))))[-1]

        rng = np.random.RandomState(59)
        kinds = set()
        with np.errstate(invalid="ignore", divide="ignore"):
            for trial in range(400):
                n = rng.randint(0, 12)
                lower = rng.randn(n)
                upper = lower + rng.choice([1.0, 2.0, 0.5 + rng.rand()], n)
                x = lower + rng.choice([0.0, 1.0, 0.5, rng.rand()], n)
                for vector, values in ((x, (np.nan, np.inf, -np.inf)),
                                       (lower, (np.nan, -np.inf, np.inf)),
                                       (upper, (np.nan, np.inf, -np.inf))):
                    for value in values:
                        vector[rng.rand(n) < 0.05] = value
                mu = 10.0 ** rng.uniform(-9.0, 0.0)
                expected = oracle(x, lower, upper, mu)
                assert np.float64(barrier_value(x, Bounds(lower, upper), mu)).tobytes() == \
                    np.float64(expected).tobytes()
                kinds.add("nan" if np.isnan(expected) else "inf" if expected == np.inf
                          else "zero" if expected == 0.0 else "finite")
        assert kinds == {"nan", "inf", "zero", "finite"}


class TestReductionModels:
    def test_eta_model(self):
        m = models_for(c=[2.0, -1.0], jd=[-2.0, 1.0])
        assert m.eta(1.0) == pytest.approx(3.0)
        assert m.eta(0.5) == pytest.approx(1.5)

    def test_omega_variants(self):
        # merit: the quadratic model of rho f at the models' rho; phi: the
        # linear model of the unpenalized f, which reads no rho
        m = models_for(gtd=2.0, dwd=4.0, rho=0.5)
        assert m.merit_reduction(1.0) == -3.0
        assert m.merit_reduction(0.5) == -1.0
        assert m.phi_reduction(1.0) == -2.0
        assert m.phi_reduction(0.5) == -1.0
        assert models_for(gtd=2.0, dwd=4.0).phi_reduction(1.0) == -2.0

    def test_xi_variants(self):
        # merit: the quadratic barrier model; phi: the linear one; both add
        # the f model, the merit also the eta model
        m = models_for(btd=1.0, dbd=2.0)
        assert m.merit_reduction(1.0) == 0.0
        assert m.merit_reduction(0.5) == 0.25
        assert m.phi_reduction(0.5) == 0.5
        m = models_for(c=[1.0], jd=[-1.0], gtd=-1.0, dwd=2.0, btd=1.0, dbd=2.0)
        assert m.merit_reduction(0.5) == 0.25 + 0.5 + 0.25
        assert m.phi_reduction(0.5) == 0.5 + 0.5


class TestMerit:
    def test_accepts_full_predicted_decrease(self):
        cur = ProgressMeasures(eta=1.0, f=1.0)
        tri = ProgressMeasures(eta=0.0, f=1.0)
        m = models_for(c=[1.0], jd=[-1.0])
        assert merit_is_acceptable(cur, tri, m, 1.0, sigma=0.1)

    def test_rejects_small_actual_decrease(self):
        cur = ProgressMeasures(eta=1.0, f=0.0)
        tri = ProgressMeasures(eta=0.95, f=0.0)
        m = models_for(c=[1.0], jd=[-1.0])  # predicted decrease 1.0
        assert not merit_is_acceptable(cur, tri, m, 1.0, sigma=0.1)

    def test_zero_step_accepted_unconditionally(self):
        # the relaxations accept a zero-length direction before they ask
        # the strategy, which rejects this trial
        cur = ProgressMeasures(eta=0.0, f=0.0)
        tri = ProgressMeasures(eta=5.0, f=5.0)
        assert not merit_is_acceptable(cur, tri, models_for(), 1.0, sigma=0.1)
        x = np.array([1.0, -2.0])
        iterate = Iterate(x, np.zeros(1), np.zeros(2), np.zeros(2),
                          Evaluations(0.0, np.zeros(1)))
        trial = Iterate(x, np.zeros(1), np.zeros(2), np.zeros(2),
                        Evaluations(5.0, np.array([5.0])))
        zero = Direction(np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(2), OPTIMAL)
        merit = MeritL1(replace(OPTS, armijo_sigma=0.1))
        for cls in (L1Relaxation, FeasibilityRestoration):
            relaxation = cls(None, QPSubproblem(None, OPTS), merit, OPTS)
            assert relaxation.acceptance_test(iterate, zero)(trial, 1.0)

    def test_sigma_zero_accepts_non_increasing(self):
        cur = ProgressMeasures(eta=1.0, f=1.0)
        tri = ProgressMeasures(eta=1.0, f=1.0)
        m = models_for(c=[1.0], jd=[-1.0])
        assert merit_is_acceptable(cur, tri, m, 1.0, sigma=0.0)


class TestFilter:
    def test_insert_mutually_nondominated(self):
        f = FilterMethod(OPTS)
        for eta, phi in ((2.0, 0.5), (0.5, 2.0)):
            f.add(eta, phi)
        f.add(1.0, 1.0)
        assert sorted(f.entries) == [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5)]

    def test_dominance_pruning(self):
        f = FilterMethod(OPTS)
        for eta, phi in ((1.0, 1.0), (2.0, 0.5)):
            f.add(eta, phi)
        f.add(0.1, 0.1)
        assert f.entries == [(0.1, 0.1)]

    def test_eta_max_blocks_insert(self):
        f = FilterMethod(OPTS)
        f.eta_max = 10.0
        f.add(11.0, 0.0)
        assert f.entries == []

    def test_envelope_acceptability(self):
        f = FilterMethod(replace(OPTS, filter_beta=0.99, filter_gamma=1e-5))
        f.add(1.0, 5.0)
        assert f.acceptable(0.5, 10.0)  # eta branch
        assert f.acceptable(2.0, 4.0)  # phi branch
        assert not f.acceptable(2.0, 10.0)

    def test_reset(self):
        # a reset (a barrier update) flushes the entries; the upper bound
        # stays where initialize set it
        f = FilterMethod(replace(OPTS, filter_beta=0.9, filter_gamma=0.1))
        f.initialize(2.0)
        f.add(1.0, 1.0)
        f.reset()
        assert f.entries == []
        assert f.beta == 0.9 and f.gamma == 0.1
        assert f.eta_max == pytest.approx(2e4)
        assert f.acceptable(1.0, 99.0)  # empty filter accepts

    def test_dominance_invariant_random_inserts(self):
        rng = np.random.RandomState(77)
        for _ in range(1000):
            f = FilterMethod(OPTS)
            for _ in range(rng.randint(1, 25)):
                f.add(float(rng.rand()), float(rng.randn()))
            entries = f.entries
            for i, (ea, pa) in enumerate(entries):
                for j, (eb, pb) in enumerate(entries):
                    if i == j:
                        continue
                    dominated = ea <= eb and pa <= pb and (ea < eb or pa < pb)
                    assert not dominated, (entries, i, j)

    def test_acceptability_monotone_under_shrinking(self):
        rng = np.random.RandomState(78)
        for _ in range(200):
            f = FilterMethod(OPTS)
            for _ in range(rng.randint(1, 15)):
                f.add(float(rng.rand()), float(rng.randn()))
            probe = (float(rng.rand()), float(rng.randn()))
            accepted = f.acceptable(*probe)
            if accepted and f.entries:
                smaller = FilterMethod(OPTS)
                smaller.eta_max = f.eta_max
                smaller.entries = f.entries[1:]
                assert smaller.acceptable(*probe)

    def test_eta_min(self):
        # the least eta the filter holds, not the reference's
        f = FilterMethod(OPTS)
        reference = ProgressMeasures(eta=0.1, f=0.0)
        assert f.least_infeasibility(reference) == np.inf
        f.add(0.7, 1.0)
        f.add(0.3, 2.0)
        assert f.least_infeasibility(reference) == pytest.approx(0.3)


class TestFilterAcceptance:
    def test_empty_filter_f_type(self):
        flt = filter_with()
        cur = ProgressMeasures(eta=0.0, f=2.0)
        tri = ProgressMeasures(eta=0.0, f=1.0)
        m = models_for(gtd=-1.0)  # predicted phi decrease 1
        accepted, add = flt.rule(cur, tri, m, 1.0)
        assert accepted and not add  # f-type at a feasible point: no entry added
        assert flt.check_acceptance(cur, tri, m, 1.0) and flt.entries == []

    def test_envelope_branch(self):
        flt = filter_with(entries=[(1.0, 5.0)], filter_beta=0.99, filter_gamma=1e-5)
        cur = ProgressMeasures(eta=1.0, f=5.0)
        tri = ProgressMeasures(eta=0.5, f=10.0)
        m = models_for(gtd=10.0)  # switching fails: h-type
        accepted, add = flt.rule(cur, tri, m, 1.0)
        assert accepted and add

    def test_dominated_trial_rejected(self):
        flt = filter_with(entries=[(0.1, 1.0)], filter_beta=0.999, filter_gamma=1e-5)
        cur = ProgressMeasures(eta=0.1, f=1.0)
        tri = ProgressMeasures(eta=0.2, f=2.0)
        accepted, _ = flt.rule(cur, tri, models_for(), 1.0)
        assert not accepted
        assert not flt.check_acceptance(cur, tri, models_for(), 1.0)

    def test_variants_differ_on_theta_min_gate(self):
        # eta above theta_min with the switching inequality holding but the
        # Armijo condition failing: Fletcher-Leyffer insists on the f-type
        # Armijo test and rejects; the Waechter gate diverts to the envelope
        # branch, which accepts
        constants = dict(filter_beta=0.999, filter_gamma=1e-5, filter_sigma=0.9)
        leyffer = filter_with(FilterMethod, **constants)
        waechter = filter_with(WaechterFilter, **constants)
        assert waechter.theta_min == 1e-4
        cur = ProgressMeasures(eta=0.5, f=10.0)
        tri = ProgressMeasures(eta=0.6, f=8.0)
        m = models_for(gtd=-9.0)  # predicted phi decrease 9, actual only 2
        fl_accept, _ = leyffer.rule(cur, tri, m, 1.0)
        wae_accept, _ = waechter.rule(cur, tri, m, 1.0)
        assert not fl_accept
        assert wae_accept
        assert waechter.check_acceptance(cur, tri, m, 1.0)
        assert not leyffer.check_acceptance(cur, tri, m, 1.0)

    def test_waechter_failed_f_type_records_current(self):
        # below theta_min a switching trial must pass the Armijo test on
        # phi; when it fails, the current pair enters the filter
        flt = filter_with(WaechterFilter, filter_sigma=0.9)
        cur = ProgressMeasures(eta=0.0, f=10.0)
        tri = ProgressMeasures(eta=0.0, f=8.0)
        m = models_for(gtd=-9.0)  # predicted phi decrease 9, actual only 2
        assert flt.rule(cur, tri, m, 1.0) == (False, True)
        assert not flt.check_acceptance(cur, tri, m, 1.0)
        assert flt.entries == [(0.0, 10.0)]


def test_infeasibility_armijo():
    cur = ProgressMeasures(eta=1.0, f=0.0)
    tri = ProgressMeasures(eta=0.4, f=0.0)
    m = models_for(c=[1.0], jd=[-1.0])
    assert infeasibility_armijo(cur, tri, m, 0.5, sigma=0.5)
    assert not infeasibility_armijo(cur, tri, m, 1.0, sigma=0.99)


def test_strategy_classes():
    # each strategy names its own measure for the log
    measures = ProgressMeasures(eta=1.0, f=2.0, rho=0.5, xi=0.25)
    merit = MeritL1(replace(OPTS, armijo_sigma=0.1))
    assert merit.log_fields(measures) == {"merit": 0.5 * 2.0 + 1.0 + 0.25}
    flt = WaechterFilter(OPTS)
    flt.initialize(eta0=2.0)
    assert flt.eta_max == pytest.approx(2e4)
    assert flt.theta_min == pytest.approx(2e-4)
    assert isinstance(flt, FilterMethod) and flt.log_fields(measures) == {"phi": 2.25}
    leyffer = FilterMethod(OPTS)
    leyffer.initialize(eta0=0.5)
    assert leyffer.eta_max == pytest.approx(1e4)
    assert not hasattr(leyffer, "theta_min")
