import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macgame.capacity import ScenarioError
from macgame.numerics import (
    MAX_STEPS,
    IntegratorConfig,
    NumericsError,
    bisect,
    integrate,
    project_simplex,
    rk4_step,
)
from oracles import integrate_oracle


def test_rk4_zero_field_is_identity():
    state = np.array([1.0, -2.0, 3.5])
    out = rk4_step(lambda x: np.zeros_like(x), state, 0.1)
    assert np.array_equal(out, state)


def test_rk4_exponential_decay_local_accuracy():
    out = rk4_step(lambda x: -x, np.array([1.0]), 0.1)
    assert abs(out[0] - math.exp(-0.1)) <= 1e-7
    # classical one-step value for x' = -x, dt = 0.1
    assert out[0] == pytest.approx(0.90483750, abs=1e-7)


def test_rk4_conserves_total_mass_for_generator_fields():
    rng = np.random.default_rng(7)
    A = rng.uniform(0.0, 1.0, size=(6, 6))
    np.fill_diagonal(A, 0.0)
    A -= np.diag(A.sum(axis=0))  # columns sum to zero
    x = rng.dirichlet(np.ones(6))
    out = rk4_step(lambda v: A @ v, x, 0.05)
    assert abs(out.sum() - x.sum()) <= 1e-13


def test_rk4_detects_nan():
    with pytest.raises(NumericsError):
        rk4_step(lambda x: x * np.nan, np.array([1.0]), 0.1)


def test_bisect_linear_root():
    assert bisect(lambda x: x - 1.0, 0.0, 2.0, tol=1e-14) == pytest.approx(1.0, abs=1e-12)


def test_bisect_multiplier_equation():
    # 2/c - 6 = 0 has the root c = 1/3
    root = bisect(lambda c: 2.0 / c - 6.0, 0.1, 10.0, tol=1e-14)
    assert root == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bisect_iteration_budget():
    calls = []

    def f(x):
        calls.append(x)
        return x - math.pi

    lo, hi, tol = 0.0, 10.0, 1e-10
    root = bisect(f, lo, hi, tol=tol)
    assert abs(root - math.pi) <= 1e-9
    budget = math.ceil(math.log2((hi - lo) / tol)) + 3
    assert len(calls) <= budget


def test_bisect_raises_at_its_iteration_cap():
    with pytest.raises(NumericsError):
        bisect(lambda x: x - math.pi, 0.0, 10.0, tol=1e-14, max_iter=3)


def test_bisect_stops_at_float_resolution():
    # near the root f moves by ~5e-4 per float step, far above tol, so only
    # the exhausted bracket ends the search
    root = bisect(lambda x: x * x - 2e12, 0.0, 2e6, tol=1e-14)
    assert root == pytest.approx(math.sqrt(2e12), rel=1e-15)


def test_bisect_rejects_bad_bracket():
    with pytest.raises(NumericsError):
        bisect(lambda x: x + 5.0, 0.0, 1.0)


def test_project_simplex_fixed_points_and_examples():
    valid = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex(valid), valid, atol=1e-15)
    assert np.allclose(project_simplex(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
    assert np.allclose(project_simplex(np.array([0.6, 0.6, 0.6])),
                       [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def row_projection(v):
    """The one-row projection that project_simplex vectorizes, kept as its oracle."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    cond = u + (1.0 - css) / np.arange(1, v.size + 1) > 0.0
    rho = np.nonzero(cond)[0][-1]
    return np.maximum(v + (1.0 - css[rho]) / (rho + 1.0), 0.0)


def test_project_simplex_rows_match_the_row_loop():
    rng = np.random.default_rng(11)
    for k in range(2000):
        n, j = rng.integers(1, 6, size=2)
        scale = 10.0 ** rng.uniform(-3, 3)
        # half the draws on a coarse lattice, so rows hold tied entries
        v = (rng.integers(-3, 4, (n, j)) / 2.0 if k % 2 else rng.normal(size=(n, j))) * scale
        assert np.array_equal(project_simplex(v), np.vstack([row_projection(r) for r in v]))
    stacked = rng.normal(size=(2, 3, 4))
    assert np.array_equal(project_simplex(stacked)[1, 2], row_projection(stacked[1, 2]))
    assert np.array_equal(project_simplex(np.array([[-4.0], [7.5]])), [[1.0], [1.0]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8))
def test_project_simplex_properties(values):
    out = project_simplex(np.asarray(values))
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) <= 1e-12
    again = project_simplex(out)
    assert np.allclose(again, out, atol=1e-12)
    # order of coordinates is preserved
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(out[order]) >= -1e-12)


def test_integrator_config_validation():
    cfg = IntegratorConfig(dt=0.1, t_end=1.0)
    assert cfg.n_steps == 10
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_end=1.0, sample_every=0)


def test_integrator_config_refuses_steps_over_the_cap():
    assert IntegratorConfig(dt=1.0, t_end=float(MAX_STEPS)).n_steps == MAX_STEPS
    # a float remainder far below the whole-step bound still rounds to the cap
    assert IntegratorConfig(dt=0.1, t_end=MAX_STEPS * 0.1).n_steps == MAX_STEPS
    # half a step past the cap is no whole number of steps
    with pytest.raises(ScenarioError) as err:
        IntegratorConfig(dt=1.0, t_end=MAX_STEPS + 0.5)
    assert err.value.key == "dt"
    for dt, t_end in ((1.0, MAX_STEPS + 1.0), (1e-3, 1e5), (1e-300, 1.0), (1.0, math.inf)):
        with pytest.raises(ScenarioError) as err:
            IntegratorConfig(dt=dt, t_end=t_end)
        assert err.value.key == "t_end"


@pytest.mark.parametrize("sample_every", [1, 3, 20])
def test_integrate_evaluates_each_sampled_state_once(sample_every):
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5))
    calls = []

    def rhs(x):
        calls.append(x.copy())
        return np.tanh(A @ x) - x * x.sum()

    def project(x):
        clip = max(-float(x.min()), 0.0)
        x = np.maximum(x, 0.0)
        total = float(x.sum())
        return x / total, clip, abs(total - 1.0)

    config = IntegratorConfig(dt=0.05, t_end=1.0, sample_every=sample_every)
    x0 = rng.dirichlet(np.ones(5))
    new = integrate(rhs, x0, config, project, lambda x, f: (x.copy(), f.copy()), max_drift=1.0)
    assert config.n_steps == 20
    assert len(calls) == 4 * config.n_steps + 1
    old = integrate_oracle(rhs, x0, config, project, lambda x: (x.copy(), rhs(x)),
                           max_drift=1.0)
    assert new[0] == old[0] and new[2:] == old[2:]
    assert len(new[1]) == len(old[1]) == 1 + -(-config.n_steps // sample_every)
    for (x_new, f_new), (x_old, f_old) in zip(new[1], old[1]):
        assert np.array_equal(x_new, x_old) and np.array_equal(f_new, f_old)
