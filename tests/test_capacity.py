import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macgame.hybrid_game import HybridScenario

from macgame.capacity import (
    MAX_TABLE_ENTRIES,
    MAX_USERS,
    ScenarioError,
    SingleReceiverScenario,
    build_region,
    check_bound_table,
    coalition_table,
    contains,
    on_max_face,
    room,
    safe_rates,
)
from oracles import coalitions, room_oracle, scalar_safe_rate


def symmetric3():
    return SingleReceiverScenario.symmetric(3, 25.0, 1.0, 0.1)


def test_build_region_symmetric_three_users():
    region = build_region(symmetric3())
    assert region.bound(0b001) == pytest.approx(math.log2(251), abs=1e-12)
    assert region.bound(0b011) == pytest.approx(math.log2(501), abs=1e-12)
    assert region.sum_capacity == pytest.approx(math.log2(751), abs=1e-12)
    # quoted reference values
    assert region.bound(0b001) == pytest.approx(7.9716, abs=1e-4)
    assert region.bound(0b011) == pytest.approx(8.9687, abs=1e-4)
    assert region.sum_capacity == pytest.approx(9.5527, abs=1e-4)


def test_build_region_single_user_unit_snr():
    s = SingleReceiverScenario(np.array([1.0]), np.array([1.0]), 1.0)
    region = build_region(s)
    assert region.sum_capacity == pytest.approx(1.0, abs=1e-15)


def test_build_region_two_user_asymmetric():
    s = SingleReceiverScenario(np.array([3.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    region = build_region(s)
    assert region.bound(0b01) == pytest.approx(2.0, abs=1e-15)
    assert region.bound(0b10) == pytest.approx(1.0, abs=1e-15)
    assert region.bound(0b11) == pytest.approx(math.log2(5.0), abs=1e-15)


def test_build_region_rejects_oversized_scenarios():
    with pytest.raises(ScenarioError):
        build_region(SingleReceiverScenario.symmetric(21, 1.0, 1.0, 1.0))


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        SingleReceiverScenario(np.array([1.0, -1.0]), np.array([1.0, 1.0]), 1.0)
    # nothing is broadcast
    with pytest.raises(ScenarioError, match="power: shape"):
        SingleReceiverScenario(25.0, 1.0, 0.1)
    with pytest.raises(ScenarioError, match="gain: shape"):
        SingleReceiverScenario(np.array([25.0, 25.0]), 1.0, 0.1)


def _channel(cls, n=2, **changes):
    """An n-user channel of cls (two receivers for a hybrid scenario) built
    from valid arguments, each named in changes replaced by change(shape)."""
    shape = (n,) if cls is SingleReceiverScenario else (n, 2)
    args = dict(power=np.ones(shape), gain=np.ones(shape), noise=0.1, log_base="2")
    args.update({key: change(shape) for key, change in changes.items()})
    return cls(**args)


@pytest.mark.parametrize("cls", [SingleReceiverScenario, HybridScenario])
@pytest.mark.parametrize("changes, message", [
    (dict(gain=lambda shape: np.ones((shape[0] + 1,) + shape[1:])), "gain: shape"),
    (dict(gain=lambda shape: np.zeros(shape)), "gain: entries must be positive"),
    (dict(gain=lambda shape: -np.ones(shape)), "gain: entries must be positive"),
    (dict(noise=lambda shape: 0.0), "noise: entries must be positive"),
    (dict(power=lambda shape: np.full(shape, 1e300), gain=lambda shape: np.full(shape, 1e300)),
     "power \\* gain / noise overflows at a receiver"),
    (dict(log_base=lambda shape: "10"), "log_base: must be one of"),
])
def test_both_scenario_kinds_refuse_a_malformed_channel_alike(cls, changes, message):
    with pytest.raises(ScenarioError, match=message):
        _channel(cls, **changes)


@pytest.mark.parametrize("cls", [SingleReceiverScenario, HybridScenario])
def test_both_scenario_kinds_refuse_21_users_when_built(cls):
    _channel(cls, n=20)
    with pytest.raises(ScenarioError, match="user count exceeds the enumeration guard"):
        _channel(cls, n=21)


def test_bound_table_cap_admits_every_single_receiver_table():
    check_bound_table(MAX_USERS)
    check_bound_table(1, MAX_TABLE_ENTRIES)
    for n, nj in ((MAX_USERS, 2), (1, MAX_TABLE_ENTRIES + 1), (12, 4096)):
        with pytest.raises(ScenarioError, match=f"^receivers: users={n} with receivers={nj} "
                                                f"needs a coalition-bound table of "
                                                f"{((1 << n) - 1) * nj} entries"):
            check_bound_table(n, nj)


def test_one_size_budget_in_the_package():
    # every table cap reads capacity.MAX_TABLE_ENTRIES; the user cap follows from it
    src = Path(__file__).resolve().parents[1] / "src" / "macgame"
    literal = re.compile(r"\b1\s*<<\s*20\b|\b2\s*\*\*\s*20\b")
    found = [path.name for path in sorted(src.glob("*.py"))
             for _ in literal.finditer(path.read_text(encoding="utf-8"))]
    assert found == ["capacity.py"]
    assert MAX_TABLE_ENTRIES == 1 << 20 and MAX_USERS == 20


def test_no_other_module_imports_a_private_capacity_name():
    # the channel's validation and log scale stay behind capacity's public names
    src = Path(__file__).resolve().parents[1] / "src" / "macgame"
    leaks = []
    for path in sorted(src.glob("*.py")):
        if path.name == "capacity.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module in ("capacity", "macgame.capacity")
                    and any(alias.name.startswith("_") for alias in node.names)):
                leaks.append(f"{path.name}:{node.lineno}")
    assert leaks == []


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5),
    st.floats(0.05, 100.0),
    st.floats(0.01, 10.0),
)
def test_bounds_monotone_under_inclusion(n, p_scale, noise):
    rng = np.random.default_rng(int(p_scale * 1000) % 2**31)
    s = SingleReceiverScenario(rng.uniform(0.1, 1.0, n) * p_scale,
                               rng.uniform(0.1, 2.0, n), noise)
    region = build_region(s)
    for mask in coalitions(n):
        sub = (mask - 1) & mask
        while sub:
            assert region.bound(sub) <= region.bound(mask) + 1e-15
            sub = (sub - 1) & mask


def test_contains_origin_and_examples():
    region = build_region(symmetric3())
    assert contains(region, [0.0, 0.0, 0.0], 0.0)
    assert contains(region, [3.18, 3.18, 3.18], 0.0)
    assert not contains(region, [8.0, 0.0, 0.0], 0.0)
    assert not contains(region, [-0.1, 0.0, 0.0], 0.0)
    with pytest.raises(ScenarioError):
        contains(region, [1.0, 2.0], 0.0)


def test_contains_is_exact_at_zero_tolerance():
    region = build_region(symmetric3())
    c1 = region.bound(1)
    assert contains(region, [c1, 0.0, 0.0], 0.0)
    assert not contains(region, [c1 * (1 + 1e-11), 0.0, 0.0], 0.0)


def test_safe_rate_values():
    s2 = SingleReceiverScenario.symmetric(2, 25.0, 1.0, 0.1)
    r = safe_rates(s2)[0]
    assert r == pytest.approx(math.log2(1 + 250.0 / 251.0), abs=1e-12)
    assert r == pytest.approx(0.9971, abs=1e-4)
    assert safe_rates(symmetric3())[0] == pytest.approx(0.5840, abs=1e-4)


def test_max_face_membership():
    s = symmetric3()
    region = build_region(s)
    split = region.sum_capacity / 3
    assert on_max_face(region, s, [split] * 3, 1e-9)
    assert not on_max_face(region, s, [0.0, 0.0, 0.0], 1e-9)
    assert not on_max_face(region, s, [region.sum_capacity, 0.0, 0.0], 1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.floats(0.5, 50.0), st.floats(0.05, 5.0))
def test_equal_split_feasible_for_symmetric_scenarios(n, ph, noise):
    s = SingleReceiverScenario.symmetric(n, ph, 1.0, noise)
    region = build_region(s)
    split = np.full(n, region.sum_capacity / n)
    assert contains(region, split, 1e-12)
    # the guaranteed rate never exceeds the symmetric share
    assert np.all(safe_rates(s) <= region.sum_capacity / n + 1e-12)


def test_floor_is_exactly_the_singleton_complement_gap():
    # r_{i,N} = C_N - C_{N minus i}: the floors are implied on the max face
    s = SingleReceiverScenario(np.array([2.0, 5.0, 1.0]), np.array([1.0, 0.5, 2.0]), 0.7)
    region = build_region(s)
    floors = safe_rates(s)
    n = s.n_users
    full = (1 << n) - 1
    for i in range(n):
        gap = region.sum_capacity - region.bound(full & ~(1 << i))
        assert floors[i] == pytest.approx(gap, rel=1e-12)


def test_safe_rates_match_the_scalar_formula():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        s = SingleReceiverScenario(rng.uniform(0.01, 100.0, n), rng.uniform(0.01, 3.0, n),
                                   rng.uniform(0.01, 2.0), str(rng.choice(["2", "e"])))
        got = safe_rates(s)
        assert got.shape == (n,)
        for i, value in enumerate(got):
            ref = scalar_safe_rate(s, i)
            assert abs(value - ref) <= 1e-15 * abs(ref)


def test_safe_rates_refuse_more_than_one_receiver():
    s = HybridScenario(np.ones((2, 3)), np.ones((2, 3)), 0.1)
    with pytest.raises(ScenarioError, match=r"power: .*one receiver.*\(2, 3\)"):
        safe_rates(s)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("nj", range(1, 5))
@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
def test_room_matches_the_loop_oracle(n, nj, batch):
    rng = np.random.default_rng(1000 * n + 10 * nj + len(batch))
    caps = np.log2(1.0 + coalition_table(n).member @ rng.uniform(1.0, 300.0, (n, nj)))
    rates = rng.uniform(0.0, 4.0, batch + (n, nj))
    got, want = room(caps, rates), room_oracle(caps, rates)
    assert got.shape == batch + (n, nj)
    # relative to the operands: the loads are summed in another order, and
    # a room near zero is a difference of two such sums
    scale = caps.max(axis=0) + rates.sum(axis=-2, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-15 * scale)
