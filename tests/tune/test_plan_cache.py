"""Plan serialisation and the persistent cache: roundtrips, the
corrupt/forward-version tolerance contract, counters, env override."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.core import build_fbmpk_operator
from repro.tune import (
    CACHE_DIR_ENV_VAR,
    CACHE_SCHEMA_VERSION,
    ExecutionPlan,
    PlanCache,
    PlanFormatError,
    default_cache_dir,
    default_power_plan,
    fingerprint_matrix,
    instantiate_power,
)


# -- ExecutionPlan envelope ------------------------------------------------
def test_plan_roundtrip():
    plan = ExecutionPlan("power", {"variant": "fused", "strategy": "abmc",
                                   "block_size": 1, "executor": "serial"})
    assert ExecutionPlan.from_dict(plan.to_dict()) == plan


@pytest.mark.parametrize("payload", [
    None,
    "not a mapping",
    {},
    {"schema_version": 999, "kind": "power", "params": {}},
    {"schema_version": 1, "kind": "warp-drive", "params": {}},
    {"schema_version": 1, "kind": "power", "params": "no"},
    {"schema_version": 1, "params": {}},
])
def test_plan_from_dict_rejects(payload):
    with pytest.raises(PlanFormatError):
        ExecutionPlan.from_dict(payload)


def test_unknown_kind_rejected_at_construction():
    with pytest.raises(PlanFormatError):
        ExecutionPlan("warp-drive", {})


# -- cache roundtrip -------------------------------------------------------
def test_store_then_load(tmp_path, grid):
    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    plan = default_power_plan()
    path = cache.store(fp, plan, meta={"time_s": 0.5})
    assert path.is_file()
    entry = cache.load(fp)
    assert entry is not None
    assert entry.plan == plan
    assert entry.meta["time_s"] == 0.5


def test_miss_on_empty_cache(tmp_path, grid):
    assert PlanCache(tmp_path).load(fingerprint_matrix(grid)) is None


def test_different_structure_misses(tmp_path, grid, small_sym):
    cache = PlanCache(tmp_path)
    cache.store(fingerprint_matrix(grid), default_power_plan())
    assert cache.load(fingerprint_matrix(small_sym)) is None


def test_invalidate(tmp_path, grid):
    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    cache.store(fp, default_power_plan())
    cache.invalidate(fp)
    assert cache.load(fp) is None
    cache.invalidate(fp)  # idempotent


# -- robustness: corrupt and foreign entries never crash -------------------
@pytest.mark.parametrize("garbage", [
    "",                                  # truncated to nothing
    "{ not json",                        # invalid JSON
    "[1, 2, 3]",                         # JSON but not an object
    json.dumps({"schema_version": 999}),  # future envelope version
    json.dumps({"schema_version": 1, "fingerprint": {},
                "plan": {"schema_version": 1, "kind": "power",
                         "params": {}}}),  # old envelope version
    json.dumps({"schema_version": CACHE_SCHEMA_VERSION, "fingerprint": {},
                "plan": {"schema_version": 1, "kind": "power",
                         "params": {}}}),  # fingerprint mismatch
    json.dumps({"schema_version": 1}),   # missing everything else
])
def test_corrupt_entry_is_a_miss(tmp_path, grid, garbage):
    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    cache.entry_path(fp).parent.mkdir(parents=True, exist_ok=True)
    cache.entry_path(fp).write_text(garbage)
    assert cache.load(fp) is None


def test_forward_plan_version_is_a_miss(tmp_path, grid):
    """Envelope is current but the inner plan is from the future."""
    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    cache.store(fp, default_power_plan())
    payload = json.loads(cache.entry_path(fp).read_text())
    payload["plan"]["schema_version"] = 999
    cache.entry_path(fp).write_text(json.dumps(payload))
    assert cache.load(fp) is None


def test_corrupt_entry_can_be_overwritten(tmp_path, grid):
    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    cache.entry_path(fp).parent.mkdir(parents=True, exist_ok=True)
    cache.entry_path(fp).write_text("garbage")
    cache.store(fp, default_power_plan())
    assert cache.load(fp) is not None


# -- telemetry counters ----------------------------------------------------
def test_hit_miss_counters(tmp_path, grid):
    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    with obs.Telemetry() as tel:
        assert cache.load(fp) is None
        cache.store(fp, default_power_plan())
        assert cache.load(fp) is not None
        cache.entry_path(fp).write_text("garbage")
        assert cache.load(fp) is None
        counters = {name: c["value"] for name, c
                    in tel.metrics.snapshot()["counters"].items()}
    assert counters["plan_cache.miss"] == 2
    assert counters["plan_cache.hit"] == 1
    assert counters["plan_cache.store"] == 1
    assert counters["plan_cache.corrupt"] == 1


def test_counters_noop_without_session(tmp_path, grid):
    cache = PlanCache(tmp_path)
    cache.load(fingerprint_matrix(grid))  # must not raise


# -- directory resolution --------------------------------------------------
def test_env_var_overrides_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    assert PlanCache().root == tmp_path / "custom"


def test_xdg_fallback(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro" / "plans"


# -- schema version 1 (plans with a kernel ``backend`` knob) ---------------
def test_v1_artefact_retunes(tmp_path, grid, rng):
    """An entry written under cache schema 1 — its plan still names a
    ``backend`` — loads as a miss, and tuning over it searches afresh,
    raises nothing and replaces it with a current entry."""
    from repro.tune import autotune_power

    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    op = build_fbmpk_operator(grid)
    cache.store(fp, ExecutionPlan("power", {
        "variant": "fused", "strategy": "abmc", "block_size": 1,
        "backend": "scipy", "executor": "serial"}), operator=op)
    payload = json.loads(cache.entry_path(fp).read_text())
    payload["schema_version"] = 1
    cache.entry_path(fp).write_text(json.dumps(payload))
    assert cache.load(fp) is None

    tuned, res = autotune_power(grid, k=4, cache=str(tmp_path), repeats=1,
                                warmup=0, candidates=[default_power_plan()])
    try:
        assert res.source == "search"
        assert res.plan == default_power_plan()
        stored = json.loads(cache.entry_path(fp).read_text())
        assert stored["schema_version"] == CACHE_SCHEMA_VERSION == 2
        assert "backend" not in stored["plan"]["params"]
        x = rng.standard_normal(grid.n_rows)
        assert np.array_equal(tuned.power(x, 4), op.power(x, 4))
    finally:
        tuned.close()
        op.close()


# -- operator artefact -----------------------------------------------------
def test_operator_artefact_roundtrip(tmp_path, grid):
    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    op = build_fbmpk_operator(grid)
    cache.store(fp, default_power_plan(), operator=op)
    entry = cache.load(fp)
    assert entry.operator_path is not None
    loaded = instantiate_power(entry.plan, grid,
                               operator_path=entry.operator_path)
    x = np.linspace(-1.0, 1.0, grid.n_rows)
    assert np.array_equal(loaded.power(x, 5), op.power(x, 5))
    op.close()
    loaded.close()


def test_corrupt_operator_artefact_falls_back(tmp_path, grid):
    cache = PlanCache(tmp_path)
    fp = fingerprint_matrix(grid)
    op = build_fbmpk_operator(grid)
    cache.store(fp, default_power_plan(), operator=op)
    cache.operator_path(fp).write_bytes(b"not an npz")
    entry = cache.load(fp)
    rebuilt = instantiate_power(entry.plan, grid,
                                operator_path=entry.operator_path)
    x = np.linspace(-1.0, 1.0, grid.n_rows)
    assert np.array_equal(rebuilt.power(x, 3), op.power(x, 3))
    op.close()
    rebuilt.close()
