"""Result cache: fingerprinting, storage, rehydration."""

import pytest

from repro.experiments import ExperimentConfig
from repro.runner import ResultCache, cell_key, default_cache_dir, sim_cell
from repro.runner.pool import OracleCell
from repro.system.stats import SimulationResult


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(scale=64, length=6000, seed=3, workloads=("xalanc",))


@pytest.fixture(scope="module")
def fresh_result(config):
    return sim_cell(config, "xalanc", "mempod").compute()


class TestFingerprint:
    def test_key_is_deterministic(self, config):
        a = cell_key(sim_cell(config, "xalanc", "mempod", interval_ps=123))
        b = cell_key(sim_cell(config, "xalanc", "mempod", interval_ps=123))
        assert a == b

    def test_param_order_is_canonical(self, config):
        a = sim_cell(config, "xalanc", "mempod", mea_counters=8, interval_ps=123)
        b = sim_cell(config, "xalanc", "mempod", interval_ps=123, mea_counters=8)
        assert cell_key(a) == cell_key(b)

    def test_any_input_change_changes_key(self, config):
        base = cell_key(sim_cell(config, "xalanc", "mempod"))
        variants = [
            # scale changes the geometry, length/seed the trace
            sim_cell(ExperimentConfig(scale=32, length=6000, seed=3), "xalanc", "mempod"),
            sim_cell(ExperimentConfig(scale=64, length=7000, seed=3), "xalanc", "mempod"),
            sim_cell(ExperimentConfig(scale=64, length=6000, seed=4), "xalanc", "mempod"),
            sim_cell(config, "cactus", "mempod"),
            sim_cell(config, "xalanc", "thm"),
            sim_cell(config, "xalanc", "mempod", mea_counters=8),
            sim_cell(config, "xalanc", "mempod", future_tech=True),
        ]
        keys = {base} | {cell_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_oracle_and_sim_cells_never_collide(self, config):
        assert cell_key(OracleCell(config, "xalanc")) != cell_key(
            sim_cell(config, "xalanc", "mempod")
        )


class TestRoundTrip:
    def test_rehydrated_result_equals_fresh(self, tmp_path, config, fresh_result):
        cache = ResultCache(tmp_path)
        key = cell_key(sim_cell(config, "xalanc", "mempod"))
        cache.store(key, fresh_result)
        loaded = cache.load(key)
        assert isinstance(loaded, SimulationResult)
        # dataclass equality covers every field...
        assert loaded == fresh_result
        # ...but make the paper-table inputs explicit:
        assert loaded.extras == fresh_result.extras
        assert loaded.latency_by_kind_ns == fresh_result.latency_by_kind_ns
        assert loaded.count_by_kind == fresh_result.count_by_kind
        assert loaded.ammat_ns == fresh_result.ammat_ns

    def test_oracle_result_round_trips(self, tmp_path, config):
        fresh = OracleCell(config, "xalanc").compute()
        cache = ResultCache(tmp_path)
        cache.store("k" * 64, fresh)
        assert cache.load("k" * 64) == fresh

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert ResultCache(tmp_path).load("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, config, fresh_result):
        cache = ResultCache(tmp_path)
        key = cell_key(sim_cell(config, "xalanc", "mempod"))
        cache.store(key, fresh_result)
        cache.path_for(key).write_text("{truncated", encoding="utf-8")
        assert cache.load(key) is None

    def test_corrupt_entries_counted_apart_from_absent(
        self, tmp_path, config, fresh_result
    ):
        cache = ResultCache(tmp_path)
        key = cell_key(sim_cell(config, "xalanc", "mempod"))
        cache.store(key, fresh_result)
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:40])  # truncate mid-payload
        assert cache.load("0" * 64) is None  # absent: a plain miss
        assert cache.corrupt_entries == 0
        assert cache.load(key) is None
        assert cache.corrupt_entries == 1
        cache.store(key, fresh_result)  # recomputed result repairs it
        assert cache.load(key) == fresh_result
        assert cache.corrupt_entries == 1

    def test_unknown_result_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            ResultCache(tmp_path).store("0" * 64, object())


class TestCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_default_is_under_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro"
