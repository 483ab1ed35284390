"""Tests for the content-addressed result store (repro.campaigns.store).

The load-bearing property is cache-key stability: the same job spec must
hash to the same key in any process on any run, every result-affecting field
(including the GA kernel backend of a GA run) must be part of the key, and anything that
cannot be fingerprinted faithfully must be rejected rather than guessed at.
"""

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.campaigns import CampaignSpec, SweepSpec, expand_campaign
from repro.campaigns.store import (
    CODE_CONTRACT_VERSION,
    ResultStore,
    cache_key,
    fingerprint,
)
from repro.experiments.config import get_scale
from repro.scenarios import get_scenario
from repro.scenarios.runner import ScenarioCell
from repro.sim.simulation import SimulationConfig
from repro.util.errors import ConfigurationError


def _scenario_cell(**overrides) -> ScenarioCell:
    base = dict(
        spec=get_scenario("failure-storm", get_scale("smoke")),
        scheduler="EF",
        repeat=0,
        seed_entropy=1234,
        batch_size=20,
        max_generations=5,
        sim_config=SimulationConfig(phase_timing=True),
    )
    base.update(overrides)
    return ScenarioCell(**base)


def _key_in_subprocess(cell: ScenarioCell) -> str:
    """Module-level so the cross-process test can pickle it."""
    return cache_key("scenario_cell", cell)


class TestFingerprint:
    def test_scalars_and_floats_are_exact(self):
        assert fingerprint(3) == 3
        assert fingerprint("x") == "x"
        assert fingerprint(True) is True
        assert fingerprint(None) is None
        # floats render via float.hex: exact and repr-format independent
        assert fingerprint(0.1) == (0.1).hex()
        assert fingerprint(np.float64(0.1)) == (0.1).hex()

    def test_arrays_hash_content(self):
        a = np.arange(6, dtype=float)
        b = np.arange(6, dtype=float)
        assert fingerprint(a) == fingerprint(b)
        b[3] = 99.0
        assert fingerprint(a) != fingerprint(b)
        # dtype and shape are part of the fingerprint
        assert fingerprint(a) != fingerprint(a.astype(np.float32))
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))

    def test_dataclasses_and_plain_objects(self):
        cell = _scenario_cell()
        fp = fingerprint(cell)
        assert fp["__type__"].endswith("ScenarioCell")
        assert fp == fingerprint(_scenario_cell())

    def test_execution_routing_fields_are_excluded(self):
        scale = get_scale("smoke")
        assert fingerprint(scale) == fingerprint(scale.scaled(jobs=8))
        config = SimulationConfig()
        assert fingerprint(config) == fingerprint(SimulationConfig(phase_timing=True))
        # ...but result-affecting fields are not
        assert fingerprint(scale) != fingerprint(scale.scaled(n_tasks=7))
        assert fingerprint(config) != fingerprint(SimulationConfig(max_events=7))

    def test_live_random_state_rejected(self):
        with pytest.raises(ConfigurationError, match="random state"):
            fingerprint(np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="random state"):
            fingerprint(np.random.SeedSequence(1))

    def test_callables_rejected(self):
        with pytest.raises(ConfigurationError, match="callable"):
            fingerprint(lambda rng: None)
        with pytest.raises(ConfigurationError, match="callable"):
            fingerprint(len)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="non-string keys"):
            fingerprint({1: "a"})


class TestCacheKey:
    def test_same_spec_same_key(self):
        assert cache_key("scenario_cell", _scenario_cell()) == cache_key(
            "scenario_cell", _scenario_cell()
        )

    def test_same_key_across_processes(self):
        cell = _scenario_cell()
        local = cache_key("scenario_cell", cell)
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_key_in_subprocess, [cell, cell]))
        assert remote == [local, local]

    def test_backend_choice_is_part_of_the_key(self):
        # The loop GA kernels are equal to the vectorized ones only in
        # distribution, so a GA run's backend must split the cache.
        from repro.ga.engine import GAConfig
        from repro.parallel.jobs import GARunJob
        from repro.experiments.sweep import make_benchmark_problem

        problem = make_benchmark_problem(get_scale("smoke"), np.random.default_rng(0))
        keys = {
            backend: cache_key(
                "ga_run",
                GARunJob(config=GAConfig(backend=backend), problem=problem, ga_seed=1),
            )
            for backend in ("loop", "vectorized")
        }
        assert keys["loop"] != keys["vectorized"]

    def test_mutating_any_cell_field_changes_the_key(self):
        base = _scenario_cell()
        base_key = cache_key("scenario_cell", base)
        mutations = dict(
            spec=get_scenario("steady-state", get_scale("smoke")),
            scheduler="LL",
            repeat=1,
            seed_entropy=4321,
            batch_size=21,
            max_generations=6,
            sim_config=SimulationConfig(max_events=7),
        )
        for field in dataclasses.fields(ScenarioCell):
            mutated = dataclasses.replace(base, **{field.name: mutations[field.name]})
            assert cache_key("scenario_cell", mutated) != base_key, field.name

    def test_kind_namespaces_the_key(self):
        cell = _scenario_cell()
        assert cache_key("scenario_cell", cell) != cache_key("other_kind", cell)

    def test_contract_version_is_in_the_key_material(self):
        # Version 2: the backend fields left the job specs.
        assert CODE_CONTRACT_VERSION == "2"
        # The key is a digest, so assert indirectly: the canonical material
        # of the fingerprint is stable JSON including the contract version.
        cell = _scenario_cell()
        blob = json.dumps(
            {
                "contract": CODE_CONTRACT_VERSION,
                "kind": "scenario_cell",
                "spec": fingerprint(cell),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == cache_key(
            "scenario_cell", cell
        )

    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("figure", "7f55c9a0a86a631342d66f0b44d5c336fc8e93497c31f9077941b0331bd113a7"),
            ("ga_run", "bbac58be18efcb7ffa785af6b4c2f219ea3b2b98749d82dc7b3f3982722a4066"),
            (
                "scenario_cell",
                "9318f9a55b043696ad83e7750fc2bd1318a846e01b05d032de600880f03d9159",
            ),
        ],
    )
    def test_cell_keys_are_pinned(self, kind, digest):
        # Stores written by earlier code stay valid only while the keys stay
        # put: a change that moves them must bump CODE_CONTRACT_VERSION and
        # re-pin these digests of every key of one kind, in cell order.
        spec = CampaignSpec(
            name="pinned",
            scale="smoke",
            seed=7,
            figures=("fig6",),
            scenarios=("failure-storm",),
            schedulers=("EF", "LL"),
            repeats=2,
            sweeps=(SweepSpec(parameter="n_rebalances", values=(0, 1), repeats=2),),
        )
        keys = [c.key for c in expand_campaign(spec).cells if c.kind == kind]
        assert keys
        assert hashlib.sha256("".join(keys).encode()).hexdigest() == digest


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = cache_key("scenario_cell", _scenario_cell())
        assert not store.has(key)
        payload = {"makespan": 1.5, "nested": {"a": [1, 2]}}
        store.put(key, "scenario_cell", payload, meta={"elapsed_seconds": 0.1})
        assert store.has(key)
        assert key in store
        assert store.payload(key) == payload
        record = store.get_record(key)
        assert record["kind"] == "scenario_cell"
        assert record["meta"]["elapsed_seconds"] == 0.1
        assert len(store) == 1

    def test_arrays_sidecar(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        arr = np.linspace(0, 1, 17)
        store.put("ab" * 32, "ga_run", {"n": 17}, arrays={"history": arr})
        loaded = store.arrays("ab" * 32)
        assert np.array_equal(loaded["history"], arr)
        assert store.get_record("ab" * 32)["arrays"] == ["history"]
        assert store.arrays("cd" * 32) == {}

    def test_deferred_index_flush(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put("aa" * 32, "figure", {"x": 1}, flush_index=False)
        # Record is durable immediately; has() works without the index file.
        assert ResultStore(root).has("aa" * 32)
        # A fresh instance's *listing* only sees it after the flush.
        assert "aa" * 32 not in ResultStore(root).keys()
        store.flush_index()
        assert "aa" * 32 in ResultStore(root).keys()

    def test_put_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("ef" * 32, "figure", {"x": 1})
        store.put("ef" * 32, "figure", {"x": 1})
        assert len(store) == 1

    def test_missing_record_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="no record"):
            store.payload("00" * 32)

    def test_index_survives_reopen_and_rebuild(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put("aa" * 32, "figure", {"x": 1})
        store.put("bb" * 32, "ga_run", {"y": 2})
        reopened = ResultStore(root)
        assert sorted(reopened.keys()) == sorted(["aa" * 32, "bb" * 32])
        assert reopened.stats() == {"figure": 1, "ga_run": 1}
        # Delete the index: rebuild regenerates it from the object tree.
        os.remove(reopened.index_path)
        rebuilt = ResultStore(root)
        assert rebuilt.rebuild_index() == 2
        assert rebuilt.has("aa" * 32)

    def test_records_are_valid_json_files(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "cc" * 32
        store.put(key, "figure", {"x": 1})
        path = os.path.join(store.objects_dir, key[:2], f"{key}.json")
        with open(path, "r", encoding="utf8") as handle:
            record = json.load(handle)
        assert record["key"] == key
        assert record["payload"] == {"x": 1}

    def test_manifest_paths_stay_inside_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = store.manifest_path("../evil name")
        assert os.path.dirname(path) == store.campaigns_dir
        assert os.sep not in os.path.basename(path)[: -len(".json")]
