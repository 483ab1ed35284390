"""Content-addressed result store: never compute the same cell twice.

Every unit of campaign work (one scenario-matrix cell, one GA sweep run, one
whole figure) is described by a plain picklable job spec whose fields fully
determine the result — scheduler, cluster and workload specification, the
seed-stream entropy, the GA configuration.  :func:`cache_key` reduces
such a spec to a stable SHA-256 hex digest of its *canonical fingerprint*,
and :class:`ResultStore` persists each result as a JSON record (plus an
optional ``.npz`` sidecar for arrays) addressed by that key.  Re-running any
figure, sweep or scenario matrix then skips every cell whose key is already
present — and because the executors are bit-deterministic, the stored result
is bit-identical to what the skipped computation would have produced.

Canonical fingerprints
----------------------
:func:`fingerprint` canonicalises a spec recursively:

* dataclasses and plain objects become ``{"__type__": qualified name,
  fields...}`` dictionaries (fields sorted by name);
* floats are rendered with :meth:`float.hex` — exact, platform-independent,
  immune to repr formatting changes;
* numpy arrays become ``(dtype, shape, sha256 of the C-order bytes)``
  triples, so a spec embedding a large batch problem hashes in one pass
  without serialising megabytes into the key material;
* execution-routing fields that cannot affect results are excluded
  (``ExperimentScale.jobs``, ``SimulationConfig.phase_timing``): a cell
  computed with ``--jobs 8`` must hit the cache of a serial run.

Anything stateful or unserialisable — live RNGs, ``SeedSequence`` objects,
callables such as custom cluster factories — is rejected rather than
guessed at: a spec that cannot be fingerprinted faithfully must not be
cached at all.

The key material additionally includes :data:`CODE_CONTRACT_VERSION`.  Bump
it whenever a change alters *what results a spec produces* (RNG draw order,
simulation semantics, metric definitions); stores written under the old
contract then simply miss, and stale bits are never served.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Union

import numpy as np

from ..io.results import atomic_write_json
from ..util.errors import ConfigurationError

__all__ = [
    "CODE_CONTRACT_VERSION",
    "FINGERPRINT_EXCLUDED_FIELDS",
    "fingerprint",
    "cache_key",
    "ResultStore",
]

#: Version of the result-producing code contract baked into every cache key.
#: Bump on any change to simulation/GA semantics, RNG draw order or metric
#: definitions — anything that makes the same spec produce different bits.
#: ``"2"``: the GA, sim and policy backend fields left the job specs.
#: ``"3"``: ``GAConfig`` lost ``backend``, ``time_limit_seconds`` and
#: ``target_makespan``; ``SimulationConfig`` lost ``comm_nu``, ``rate_nu``
#: and ``time_horizon``.
CODE_CONTRACT_VERSION = "3"

#: Format stamp of the on-disk record and index files.
STORE_FORMAT_VERSION = 1

#: Fields excluded from fingerprints per class name: execution routing and
#: observability knobs that provably cannot change any result bit.
FINGERPRINT_EXCLUDED_FIELDS: Dict[str, frozenset] = {
    "ExperimentScale": frozenset({"jobs"}),
    "SimulationConfig": frozenset({"phase_timing"}),
    # A trace workload's identity is its content hash (sha256) and task
    # count; the path a replayed file happens to live at must not split the
    # cache.
    "TraceSpec": frozenset({"path"}),
}

#: Types that must never silently enter a cache key.
_REJECTED_TYPE_NAMES = ("Generator", "SeedSequence", "RandomState", "BitGenerator")


def _qualname(obj: object) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def fingerprint(obj: object) -> object:
    """Canonical, JSON-ready fingerprint of a job spec (see module docs)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, np.generic):
        return fingerprint(obj.item())
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__ndarray__": hashlib.sha256(data.tobytes()).hexdigest(),
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    if isinstance(obj, (list, tuple)):
        return [fingerprint(item) for item in obj]
    if isinstance(obj, dict):
        bad = [k for k in obj if not isinstance(k, str)]
        if bad:
            raise ConfigurationError(
                f"cannot fingerprint dict with non-string keys: {bad[:3]!r}"
            )
        return {"__dict__": {k: fingerprint(v) for k, v in sorted(obj.items())}}
    for name in _REJECTED_TYPE_NAMES:
        if type(obj).__name__ == name:
            raise ConfigurationError(
                f"cannot fingerprint live random state ({_qualname(obj)}); "
                "job specs must carry seed entropy integers instead"
            )
    if callable(obj) and not hasattr(obj, "__dict__"):
        raise ConfigurationError(f"cannot fingerprint callable {obj!r}")
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls_name = type(obj).__name__
        excluded = FINGERPRINT_EXCLUDED_FIELDS.get(cls_name, frozenset())
        entry: Dict[str, object] = {"__type__": _qualname(obj)}
        for field in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            if field.name not in excluded:
                entry[field.name] = fingerprint(getattr(obj, field.name))
        return entry
    if callable(obj):
        raise ConfigurationError(
            f"cannot fingerprint callable {obj!r}; custom factories are not cacheable"
        )
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        entry = {"__type__": _qualname(obj)}
        for name in sorted(attrs):
            entry[name] = fingerprint(attrs[name])
        return entry
    raise ConfigurationError(
        f"cannot fingerprint object of type {_qualname(obj)}: {obj!r}"
    )


def cache_key(kind: str, spec: object) -> str:
    """Stable content key of one unit of work.

    ``kind`` namespaces the job family (``"figure"``, ``"scenario"``,
    ``"sweep"``) so two different job types can never collide even if their
    specs happened to fingerprint identically.
    """
    material = {
        "contract": CODE_CONTRACT_VERSION,
        "kind": str(kind),
        "spec": fingerprint(spec),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf8")).hexdigest()


class ResultStore:
    """A directory of content-addressed result records.

    Layout::

        <root>/
            index.json                  # key -> {kind, path, created}
            objects/<k[:2]>/<key>.json  # the record (payload + metadata)
            objects/<k[:2]>/<key>.npz   # optional array sidecar
            campaigns/<name>.json       # campaign manifests (see runner)

    ``index.json`` is a cache of the object tree, updated atomically on
    every :meth:`put`; :meth:`rebuild_index` regenerates it from the object
    files if it is lost or stale.  All writes go through temp-file +
    ``os.replace``, so a killed run never leaves a torn record — at worst
    the store misses and the cell is recomputed.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.campaigns_dir = os.path.join(self.root, "campaigns")
        self.index_path = os.path.join(self.root, "index.json")
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.campaigns_dir, exist_ok=True)
        self._index: Optional[Dict[str, Dict]] = None

    # -- index -------------------------------------------------------------------------
    def _load_index(self) -> Dict[str, Dict]:
        if self._index is None:
            if os.path.exists(self.index_path):
                with open(self.index_path, "r", encoding="utf8") as handle:
                    payload = json.load(handle)
                if payload.get("format_version") != STORE_FORMAT_VERSION:
                    raise ConfigurationError(
                        f"unsupported store index version "
                        f"{payload.get('format_version')!r} at {self.index_path}"
                    )
                self._index = dict(payload.get("entries", {}))
            else:
                self._index = {}
        return self._index

    def _save_index(self) -> None:
        atomic_write_json(
            {"format_version": STORE_FORMAT_VERSION, "entries": self._load_index()},
            self.index_path,
        )

    def flush_index(self) -> None:
        """Write the in-memory index to ``index.json``.

        Needed only after :meth:`put` calls made with ``flush_index=False``
        (the campaign runner defers the rewrite to once per run: the record
        files are the source of truth, ``has()`` falls back to the file
        system, and :meth:`rebuild_index` recovers a lost index).
        """
        self._save_index()

    def rebuild_index(self) -> int:
        """Regenerate ``index.json`` by scanning the object tree.

        Returns the number of records indexed.  Use after manual surgery on
        the store directory or a version-control merge of two stores.
        """
        entries: Dict[str, Dict] = {}
        for dirpath, _, filenames in os.walk(self.objects_dir):
            for filename in filenames:
                if not filename.endswith(".json"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, "r", encoding="utf8") as handle:
                    record = json.load(handle)
                entries[record["key"]] = {
                    "kind": record.get("kind", ""),
                    "path": os.path.relpath(path, self.root),
                    "created": record.get("meta", {}).get("created", 0.0),
                }
        self._index = entries
        self._save_index()
        return len(entries)

    # -- records -----------------------------------------------------------------------
    def _record_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    def _array_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.npz")

    def has(self, key: str) -> bool:
        """Whether a result for *key* is already stored."""
        return key in self._load_index() or os.path.exists(self._record_path(key))

    def put(
        self,
        key: str,
        kind: str,
        payload: Dict,
        *,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[Dict] = None,
        flush_index: bool = True,
    ) -> str:
        """Persist one result record under *key*; returns the record path.

        ``payload`` must be JSON-serialisable (the computed result);
        ``arrays`` optionally adds numpy arrays in a compressed ``.npz``
        sidecar; ``meta`` holds machine-dependent observations (timings)
        that are *not* part of the result.  Writing the same key twice is
        idempotent — content addressing guarantees equal bits.
        ``flush_index=False`` defers the ``index.json`` rewrite (call
        :meth:`flush_index` once afterwards); the record file itself is
        always written immediately and atomically.
        """
        record_path = self._record_path(key)
        os.makedirs(os.path.dirname(record_path), exist_ok=True)
        record = {
            "format_version": STORE_FORMAT_VERSION,
            "key": key,
            "kind": str(kind),
            "payload": payload,
            "meta": {"created": time.time(), **(meta or {})},
            "arrays": sorted(arrays) if arrays else [],
        }
        if arrays:
            array_path = self._array_path(key)
            tmp = f"{array_path}.tmp.{os.getpid()}.npz"
            np.savez_compressed(tmp, **arrays)
            os.replace(tmp, array_path)
        atomic_write_json(record, record_path)
        index = self._load_index()
        index[key] = {
            "kind": str(kind),
            "path": os.path.relpath(record_path, self.root),
            "created": record["meta"]["created"],
        }
        if flush_index:
            self._save_index()
        return record_path

    def get_record(self, key: str) -> Dict:
        """The full stored record (payload + meta) for *key*."""
        path = self._record_path(key)
        if not os.path.exists(path):
            raise ConfigurationError(f"store has no record for key {key}")
        with open(path, "r", encoding="utf8") as handle:
            record = json.load(handle)
        if record.get("format_version") != STORE_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported store record version {record.get('format_version')!r}"
            )
        return record

    def payload(self, key: str) -> Dict:
        """The stored result payload for *key*."""
        return self.get_record(key)["payload"]

    def arrays(self, key: str) -> Dict[str, np.ndarray]:
        """The array sidecar for *key* (empty dict when none was stored)."""
        path = self._array_path(key)
        if not os.path.exists(path):
            return {}
        with np.load(path) as npz:
            return {name: npz[name] for name in npz.files}

    # -- introspection -----------------------------------------------------------------
    def keys(self) -> List[str]:
        """Every stored key (index order)."""
        return list(self._load_index())

    def __len__(self) -> int:
        return len(self._load_index())

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def stats(self) -> Dict[str, int]:
        """Record counts per kind (for ``repro campaigns status``)."""
        counts: Dict[str, int] = {}
        for entry in self._load_index().values():
            counts[entry.get("kind", "")] = counts.get(entry.get("kind", ""), 0) + 1
        return counts

    def manifest_path(self, name: str) -> str:
        """Where the campaign manifest for *name* lives inside this store."""
        safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in name)
        return os.path.join(self.campaigns_dir, f"{safe}.json")

    def status_path(self, name: str) -> str:
        """Where the live run-status file for campaign *name* lives.

        A sibling of the manifest (``<name>.status.json``), written by the
        runner's :class:`~repro.telemetry.monitor.RunMonitor` and read by
        ``repro campaigns watch``.
        """
        safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in name)
        return os.path.join(self.campaigns_dir, f"{safe}.status.json")

    def manifest_names(self) -> List[str]:
        """Names of every campaign manifest in this store."""
        names = []
        for filename in sorted(os.listdir(self.campaigns_dir)):
            # Live-status sidecars (<name>.status.json) are not manifests.
            if filename.endswith(".json") and not filename.endswith(".status.json"):
                names.append(filename[: -len(".json")])
        return names
