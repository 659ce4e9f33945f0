"""Disk-backed, content-addressed artifact store for sweep results.

The PR 2 compile cache memoizes compilations per process; this store
persists them — and full :class:`~repro.arch.simulator.SimulationResult`
records — across processes, keyed by content:

* **compile entries** (``<root>/v3/compile/<key>.npz``) hold a compiled
  :class:`~repro.compiler.ir.PackedProgram` (every numpy column, tags,
  value names, spill map ``slot_of``, forwarding mask) plus its
  :class:`~repro.compiler.pipeline.CompileStats`, keyed by
  ``sha256(schema | program fingerprint | canonical CompileOptions)``;
* **sim entries** (``<root>/v3/sim/<key>.json``) hold one simulation
  outcome, keyed by the compile key material plus the canonical
  :class:`~repro.core.config.HardwareConfig`;
* **plan entries** (``<root>/v3/plan/<key>.plan.npz``) hold one
  :class:`~repro.compiler.exec_plan.ExecPlan` (flat index/column
  vectors plus per-step records), keyed by ``sha256(schema | program
  fingerprint | names fingerprint | bindings token)`` — so a
  store-warm exec sweep point skips compile, simulate, *and* plan
  build.

Properties the sweep engine relies on:

* **versioned schema** — entries live under ``v{SCHEMA_VERSION}`` and
  embed the version; a mismatch is treated as a miss, never a crash;
* **corruption tolerance** — any exception while reading an entry
  drops that file and reports a miss (a crashed writer cannot poison
  later runs; writes are atomic ``os.replace`` renames anyway);
* **size-bounded eviction** — when the store grows past ``max_bytes``
  the least-recently-used entries are removed.  Recency is
  ``st_mtime_ns`` plus a monotonic per-store sequence number persisted
  in the schema directory's ``lru.json``, so rapid successive writes
  (or hit re-touches) inside one coarse filesystem mtime tick still
  evict in a deterministic, true-LRU order;
* **off by default** — nothing is read or written unless the
  ``REPRO_STORE_DIR`` environment variable names a directory or the
  caller activates a store explicitly (:func:`using_store` /
  :func:`set_active_store`), so tests stay hermetic.

``PassRecord.detail`` payloads are dropped on serialization (they are
free-form pass return values); every other statistic round-trips.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..arch.simulator import SimulationResult
from ..compiler.exec_plan import ExecPlan, plan_from_payload, plan_to_payload
from ..compiler.ir import PackedProgram
from ..compiler.pipeline import (
    CompiledProgram,
    CompileOptions,
    CompileStats,
    PassRecord,
)
from ..core.config import HardwareConfig
from ..core.env import env_int, env_str
from ..obs import TRACER

#: v3: adds exec-plan entries (and their key material) to v2's
#: executable compile metadata.  Older schema directories are simply
#: ignored — a version bump reads as a cold store, never a crash.
SCHEMA_VERSION = 3

ENV_STORE_DIR = "REPRO_STORE_DIR"
ENV_STORE_MAX_BYTES = "REPRO_STORE_MAX_BYTES"

#: Default size bound: large enough for paper-scale sweeps (compile
#: entries are tens of MB), small enough not to fill a laptop disk.
DEFAULT_MAX_BYTES = 4 * 2 ** 30

_PACKED_ARRAYS = ("op", "dest", "srcs", "n_srcs", "modulus", "imm",
                  "tag_id", "streaming", "val_origin", "val_address",
                  "outputs")

_STATS_SCALARS = ("instrs_before_opt", "instrs_after_opt",
                  "copies_removed", "consts_merged", "cse_removed",
                  "dead_removed", "macs_fused", "loads_inserted",
                  "streaming_loads", "forwarded_values")


def canonical_json(obj) -> str:
    """Deterministic JSON used for hashing dataclass field dumps."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def options_token(options: CompileOptions) -> str:
    return canonical_json(dataclasses.asdict(options))


def config_token(config: HardwareConfig) -> str:
    return canonical_json(dataclasses.asdict(config))


@dataclass
class StoreStats:
    """Per-store-instance hit/miss accounting."""

    compile_hits: int = 0
    compile_misses: int = 0
    compile_stores: int = 0
    sim_hits: int = 0
    sim_misses: int = 0
    sim_stores: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_stores: int = 0
    evictions: int = 0
    corrupt_dropped: int = 0

    def bump(self, name: str) -> None:
        """Increment one stat and mirror it onto the process-global
        telemetry counters as ``store.<name>`` (stats are per store
        instance; the counters aggregate across stores)."""
        setattr(self, name, getattr(self, name) + 1)
        TRACER.count("store." + name)


class ArtifactStore:
    """Content-addressed persistence for compiles and simulations."""

    def __init__(self, root, *, max_bytes: int | None = None):
        self.root = Path(root)
        if max_bytes is None:
            max_bytes = self._max_bytes_from_env()
        self.max_bytes = max_bytes
        schema_dir = self.root / f"v{SCHEMA_VERSION}"
        self._compile_dir = schema_dir / "compile"
        self._sim_dir = schema_dir / "sim"
        self._plan_dir = schema_dir / "plan"
        self._spec_dir = schema_dir / "spec"
        self._compile_dir.mkdir(parents=True, exist_ok=True)
        self._sim_dir.mkdir(parents=True, exist_ok=True)
        self._plan_dir.mkdir(parents=True, exist_ok=True)
        self._spec_dir.mkdir(parents=True, exist_ok=True)
        self._lru_path = schema_dir / "lru.json"
        #: (st_mtime_ns, st_size) of the journal as of our last
        #: read/write — saves skip the merge read while it is ours.
        self._lru_disk_state: tuple[int, int] | None = None
        self._lru_seq = self._load_lru()
        #: Names this instance removed; the merge-on-save must not
        #: resurrect them from a stale on-disk journal.
        self._dropped: set[str] = set()
        self._seq = max(self._lru_seq.values(), default=0)
        self.stats = StoreStats()

    @staticmethod
    def _max_bytes_from_env() -> int:
        """``REPRO_STORE_MAX_BYTES``, validated at construction so a
        malformed value fails here with a clear message instead of as a
        bare ``ValueError`` deep inside a sweep; an empty string is
        ignored with a warning."""
        return env_int(ENV_STORE_MAX_BYTES, DEFAULT_MAX_BYTES,
                       minimum=0, what="store size bound",
                       empty_warns=True, stacklevel=3)

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def compile_key(fingerprint: str, options: CompileOptions) -> str:
        material = f"{SCHEMA_VERSION}|compile|{fingerprint}|" \
                   f"{options_token(options)}"
        return hashlib.sha256(material.encode()).hexdigest()

    @staticmethod
    def sim_key(fingerprint: str, options: CompileOptions,
                config: HardwareConfig) -> str:
        material = f"{SCHEMA_VERSION}|sim|{fingerprint}|" \
                   f"{options_token(options)}|{config_token(config)}"
        return hashlib.sha256(material.encode()).hexdigest()

    @staticmethod
    def plan_key(fingerprint: str, names_fingerprint: str,
                 bindings_token: str) -> str:
        material = f"{SCHEMA_VERSION}|plan|{fingerprint}|" \
                   f"{names_fingerprint}|{bindings_token}"
        return hashlib.sha256(material.encode()).hexdigest()

    def _compile_path(self, key: str) -> Path:
        return self._compile_dir / f"{key}.npz"

    def _sim_path(self, key: str) -> Path:
        return self._sim_dir / f"{key}.json"

    def _plan_path(self, key: str) -> Path:
        # The double suffix routes ``_entry_exists`` (and human eyes)
        # to the right directory without a per-name index.
        return self._plan_dir / f"{key}.plan.npz"

    # ------------------------------------------------------------------
    # Compiled programs
    # ------------------------------------------------------------------
    def get_compiled(self, fingerprint: str,
                     options: CompileOptions) -> CompiledProgram | None:
        path = self._compile_path(self.compile_key(fingerprint, options))
        payload = self._load(path, self._read_compiled)
        if payload is None:
            self.stats.bump("compile_misses")
            return None
        self.stats.bump("compile_hits")
        packed, stats = payload
        return CompiledProgram(options=options, stats=stats, packed=packed)

    def put_compiled(self, fingerprint: str, options: CompileOptions,
                     compiled: CompiledProgram) -> None:
        path = self._compile_path(self.compile_key(fingerprint, options))
        meta, arrays = self._pack_compiled(compiled)
        self._atomic_write(path, lambda f: np.savez(
            f, meta=np.array(canonical_json(meta)), **arrays))
        self._touch(path)
        self.stats.bump("compile_stores")
        self._evict()

    @staticmethod
    def _pack_compiled(compiled: CompiledProgram) -> tuple[dict, dict]:
        packed = compiled.packed
        arrays = {name: getattr(packed, name) for name in _PACKED_ARRAYS}
        if packed.forwarded is not None:
            arrays["forwarded"] = packed.forwarded
        if packed.slot_of is not None:
            items = sorted(packed.slot_of.items())
            arrays["slot_keys"] = np.array([k for k, _ in items],
                                           dtype=np.int64)
            arrays["slot_vals"] = np.array([v for _, v in items],
                                           dtype=np.int64)
        stats = compiled.stats
        meta = {
            "schema": SCHEMA_VERSION,
            "kind": "compile",
            "n": packed.n,
            "name": packed.name,
            "limb_bytes": packed.limb_bytes,
            "tags": list(packed.tags),
            "val_names": list(packed.val_names),
            "has_forwarded": packed.forwarded is not None,
            "has_slot_of": packed.slot_of is not None,
            # Execution metadata: without these a cache-hit compile
            # could simulate but not execute, so they persist too.
            "const_names": None if packed.const_names is None
            else {str(k): v for k, v in packed.const_names.items()},
            "prime_meta": None if packed.prime_meta is None
            else list(packed.prime_meta),
            "merged_imms": None if packed.merged_imms is None
            else [[a, b, mid]
                  for (a, b), mid in sorted(packed.merged_imms.items())],
            "stats": {
                "scalars": {f: int(getattr(stats, f))
                            for f in _STATS_SCALARS},
                "mix_before": dict(stats.mix_before),
                "mix_after": dict(stats.mix_after),
                "alloc": dataclasses.asdict(stats.alloc),
                # ``detail`` is a free-form pass return value; dropped.
                "pass_records": [
                    {"name": r.name, "wall_s": r.wall_s,
                     "instrs_before": r.instrs_before,
                     "instrs_after": r.instrs_after}
                    for r in stats.pass_records],
            },
        }
        return meta, arrays

    @staticmethod
    def _read_compiled(path: Path) -> tuple[PackedProgram, CompileStats]:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"][()]))
            if meta.get("schema") != SCHEMA_VERSION \
                    or meta.get("kind") != "compile":
                raise ValueError(f"schema mismatch in {path.name}")
            packed = PackedProgram(int(meta["n"]), name=meta["name"],
                                   limb_bytes=int(meta["limb_bytes"]))
            for name in _PACKED_ARRAYS:
                setattr(packed, name, archive[name])
            packed.tags = list(meta["tags"])
            packed._tag_index = {t: i for i, t in enumerate(packed.tags)}
            packed.val_names = list(meta["val_names"])
            if meta["has_forwarded"]:
                packed.forwarded = archive["forwarded"]
            if meta["has_slot_of"]:
                packed.slot_of = dict(zip(
                    archive["slot_keys"].tolist(),
                    archive["slot_vals"].tolist()))
            if meta.get("const_names") is not None:
                packed.const_names = {int(k): v for k, v
                                      in meta["const_names"].items()}
            if meta.get("prime_meta") is not None:
                packed.prime_meta = tuple(meta["prime_meta"])
            if meta.get("merged_imms") is not None:
                packed.merged_imms = {(a, b): mid for a, b, mid
                                      in meta["merged_imms"]}
        from collections import Counter

        from ..compiler.regalloc import AllocationStats
        doc = meta["stats"]
        stats = CompileStats(**doc["scalars"])
        stats.mix_before = Counter(doc["mix_before"])
        stats.mix_after = Counter(doc["mix_after"])
        stats.alloc = AllocationStats(**doc["alloc"])
        stats.pass_records = [PassRecord(detail=None, **r)
                              for r in doc["pass_records"]]
        return packed, stats

    # ------------------------------------------------------------------
    # Simulation results
    # ------------------------------------------------------------------
    def get_sim(self, fingerprint: str, options: CompileOptions,
                config: HardwareConfig) -> SimulationResult | None:
        path = self._sim_path(self.sim_key(fingerprint, options, config))
        result = self._load(path, self._read_sim)
        if result is None:
            self.stats.bump("sim_misses")
            return None
        self.stats.bump("sim_hits")
        return result

    def put_sim(self, fingerprint: str, options: CompileOptions,
                config: HardwareConfig, result: SimulationResult) -> None:
        path = self._sim_path(self.sim_key(fingerprint, options, config))
        doc = {"schema": SCHEMA_VERSION, "kind": "sim",
               "result": dataclasses.asdict(result)}
        payload = canonical_json(doc).encode()
        self._atomic_write(path, lambda f: f.write(payload))
        self._touch(path)
        self.stats.bump("sim_stores")
        self._evict()

    @staticmethod
    def _read_sim(path: Path) -> SimulationResult:
        doc = json.loads(path.read_bytes())
        if doc.get("schema") != SCHEMA_VERSION or doc.get("kind") != "sim":
            raise ValueError(f"schema mismatch in {path.name}")
        return SimulationResult(**doc["result"])

    # ------------------------------------------------------------------
    # Execution plans
    # ------------------------------------------------------------------
    def get_plan(self, fingerprint: str, names_fingerprint: str,
                 bindings_token: str) -> ExecPlan | None:
        path = self._plan_path(self.plan_key(
            fingerprint, names_fingerprint, bindings_token))
        plan = self._load(path, self._read_plan)
        if plan is None:
            self.stats.bump("plan_misses")
            return None
        self.stats.bump("plan_hits")
        return plan

    def put_plan(self, fingerprint: str, names_fingerprint: str,
                 bindings_token: str, plan: ExecPlan) -> None:
        path = self._plan_path(self.plan_key(
            fingerprint, names_fingerprint, bindings_token))
        meta, arrays = plan_to_payload(plan)
        doc = {"schema": SCHEMA_VERSION, "kind": "plan", "plan": meta}
        self._atomic_write(path, lambda f: np.savez(
            f, meta=np.array(canonical_json(doc)), **arrays))
        self._touch(path)
        self.stats.bump("plan_stores")
        self._evict()

    @staticmethod
    def _read_plan(path: Path) -> ExecPlan:
        with np.load(path, allow_pickle=False) as archive:
            doc = json.loads(str(archive["meta"][()]))
            if doc.get("schema") != SCHEMA_VERSION \
                    or doc.get("kind") != "plan":
                raise ValueError(f"schema mismatch in {path.name}")
            return plan_from_payload(doc["plan"], archive["idx"],
                                     archive["col"])

    # ------------------------------------------------------------------
    # Sweep-grid metadata (resumption safety)
    # ------------------------------------------------------------------
    def _spec_path(self, name: str) -> Path:
        key = hashlib.sha256(
            f"{SCHEMA_VERSION}|spec|{name}".encode()).hexdigest()
        return self._spec_dir / f"{key}.json"

    def get_spec(self, name: str) -> dict | None:
        """The canonical grid previously persisted for sweep ``name``
        (or ``None``); corruption drops the entry, never crashes."""
        path = self._spec_path(name)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_bytes())
            if doc.get("schema") != SCHEMA_VERSION \
                    or doc.get("kind") != "spec":
                raise ValueError(f"schema mismatch in {path.name}")
            return doc["grid"]
        except Exception:
            self.stats.bump("corrupt_dropped")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put_spec(self, name: str, grid: dict) -> None:
        """Persist sweep ``name``'s canonical grid next to its points,
        so a restarted sweep can verify it is resuming the same grid.
        Spec entries are tiny and exempt from LRU eviction — evicting
        the resumption metadata would defeat its purpose."""
        doc = {"schema": SCHEMA_VERSION, "kind": "spec", "name": name,
               "grid": grid}
        payload = canonical_json(doc).encode()
        self._atomic_write(self._spec_path(name),
                           lambda f: f.write(payload))

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    # -- LRU bookkeeping: st_mtime_ns + a persisted sequence ----------
    def _journal_state(self) -> tuple[int, int] | None:
        try:
            stat = self._lru_path.stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _load_lru(self) -> dict[str, int]:
        """The on-disk access-order journal (``lru.json``); corruption
        degrades to an empty journal, never a crash."""
        self._lru_disk_state = self._journal_state()
        try:
            doc = json.loads(self._lru_path.read_bytes())
            return {str(k): int(v) for k, v in doc.items()}
        except (OSError, ValueError, TypeError, AttributeError):
            return {}

    def _save_lru(self) -> None:
        """Persist the journal, folding the on-disk copy in first.

        Concurrent sweep workers each rewrite the whole file; merging
        (max sequence per entry) keeps their touches from being lost
        to last-writer-wins.  The merge is best-effort — ``st_mtime_ns``
        remains the primary cross-process recency signal and the
        journal the tiebreaker.  The merge read is skipped while the
        on-disk journal is the one this instance last wrote (the
        single-writer common case), so a touch usually costs one small
        serialize + rename.

        Names whose entry file no longer exists (evicted or deleted by
        another process) are pruned before writing: without this, the
        merge resurrects every dead name any concurrent journal ever
        held — only the process that ran the eviction knows to drop
        them — and ``lru.json`` grows monotonically across eviction
        cycles.  Pruned names join ``_dropped`` so a stale on-disk
        journal cannot re-import them either.
        """
        if self._journal_state() != self._lru_disk_state:
            disk = self._load_lru()
            for name, seq in disk.items():
                if name in self._dropped:
                    continue
                if self._lru_seq.get(name, -1) < seq:
                    self._lru_seq[name] = seq
            self._seq = max(self._seq,
                            max(self._lru_seq.values(), default=0))
        dead = [name for name in self._lru_seq
                if not self._entry_exists(name)]
        for name in dead:
            self._lru_seq.pop(name, None)
            self._dropped.add(name)
        payload = canonical_json(self._lru_seq).encode()
        try:
            self._atomic_write(self._lru_path, lambda f: f.write(payload))
        except OSError:
            return
        self._lru_disk_state = self._journal_state()

    def _entry_exists(self, name: str) -> bool:
        """Whether the journal name still has a backing entry file."""
        if name.endswith(".plan.npz"):
            directory = self._plan_dir
        elif name.endswith(".npz"):
            directory = self._compile_dir
        else:
            directory = self._sim_dir
        return (directory / name).exists()

    def _touch(self, path: Path) -> None:
        """Record an access: bump the monotonic sequence (persisted in
        the entry metadata journal) and refresh the file mtime.  The
        sequence breaks mtime ties, so writes and hit re-touches that
        land inside one coarse filesystem timestamp tick still order
        deterministically by true recency."""
        self._seq += 1
        self._dropped.discard(path.name)
        self._lru_seq[path.name] = self._seq
        self._save_lru()
        try:
            os.utime(path)
        except OSError:
            pass

    def _load(self, path: Path, reader):
        """Read an entry, dropping it (and reporting a miss) on any
        corruption — truncated writes, schema drift, bad JSON."""
        if not path.exists():
            return None
        try:
            value = reader(path)
        except Exception:
            self.stats.bump("corrupt_dropped")
            try:
                path.unlink()
            except OSError:
                pass
            self._lru_seq.pop(path.name, None)
            self._dropped.add(path.name)
            return None
        self._touch(path)           # refresh LRU position
        return value

    def _atomic_write(self, path: Path, writer) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                writer(handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _entries(self) -> list[Path]:
        return [p for d in (self._compile_dir, self._sim_dir,
                            self._plan_dir)
                for p in d.iterdir() if p.suffix != ".tmp"]

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._entries())

    def entry_count(self) -> int:
        return len(self._entries())

    def _evict(self) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        Recency orders by ``(st_mtime_ns, journal sequence, name)``:
        the nanosecond mtime is the cross-process signal, the persisted
        sequence breaks same-tick ties (coarse-mtime filesystems, rapid
        writes, hit re-touches), and the name makes the order total
        even for entries unknown to the journal.  The most recently
        touched entry always survives, so a bound smaller than one
        artifact degrades to keep-latest rather than thrashing to
        empty."""
        # Fold in touches other workers persisted since our last merge.
        self._save_lru()
        entries = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            seq = self._lru_seq.get(path.name, -1)
            entries.append((stat.st_mtime_ns, seq, path.name, str(path),
                            stat.st_size))
            total += stat.st_size
        # Prune journal names whose files are gone (another process
        # evicted them) so the journal cannot grow without bound.
        live = {name for _, _, name, _, _ in entries}
        stale = [n for n in self._lru_seq if n not in live]
        for name in stale:
            self._lru_seq.pop(name, None)
            self._dropped.add(name)
        if total <= self.max_bytes:
            if stale:
                self._save_lru()
            return
        entries.sort()
        for _, _, name, full, size in entries[:-1]:
            try:
                os.unlink(full)
            except OSError:
                continue
            self.stats.bump("evictions")
            self._lru_seq.pop(name, None)
            self._dropped.add(name)
            total -= size
            if total <= self.max_bytes:
                break
        self._save_lru()

    def clear(self) -> None:
        """Remove every entry (the schema directories stay)."""
        for path in self._entries():
            try:
                path.unlink()
            except OSError:
                pass
        self._dropped.update(self._lru_seq)
        self._lru_seq.clear()
        self._save_lru()


# ----------------------------------------------------------------------
# Active-store selection (explicit > environment > off)
# ----------------------------------------------------------------------
_EXPLICIT_STORE: ArtifactStore | None = None
_EXPLICIT_SET = False
_ENV_STORE: ArtifactStore | None = None


def set_active_store(store: ArtifactStore | None) -> None:
    """Pin the process-wide store (``None`` disables persistence even
    if ``REPRO_STORE_DIR`` is set); :func:`reset_active_store` returns
    control to the environment variable."""
    global _EXPLICIT_STORE, _EXPLICIT_SET
    _EXPLICIT_STORE = store
    _EXPLICIT_SET = True


def reset_active_store() -> None:
    global _EXPLICIT_STORE, _EXPLICIT_SET, _ENV_STORE
    _EXPLICIT_STORE = None
    _EXPLICIT_SET = False
    _ENV_STORE = None


def active_store() -> ArtifactStore | None:
    """The store compile/simulate paths should consult, or None.

    Defaults to off; an explicitly set store wins over the
    ``REPRO_STORE_DIR`` environment variable.
    """
    if _EXPLICIT_SET:
        return _EXPLICIT_STORE
    path = env_str(ENV_STORE_DIR)
    if not path:
        return None
    global _ENV_STORE
    if _ENV_STORE is None or str(_ENV_STORE.root) != path:
        _ENV_STORE = ArtifactStore(path)
    return _ENV_STORE


@contextmanager
def using_store(store):
    """Scoped activation: ``store`` is a directory path or an
    :class:`ArtifactStore`; the previous active store is restored on
    exit."""
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    global _EXPLICIT_STORE, _EXPLICIT_SET
    prev_store, prev_set = _EXPLICIT_STORE, _EXPLICIT_SET
    _EXPLICIT_STORE, _EXPLICIT_SET = store, True
    try:
        yield store
    finally:
        _EXPLICIT_STORE, _EXPLICIT_SET = prev_store, prev_set
