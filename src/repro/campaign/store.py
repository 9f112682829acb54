"""Persistent task artifacts: one content-addressed JSON file per task.

Campaign cells and sharded-fleet shards are both "content-hashed task
-> JSON payload", and both persist through one :class:`TaskStore`.
Layout under an output directory::

    <root>/manifest.json            # spec identity + task index
    <root>/<tasks>/<task_id>.json   # one task's artifact
    <root>/telemetry/<task_id>.json # wall-clock telemetry (sidecar, optional)

``<tasks>`` is ``cells`` for campaigns (artifact
``{"cell": {...}, "payload": {...}}``, see :class:`ArtifactStore`) and
``shards`` for sharded fleets (the shard payload itself, plus the
merged ``<root>/fleet.json`` the fleet runner writes on completion).

Telemetry summaries live *outside* the task directory on purpose: task
artifacts are deterministic (byte-identical across runs and worker
counts) while telemetry is wall-clock and inherently not, and
:meth:`TaskStore.completed` must never mistake a sidecar for a
finished task.

Design rules:

* **Canonical bytes** — every file is canonical JSON (sorted keys, fixed
  separators, trailing newline), so artifacts are byte-identical no
  matter how many workers produced the results or in what order they
  finished.
* **Atomic writes** — artifacts land via write-to-temp + ``os.replace``;
  a run killed mid-write leaves at worst a stale ``<id>.json.tmp``,
  never a half-written artifact under the final name.
* **Self-verifying resume** — a task counts as done only when its file
  parses and the ID recorded inside matches the file name.  Anything
  else (torn file, stray name, another task's bytes) is simply re-run,
  so a damaged store degrades to extra work, not wrong results.
* **Single writer** — only the driver process writes; workers return
  payloads over the pool pipe.  No cross-process file locking is
  needed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.campaign.spec import CampaignCell, CampaignSpec, canonical_json
from repro.obs.report import TELEMETRY_DIR_NAME

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
CELL_DIR_NAME = "cells"
STORE_FORMAT = 1


class StoreError(RuntimeError):
    """Raised for artifact-store misuse or on-disk corruption."""


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class TaskStore:
    """Reads and writes one run's content-addressed task artifacts.

    ``task_dir`` names the artifact subdirectory, ``id_path`` the key
    path of the task ID recorded inside each artifact, and ``kind`` the
    manifest's ``kind`` field (``None``: the manifest has none).
    """

    def __init__(
        self,
        root: PathLike,
        task_dir: str,
        id_path: Sequence[str],
        kind: Optional[str] = None,
    ) -> None:
        self._root = Path(root)
        self._task_dir = self._root / task_dir
        self._telemetry_dir = self._root / TELEMETRY_DIR_NAME
        self._id_path = tuple(id_path)
        self._kind = kind

    @property
    def root(self) -> Path:
        return self._root

    @property
    def manifest_path(self) -> Path:
        return self._root / MANIFEST_NAME

    def task_path(self, task_id: str) -> Path:
        return self._task_dir / f"{task_id}.json"

    def telemetry_path(self, task_id: str) -> Path:
        return self._telemetry_dir / f"{task_id}.json"

    # ---------------------------------------------------------------- manifest
    def initialize(self, record: dict, identity: Sequence[str]) -> None:
        """Create the layout and write manifest ``record``.

        Re-initialising over an existing manifest whose ``identity``
        keys all match is the resume path and is a no-op; anything else
        is refused so artifacts from unrelated runs never mix.
        """
        self._root.mkdir(parents=True, exist_ok=True)
        self._task_dir.mkdir(exist_ok=True)
        existing = self.load_manifest_record()
        if existing is None:
            _atomic_write_text(self.manifest_path, canonical_json(record) + "\n")
            return
        mismatched = [key for key in identity if existing.get(key) != record[key]]
        if mismatched:
            detail = ", ".join(
                f"{key} {existing.get(key)!r} != {record[key]!r}"
                for key in mismatched
            )
            raise StoreError(
                f"{self._root} already holds {existing.get('name')!r} with a "
                f"different spec ({detail}); use a fresh output directory"
            )

    def load_manifest_record(self) -> Optional[dict]:
        """The raw manifest dict, or ``None`` when absent."""
        if not self.manifest_path.exists():
            return None
        try:
            record = _read_json(self.manifest_path)
        except json.JSONDecodeError as error:
            raise StoreError(
                f"{self.manifest_path}: malformed manifest: {error}"
            ) from error
        if record.get("format") != STORE_FORMAT or record.get("kind") != self._kind:
            raise StoreError(
                f"{self.manifest_path}: unsupported manifest (format "
                f"{record.get('format')!r}, kind {record.get('kind')!r}; "
                f"expected format {STORE_FORMAT}, kind {self._kind!r})"
            )
        return record

    # ------------------------------------------------------------------- tasks
    def write(self, task_id: str, record: dict) -> Path:
        """Persist one task's artifact (atomic, canonical bytes)."""
        self._task_dir.mkdir(parents=True, exist_ok=True)
        path = self.task_path(task_id)
        _atomic_write_text(path, canonical_json(record) + "\n")
        return path

    def completed(self) -> Set[str]:
        """Task IDs with a readable, self-consistent artifact on disk."""
        done: Set[str] = set()
        if not self._task_dir.is_dir():
            return done
        for path in self._task_dir.glob("*.json"):
            try:
                recorded = _read_json(path)
            except (ValueError, OSError):  # torn, not UTF-8, unreadable
                continue
            for key in self._id_path:
                recorded = recorded.get(key) if isinstance(recorded, dict) else None
            if recorded == path.stem:
                done.add(path.stem)
        return done

    def load(self, task_id: str) -> dict:
        """One task's artifact record from disk."""
        path = self.task_path(task_id)
        try:
            return _read_json(path)
        except FileNotFoundError:
            raise StoreError(f"no artifact for task {task_id}") from None
        except json.JSONDecodeError as error:
            raise StoreError(f"{path}: malformed artifact: {error}") from error

    # --------------------------------------------------------------- telemetry
    def write_telemetry(self, task_id: str, summary: dict) -> Path:
        """Persist one task's wall-clock telemetry summary (sidecar).

        Sidecars are advisory: they never participate in resume
        decisions or the byte-identity contract, so a missing or stale
        one is harmless.
        """
        self._telemetry_dir.mkdir(parents=True, exist_ok=True)
        path = self.telemetry_path(task_id)
        _atomic_write_text(path, canonical_json(summary) + "\n")
        return path

    def load_telemetry(self, task_id: str) -> Optional[dict]:
        """One task's telemetry summary, or ``None`` when absent/corrupt."""
        try:
            record = _read_json(self.telemetry_path(task_id))
        except (ValueError, OSError):
            return None
        return record if isinstance(record, dict) else None


class ArtifactStore(TaskStore):
    """The campaign face of :class:`TaskStore`: one artifact per cell."""

    def __init__(self, root: PathLike) -> None:
        super().__init__(root, CELL_DIR_NAME, ("cell", "cell_id"))

    def cell_path(self, cell_id: str) -> Path:
        return self.task_path(cell_id)

    def initialize(self, spec: CampaignSpec) -> None:
        """Create the layout and manifest for ``spec`` (same spec hash:
        the resume no-op; a different spec: :class:`StoreError`)."""
        record = {
            "format": STORE_FORMAT,
            "name": spec.name,
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash,
            "cells": [
                {
                    "cell_id": cell.cell_id,
                    "scenario": cell.scenario,
                    "protocol": cell.protocol,
                    "override_label": cell.override_label,
                    "seed": cell.seed,
                }
                for cell in spec.iter_cells()
            ],
        }
        super().initialize(record, ("spec_hash",))

    def load_spec(self) -> CampaignSpec:
        """The campaign spec recorded in the manifest."""
        record = self.load_manifest_record()
        if record is None:
            raise StoreError(f"{self._root}: no campaign manifest found")
        return CampaignSpec.from_dict(record["spec"])

    def write_cell(self, cell: CampaignCell, payload: dict) -> Path:
        """Persist one cell's result artifact (atomic, canonical bytes)."""
        return self.write(cell.cell_id, {"cell": cell.to_dict(), "payload": payload})

    def has_cell(self, cell_id: str) -> bool:
        return self.cell_path(cell_id).exists()

    def completed_ids(self) -> Set[str]:
        """Cell IDs with a readable, self-consistent artifact on disk."""
        return self.completed()

    def load_cell(self, cell_id: str) -> Tuple[CampaignCell, dict]:
        """One cell's ``(cell, payload)`` from disk."""
        record = self.load(cell_id)
        return CampaignCell.from_dict(record["cell"]), record["payload"]

    def iter_results(self) -> Iterator[Tuple[CampaignCell, dict]]:
        """All completed ``(cell, payload)`` pairs, in manifest order."""
        record = self.load_manifest_record()
        if record is None:
            raise StoreError(f"{self._root}: no campaign manifest found")
        for entry in record["cells"]:
            cell_id = entry["cell_id"]
            if self.has_cell(cell_id):
                yield self.load_cell(cell_id)

    def load_results(self) -> List[Tuple[CampaignCell, dict]]:
        return list(self.iter_results())
