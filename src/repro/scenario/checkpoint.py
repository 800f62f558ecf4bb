"""Crash-safe chunk journaling under the chunked execution engine.

A :class:`CheckpointStore` turns a directory into a resumable journal of
completed work chunks.  The layout is deliberately boring::

    checkpoint-dir/
        manifest.json        # run key digest + per-chunk digests (atomic)
        chunk-00000.json     # chunk 0: results, wall times, failures
        chunk-00001.json
        ...

Two invariants make it crash-safe:

* **Write-then-rename, chunk before manifest.**  Every file is written to a
  temporary sibling, flushed, fsync'd and atomically renamed into place
  (followed by a best-effort directory fsync), and a chunk's journal file
  lands *before* the manifest entry that blesses it.  A crash at any instant
  therefore leaves either a fully valid journal or an orphaned chunk file
  the manifest does not know about (which is simply recomputed) — never a
  half-written manifest.
* **Everything is digest-checked.**  The manifest is keyed by a SHA-256 of
  the run key (spec document + seed + execution parameters), so a directory
  can never silently resume a *different* run; each chunk entry records the
  SHA-256 of its journal file, so truncation or tampering is caught at load
  with a one-line actionable error instead of feeding corrupt rows into an
  aggregate.

Results are journaled as strict-key JSON with ``allow_nan=True``: Python's
``repr``-based float serialization round-trips every finite float exactly
and NaN survives as a literal, which is what makes a resumed run's rows
byte-identical to an uninterrupted run's.

Foreign-replica handoff: several *processes* — serve replicas sharing a
checkpoint root, a CLI resume racing a still-draining server — may hold
stores on the same directory for the same run key.  Chunk files are
already safe (atomic, digest-named per index), but the manifest is a
read-modify-write, so every manifest load/save happens under a
cross-process advisory lock (:class:`~repro.fslock.FileLock` on
``manifest.lock``) and :meth:`record_chunk` merges the on-disk chunk
table before writing: a chunk journaled by another replica is adopted,
never clobbered.  A replica resuming a dead replica's job simply opens
the directory with the same key and sees everything the manifest blessed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from repro.digest import canonical_digest
from repro.errors import CheckpointError
from repro.fslock import FileLock, atomic_write

#: Manifest schema version; bumped on incompatible layout changes.
CHECKPOINT_VERSION = 1

_MANIFEST = "manifest.json"


def _key_digest(key: Mapping[str, object]) -> str:
    """Canonical SHA-256 of a run key document (see :mod:`repro.digest`)."""
    try:
        return canonical_digest(key)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint key is not canonical JSON: {exc}") from exc


class CheckpointStore:
    """One run's chunk journal in a directory (see the module docstring).

    Args:
        directory: the checkpoint directory; created (with parents) when
            absent.  A directory already holding a manifest must belong to
            the *same* run key, or opening raises.
        key: the run-identifying document — for a fleet run the fleet
            document plus seed and the execution parameters that shape
            results.  Anything that changes the rows must be in the key.

    Raises:
        CheckpointError: the directory holds a different run's journal, or
            a manifest that cannot be parsed.
    """

    def __init__(self, directory: str | Path, key: Mapping[str, object]) -> None:
        self.directory = Path(directory)
        self.key = dict(key)
        self.key_sha256 = _key_digest(self.key)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.directory / _MANIFEST
        self._lock = FileLock(self.directory / "manifest.lock")
        with self._lock:
            if self._manifest_path.exists():
                self._chunks = self._load_manifest_chunks()
            else:
                self._chunks = {}
                self._write_manifest()

    # -- manifest handling ---------------------------------------------------

    def _load_manifest_chunks(self) -> dict[int, dict[str, object]]:
        try:
            document = json.loads(self._manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint manifest {self._manifest_path} is not valid JSON ({exc}); "
                "delete the checkpoint directory to start over"
            ) from exc
        if not isinstance(document, dict) or document.get("checkpoint") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint manifest {self._manifest_path} has an unsupported layout "
                f"(expected version {CHECKPOINT_VERSION}); delete the checkpoint "
                "directory to start over"
            )
        found = document.get("key_sha256")
        if found != self.key_sha256:
            raise CheckpointError(
                f"checkpoint directory {self.directory} belongs to a different run "
                f"(key digest {str(found)[:12]}… != {self.key_sha256[:12]}…); "
                "use a fresh directory, or rerun with the original spec/seed/parameters"
            )
        chunks_doc = document.get("chunks")
        if not isinstance(chunks_doc, dict):
            raise CheckpointError(
                f"checkpoint manifest {self._manifest_path} has no chunk table; "
                "delete the checkpoint directory to start over"
            )
        chunks: dict[int, dict[str, object]] = {}
        for label, entry in chunks_doc.items():
            try:
                chunks[int(label)] = {
                    "file": str(entry["file"]),
                    "sha256": str(entry["sha256"]),
                    "items": int(entry["items"]),
                }
            except (TypeError, KeyError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint manifest {self._manifest_path} chunk entry {label!r} "
                    f"is malformed ({exc}); delete the checkpoint directory to start over"
                ) from exc
        return chunks

    def _write_manifest(self) -> None:
        document = {
            "checkpoint": CHECKPOINT_VERSION,
            "key_sha256": self.key_sha256,
            "key": self.key,
            "chunks": {
                str(index): entry for index, entry in sorted(self._chunks.items())
            },
        }
        atomic_write(self._manifest_path, (json.dumps(document, indent=2) + "\n").encode("utf-8"))

    # -- chunk journal -------------------------------------------------------

    @property
    def completed_chunks(self) -> tuple[int, ...]:
        """Journaled chunk indices, ascending."""
        return tuple(sorted(self._chunks))

    def has_chunk(self, chunk_index: int) -> bool:
        """Whether ``chunk_index`` is journaled (and blessed by the manifest)."""
        return chunk_index in self._chunks

    def record_chunk(
        self,
        chunk_index: int,
        results: list[object],
        wall_times_s: list[float],
        failures: list[dict[str, object]] | None = None,
    ) -> Path:
        """Journal one completed chunk: chunk file first, then the manifest.

        ``results`` must be JSON-serializable (NaN allowed); slots of failed
        items carry ``None`` with the failure recorded in ``failures`` (its
        ``index`` local to the chunk).

        Concurrent-writer safe: the manifest update happens under the
        directory's advisory lock and merges the on-disk chunk table first,
        so two replicas journaling the same run never drop each other's
        completed chunks (a chunk both computed resolves to whichever
        journaled first — the results are byte-identical by construction).
        """
        payload = {
            "chunk": chunk_index,
            "items": len(results),
            "results": results,
            "wall_times_s": list(wall_times_s),
            "failures": list(failures or []),
        }
        name = f"chunk-{chunk_index:05d}.json"
        path = self.directory / name
        try:
            text = json.dumps(payload, allow_nan=True)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"chunk {chunk_index} results are not JSON-serializable: {exc}"
            ) from exc
        with self._lock:
            if self._manifest_path.exists():
                for index, entry in self._load_manifest_chunks().items():
                    self._chunks.setdefault(index, entry)
            if chunk_index in self._chunks:
                # A foreign replica already journaled (and blessed) this
                # chunk; its digest-checked file wins — ours is redundant.
                return self.directory / str(self._chunks[chunk_index]["file"])
            atomic_write(path, (text + "\n").encode("utf-8"))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            self._chunks[chunk_index] = {
                "file": name,
                "sha256": digest,
                "items": len(results),
            }
            self._write_manifest()
        return path

    def load_chunk(
        self, chunk_index: int, expected_items: int | None = None
    ) -> tuple[list[object], list[float], list[dict[str, object]]]:
        """Load one journaled chunk as ``(results, wall_times_s, failures)``.

        Raises:
            CheckpointError: the chunk is not journaled, its file is missing
                or fails its digest, or its item count contradicts the
                caller's expectation (the spec changed under the journal).
        """
        entry = self._chunks.get(chunk_index)
        if entry is None:
            raise CheckpointError(
                f"chunk {chunk_index} is not journaled in {self.directory}; "
                "it must be recomputed"
            )
        path = self.directory / str(entry["file"])
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint chunk file {path} is missing ({exc}); "
                "delete the checkpoint directory and rerun"
            ) from exc
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry["sha256"]:
            raise CheckpointError(
                f"checkpoint chunk file {path} is corrupt (digest mismatch); "
                "delete the checkpoint directory and rerun"
            )
        document = json.loads(blob.decode("utf-8"))
        results = document["results"]
        if len(results) != entry["items"] or (
            expected_items is not None and len(results) != expected_items
        ):
            raise CheckpointError(
                f"checkpoint chunk {chunk_index} holds {len(results)} item(s) where "
                f"{expected_items if expected_items is not None else entry['items']} "
                "were expected; the run parameters changed — use a fresh checkpoint "
                "directory"
            )
        return results, list(document.get("wall_times_s", [])), list(document.get("failures", []))
