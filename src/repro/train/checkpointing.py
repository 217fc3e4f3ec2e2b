"""Training-state checkpointing: resume-exact, integrity-checked snapshots.

The paper's 70B CPT ran ~2,000 GPU-hours on a shared leadership facility —
the kind of job that *will* be preempted.  There is one snapshot layout,
for a model plus AdamW and for the sharded trainers alike: a flat dict of
named arrays — for a model, ``{**model.named_parameters(),
**optimizer.moments()}`` — saved as one directory::

    state.npz       every named array
    meta.json       format version, step, optimizer step count, ``extra``
    manifest.json   SHA-256 of the two files above, written last

:func:`save_snapshot` writes it and :func:`load_snapshot` reads it back,
refusing a snapshot whose digests no longer verify
(:class:`CheckpointIntegrityError`) or whose format version differs.  The
restore is :func:`repro.model.layers.assign_state` into the same live
arrays, which is strict: the snapshot must hold exactly the live names,
shapes and dtypes, so a resumed run is bit-identical to an uninterrupted
one (asserted by tests) or the restore raises.

Because the manifest is written last, a snapshot without one was cut off
mid-save and counts as incomplete.  The fault-injection recovery layer
(:mod:`repro.faults.recovery`) uses :func:`latest_valid_checkpoint` to fall
back to the newest snapshot that still verifies.

A module-level post-save hook gives the fault injector a seam to corrupt
a freshly written file *without* the save path knowing anything about
faults; the happy path is unchanged when no hook is installed.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

# version 1 split model.npz / optimizer.npz; its snapshots are refused
_FORMAT_VERSION = 2

STATE_NAME = "state.npz"
META_NAME = "meta.json"
MANIFEST_NAME = "manifest.json"

_STEP_DIR_RE = re.compile(r"^step-(\d+)$")

#: Called after every successful snapshot write as ``hook(path, step)``.
PostSaveHook = Callable[[Path, int], None]

_post_save_hook: Optional[PostSaveHook] = None


class CheckpointIntegrityError(ValueError):
    """A snapshot failed checksum validation (corrupt/truncated shard).

    This is a *detection* error raised by the loader — distinct from the
    injected fault types in :mod:`repro.faults.errors`, which only the
    fault injector may raise.  Subclasses :class:`ValueError` because a
    corrupt snapshot is one way checkpoint data can be invalid.
    """


def set_post_save_hook(hook: Optional[PostSaveHook]) -> Optional[PostSaveHook]:
    """Install (or clear, with ``None``) the post-save hook; returns the
    previous hook so callers can restore it."""
    global _post_save_hook
    previous = _post_save_hook
    _post_save_hook = hook
    return previous


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: PathLike) -> Dict[str, str]:
    """Hash every file in the snapshot directory into ``manifest.json``."""
    path = Path(path)
    digests = {
        p.name: _sha256(p)
        for p in sorted(path.iterdir())
        if p.is_file() and p.name != MANIFEST_NAME
    }
    manifest = {"format_version": _FORMAT_VERSION, "sha256": digests}
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return digests


def verify_checkpoint(path: PathLike) -> List[str]:
    """Names of snapshot files whose SHA-256 no longer matches the manifest.

    Returns an empty list when the snapshot is intact.  A missing or
    unreadable manifest is reported as ``[MANIFEST_NAME]``: the manifest is
    written last, so without one the save never finished.  A missing or
    unreadable *file* listed in the manifest counts as corrupt.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
        digests = dict(manifest["sha256"])
    except (OSError, ValueError, KeyError, TypeError):
        return [MANIFEST_NAME]
    bad = []
    for name, expected in sorted(digests.items()):
        target = path / name
        if not target.exists() or _sha256(target) != expected:
            bad.append(name)
    return bad


def save_snapshot(
    path: PathLike,
    arrays: Dict[str, np.ndarray],
    step: int,
    step_count: int,
    extra: Optional[dict] = None,
) -> None:
    """Write ``arrays`` plus progress as one snapshot directory at ``path``.

    ``step`` is the training step to resume at and ``step_count`` the
    optimizer's update count; ``extra`` is stored as-is in ``meta.json``.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path / STATE_NAME, **arrays)
    meta = {
        "format_version": _FORMAT_VERSION,
        "step": int(step),
        "optimizer_step_count": int(step_count),
        "extra": extra or {},
    }
    (path / META_NAME).write_text(json.dumps(meta, indent=2), encoding="utf-8")
    write_manifest(path)
    if _post_save_hook is not None:
        _post_save_hook(path, int(step))


def load_snapshot(path: PathLike) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a :func:`save_snapshot` directory; returns ``(arrays, meta)``.

    The manifest digests are checked first, so a corrupt or incomplete
    snapshot raises :class:`CheckpointIntegrityError` before anything is
    read; a different format version raises ``ValueError``.  Restore the
    arrays with :func:`repro.model.layers.assign_state`.
    """
    path = Path(path)
    bad = verify_checkpoint(path)
    if bad:
        raise CheckpointIntegrityError(
            f"checkpoint {path} failed checksum validation: {', '.join(bad)}"
        )
    meta = json.loads((path / META_NAME).read_text(encoding="utf-8"))
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {meta.get('format_version')} != {_FORMAT_VERSION}"
        )
    with np.load(path / STATE_NAME) as data:
        arrays = {k: data[k] for k in data.files}
    return arrays, meta


# ----------------------------------------------------------------------
# Snapshot discovery
# ----------------------------------------------------------------------
def checkpoint_dir_for_step(root: PathLike, step: int) -> Path:
    """Canonical per-step snapshot directory name under ``root``."""
    return Path(root) / f"step-{int(step):08d}"


def list_checkpoints(root: PathLike) -> List[Tuple[int, Path]]:
    """All ``step-*`` snapshot directories under ``root``, oldest first."""
    root = Path(root)
    if not root.exists():
        return []
    found = []
    for child in root.iterdir():
        match = _STEP_DIR_RE.match(child.name)
        if child.is_dir() and match:
            found.append((int(match.group(1)), child))
    return sorted(found)


def latest_valid_checkpoint(
    root: PathLike,
) -> Optional[Tuple[int, Path, List[Tuple[int, Path]]]]:
    """Newest snapshot under ``root`` that passes checksum validation.

    Returns ``(step, path, skipped)`` where ``skipped`` lists the newer
    snapshots that failed validation and were passed over (the recovery
    log records these fallbacks), or ``None`` when no intact snapshot
    exists.
    """
    skipped: List[Tuple[int, Path]] = []
    for step, path in reversed(list_checkpoints(root)):
        if verify_checkpoint(path):
            skipped.append((step, path))
            continue
        return step, path, skipped
    return None
