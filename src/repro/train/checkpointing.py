"""Training-state checkpointing: resume-exact, integrity-checked snapshots.

The paper's 70B CPT ran ~2,000 GPU-hours on a shared leadership facility —
the kind of job that *will* be preempted.  A checkpoint captures model
parameters, AdamW moments, and the step counter, and restores them so that
a resumed run is bit-identical to an uninterrupted one (asserted by tests).

Every snapshot also carries a ``manifest.json`` of SHA-256 digests, so a
shard that was truncated or corrupted on the shared filesystem is detected
at load time (:class:`CheckpointIntegrityError`) instead of silently
resuming from garbage; the fault-injection recovery layer
(:mod:`repro.faults.recovery`) uses :func:`latest_valid_checkpoint` to fall
back to the newest snapshot whose digests still verify.

A module-level post-save hook gives the fault injector a seam to corrupt
freshly written shards *without* the save path knowing anything about
faults; the happy path is unchanged when no hook is installed.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.model.layers import Module
from repro.train.optimizer import AdamW

PathLike = Union[str, Path]

_FORMAT_VERSION = 1

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

    Returns an empty list when the snapshot is intact.  A missing manifest
    (pre-manifest snapshot) verifies trivially; a missing or unreadable
    *file* listed in the manifest counts as corrupt.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        return []
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        digests = dict(manifest["sha256"])
    except (ValueError, KeyError, TypeError):
        return [MANIFEST_NAME]
    bad = []
    for name, expected in sorted(digests.items()):
        target = path / name
        if not target.exists() or _sha256(target) != expected:
            bad.append(name)
    return bad


def save_training_state(
    path: PathLike,
    model: Module,
    optimizer: AdamW,
    step: int,
    extra: Optional[dict] = None,
) -> None:
    """Snapshot model + optimizer + progress under ``path`` (a directory)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path / "model.npz", **model.named_parameters())
    np.savez_compressed(path / "optimizer.npz", **optimizer.moments())
    meta = {
        "format_version": _FORMAT_VERSION,
        "step": int(step),
        "optimizer_step_count": int(optimizer.step_count),
        "beta1": optimizer.beta1,
        "beta2": optimizer.beta2,
        "eps": optimizer.eps,
        "weight_decay": optimizer.weight_decay,
        "extra": extra or {},
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    write_manifest(path)
    if _post_save_hook is not None:
        _post_save_hook(path, int(step))


def load_training_state(
    path: PathLike, model: Module, optimizer: AdamW, verify: bool = True
) -> dict:
    """Restore a snapshot into existing model/optimizer objects.

    Returns the metadata dict (including ``step``).  Shapes and parameter
    names must match exactly; mismatches raise rather than partially load.
    With ``verify`` (the default) the manifest digests are checked first
    and a corrupt snapshot raises :class:`CheckpointIntegrityError` before
    anything is loaded.
    """
    path = Path(path)
    if verify:
        bad = verify_checkpoint(path)
        if bad:
            raise CheckpointIntegrityError(
                f"checkpoint {path} failed checksum validation: {', '.join(bad)}"
            )
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {meta.get('format_version')} != {_FORMAT_VERSION}"
        )
    with np.load(path / "model.npz") as data:
        model.load_state({k: data[k] for k in data.files})
    moments = optimizer.moments()
    with np.load(path / "optimizer.npz") as data:
        if set(data.files) != set(moments):
            raise KeyError("optimizer state keys do not match checkpoint")
        for key, arr in moments.items():
            src = data[key]
            if src.shape != arr.shape:
                raise ValueError(f"moment shape mismatch for {key}")
            arr[...] = src
    optimizer.step_count = int(meta["optimizer_step_count"])
    return meta


# ----------------------------------------------------------------------
# Generic array-state snapshots (sharded trainables that are not Modules)
# ----------------------------------------------------------------------
def save_state_arrays(
    path: PathLike, arrays: Dict[str, np.ndarray], meta: Optional[dict] = None
) -> None:
    """Snapshot an arbitrary named-array state dict with the same
    manifest/hook machinery as :func:`save_training_state`.

    Used by trainables whose state is not a :class:`Module` — e.g. the
    tensor-parallel sharded trainer, whose parameters and moments live in
    per-rank shard dicts.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path / "state.npz", **arrays)
    payload = {"format_version": _FORMAT_VERSION, "extra": meta or {}}
    (path / "meta.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    write_manifest(path)
    if _post_save_hook is not None:
        _post_save_hook(path, int((meta or {}).get("step", -1)))


def load_state_arrays(
    path: PathLike, verify: bool = True
) -> Tuple[Dict[str, np.ndarray], dict]:
    """Load a :func:`save_state_arrays` snapshot; returns ``(arrays, extra)``."""
    path = Path(path)
    if verify:
        bad = verify_checkpoint(path)
        if bad:
            raise CheckpointIntegrityError(
                f"checkpoint {path} failed checksum validation: {', '.join(bad)}"
            )
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {meta.get('format_version')} != {_FORMAT_VERSION}"
        )
    with np.load(path / "state.npz") as data:
        arrays = {k: data[k] for k in data.files}
    return arrays, dict(meta.get("extra", {}))


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
        try:
            json.loads((path / "meta.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            skipped.append((step, path))
            continue
        return step, path, skipped
    return None
