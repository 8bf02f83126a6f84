"""Iteration-boundary checkpoints: checksummed blocks + atomic manifests.

Layout of a checkpoint directory::

    ckpt-00000012-x.blk          encoded payload of array "x"
    ckpt-00000012-history.blk    ... one .blk file per state array ...
    ckpt-00000012.ckpt           JSON manifest, written LAST

Payloads are encoded by the manager's codec (:mod:`repro.core.codecs`;
``raw`` = little-endian bytes as before) and each manifest block entry
records the codec name, so checkpoint directories self-describe.  Every
``.blk`` payload and the manifest itself go through
:func:`repro.util.atomicio.atomic_write` (temp file → fsync → rename), and
the manifest — carrying a sha256 of each payload's on-disk bytes — is
written only after all payloads are durable.  A crash at any point therefore leaves either a
complete, verifiable checkpoint or no manifest for that step at all; a
manifest whose checksums do not match (torn by a dying disk, truncated,
bit-flipped) is *rejected* and :meth:`CheckpointManager.load_latest` falls
back to the previous good step.

``extra`` carries JSON state (iteration counters, RNG state via
:func:`rng_state`); exact float state is stored as arrays, not JSON, so a
resumed solver reproduces the remaining iterates bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.codecs import get_codec, resolve_codec
from repro.core.errors import CodecError, CodecMismatchError, RecoveryError
from repro.core.iofilter import escape_name, unescape_name
from repro.util.atomicio import atomic_write

__all__ = ["Checkpoint", "CheckpointManager", "CheckpointCadence",
           "rng_state", "restore_rng"]

MANIFEST_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")
PAYLOAD_RE = re.compile(r"^ckpt-(\d{8})-.+\.blk$")
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """One restored checkpoint: step + state arrays + JSON extras."""

    step: int
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class CheckpointManager:
    """Write/verify/load checkpoints in one directory.

    ``keep`` bounds disk usage: after a successful save, manifests older
    than the newest ``keep`` (and their payloads) are pruned.  Keep at
    least 2 so a checkpoint torn by a mid-save crash still has a good
    predecessor to fall back to.
    """

    def __init__(self, directory: str | Path, *, keep: int = 2,
                 tracer=None, node: int = -1, codec: str | None = None):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.tracer = tracer
        self.node = node
        #: payload codec, snapshotted once at construction (None samples
        #: DOOC_CODEC — the same snapshot rule as the engine's data
        #: plane).  Manifests record the codec per payload; restoring a
        #: checkpoint written under a *different* codec raises
        #: :class:`CodecMismatchError` rather than guessing.
        self.codec = resolve_codec(codec)
        self.writes = 0

    # -- paths ---------------------------------------------------------------

    def _manifest_path(self, step: int) -> Path:
        return self.dir / f"ckpt-{step:08d}.ckpt"

    def _block_name(self, step: int, array: str) -> str:
        return f"ckpt-{step:08d}-{escape_name(array)}.blk"

    def steps(self) -> list[int]:
        """Steps with a manifest present, ascending (unverified)."""
        out = []
        for path in self.dir.iterdir():
            m = MANIFEST_RE.match(path.name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    # -- save ----------------------------------------------------------------

    def save(self, step: int, arrays: dict[str, np.ndarray],
             extra: dict | None = None) -> Path:
        """Persist one checkpoint; the manifest lands last, atomically."""
        if step < 0:
            raise ValueError("step must be non-negative")
        codec = get_codec(self.codec)
        blocks = {}
        for name, value in arrays.items():
            arr = np.ascontiguousarray(value)
            payload = codec.encode(arr.tobytes(), arr.dtype.itemsize)
            fname = self._block_name(step, name)
            atomic_write(self.dir / fname, payload)
            # sha256 covers the *encoded* on-disk bytes: load verifies
            # the file exactly as written, before any decode runs.
            blocks[name] = {
                "file": fname,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "codec": self.codec,
                "raw_nbytes": arr.nbytes,
            }
        manifest = {
            "format": FORMAT_VERSION,
            "step": step,
            "blocks": blocks,
            "extra": extra or {},
        }
        path = self._manifest_path(step)
        atomic_write(path, json.dumps(manifest, sort_keys=True).encode())
        self.writes += 1
        if self.tracer is not None:
            self.tracer.instant(self.node, "ckpt", "recovery",
                                "checkpoint_write", step=step,
                                arrays=len(blocks))
        self._prune(step)
        return path

    def _referenced_payloads(self) -> set[str]:
        """Payload file names claimed by any surviving (readable) manifest.

        A manifest that does not parse contributes nothing here — but its
        payloads are still swept below, because the reference set is
        computed from what *survives*, not from what the stale manifest
        happened to say.
        """
        files: set[str] = set()
        for step in self.steps():
            try:
                entry = json.loads(self._manifest_path(step).read_text())
                for b in entry.get("blocks", {}).values():
                    files.add(str(b["file"]))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return files

    def _prune(self, latest_step: int) -> None:
        """Drop manifests beyond ``keep``, then sweep unreferenced payloads.

        The old implementation deleted only the payloads the stale
        manifest itself listed — so a manifest that had gone unreadable
        (the very corruption ``load_latest`` falls back over) orphaned
        its ``.blk`` payloads *forever*, and payloads from a save that
        crashed before its manifest landed were never collected either.
        Sweeping against the referenced-set of surviving manifests
        guarantees the directory holds exactly the payloads some live
        manifest names (for steps up to ``latest_step``).
        """
        steps = [s for s in self.steps() if s <= latest_step]
        for stale in steps[: -self.keep] if len(steps) > self.keep else []:
            self._manifest_path(stale).unlink(missing_ok=True)
        referenced = self._referenced_payloads()
        for path in self.dir.iterdir():
            m = PAYLOAD_RE.match(path.name)
            if m and int(m.group(1)) <= latest_step \
                    and path.name not in referenced:
                path.unlink(missing_ok=True)

    # -- load ----------------------------------------------------------------

    def load(self, step: int) -> Checkpoint:
        """Load + verify one step; :class:`RecoveryError` on any corruption."""
        path = self._manifest_path(step)
        try:
            manifest = json.loads(path.read_text())
        except FileNotFoundError:
            raise RecoveryError(f"no checkpoint manifest for step {step}")
        except (OSError, ValueError) as exc:
            raise RecoveryError(f"unreadable manifest {path.name}: {exc}")
        if not isinstance(manifest, dict) or manifest.get("step") != step \
                or manifest.get("format") != FORMAT_VERSION:
            raise RecoveryError(f"malformed manifest {path.name}")
        arrays: dict[str, np.ndarray] = {}
        for name, entry in manifest.get("blocks", {}).items():
            entry_codec = entry.get("codec", "raw")  # pre-codec manifests
            if entry_codec != self.codec:
                raise CodecMismatchError(
                    f"checkpoint step {step} stores {name!r} under codec "
                    f"{entry_codec!r} but this manager restores with "
                    f"{self.codec!r}; restore with the original codec or "
                    "re-encode the checkpoint explicitly")
            blk = self.dir / entry["file"]
            try:
                payload = blk.read_bytes()
            except OSError as exc:
                raise RecoveryError(f"missing payload {blk.name}: {exc}")
            if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
                raise RecoveryError(
                    f"checksum mismatch on {blk.name} (step {step})")
            dtype = np.dtype(entry["dtype"])
            raw_nbytes = int(entry.get(
                "raw_nbytes",
                int(np.prod(entry["shape"], dtype=np.int64)) * dtype.itemsize))
            try:
                raw = get_codec(entry_codec).decode(
                    payload, raw_nbytes, dtype.itemsize)
            except CodecError as exc:
                raise RecoveryError(
                    f"payload {blk.name} does not decode (step {step}): "
                    f"{exc}") from exc
            arrays[name] = np.frombuffer(
                raw, dtype=dtype).reshape(entry["shape"]).copy()
        return Checkpoint(step=step, arrays=arrays,
                          extra=manifest.get("extra", {}))

    def load_latest(self) -> Checkpoint | None:
        """Newest checkpoint that verifies; corrupt ones are skipped.

        Returns None when no (intact) checkpoint exists — the caller
        starts from scratch.
        """
        for step in reversed(self.steps()):
            try:
                ckpt = self.load(step)
            except CodecMismatchError:
                # Not corruption: the checkpoint is intact but encoded
                # under a different codec.  Falling back past it would
                # silently restart from older state (or from scratch) —
                # surface the named refusal instead.
                raise
            except RecoveryError as exc:
                if self.tracer is not None:
                    self.tracer.instant(self.node, "ckpt", "recovery",
                                        "checkpoint_reject", step=step,
                                        error=str(exc))
                continue
            if self.tracer is not None:
                self.tracer.instant(self.node, "ckpt", "recovery",
                                    "checkpoint_restore", step=step)
            return ckpt
        return None


class CheckpointCadence:
    """What every checkpointed drive does around its loop, written once.

    A :class:`CheckpointManager` (``manager``) iff ``directory`` is given;
    ``restored`` is the newest intact checkpoint iff there is a manager
    and ``resume`` is set, else ``None``; :meth:`save` writes a step when
    it falls on the cadence (``step % every == 0``, or ``force``) and
    never the step it last wrote or restored — so a drive may force a
    final save without asking whether the cadence just wrote it.
    """

    def __init__(self, directory: str | Path | None, every: int, *,
                 resume: bool = False):
        if every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.every = every
        self.manager = (CheckpointManager(directory)
                        if directory is not None else None)
        self.restored = (self.manager.load_latest()
                         if self.manager is not None and resume else None)
        self._last_step = self.restored.step if self.restored else None

    @property
    def writes(self) -> int:
        return self.manager.writes if self.manager is not None else 0

    def save(self, step: int, arrays: dict[str, np.ndarray],
             extra: dict | None = None, *, force: bool = False) -> None:
        if self.manager is None or step == self._last_step \
                or (step % self.every and not force):
            return
        self.manager.save(step, arrays, extra)
        self._last_step = step


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a NumPy generator's exact state."""
    return {"bit_generator": type(rng.bit_generator).__name__,
            "state": rng.bit_generator.state}


def restore_rng(snapshot: dict) -> np.random.Generator:
    """Rebuild a generator that continues the saved stream bit-identically."""
    name = snapshot["bit_generator"]
    cls = getattr(np.random, name, None)
    if cls is None:
        raise RecoveryError(f"unknown bit generator {name!r}")
    bitgen = cls()
    state = snapshot["state"]
    if isinstance(state, dict) and "state" in state and isinstance(
            state["state"], dict):
        # JSON round-trips dict keys as-is; state ints may arrive as-is too.
        bitgen.state = state
    else:
        bitgen.state = state
    return np.random.Generator(bitgen)


# `unescape_name` is re-exported so tooling reading a checkpoint directory
# can map .blk files back to array names without importing core internals.
_ = unescape_name
