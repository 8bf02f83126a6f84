"""Tasks: the unit of computation scheduled by DOoC.

Each computation "takes some data as an input and outputs some data; each
data is a complete array that is (or will be) stored within the storage
layer".  The dependency DAG is *derived* from these declarations
(:mod:`repro.core.dag`) rather than specified by the programmer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core.errors import SchedulingError
from repro.core.iofilter import block_buffer
from repro.core.opcache import OPERAND_CONTEXT_KEY, OperandContext

#: A task body: fn(inputs: dict[str, np.ndarray], outputs: dict[str, np.ndarray],
#: meta: dict).  Inputs are read-only views of whole arrays; outputs are
#: writable buffers the engine publishes on completion.
TaskFn = Callable[[dict, dict, dict], None]


@dataclass(frozen=True)
class TaskSpec:
    """A declared task: the whole global arrays it reads (``inputs``) and
    writes (``outputs``), the body that computes them, and ``meta``, which
    the engine hands to the body untouched."""

    name: str
    fn: TaskFn | None
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    meta: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulingError("task needs a non-empty name")
        if not self.outputs:
            raise SchedulingError(f"task {self.name!r} produces no output array")
        if len(set(self.outputs)) != len(self.outputs):
            raise SchedulingError(f"task {self.name!r} lists duplicate outputs")
        if set(self.inputs) & set(self.outputs):
            raise SchedulingError(
                f"task {self.name!r} reads and writes the same array; arrays "
                "are immutable — write a new array instead"
            )


#: keywords a task no longer takes: ``meta`` would swallow them silently
_REMOVED_KEYWORDS = {
    "flops": "a task's cost hint was read by nothing",
    "splittable": "a node's workers are filled by batching, not splitting",
    "splitter": "a node's workers are filled by batching, not splitting",
}


def _checked_meta(name: str, meta: dict[str, Any]) -> dict[str, Any]:
    """``meta`` for task ``name``, refusing a removed keyword by name."""
    removed = sorted(meta.keys() & _REMOVED_KEYWORDS)
    if removed:
        raise TypeError(f"task {name!r}: {removed[0]}= was removed "
                        f"({_REMOVED_KEYWORDS[removed[0]]})")
    return dict(meta)


def task(
    name: str,
    fn: TaskFn | None,
    inputs: list[str] | tuple[str, ...] = (),
    outputs: list[str] | tuple[str, ...] = (),
    **meta: Any,
) -> TaskSpec:
    """Convenience constructor with list arguments."""
    return TaskSpec(
        name=name,
        fn=fn,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        meta=_checked_meta(name, meta),
    )


def run_task_body(fn: TaskFn, meta: dict[str, Any],
                  inputs: dict[str, list[np.ndarray]],
                  outputs: dict[str, list[np.ndarray]],
                  context: OperandContext | None = None) -> int:
    """Call a task body on its operands, on either worker plane; returns
    the bytes copied to do so.

    ``inputs`` and ``outputs`` map an array to the granted views of it in
    block order; an output's views tile the one span the task writes.  An
    operand of one view is handed to the body as it is.  A multi-block
    one is reassembled with a copy — "trading performance for semantic
    simplicity": an input gathered into a buffer frozen like the sealed
    views it came from, an output computed into a temporary and
    scattered.  These are the only deterministic copies left on the data
    plane, so CI can treat any increase of ``bytes_copied`` as a
    regression.  ``context`` reaches the body through ``meta`` (the fn
    signature stays): the node's operand cache plus the seal generations
    of the read grants, the freshness proof for cache keys.
    """
    copied = 0
    ins: dict[str, np.ndarray] = {}
    for array, parts in inputs.items():
        if len(parts) == 1:
            ins[array] = parts[0]
            continue
        whole = np.concatenate(parts, out=block_buffer(
            sum(map(len, parts)), parts[0].dtype))
        whole.flags.writeable = False
        copied += int(whole.nbytes)
        ins[array] = whole
    outs = {array: parts[0] if len(parts) == 1 else block_buffer(
                sum(map(len, parts)), parts[0].dtype)
            for array, parts in outputs.items()}
    if context is not None:
        meta = {**meta, OPERAND_CONTEXT_KEY: context}
    fn(ins, outs, meta)
    for array, parts in outputs.items():
        if len(parts) == 1:
            continue
        temp, at = outs[array], 0
        for part in parts:
            part[:] = temp[at:at + len(part)]
            at += len(part)
        copied += int(temp.nbytes)
    return copied
