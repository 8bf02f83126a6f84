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
    """A declared task.

    ``inputs`` / ``outputs`` name whole global arrays.  ``flops`` is a cost
    hint (used by schedulers and the simulator).  ``splittable`` marks tasks
    whose output range can be partitioned by the local scheduler "to expose
    more parallelism when necessary" — the body is then called with an
    ``outputs`` dict holding only a slice of each output array, plus
    matching input row ranges supplied through ``split_ctx`` in metadata.
    """

    name: str
    fn: TaskFn | None
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    flops: float = 0.0
    splittable: bool = False
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
        if self.flops < 0:
            raise SchedulingError(f"task {self.name!r}: negative flops")


def task(
    name: str,
    fn: TaskFn | None,
    inputs: list[str] | tuple[str, ...] = (),
    outputs: list[str] | tuple[str, ...] = (),
    *,
    flops: float = 0.0,
    splittable: bool = False,
    **meta: Any,
) -> TaskSpec:
    """Convenience constructor with list arguments."""
    return TaskSpec(
        name=name,
        fn=fn,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        flops=flops,
        splittable=splittable,
        meta=dict(meta),
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
