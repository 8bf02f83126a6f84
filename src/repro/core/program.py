"""A DOoC application: global arrays plus the tasks over them."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.array import ArrayDesc
from repro.core.dag import TaskDAG
from repro.core.errors import DoocError
from repro.core.task import TaskSpec

__all__ = ["Program"]


class Program:
    """A DOoC application: global arrays + tasks.

    Initial arrays carry data (seeded to a node's scratch directory before
    the run); derived arrays are produced by exactly one task each.
    """

    def __init__(self, name: str = "program", *, default_block_elems: int = 2**16):
        self.name = name
        self.default_block_elems = default_block_elems
        self.arrays: dict[str, ArrayDesc] = {}
        self.initial_data: dict[str, np.ndarray] = {}
        self.initial_home: dict[str, int] = {}
        self.tasks: list[TaskSpec] = []

    def array(
        self,
        name: str,
        length: int,
        *,
        dtype: str = "float64",
        block_elems: int | None = None,
    ) -> ArrayDesc:
        """Declare a derived array (to be produced by a task)."""
        if name in self.arrays:
            raise DoocError(f"array {name!r} declared twice")
        desc = ArrayDesc(name, length=length, dtype=dtype,
                         block_elems=block_elems or self.default_block_elems)
        self.arrays[name] = desc
        return desc

    def initial_array(
        self,
        name: str,
        data: np.ndarray,
        *,
        home: int = 0,
        block_elems: int | None = None,
    ) -> ArrayDesc:
        """Declare an input array with seed data, homed on ``home``."""
        data = np.asarray(data)
        if data.ndim != 1:
            raise DoocError(f"initial array {name!r} must be 1-D")
        desc = self.array(name, len(data), dtype=str(data.dtype),
                          block_elems=block_elems)
        self.initial_data[name] = data
        self.initial_home[name] = home
        return desc

    def initial_from_scratch(
        self,
        name: str,
        length: int,
        *,
        home: int = 0,
        dtype: str = "float64",
        block_elems: int | None = None,
    ) -> ArrayDesc:
        """Declare an input array whose backing file already exists in the
        home node's scratch directory (seeded by a previous run or by
        :func:`repro.core.iofilter.write_array`) — the paper's startup
        scan: "the storage looks for files in that directory"."""
        desc = self.array(name, length, dtype=dtype, block_elems=block_elems)
        self.initial_data[name] = None  # type: ignore[assignment]
        self.initial_home[name] = home
        return desc

    def add_task(
        self,
        name: str,
        fn,
        inputs: list[str] | tuple[str, ...],
        outputs: list[str] | tuple[str, ...],
        *,
        flops: float = 0.0,
        splittable: bool = False,
        **meta: Any,
    ) -> TaskSpec:
        for array in list(inputs) + list(outputs):
            if array not in self.arrays:
                raise DoocError(
                    f"task {name!r} references undeclared array {array!r}"
                )
        spec = TaskSpec(name=name, fn=fn, inputs=tuple(inputs),
                        outputs=tuple(outputs), flops=flops,
                        splittable=splittable, meta=dict(meta))
        self.tasks.append(spec)
        return spec

    def build_dag(self) -> TaskDAG:
        return TaskDAG(self.tasks, initial_arrays=set(self.initial_data))
