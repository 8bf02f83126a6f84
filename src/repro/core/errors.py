"""DOoC exception hierarchy."""


class DoocError(RuntimeError):
    """Base class for DOoC errors."""


class StorageError(DoocError):
    """Storage-layer protocol violation (bad interval, double release...)."""


class ImmutabilityError(StorageError):
    """Write-once semantics violated: a written range was written again."""


class UnknownArrayError(StorageError):
    """An operation referenced an array the storage layer has never seen."""


class BlockMissingError(StorageError):
    """A read addressed a block that was never written to disk.

    Raised when the backing file (or chunk file) does not exist, or the
    block's offset lies past the end of the file — a *reconstructable*
    miss (sparse writes, a producer that never ran), categorically
    different from a torn or corrupt file: fault-tolerance retries are
    pointless (the bytes were never there) and lineage replay can
    regenerate the block, so the two must not share an error type.
    """


class CodecError(StorageError):
    """A compressed block payload failed to decode cleanly.

    Truncated, bit-flipped, or mis-framed payloads surface as this error
    (never as a silently garbage block): the codec pipeline length- and
    checksum-verifies every decode.
    """


class UnknownCodecError(CodecError):
    """A codec name (header, manifest, DOOC_CODEC) is not registered."""


class ChunkFormatError(StorageError):
    """A chunk file was written in an earlier container format.

    Its payload predates the current ``zlib`` / ``shuffle-zlib`` stream
    (``DOOCCHK1``: no ``delta32`` filter; ``DOOCCHK2``: no segment map),
    so decoding it now would install different bytes: it is refused by
    name instead, and never retried (its bytes will not change).  Re-seed
    the array.
    """


class IOFailedError(StorageError):
    """A block I/O operation failed permanently (retries exhausted).

    Raised on the consumer side when a blocked ticket is denied because
    the backing load/fetch could not be completed — the fail-fast
    alternative to a read waiter stalling forever behind a dead I/O path.
    """


class SchedulingError(DoocError):
    """Task-graph or scheduler inconsistency (cycles, unknown producers...)."""


class TaskFailedError(SchedulingError):
    """A task exhausted local re-execution attempts and node reroutes."""


class StallError(DoocError, TimeoutError):
    """A run timed out; carries the watchdog's stall diagnosis.

    Subclasses ``TimeoutError`` so callers that caught the engine's old
    bare timeout keep working; ``diagnosis`` (when a watchdog was active)
    names the blocked tickets, queued allocations and ready pools.
    """

    def __init__(self, message: str, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis


class NodeLostError(StallError):
    """A node was declared permanently dead and the run could not recover.

    Carries the dead node's id and the number of array blocks homed there
    (the data lost with it).  Subclasses :class:`StallError` so callers
    treating a stalled run generically keep working, but a *dead* node is
    never reported as a generic stall — the failure detector's verdict and
    the lost-block count are in the message and on the attributes.
    """

    def __init__(self, message: str, diagnosis=None, *, node: int = -1,
                 lost_blocks: int = 0):
        super().__init__(message, diagnosis)
        self.node = node
        self.lost_blocks = lost_blocks


class RunCancelled(DoocError):
    """A run was cooperatively cancelled through its :class:`CancelToken`.

    Not a failure: the engine drained in-flight tasks, released every
    ticket, spilled nothing torn, and left /dev/shm clean before raising.
    ``reason`` carries the canceller's stated motive (user cancel,
    deadline, preemption) so callers can map the cancellation onto their
    own terminal states without string-matching the message.
    """

    def __init__(self, message: str, *, reason: str = "cancelled"):
        super().__init__(message)
        self.reason = reason


class RecoveryError(DoocError):
    """Checkpoint/restart or lineage machinery failed (corrupt manifest...)."""


class CheckpointFormatError(RecoveryError):
    """A checkpoint manifest was written in an earlier format version.

    Its compressed payloads predate the current ``zlib`` /
    ``shuffle-zlib`` stream (format 1: no ``delta32`` filter; format 2: no
    segment map), so decoding them now would restore different bytes:
    refused by name, like a codec change, rather than skipped as corrupt.
    """


class CodecMismatchError(RecoveryError):
    """A checkpoint was written under a different codec than the restorer's.

    Restarting across a codec change is refused by name rather than
    risking a half-migrated checkpoint directory: re-encode explicitly
    (or restore with the original codec) instead.
    """
