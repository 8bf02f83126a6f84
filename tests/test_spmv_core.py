"""Tests for CSR blocks, the binary CRS format, generators, and partitioning."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spmv.csr import CSRBlock, CSRError
from repro.spmv.csrfile import (
    csr_nbytes,
    deserialize_csr,
    peek_csr_header,
    read_csr_file,
    serialize_csr,
    write_csr_file,
)
from repro.spmv.generator import (
    choose_gap_parameter,
    expected_nnz,
    gap_uniform_csr,
    symmetric_test_matrix,
)
from repro.spmv.partition import GridPartition, block_owner, column_owner, split_bounds
from repro.spmv.reference import (
    iterated_spmv_blocked_reference,
    iterated_spmv_reference,
    loads_back_and_forth_plan,
    loads_regular_plan,
)


def _reference_row_columns(ncols, max_gap, rng):
    """One gap-uniform row drawn the way the generator is specified: the
    start, then batches of gaps until one crosses ``ncols``."""
    start = int(rng.integers(0, max_gap))
    if start >= ncols:
        return np.zeros(0, dtype=np.int64)
    pieces = [np.array([start], dtype=np.int64)]
    last = start
    mean_gap = (max_gap + 1) / 2.0
    while True:
        remaining = ncols - last
        batch = max(int(remaining / mean_gap) + 8, 16)
        gaps = rng.integers(1, max_gap + 1, size=batch)
        cols = last + np.cumsum(gaps)
        inside = cols[cols < ncols]
        if inside.size:
            pieces.append(inside.astype(np.int64))
        if inside.size < cols.size:
            break
        last = int(cols[-1])
    return np.concatenate(pieces)


def _reference_gap_uniform_csr(nrows, ncols, d, rng, values="uniform"):
    """The generator drawn row by row: the oracle for gap_uniform_csr."""
    max_gap = max(int(round(2 * d)), 1)
    rows = [_reference_row_columns(ncols, max_gap, rng) for _ in range(nrows)]
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=indptr[1:])
    indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    nnz = int(indptr[-1])
    vals = rng.uniform(-1.0, 1.0, size=nnz) if values == "uniform" else np.ones(nnz)
    return indptr, indices, vals


def _same_state(a, b):
    """Bit-generator states equal, arrays (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)


def random_csr(rng, nrows=20, ncols=30, density=0.2):
    m = sp.random(nrows, ncols, density=density, random_state=np.random.RandomState(
        int(rng.integers(0, 2**31))), format="csr")
    return CSRBlock.from_scipy(m)


class TestCSRBlock:
    def test_round_trip_scipy(self):
        rng = np.random.default_rng(0)
        b = random_csr(rng)
        np.testing.assert_allclose(b.to_dense(), b.to_scipy().toarray())

    def test_matvec_matches_python_kernel(self):
        rng = np.random.default_rng(1)
        b = random_csr(rng)
        x = rng.normal(size=b.ncols)
        np.testing.assert_allclose(b.matvec(x), b.matvec_python(x))

    def test_matvec_out_parameter(self):
        rng = np.random.default_rng(2)
        b = random_csr(rng)
        x = rng.normal(size=b.ncols)
        out = np.zeros(b.nrows)
        result = b.matvec(x, out=out)
        assert result is out
        np.testing.assert_allclose(out, b.matvec(x))

    def test_matvec_shape_checks(self):
        b = CSRBlock.empty(3, 4)
        with pytest.raises(CSRError):
            b.matvec(np.zeros(5))
        with pytest.raises(CSRError):
            b.matvec(np.zeros(4), out=np.zeros(2))

    def test_in_place_kernel_refuses_an_out_it_cannot_write_through(self):
        # csr_matvec writes through a raw pointer: an ``out`` SciPy would
        # convert first would receive the product in a copy
        b = random_csr(np.random.default_rng(4))
        x = np.ones(b.ncols)
        frozen = np.zeros(b.nrows)
        frozen.flags.writeable = False
        for bad in (np.zeros(b.nrows, dtype=np.float32),
                    np.zeros(2 * b.nrows)[::2], frozen):
            with pytest.raises(CSRError, match="in-place matvec"):
                b.matvec(x, out=bad)
        # a strided or read-only x is an input: converted, not refused
        wide = np.ones(2 * b.ncols)
        np.testing.assert_array_equal(b.matvec(wide[::2]), b.matvec(x))

    def test_matvec_builds_no_scipy_form(self, monkeypatch):
        # the block multiplies by its own arrays: no SciPy copy of its
        # indices is built, cached or allocated, however often it is used
        import repro.spmv.csr as csr

        b = random_csr(np.random.default_rng(5))
        built = []
        monkeypatch.setattr(CSRBlock, "to_scipy",
                            lambda self: built.append(self))
        monkeypatch.setattr(csr, "block_buffer",
                            lambda *args: built.append(args))
        x = np.ones(b.ncols)
        for _ in range(3):
            b.matvec(x)
        assert built == []

    def test_to_scipy_hands_out_a_matrix_the_caller_owns(self):
        # examples/markov_chain.py rewrites what to_scipy() returns
        b = random_csr(np.random.default_rng(6))
        x = np.ones(b.ncols)
        want = b.matvec(x)
        m = b.to_scipy()
        m.indices[:] = 0
        m.indptr[:] = 0
        np.testing.assert_array_equal(b.matvec(x), want)
        np.testing.assert_array_equal(b.to_scipy() @ x, want)

    def test_flop_count(self):
        rng = np.random.default_rng(3)
        b = random_csr(rng)
        assert b.matvec_flops == 2 * b.nnz

    def test_validation(self):
        with pytest.raises(CSRError):
            CSRBlock(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(CSRError):
            CSRBlock(1, 2, np.array([1, 1]), np.zeros(0, int), np.zeros(0))
        with pytest.raises(CSRError):
            CSRBlock(1, 2, np.array([0, 1]), np.array([5]), np.array([1.0]))
        with pytest.raises(CSRError):
            CSRBlock(1, 2, np.array([0, 2]), np.array([0]), np.array([1.0]))

    @pytest.mark.parametrize("indices, dtype, ok", [
        ([-1], np.int64, False),
        ([7], np.int64, False),              # == ncols
        ([-2 ** 63], np.int64, False),
        ([-1], np.int32, False),
        ([6], np.int64, True),               # ncols - 1
        ([6], np.int32, True),
        ([], np.int64, True),                # an empty block
    ])
    def test_column_range_is_checked_in_one_unsigned_pass(self, indices,
                                                          dtype, ok):
        def block():
            nnz = len(indices)
            return CSRBlock(1, 7, np.array([0, nnz]),
                            np.array(indices, dtype=dtype), np.ones(nnz))

        if ok:
            assert block().indices.tolist() == indices
        else:
            with pytest.raises(CSRError, match="column index out of range"):
                block()

    def test_in_place_kernel_refuses_mixed_index_dtypes(self):
        b = CSRBlock(1, 3, np.array([0, 1]), np.array([1], dtype=np.int32),
                     np.array([1.0]))
        with pytest.raises(CSRError, match="one integer dtype"):
            b.matvec(np.ones(3))

    def test_empty(self):
        b = CSRBlock.empty(3, 4)
        assert b.nnz == 0
        np.testing.assert_array_equal(b.matvec(np.ones(4)), np.zeros(3))


class TestCSRFile:
    def test_serialize_round_trip(self):
        rng = np.random.default_rng(4)
        b = random_csr(rng)
        raw = serialize_csr(b)
        assert len(raw) == csr_nbytes(b.nrows, b.ncols, b.nnz)
        b2 = deserialize_csr(raw)
        assert b2.shape == b.shape
        np.testing.assert_array_equal(b2.indptr, b.indptr)
        np.testing.assert_array_equal(b2.indices, b.indices)
        np.testing.assert_allclose(b2.values, b.values)

    def test_deserialize_from_uint8_array(self):
        rng = np.random.default_rng(5)
        b = random_csr(rng)
        arr = np.frombuffer(serialize_csr(b), dtype=np.uint8)
        b2 = deserialize_csr(arr)
        np.testing.assert_allclose(b2.to_dense(), b.to_dense())

    def test_decode_copies_nothing(self, monkeypatch):
        """The engine's decode (``_decode_a``) allocates nothing: its
        three arrays are views of the raw block, the indices the file's
        int32 ones, and the product over them allocates nothing either
        and has the bytes of SciPy's ``a @ x``."""
        import tracemalloc

        import repro.spmv.csr as csr
        from repro.spmv.csr import matvec_into
        from repro.spmv.program import _decode_a

        b = random_csr(np.random.default_rng(7), nrows=400, ncols=250)
        raw = np.frombuffer(serialize_csr(b), dtype=np.uint8)
        allocated = []
        monkeypatch.setattr(csr, "block_buffer",
                            lambda *args: allocated.append(args))
        a = _decode_a(raw)
        assert allocated == []
        assert a.indptr.dtype == a.indices.dtype == np.int32
        for arr in (a.indptr, a.indices, a.values):
            assert np.shares_memory(arr, raw)
        x = np.random.default_rng(8).normal(size=b.ncols)
        out = np.empty(b.nrows)
        tracemalloc.start()
        try:
            matvec_into(a, x, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.indices.nbytes // 8  # no copy of any index array
        reference = sp.csr_matrix((b.values, b.indices, b.indptr),
                                  shape=b.shape)
        assert out.tobytes() == (reference @ x).tobytes()

    @pytest.mark.parametrize("ncols,width", [(30, 4), (2**31, 8)])
    @pytest.mark.parametrize("nnz", [5, 6])  # 6: the int32 layout pads
    def test_round_trip_at_both_widths(self, ncols, width, nnz):
        # Two rows; a block wider than 2**31 columns needs 8-byte indices.
        cols = [0, 7, ncols - 1, 3, 4, ncols - 2][:nnz]
        b = CSRBlock(nrows=2, ncols=ncols, indptr=np.array([0, 3, nnz]),
                     indices=np.array(cols), values=np.arange(1.0, nnz + 1))
        raw = serialize_csr(b)
        assert raw.dtype == np.uint8 and bytes(raw[:8]) == b"DOOCCSR2"
        assert len(raw) == csr_nbytes(2, ncols, nnz)
        got = deserialize_csr(raw)
        assert got.indptr.dtype == got.indices.dtype == np.dtype(f"<i{width}")
        np.testing.assert_array_equal(got.indptr, b.indptr)
        np.testing.assert_array_equal(got.indices, b.indices)
        assert got.values.tobytes() == b.values.tobytes()
        start = got.values.ctypes.data - raw.ctypes.data
        assert start % 8 == 0 and got.values.flags.aligned
        pad = start - (40 + width * 3 + width * nnz)
        assert pad == (4 if (width, nnz) == (4, 6) else 0)
        assert not raw[start - pad:start].any()  # zero bytes

    def test_earlier_format_is_refused_by_name(self, tmp_path):
        """A ``DOOCCSR1`` buffer (int64 indices, a header of 32 bytes, no
        width), built here without the code under test, is a
        ``CSRError`` that names the format and says to re-seed, from the
        buffer and from a file alike."""
        import struct

        b = random_csr(np.random.default_rng(9))
        old = struct.pack("<8sqqq", b"DOOCCSR1", b.nrows, b.ncols, b.nnz) \
            + b.indptr.astype("<i8").tobytes() \
            + b.indices.astype("<i8").tobytes() + b.values.tobytes()
        path = tmp_path / "old.bin"
        path.write_bytes(old)
        for read in (lambda: deserialize_csr(old),
                     lambda: deserialize_csr(np.frombuffer(old, np.uint8)),
                     lambda: peek_csr_header(path),
                     lambda: read_csr_file(path)):
            with pytest.raises(CSRError, match="DOOCCSR1.*re-seed"):
                read()

    def test_unknown_index_width_is_refused(self):
        raw = serialize_csr(random_csr(np.random.default_rng(10)))
        raw[32:40] = np.frombuffer((2).to_bytes(8, "little"), np.uint8)
        with pytest.raises(CSRError, match="index width 2"):
            deserialize_csr(raw)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        b = random_csr(rng)
        path = tmp_path / "A_0_0.bin"
        nbytes = write_csr_file(path, b)
        assert path.stat().st_size == nbytes
        b2 = read_csr_file(path)
        np.testing.assert_allclose(b2.to_dense(), b.to_dense())

    def test_peek_header(self, tmp_path):
        rng = np.random.default_rng(7)
        b = random_csr(rng)
        path = tmp_path / "A.bin"
        write_csr_file(path, b)
        assert peek_csr_header(path) == (b.nrows, b.ncols, b.nnz)

    def test_bad_magic_rejected(self):
        with pytest.raises(CSRError, match="magic"):
            deserialize_csr(b"NOTACSR0" + b"\x00" * 64)

    def test_truncated_rejected(self):
        rng = np.random.default_rng(8)
        b = random_csr(rng)
        raw = serialize_csr(b)
        with pytest.raises(CSRError):
            deserialize_csr(raw[: len(raw) // 2])
        with pytest.raises(CSRError):
            deserialize_csr(raw[:4])


class TestGapUniformGenerator:
    def test_rows_strictly_increasing_and_in_range(self):
        rng = np.random.default_rng(9)
        b = gap_uniform_csr(50, 200, d=5.0, rng=rng)
        for i in range(b.nrows):
            cols = b.indices[b.indptr[i]:b.indptr[i + 1]]
            assert np.all(np.diff(cols) >= 1)
            if cols.size:
                assert 0 <= cols[0] and cols[-1] < 200

    def test_density_close_to_target(self):
        rng = np.random.default_rng(10)
        ncols, target = 1000, 50.0
        d = choose_gap_parameter(ncols, target)
        b = gap_uniform_csr(200, ncols, d, rng)
        per_row = b.nnz / b.nrows
        assert per_row == pytest.approx(target, rel=0.15)
        assert expected_nnz(200, ncols, d) == pytest.approx(b.nnz, rel=0.15)

    def test_gap_distribution_is_uniform_ish(self):
        rng = np.random.default_rng(11)
        d = 4.0
        b = gap_uniform_csr(400, 2000, d, rng)
        gaps = []
        for i in range(b.nrows):
            cols = b.indices[b.indptr[i]:b.indptr[i + 1]]
            gaps.extend(np.diff(cols))
        gaps = np.array(gaps)
        assert gaps.min() >= 1 and gaps.max() <= 8
        # Uniform [1, 8]: mean 4.5.
        assert gaps.mean() == pytest.approx(4.5, rel=0.05)

    def test_reproducible(self):
        a = gap_uniform_csr(20, 50, 3.0, np.random.default_rng(42))
        b = gap_uniform_csr(20, 50, 3.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_values_modes(self):
        ones = gap_uniform_csr(5, 20, 2.0, np.random.default_rng(0), values="ones")
        assert np.all(ones.values == 1.0)
        with pytest.raises(ValueError):
            gap_uniform_csr(5, 20, 2.0, np.random.default_rng(0), values="junk")

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gap_uniform_csr(5, 0, 2.0, rng)
        with pytest.raises(ValueError):
            gap_uniform_csr(5, 10, 0.2, rng)
        with pytest.raises(ValueError):
            choose_gap_parameter(10, 0)
        with pytest.raises(ValueError):
            choose_gap_parameter(10, 20)

    @given(st.integers(1, 30), st.integers(1, 100),
           st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_property_valid_csr_for_any_params(self, nrows, ncols, d):
        b = gap_uniform_csr(nrows, ncols, d, np.random.default_rng(0))
        assert b.nrows == nrows and b.ncols == ncols  # validated in __post_init__

    @given(nrows=st.integers(0, 40), ncols=st.integers(1, 400),
           d=st.one_of(st.floats(0.5, 40.0), st.floats(0.5, 5e6)),
           seed=st.integers(0, 2**32 - 1),
           bit_generator=st.sampled_from(BIT_GENERATORS),
           half_word=st.booleans(),
           values=st.sampled_from(["uniform", "ones"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_by_row_oracle(self, nrows, ncols, d, seed,
                                           bit_generator, half_word, values):
        """Bit for bit, and the stream left where the oracle leaves it."""
        want_rng = np.random.Generator(bit_generator(seed))
        got_rng = np.random.Generator(bit_generator(seed))
        if half_word:  # start with half a 64-bit word kept in the state
            want_rng.integers(0, 3)
            got_rng.integers(0, 3)
        indptr, indices, vals = _reference_gap_uniform_csr(
            nrows, ncols, d, want_rng, values)
        got = gap_uniform_csr(nrows, ncols, d, got_rng, values=values)
        for want, have in ((indptr, got.indptr), (indices, got.indices),
                           (vals, got.values)):
            assert have.dtype == want.dtype
            np.testing.assert_array_equal(have, want)
        assert _same_state(got_rng.bit_generator.state,
                           want_rng.bit_generator.state)
        assert got_rng.integers(0, 2**40) == want_rng.integers(0, 2**40)

    @pytest.mark.parametrize("shape", [(6, 3000, 1.0), (4, 100000, 1.0),
                                       (30, 200, 0.5), (64, 64, 127.5)])
    def test_matches_the_oracle_across_row_chunks(self, monkeypatch, shape):
        """Rows whose gaps need several batches (some more than a chunk
        holds), full rows, and a stream read a few rows at a time."""
        import repro.spmv.generator as generator

        monkeypatch.setattr(generator, "_CHUNK_VALUES", 100)
        for seed in range(5):
            want_rng = np.random.default_rng(seed)
            got_rng = np.random.default_rng(seed)
            indptr, indices, vals = _reference_gap_uniform_csr(
                *shape, want_rng)
            got = gap_uniform_csr(*shape, got_rng)
            np.testing.assert_array_equal(got.indptr, indptr)
            np.testing.assert_array_equal(got.indices, indices)
            np.testing.assert_array_equal(got.values, vals)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_symmetric_matrix_is_symmetric(self):
        b = symmetric_test_matrix(64, 8.0, np.random.default_rng(12), diag_shift=20.0)
        dense = b.to_dense()
        np.testing.assert_allclose(dense, dense.T)
        # Diagonally-shifted: positive definite.
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > 0


class TestPartition:
    def test_split_bounds(self):
        np.testing.assert_array_equal(split_bounds(10, 2), [0, 5, 10])
        np.testing.assert_array_equal(split_bounds(10, 3), [0, 3, 6, 10])
        with pytest.raises(ValueError):
            split_bounds(2, 3)
        with pytest.raises(ValueError):
            split_bounds(10, 0)

    def test_bounds_are_computed_once(self, monkeypatch):
        import repro.spmv.partition as partition

        calls = []

        def counting(n, k):
            calls.append((n, k))
            return split_bounds(n, k)

        monkeypatch.setattr(partition, "split_bounds", counting)
        p = GridPartition(10, 3)
        x = np.arange(10.0)
        for _ in range(3):
            assert [p.part_length(u) for u in range(3)] == [3, 3, 4]
            assert p.part_range(2) == (6, 10)
            np.testing.assert_array_equal(p.join_vector(p.split_vector(x)), x)
        assert calls == [(10, 3)]
        np.testing.assert_array_equal(p.bounds, split_bounds(10, 3))
        assert not p.bounds.flags.writeable  # shared by every caller

    def test_split_and_join_vector(self):
        p = GridPartition(10, 3)
        x = np.arange(10.0)
        parts = p.split_vector(x)
        assert [len(parts[u]) for u in range(3)] == [3, 3, 4]
        np.testing.assert_array_equal(p.join_vector(parts), x)

    def test_split_matrix_blocks_recompose(self):
        rng = np.random.default_rng(13)
        n, k = 24, 3
        m = random_csr(rng, n, n, density=0.3)
        p = GridPartition(n, k)
        blocks = p.split_matrix(m)
        dense = np.zeros((n, n))
        b = p.bounds
        for (u, v), blk in blocks.items():
            dense[b[u]:b[u + 1], b[v]:b[v + 1]] = blk.to_dense()
        np.testing.assert_allclose(dense, m.to_dense())

    def test_blocked_spmv_matches_global(self):
        rng = np.random.default_rng(14)
        n, k = 30, 3
        m = random_csr(rng, n, n, density=0.2)
        p = GridPartition(n, k)
        blocks = p.split_matrix(m)
        x0 = rng.normal(size=n)
        ref = iterated_spmv_reference(m, x0, 3)
        blk = iterated_spmv_blocked_reference(blocks, p, x0, 3)
        np.testing.assert_allclose(blk, ref, rtol=1e-10)

    def test_generate_submatrices_shapes(self):
        p = GridPartition(100, 4)
        blocks = p.generate_submatrices(
            3.0, lambda u, v: np.random.default_rng(u * 10 + v))
        assert len(blocks) == 16
        for (u, v), b in blocks.items():
            assert b.shape == (p.part_length(u), p.part_length(v))

    def test_column_owner(self):
        owner = column_owner(6, 3)
        assert [owner(0, v) for v in range(6)] == [0, 0, 1, 1, 2, 2]
        with pytest.raises(ValueError):
            column_owner(5, 3)

    def test_block_owner(self):
        owner = block_owner(4, 4)  # 2x2 node grid, 2x2 blocks each
        assert owner(0, 0) == 0 and owner(0, 3) == 1
        assert owner(3, 0) == 2 and owner(3, 3) == 3
        with pytest.raises(ValueError):
            block_owner(4, 3)
        with pytest.raises(ValueError):
            block_owner(5, 4)


class TestLoadCountModels:
    def test_paper_numbers_3x3(self):
        # Fig. 5: per node with 3 sub-matrices, 2 iterations.
        assert loads_regular_plan(3, 2) == 6
        assert loads_back_and_forth_plan(3, 2) == 5  # 3 + 2

    def test_growth(self):
        assert loads_regular_plan(5, 4) == 20
        assert loads_back_and_forth_plan(5, 4) == 5 + 3 * 4
        assert loads_back_and_forth_plan(1, 100) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            loads_regular_plan(0, 1)
        with pytest.raises(ValueError):
            loads_back_and_forth_plan(1, 0)
