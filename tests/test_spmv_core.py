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

    def test_matvec_builds_the_scipy_form_once(self, monkeypatch):
        b = random_csr(np.random.default_rng(5))
        built = []
        to_scipy = CSRBlock.to_scipy
        monkeypatch.setattr(
            CSRBlock, "to_scipy",
            lambda self: built.append(self) or to_scipy(self))
        x = np.ones(b.ncols)
        for _ in range(3):
            b.matvec(x)
        assert built == [b]

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

    def test_empty(self):
        b = CSRBlock.empty(3, 4)
        assert b.nnz == 0
        np.testing.assert_array_equal(b.matvec(np.ones(4)), np.zeros(3))


class TestCSRFile:
    def test_serialize_round_trip(self):
        rng = np.random.default_rng(4)
        b = random_csr(rng)
        raw = serialize_csr(b)
        assert len(raw) == csr_nbytes(b.nrows, b.nnz)
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

    def test_decode_casts_once_and_shares_the_values(self, monkeypatch):
        """The engine's decode (``_decode_a``): ``data`` is the raw
        block's own memory, the index arrays are the int32 ones cast into
        allocator memory — SciPy kept them, it did not copy them again —
        and the product is the one the file's int64 arrays give."""
        import repro.spmv.csr as csr
        from repro.spmv.program import _decode_a

        b = random_csr(np.random.default_rng(7), nrows=40, ncols=25)
        raw = np.frombuffer(serialize_csr(b), dtype=np.uint8)
        handed_out, allocate = [], csr.block_buffer

        def recording(count, dtype):
            handed_out.append(allocate(count, dtype))
            return handed_out[-1]

        monkeypatch.setattr(csr, "block_buffer", recording)
        a = _decode_a(raw)
        assert np.shares_memory(a.data, raw)
        assert a.indptr.dtype == a.indices.dtype == np.int32
        indptr, indices = handed_out
        assert np.shares_memory(a.indptr, indptr)
        assert np.shares_memory(a.indices, indices)
        x = np.random.default_rng(8).normal(size=b.ncols)
        reference = sp.csr_matrix((b.values, b.indices, b.indptr),
                                  shape=b.shape)
        assert (a @ x).tobytes() == (reference @ x).tobytes()

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
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.values, b.values)

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
