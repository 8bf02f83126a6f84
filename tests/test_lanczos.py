"""Tests for the in-core and out-of-core Lanczos eigensolvers."""

import numpy as np
import pytest

from repro.lanczos import lanczos
from repro.lanczos.basis import DiskBasis
from repro.spmv.generator import symmetric_test_matrix
from repro.spmv.ooc_operator import OutOfCoreMatrix
from repro.spmv.partition import GridPartition


def dense_sym(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


class TestInCore:
    def test_converges_to_extreme_eigenvalues(self):
        m = dense_sym(80, seed=1)
        exact = np.linalg.eigvalsh(m)
        result = lanczos(lambda v: m @ v, 80, k=80, n_eigenvalues=3,
                         rng=np.random.default_rng(2))
        np.testing.assert_allclose(result.eigenvalues, exact[:3], rtol=1e-8)

    def test_early_exit_on_convergence(self):
        # A matrix with well-separated lowest eigenvalue converges fast.
        d = np.concatenate([[-100.0], np.linspace(0, 1, 63)])
        m = np.diag(d)
        result = lanczos(lambda v: m @ v, 64, k=64, n_eigenvalues=1,
                         tol=1e-10, rng=np.random.default_rng(0))
        assert result.iterations < 64
        assert result.eigenvalues[0] == pytest.approx(-100.0)

    def test_sparse_operator(self):
        b = symmetric_test_matrix(120, 10.0, np.random.default_rng(3),
                                  diag_shift=25.0)
        exact = np.linalg.eigvalsh(b.to_dense())
        result = lanczos(b.matvec, 120, k=120, n_eigenvalues=4,
                         rng=np.random.default_rng(4))
        np.testing.assert_allclose(result.eigenvalues, exact[:4], rtol=1e-7)

    def test_ritz_vectors_are_eigenvectors(self):
        m = dense_sym(50, seed=5)
        result = lanczos(lambda v: m @ v, 50, k=50, n_eigenvalues=2,
                         rng=np.random.default_rng(6), want_vectors=True)
        for i in range(2):
            v = result.eigenvectors[:, i]
            lam = result.eigenvalues[i]
            assert np.linalg.norm(m @ v - lam * v) < 1e-6 * max(abs(lam), 1)

    def test_tridiagonal_property(self):
        m = dense_sym(30, seed=7)
        result = lanczos(lambda v: m @ v, 30, k=10, n_eigenvalues=1,
                         rng=np.random.default_rng(8), tol=0.0)
        t = result.tridiagonal
        assert t.shape == (result.iterations, result.iterations)
        # Tridiagonal: zero beyond the first off-diagonals.
        mask = np.triu(np.ones_like(t, dtype=bool), 2)
        assert np.all(t[mask] == 0)

    def test_invariant_subspace_breakdown(self):
        # Start exactly in an eigenvector: Lanczos stops after 1 step.
        m = np.diag(np.arange(1.0, 11.0))
        v0 = np.zeros(10)
        v0[0] = 1.0
        result = lanczos(lambda v: m @ v, 10, k=10, n_eigenvalues=1, v0=v0)
        assert result.iterations == 1
        assert result.eigenvalues[0] == pytest.approx(1.0)

    def test_validation(self):
        m = np.eye(4)
        with pytest.raises(ValueError):
            lanczos(lambda v: m @ v, 4, k=0)
        with pytest.raises(ValueError):
            lanczos(lambda v: m @ v, 4, k=4, n_eigenvalues=5)
        with pytest.raises(ValueError):
            lanczos(lambda v: m @ v, 4, k=4, v0=np.zeros(4))
        with pytest.raises(ValueError):
            lanczos(lambda v: m @ v, 4, k=4, v0=np.zeros(5))

    def test_reproducible_with_seeded_rng(self):
        m = dense_sym(40, seed=9)
        r1 = lanczos(lambda v: m @ v, 40, k=20, rng=np.random.default_rng(1))
        r2 = lanczos(lambda v: m @ v, 40, k=20, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)


class TestOutOfCore:
    """Out of core, Lanczos is two calls: an ``OutOfCoreMatrix`` and
    ``lanczos(op.matvec, op.n, ...)``."""

    @pytest.fixture
    def problem(self):
        n, k = 90, 3
        b = symmetric_test_matrix(n, 8.0, np.random.default_rng(10),
                                  diag_shift=30.0)
        p = GridPartition(n, k)
        return b, p.split_matrix(b), p

    def test_matvec_matches_incore(self, problem, tmp_path):
        matrix, blocks, p = problem
        ooc = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path)
        x = np.random.default_rng(11).standard_normal(p.n)
        np.testing.assert_allclose(ooc.matvec(x), matrix.matvec(x), rtol=1e-10)
        assert ooc.matvec_count == 1

    def test_eigenvalues_match_incore_lanczos(self, problem, tmp_path):
        matrix, blocks, p = problem
        ooc = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path)
        result = lanczos(ooc.matvec, ooc.n, k=40, n_eigenvalues=2,
                         rng=np.random.default_rng(12), tol=1e-8)
        exact = np.linalg.eigvalsh(matrix.to_dense())
        np.testing.assert_allclose(result.eigenvalues, exact[:2], rtol=1e-6)
        assert ooc.matvec_count == result.iterations

    def test_multi_node_ooc_lanczos(self, problem, tmp_path):
        matrix, blocks, p = problem
        ooc = OutOfCoreMatrix(blocks, n_nodes=3, scratch_dir=tmp_path,
                              policy="interleaved")
        x = np.random.default_rng(13).standard_normal(p.n)
        np.testing.assert_allclose(ooc.matvec(x), matrix.matvec(x), rtol=1e-10)
        result = lanczos(ooc.matvec, ooc.n, k=40, n_eigenvalues=2,
                         rng=np.random.default_rng(12), tol=1e-8)
        exact = np.linalg.eigvalsh(matrix.to_dense())
        np.testing.assert_allclose(result.eigenvalues, exact[:2], rtol=1e-6)

    def test_simple_policy_matvec(self, problem, tmp_path):
        matrix, blocks, p = problem
        ooc = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path,
                              policy="simple")
        x = np.ones(p.n)
        np.testing.assert_allclose(ooc.matvec(x), matrix.matvec(x), rtol=1e-10)

    def test_validation(self, problem, tmp_path):
        # (a bad policy or grid is refused before an engine exists:
        # tests/test_spmv_tree.py::TestGridValidation)
        matrix, blocks, p = problem
        ooc = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path)
        with pytest.raises(ValueError):
            ooc.matvec(np.zeros(7))
        with pytest.raises(ValueError):
            lanczos(ooc.matvec, ooc.n, k=4, v0=np.zeros(7))


class TestBasisStores:
    def test_disk_basis_round_trip(self, tmp_path):
        store = DiskBasis(32, scratch_dir=tmp_path)
        vecs = [np.random.default_rng(i).standard_normal(32) for i in range(4)]
        for v in vecs:
            store.append(v)
        assert len(store) == 4
        np.testing.assert_allclose(store.last(1), vecs[-1])
        np.testing.assert_allclose(store.last(4), vecs[0])
        combo = store.combine(np.array([1.0, 0.0, -2.0, 0.5]))
        np.testing.assert_allclose(combo, vecs[0] - 2 * vecs[2] + 0.5 * vecs[3])

    def test_disk_basis_orthogonalize_matches_inmemory(self, tmp_path):
        from repro.lanczos.basis import InMemoryBasis

        rng = np.random.default_rng(14)
        # An orthonormal set via QR.
        q, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        disk = DiskBasis(40, scratch_dir=tmp_path)
        mem = InMemoryBasis(40, 6)
        for i in range(5):
            disk.append(q[:, i])
            mem.append(q[:, i])
        w = rng.standard_normal(40)
        np.testing.assert_allclose(disk.orthogonalize(w.copy()),
                                   mem.orthogonalize(w.copy()), atol=1e-12)
        # The result is orthogonal to the whole set.
        out = disk.orthogonalize(w.copy())
        assert np.max(np.abs(q.T @ out)) < 1e-10

    def test_disk_basis_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DiskBasis(0, scratch_dir=tmp_path)
        store = DiskBasis(8, scratch_dir=tmp_path)
        with pytest.raises(ValueError):
            store.append(np.zeros(9))
        with pytest.raises(IndexError):
            store.last(1)
        store.append(np.ones(8))
        with pytest.raises(ValueError):
            store.combine(np.zeros(3))

    def test_disk_basis_cache_bounds_reads(self, tmp_path):
        store = DiskBasis(16, scratch_dir=tmp_path, cache_last=2)
        for i in range(5):
            store.append(np.full(16, float(i)))
        # The two most recent vectors are cached: no reads for them.
        store.last(1)
        store.last(2)
        assert store.reads == 0
        store.last(5)
        assert store.reads == 1

    def test_lanczos_with_disk_basis_matches_inmemory(self, tmp_path):
        m = dense_sym(60, seed=15)
        in_mem = lanczos(lambda v: m @ v, 60, k=40, n_eigenvalues=3,
                         rng=np.random.default_rng(16), want_vectors=True)
        on_disk = lanczos(lambda v: m @ v, 60, k=40, n_eigenvalues=3,
                          rng=np.random.default_rng(16), want_vectors=True,
                          basis=DiskBasis(60, scratch_dir=tmp_path))
        np.testing.assert_allclose(on_disk.eigenvalues, in_mem.eigenvalues,
                                   rtol=1e-9)
        # Ritz vectors match up to sign.
        for i in range(3):
            a, b = in_mem.eigenvectors[:, i], on_disk.eigenvectors[:, i]
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-7

    def test_fully_out_of_core_lanczos(self, tmp_path):
        """Matrix AND basis on disk: the complete Section-II scenario."""
        n, k = 90, 3
        matrix = symmetric_test_matrix(n, 8.0, np.random.default_rng(17),
                                       diag_shift=30.0)
        blocks = GridPartition(n, k).split_matrix(matrix)
        op = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path)
        result = lanczos(
            op.matvec, op.n, k=40, n_eigenvalues=2,
            rng=np.random.default_rng(18), tol=1e-8,
            basis=DiskBasis(n, scratch_dir=tmp_path / "lanczos-basis"))
        exact = np.linalg.eigvalsh(matrix.to_dense())
        np.testing.assert_allclose(result.eigenvalues, exact[:2], rtol=1e-6)
        basis_files = list((tmp_path / "lanczos-basis").glob("*.arr"))
        # k iterations keep k (early exit) or k+1 (last residual vector
        # already appended) basis files on disk.
        assert len(basis_files) in (result.iterations, result.iterations + 1)
