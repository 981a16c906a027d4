"""RBF kernel blocks computed in one buffer: `squared_distances` and
`rbf_kernel` with and without `out`, and the SVC, one-class SVM and GPC
scorers, each against the allocating expressions they replaced, bit for
bit, plus a bound on each scorer's transient allocation."""
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from gazescreen import kernels
from gazescreen.errors import DataError
from gazescreen.kernels import rbf_kernel, squared_distances
from gazescreen.models import FeatureMatrix, GpcModel, GpcParams, fit_gpc, fit_svc_rbf
from gazescreen.novelty import OcsvmParams, fit_ocsvm


def squared_distances_reference(A, B, b_sq=None):
    """Reference: the one-line expression, with a temporary per step."""
    if b_sq is None:
        b_sq = np.sum(B * B, axis=1)
    sq = np.sum(A * A, axis=1)[:, None] + b_sq[None, :] - 2.0 * (A @ B.T)
    return np.maximum(sq, 0.0)


def rbf_kernel_reference(A, B, gamma, b_sq=None):
    return np.exp(-gamma * squared_distances_reference(A, B, b_sq))


def expansion_reference(X, S, gamma, coef, chunk=4096):
    """Reference: the SVC and one-class SVM scorers' blocks, each kernel
    block a new array."""
    out = np.empty(len(X))
    for lo in range(0, len(X), chunk):
        hi = min(lo + chunk, len(X))
        out[lo:hi] = rbf_kernel_reference(X[lo:hi], S, gamma) @ coef
    return out


def gpc_latent_reference(model, X, chunk=2048):
    """Reference: `GpcModel.latent` with a new array for the kernel
    block, the scaled transpose, the solve and the squares."""
    ell = np.exp(model.theta[0])
    sf2 = np.exp(2.0 * model.theta[1])
    mean = np.empty(len(X))
    var = np.empty(len(X))
    for lo in range(0, len(X), chunk):
        hi = min(lo + chunk, len(X))
        sq = squared_distances_reference(X[lo:hi], model.X_train)
        ks = sf2 * np.exp(-0.5 * sq / (ell * ell))
        mean[lo:hi] = ks @ model._grad_ll
        v = solve_triangular(model._L, (model._sw[:, None] * ks.T), lower=True)
        var[lo:hi] = np.maximum(model._sf2 - np.sum(v * v, axis=0), 0.0)
    return mean, var


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def blobs(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (n, d))
    X[n // 2:] += 1.5
    return X, np.repeat([0, 1], [n // 2, n - n // 2])


class TestKernelBlocks:
    @pytest.mark.parametrize("n", [1, 7, 326, 9000])
    @pytest.mark.parametrize("d", [1, 3, 14])
    def test_block_edges_with_and_without_out(self, n, d):
        block = kernels._block_rows(n)
        rng = np.random.default_rng(10 * n + d)
        B = rng.normal(0.0, 1.0, (n, d))
        b_sq = np.sum(B * B, axis=1)
        for m in sorted({0, 1, max(block - 1, 1), block, block + 1}):
            A = rng.normal(0.0, 1.0, (m, d))
            if m >= 3:
                A[0, 0], A[1, -1], A[2, 0] = np.nan, np.inf, -np.inf
            big = np.full((m + 2, n), 7.0)
            with np.errstate(invalid="ignore"):
                expect_sq = squared_distances_reference(A, B)
                expect_k = rbf_kernel_reference(A, B, 0.37)
                assert same_bits(squared_distances(A, B), expect_sq)
                assert same_bits(squared_distances(A, B, b_sq), expect_sq)
                got = squared_distances(A, B, b_sq, out=big[1:m + 1])
                assert (m == 0 or np.shares_memory(got, big)) and same_bits(got, expect_sq)
                assert same_bits(rbf_kernel(A, B, 0.37), expect_k)
                got = rbf_kernel(A, B, 0.37, out=big[1:m + 1])
                assert (m == 0 or np.shares_memory(got, big)) and same_bits(got, expect_k)
            # the rows around the slice are untouched
            assert (big[0] == 7.0).all() and (big[m + 1] == 7.0).all()

    # n covers every n % 8, which picks the BLAS kernels' edge blocks
    @pytest.mark.parametrize("n", list(range(24, 32)) + [200, 1000])
    def test_syrk_path(self, n):
        A = np.random.default_rng(n).normal(0.0, 1.0, (n, 4))
        expect = squared_distances_reference(A, A)
        assert same_bits(squared_distances(A, A), expect)
        assert same_bits(squared_distances(A, A, out=np.empty((n, n))), expect)
        assert same_bits(rbf_kernel(A, A, 0.2, out=np.empty((n, n))),
                         rbf_kernel_reference(A, A, 0.2))


@pytest.fixture(scope="module")
def svc():
    X, y = blobs(600, 14, seed=1)
    return fit_svc_rbf(FeatureMatrix(X, y))


@pytest.fixture(scope="module")
def ocsvm():
    return fit_ocsvm(np.random.default_rng(2).normal(0.0, 1.0, (600, 2)),
                     OcsvmParams(nu=0.2))


@pytest.fixture(scope="module")
def gpc():
    X, y = blobs(150, 14, seed=3)
    return fit_gpc(FeatureMatrix(X, y), GpcParams(optimizer_max_iter=3))


def probe(n, d, seed=4):
    return np.random.default_rng(seed).normal(0.5, 1.5, (n, d))


class TestScorers:
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    def test_svc_equals_reference(self, svc, n):
        X = probe(n, 14)
        expect = expansion_reference(X, svc.support_X, svc.gamma, svc.dual_coef)
        assert same_bits(svc.decision_score(X), expect + svc.intercept)

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    def test_ocsvm_equals_reference(self, ocsvm, n):
        X = probe(n, 2)
        expect = expansion_reference(X, ocsvm.support_X, ocsvm.gamma, ocsvm.alphas)
        assert same_bits(ocsvm.decision_score(X), expect - ocsvm.rho)

    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049])
    def test_gpc_equals_reference(self, gpc, n):
        X = probe(n, 14)
        mean, var = gpc.latent(X)
        expect_mean, expect_var = gpc_latent_reference(gpc, X)
        assert same_bits(mean, expect_mean) and same_bits(var, expect_var)
        expect = expect_mean / np.sqrt(1.0 + np.pi * expect_var / 8.0)
        assert same_bits(gpc.decision_score(X), expect)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [3, 2049])
    def test_gpc_rejects_non_finite_rows(self, gpc, bad, n):
        X = probe(n, 14)
        X[n - 1, 5] = bad
        with pytest.raises(DataError, match="GPC: inputs must not contain infs or NaNs"):
            gpc.decision_score(X)

    def test_gpc_rejects_non_finite_factor(self, gpc):
        L = gpc._L.copy()
        L[3, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            GpcModel(gpc.n_features, gpc.X_train, gpc.y_train, gpc.f_hat, gpc.theta, L=L)

    def test_no_rows(self, svc, ocsvm, gpc):
        assert svc.decision_score(np.empty((0, 14))).shape == (0,)
        assert ocsvm.decision_score(np.empty((0, 2))).shape == (0,)
        assert gpc.decision_score(np.empty((0, 14))).shape == (0,)

    @pytest.mark.parametrize("kind, block_rows", [("svc", 4096), ("ocsvm", 4096),
                                                  ("gpc", 2048)])
    def test_transient_peak_is_one_block(self, request, kind, block_rows):
        model = request.getfixturevalue(kind)
        rows = block_rows + 1
        X = probe(rows, model.n_features)
        model.decision_score(X[:5])  # lazy set-up outside the measurement
        ref = model.X_train if kind == "gpc" else model.support_X
        block = block_rows * len(ref) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.decision_score(X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one block buffer; the rest is temporaries the size of the input
        # (its squared entries, its finiteness mask) or of the scores, and the
        # elementwise scratch
        slack = 8 * rows * (model.n_features + 4) + (128 << 10)
        assert peak <= block + slack, (peak, block)

