"""Factored conv operators against their dense oracles, and their memory.

The wavelet operator applies diag(r_s) Phi diag(g_s) Phi' and the
Chebyshev operator runs the sparse three-term recursion; neither may form
an n x n matrix.  Parity is checked on a 1,100-vertex bent bar, memory on
the 2,562-vertex icosphere with the default 16-scale network.
"""

import tracemalloc

import numpy as np
import pytest

from meshwave import descriptors, filters, model, wavelets
from meshwave.chebyshev import chebyshev_operators, spectral_max
from meshwave.errors import DataError
from meshwave.layers import DenseOperator
from meshwave.mesh import cotangent_laplacian, lumped_areas
from meshwave.spectral import SpectralBasis

import _shared

_RTOL = 1e-12


def _rel(got, expect) -> float:
    return float(np.abs(got - expect).max() / np.abs(expect).max())


def _assert_parity(op, oracle, rng, n, keys):
    x = rng.standard_normal((n, 5))
    ds = rng.standard_normal((n, 4))
    weights = [rng.standard_normal((5, 4)) for _ in keys]
    layer, ref = op.select(keys), oracle.select(keys)
    assert _rel(layer.forward(x, weights), ref.forward(x, weights)) <= _RTOL
    dx, dws = layer.backward(x, ds, weights)
    dx_ref, dws_ref = ref.backward(x, ds, weights)
    assert _rel(dx, dx_ref) <= _RTOL
    assert len(dws) == len(keys)
    for dw, dw_ref in zip(dws, dws_ref):
        assert _rel(dw, dw_ref) <= _RTOL


@pytest.fixture(scope="module")
def bar_1100():
    return _shared.bar(0.6, nu=50, nv=22)


@pytest.mark.parametrize("block_entries", [None, 5000])
def test_wavelet_operator_matches_dense_oracle(bar_1100, rng, monkeypatch,
                                               block_entries):
    if block_entries is not None:  # many row and centre blocks
        monkeypatch.setattr(wavelets, "_BLOCK_ENTRIES", block_entries)
    basis = _shared.bar_basis(0.6, 100, nu=50, nv=22)
    bank = _shared.bank_for(basis.lambda_max)
    net = model.build_model(input_dim=5)
    keys = net.scale_sets[0]  # the default 16-scale set
    assert len(keys) == 16
    op = model.build_wavelet_operators(basis, bank, sorted(set(keys)))
    oracle = DenseOperator(_shared.dense_wavelet_operators(basis, bank, set(keys)))
    _assert_parity(op, oracle, rng, bar_1100.n_vertices, keys)


def test_chebyshev_operator_matches_dense_oracle(bar_1100, rng):
    lap = cotangent_laplacian(bar_1100)
    areas = lumped_areas(bar_1100)
    lmax = spectral_max(lap, areas)
    order = 16
    op = chebyshev_operators(lap, areas, lmax, order)
    oracle = DenseOperator(_shared.dense_chebyshev(lap, areas, lmax, order))
    # every order, then a subset out of order with a repeat
    for keys in (list(range(order)), [7, 0, 15, 7]):
        _assert_parity(op, oracle, rng, bar_1100.n_vertices, keys)


def test_wavelet_operator_rejects_zero_column():
    basis = _shared.bar_basis(0.3, 15)
    vectors = basis.eigenvectors.copy()
    vectors[4] = 0.0  # every atom vanishes at vertex 4
    broken = SpectralBasis(basis.eigenvalues, vectors, basis.areas)
    with pytest.raises(DataError, match="column 4 .* identically zero"):
        model.build_wavelet_operators(broken, _shared.bank_for(basis.lambda_max), [8])


def _held_bytes(obj) -> int:
    """Bytes of the arrays an operator holds as attributes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def test_default_network_operators_stay_below_dense_size(rng):
    basis = _shared.sphere_basis(4, 100)
    n = basis.n_vertices
    assert n == 2562
    bank = _shared.bank_for(basis.lambda_max)
    net = model.build_model(input_dim=128, seed=0)
    keys = model.required_operator_keys(net)
    x = rng.standard_normal((n, 128))
    tracemalloc.start()
    try:
        ops = model.build_wavelet_operators(basis, bank, keys)
        out, _ = model.forward(net, x, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, net.output_dim)
    # one dense P_s alone would take n^2 * 8 bytes
    assert _held_bytes(ops) < n * n * 8
    assert peak < n * n * 8, f"peak {peak / 1e6:.1f} MB"


def test_one_response_table_per_weds_and_operator_build(monkeypatch):
    # the (k, n_filters) table is built once per call and handed down
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return filters.filter_responses(*args, **kwargs)

    for module in (descriptors, model, wavelets):
        monkeypatch.setattr(module, "filter_responses", counting)
    basis, mesh = _shared.bar_basis(0.3, 40), _shared.bar(0.3)
    bank = _shared.bank_for(basis.lambda_max)
    descriptors.weds(basis, bank, mesh.vertices)
    assert len(calls) == 1
    model.build_wavelet_operators(basis, bank, [3, 9, 17])
    assert len(calls) == 2
