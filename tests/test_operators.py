"""Factored conv operators against their dense oracles, and their memory.

The wavelet operator applies diag(r_s) Phi diag(g_s) Phi' and the
Chebyshev operator runs the sparse three-term recursion; neither may form
an n x n matrix.  Parity is checked on a 1,100-vertex bent bar, memory on
the 2,562-vertex icosphere with the default 16-scale network.
"""

import tracemalloc

import numpy as np
import pytest

from meshwave import descriptors, filters, layers, model, training, wavelets
from meshwave.chebyshev import chebyshev_operators, spectral_max
from meshwave.errors import DataError
from meshwave.mesh import cotangent_laplacian, lumped_areas
from meshwave.spectral import SpectralBasis

import _shared

_RTOL = 1e-12


def _rel(got, expect) -> float:
    return float(np.abs(got - expect).max() / np.abs(expect).max())


def _assert_parity(op, oracle, rng, n, keys, n_out=4):
    """Forward and backward of op.select(keys) against the oracle's; returns
    the arrays the operator returned."""
    x = rng.standard_normal((n, 5))
    ds = rng.standard_normal((n, n_out))
    weights = [rng.standard_normal((5, n_out)) for _ in keys]
    layer, ref = op.select(keys), oracle.select(keys)
    (s, kept), (s_ref, kept_ref) = layer.forward(x, weights), ref.forward(x, weights)
    assert _rel(s, s_ref) <= _RTOL
    dx, dws = layer.backward(kept, ds, weights)
    dx_ref, dws_ref = ref.backward(kept_ref, ds, weights)
    assert _rel(dx, dx_ref) <= _RTOL
    assert len(dws) == len(keys)
    for dw, dw_ref in zip(dws, dws_ref):
        assert _rel(dw, dw_ref) <= _RTOL
    # without the input gradient, the same weight gradients and no dX
    dx_none, dws_only = layer.backward(kept, ds, weights, input_grad=False)
    assert dx_none is None
    assert all(np.array_equal(a, b) for a, b in zip(dws_only, dws))
    return [s, kept, dx, *dws]


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
    oracle = _shared.DenseOperator(_shared.dense_wavelet_operators(basis, bank, set(keys)))
    _assert_parity(op, oracle, rng, bar_1100.n_vertices, keys)


def test_chebyshev_operator_matches_dense_oracle(bar_1100, rng):
    lap = cotangent_laplacian(bar_1100)
    areas = lumped_areas(bar_1100)
    order = 16
    op = chebyshev_operators(lap, areas, range(order))
    oracle = _shared.DenseOperator(
        _shared.dense_chebyshev(lap, areas, spectral_max(lap, areas), order))
    # every order, then a subset out of order with a repeat
    for keys in (list(range(order)), [7, 0, 15, 7]):
        _assert_parity(op, oracle, rng, bar_1100.n_vertices, keys)


def test_wavelet_results_do_not_alias_the_workspace(bar_1100, rng, monkeypatch):
    # several row blocks per pass, all in one workspace sized up front, so
    # the second pair writes over what the first pair's blocks used
    monkeypatch.setattr(wavelets, "_BLOCK_ENTRIES", 20_000)
    wavelets._workspace((wavelets._BLOCK_ENTRIES,))
    basis = _shared.bar_basis(0.6, 100, nu=50, nv=22)
    bank = _shared.bank_for(basis.lambda_max)
    keys = model.build_model(input_dim=5).scale_sets[0]
    op = model.build_wavelet_operators(basis, bank, sorted(set(keys)))
    oracle = _shared.DenseOperator(_shared.dense_wavelet_operators(basis, bank, set(keys)))
    first = _assert_parity(op, oracle, rng, bar_1100.n_vertices, keys, n_out=7)
    copies = [a.copy() for a in first]
    second = _assert_parity(op, oracle, rng, bar_1100.n_vertices, keys, n_out=4)
    assert all(np.array_equal(got, copy) for got, copy in zip(first, copies))
    assert not any(np.shares_memory(a, wavelets._scratch.buf) for a in first + second)


def test_warm_wavelet_conv_layer_peaks_below_one_row_block(bar_1100, rng):
    # a pass once formed a fresh (n, S*d) block; now only k-row blocks
    # and (n, d) arrays are new, and the rows go through the workspace
    basis = _shared.bar_basis(0.6, 100, nu=50, nv=22)
    keys = model.build_model(input_dim=8).scale_sets[0]
    op = model.build_wavelet_operators(
        basis, _shared.bank_for(basis.lambda_max), sorted(set(keys))).select(keys)
    n, d = bar_1100.n_vertices, 32
    x = rng.standard_normal((n, 8))
    weights = [rng.standard_normal((8, d)) for _ in keys]
    dz = rng.standard_normal((n, d))

    def step():
        _, cache = layers.conv_forward(x, weights, op)
        return layers.conv_backward(cache, dz, weights)

    step()  # sizes the workspace
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * len(keys) * d * 8, f"peak {peak / 1e6:.2f} MB"


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
    assert out.shape == (n, net.specs[-1].out_dim)
    # one dense P_s alone would take n^2 * 8 bytes
    assert _held_bytes(ops) < n * n * 8
    assert peak < n * n * 8, f"peak {peak / 1e6:.1f} MB"


def test_one_response_table_per_weds_or_operator_build_and_per_atom_sweep(monkeypatch,
                                                                          tmp_path):
    # weds and the operator build each make the (k, n_filters) table they
    # apply; the atom statistics make their own, from the bank that keys
    # their sidecar, only when they sweep
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return filters.filter_responses(*args, **kwargs)

    for module in (descriptors, model, wavelets):
        monkeypatch.setattr(module, "filter_responses", counting)
    basis, mesh = _shared.bar_basis(0.3, 40), _shared.bar(0.3)
    bank = _shared.bank_for(basis.lambda_max)
    sidecar = tmp_path / "b.atoms.npz"
    for build in (lambda: descriptors.weds(basis, bank, mesh.vertices, atom_cache=sidecar),
                  lambda: model.build_wavelet_operators(basis, bank, [3, 9, 17], sidecar)):
        for expected in (2, 1):  # a sweep, then a sidecar hit
            calls.clear()
            build()
            assert len(calls) == expected


def _learn_bar():
    """A 420-vertex bar on the grid of the benchmark's learn workload, k = 100."""
    return _shared.bar_basis(0.5, 100, nu=30, nv=14), _shared.bar(0.5, nu=30, nv=14)


def test_learn_sized_conv_pass_forms_no_subnormal(monkeypatch, rng):
    # scales 2 and 4 of the default set have responses below 2^-900 here;
    # a product of one with a coefficient of order 1 would be subnormal
    basis, _ = _learn_bar()
    net = model.build_model(input_dim=128, seed=0)
    ops = model.build_wavelet_operators(basis, _shared.bank_for(basis.lambda_max),
                                        model.required_operator_keys(net))
    weighed, weigh = [], wavelets._weigh

    def recording(responses, coeffs, out=None):
        weighed.append(weigh(responses, coeffs, out=out).copy())
        return weighed[-1]

    monkeypatch.setattr(wavelets, "_weigh", recording)
    model.forward(net, rng.standard_normal((basis.n_vertices, 128)), ops)
    assert len(weighed) == len(net.scale_sets)  # one weighed block per conv layer
    tiny = np.finfo(np.float64).tiny
    subnormal = [int(np.count_nonzero((b != 0) & (np.abs(b) < tiny))) for b in weighed]
    assert subnormal == [0] * len(weighed)


def _floor_outputs(meshes):
    """Every product of the response tables that the floor could move, on
    each (basis, mesh): the atom statistics of the filters with sub-floor
    responses, WEDS and the operator normalizers; then the forward and
    backward passes of the default network in one phase-1 step on the
    first mesh and one phase-2 step on the pair, and its parameters after
    them."""
    outputs, shapes, n_max = [], [], max(basis.n_vertices for basis, _ in meshes)
    net = model.build_model(input_dim=128, head_dim=n_max, seed=0)
    for basis, mesh in meshes:
        bank = _shared.bank_for(basis.lambda_max)
        for stat in ("l1", "range"):
            outputs += wavelets.filter_atom_stats(basis, bank, range(5), stat)
        field = descriptors.weds(basis, bank, mesh.vertices).values
        ops = model.build_wavelet_operators(basis, bank, model.required_operator_keys(net))
        outputs += [field, ops.normalizers]
        shapes.append(training.ShapeData(field, np.arange(basis.n_vertices), ops))
    config, state = training.TrainConfig(pairs_per_step=64), training.adam_init(net.params)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("forward", "backward"):
            def recording(*args, name=name, run=getattr(model, name), **kwargs):
                result = run(*args, **kwargs)
                arrays = [result[0]] if name == "forward" else result.values()
                outputs.extend(a.copy() for a in arrays)
                return result
            patch.setattr(model, name, recording)
        training._phase1_epoch(net, shapes[:1], state, config)
        training._phase2_step(net, *shapes, state, config, np.random.default_rng(0))
    return outputs + list(net.params.values())


def test_the_response_floor_keeps_every_byte(monkeypatch):
    # the 420-vertex bar (sub-floor responses on filters 1-4) and icosphere(4)
    # (filters 0, 3 and 4); the operators' own response tables differ, below
    # the floor only, and nothing they feed does
    meshes = [_learn_bar(), (_shared.sphere_basis(4, 100), _shared.sphere(4))]
    floored = _floor_outputs(meshes)
    monkeypatch.setattr(filters, "_RESPONSE_FLOOR", 0.0)  # the responses as computed
    reference = _floor_outputs(meshes)
    assert len(floored) == len(reference) > 200
    assert all(np.array_equal(a, b) for a, b in zip(floored, reference))
