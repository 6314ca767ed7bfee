import dataclasses

import numpy as np
import pytest

from meshwave.errors import DataError, NumericalError
from meshwave.filters import (
    FRAME_TOL,
    STOCK,
    FilterBank,
    bank_hash,
    build_filter_bank,
    filter_responses,
    frame_residual,
    g_of,
    select_scales,
    serialize_bank,
    wavelet_response,
)

import _shared

# stock constants on the uniform evaluation grid
_STOCK_RESIDUAL = 0.007909420970738545


def test_scale_ladder_endpoints():
    bank = build_filter_bank(10.0)
    assert len(bank.scales) == 31
    assert (np.diff(bank.scales) < 0).all()  # coarse to fine
    assert bank.scales[0] * 10.0 == pytest.approx(46.0, rel=1e-12)
    assert bank.scales[-1] * 10.0 == pytest.approx(0.2, rel=1e-12)
    # geometric ladder: constant ratio between neighbours
    ratios = bank.scales[1:] / bank.scales[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_wavelet_kernel_peak():
    # x^2 exp(1 - x^2) peaks at exactly the amplitude when t*lam = 1
    bank = build_filter_bank(7.3)
    for m in (1, 16, 31):
        peak = g_of(bank, m, 1.0 / bank.scales[m - 1])
        assert peak == pytest.approx(bank.amplitude, rel=1e-14)
        assert g_of(bank, m, 0.0) == 0.0


def test_scaling_filter_values():
    bank = build_filter_bank(10.0)
    assert g_of(bank, 0, 0.0) == pytest.approx(1.004, rel=1e-14)
    # decay constant scales with lambda_max, so the response is scale-free
    other = build_filter_bank(123.0)
    lam = np.linspace(0.0, 1.0, 7)
    assert np.allclose(
        g_of(bank, 0, lam * 10.0), g_of(other, 0, lam * 123.0), rtol=1e-12
    )


def test_stock_residual_frozen():
    bank = build_filter_bank(10.0)
    assert bank.residual == pytest.approx(_STOCK_RESIDUAL, abs=1e-12)
    dev, _ = frame_residual(bank)
    assert dev == bank.residual


def test_residual_scale_free():
    a = build_filter_bank(1.0)
    b = build_filter_bank(537.0)
    assert a.residual == pytest.approx(b.residual, rel=1e-10)


def test_frame_energy_near_one():
    bank = build_filter_bank(10.0)
    lam = np.linspace(0.0, 10.0, 2001)
    energy = (filter_responses(bank, lam) ** 2).sum(axis=0)
    assert np.abs(energy - 1.0).max() <= 0.01
    # at lambda = 0 only the scaling filter contributes
    assert energy[0] == pytest.approx(1.004 ** 2, rel=1e-12)


def test_responses_shape_and_rows():
    bank = build_filter_bank(5.0)
    lam = np.linspace(0.0, 5.0, 11)
    resp = filter_responses(bank, lam)
    assert resp.shape == (32, 11)
    assert np.array_equal(resp[0], g_of(bank, 0, lam))
    assert np.array_equal(resp[7], wavelet_response(bank, bank.scales[6], lam))


def test_g_of_index_bounds():
    bank = build_filter_bank(10.0)
    with pytest.raises(ValueError, match="out of range"):
        g_of(bank, 32, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        g_of(bank, -1, 1.0)


def test_bad_arguments():
    with pytest.raises(DataError):
        build_filter_bank(0.0)
    with pytest.raises(DataError):
        build_filter_bank(-2.0)


def test_loose_frame_rejected():
    # an eigenvalue far past lambda_max sits where every response has decayed
    with pytest.raises(NumericalError, match="not a tight enough frame"):
        build_filter_bank(10.0, eigenvalues=[1000.0])
    with pytest.raises(NumericalError, match="not a tight enough frame"):
        build_filter_bank(float("nan"))


def test_refit_recovers_broken_amplitude():
    # a mildly detuned amplitude misses the tolerance until the refit
    stock = build_filter_bank(10.0)
    detuned = dataclasses.replace(stock, amplitude=0.46)
    assert frame_residual(detuned)[0] > FRAME_TOL
    bank = _shared.refit_constants(detuned)
    assert bank.residual <= FRAME_TOL


def test_refit_constants_updates_residual():
    stock = build_filter_bank(10.0)
    detuned = _shared.refit_constants(
        FilterBank(
            lambda_max=stock.lambda_max,
            scales=stock.scales,
            amplitude=0.48,
            scaling_amplitude=stock.scaling_amplitude,
            scaling_decay=stock.scaling_decay,
            span_coarse=stock.span_coarse,
            span_fine=stock.span_fine,
        )
    )
    dev, _ = frame_residual(detuned)
    assert detuned.residual == pytest.approx(dev, abs=1e-15)
    assert detuned.residual <= 0.01


def test_select_scales_examples():
    assert list(select_scales(96)) == [24, 16, 8]
    assert list(select_scales(128)) == [25, 19, 13, 7]
    assert list(select_scales(512)) == [
        30, 28, 26, 24, 22, 21, 19, 17, 15, 13, 11, 10, 8, 6, 4, 2,
    ]


def test_select_scales_small_floor():
    # anything at or below 96 dimensions keeps the three-scale floor
    for n in (1, 32, 64, 96):
        assert list(select_scales(n)) == [24, 16, 8]


def test_select_scales_1024_keeps_duplicate():
    scales = list(select_scales(1024))
    assert len(scales) == 32
    assert scales.count(16) == 2
    assert scales == sorted(scales, reverse=True)


def test_serialize_parse_round_trip():
    # the text holds lambda_max and the stock constants, at full precision
    bank = build_filter_bank(17.25)
    values = dict(line.split(" = ") for line in serialize_bank(bank).splitlines())
    clone = build_filter_bank(float(values.pop("lambda_max")))
    assert {key: float(value) for key, value in values.items()} == STOCK
    assert clone.lambda_max == bank.lambda_max
    assert np.array_equal(clone.scales, bank.scales)
    assert clone.amplitude == bank.amplitude
    assert clone.scaling_amplitude == bank.scaling_amplitude
    assert clone.scaling_decay == bank.scaling_decay
    assert clone.residual == bank.residual
    assert bank_hash(clone) == bank_hash(bank)


def test_bank_hash_sensitivity():
    a = build_filter_bank(10.0)
    b = build_filter_bank(10.0 + 1e-9)
    assert bank_hash(a) != bank_hash(b)


def test_eigenvalue_aware_residual():
    bank = build_filter_bank(10.0)
    ev = np.array([0.0, 0.004, 9.99])
    dev, where = frame_residual(bank, ev)
    assert dev >= bank.residual  # grid is augmented, never replaced
    assert 0.0 <= where <= 10.0
