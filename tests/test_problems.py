"""Tests for the heat benchmark: kernel, matrix, noise model, and file round-trips."""

import math

import numpy as np
import pytest

from dsmsolve.problems import (
    add_noise,
    exact_solution,
    heat_instance,
    heat_kernel,
    heat_matrix,
    load_matrix,
    load_vector,
    save_matrix,
    save_vector,
)

# Kernel values frozen from a 40-digit independent evaluation of
# t^(-3/2) / (2 sqrt(pi)) * exp(-1 / (4 t)) at kappa = 1.
KERNEL_VALUES = {
    0.25: 0.83021499484118941,
    0.5: 0.48394144903828670,
    0.75: 0.31119910951417304,
    1.0: 0.21969564473386120,
}
ROW_SUM_BOUND = 0.92508197882261566  # kernel max over t > 0, attained at t = 1/6


def test_kernel_frozen_values():
    for t, expected in KERNEL_VALUES.items():
        assert heat_kernel(t) == pytest.approx(expected, rel=1e-12)


def test_kernel_boundary_and_underflow():
    assert heat_kernel(0.0) == 0.0
    assert heat_kernel(1e-6) == 0.0  # exp argument far below double underflow
    assert heat_kernel(1e308) >= 0.0


def test_kernel_scaling_in_kappa():
    # kappa enters as 1/(2 kappa) prefactor and 1/(4 kappa^2 t) exponent
    t = 0.5
    kappa = 2.0
    expected = t ** (-1.5) / (2.0 * kappa * np.sqrt(np.pi)) * np.exp(
        -1.0 / (4.0 * kappa**2 * t)
    )
    assert heat_kernel(t, kappa=kappa) == pytest.approx(expected, rel=1e-14)


def test_kernel_input_validation():
    with pytest.raises(ValueError, match="kappa"):
        heat_kernel(1.0, kappa=0.0)
    with pytest.raises(ValueError, match=">= 0"):
        heat_kernel(-0.5)
    # heat_kernel(NaN) was NaN and kappa = inf gave 0; each is refused.
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^kernel is defined for finite t >= 0, got "):
            heat_kernel(t)
    for kappa in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^kappa must be positive and finite, got "):
            heat_kernel(0.5, kappa=kappa)


def test_heat_matrix_smallest_sizes():
    one = heat_matrix(1)
    assert one.shape == (1, 1)
    assert one[0, 0] == pytest.approx(KERNEL_VALUES[0.5], rel=1e-12)

    two = heat_matrix(2)
    assert two.shape == (2, 2)
    assert two[0, 1] == 0.0
    assert two[0, 0] == pytest.approx(KERNEL_VALUES[0.25] / 2.0, rel=1e-12)
    assert two[1, 0] == pytest.approx(KERNEL_VALUES[0.75] / 2.0, rel=1e-12)
    assert two[1, 1] == two[0, 0]


def test_heat_matrix_is_lower_triangular_toeplitz():
    A = heat_matrix(12)
    assert np.array_equal(np.triu(A, 1), np.zeros_like(A))
    for offset in range(12):
        band = np.diagonal(A, -offset)
        assert np.all(band == band[0])
    assert np.all(A >= 0.0)


def test_heat_matrix_first_column_values():
    n = 9
    A = heat_matrix(n)
    for i in range(n):
        t = (i + 0.5) / n
        assert A[i, 0] == pytest.approx(heat_kernel(t) / n, rel=1e-14)


def test_heat_matrix_row_sums_bounded():
    # each row holds at most n kernel samples scaled by 1/n, so the kernel
    # maximum bounds every row sum
    for n in (5, 20, 60):
        sums = heat_matrix(n).sum(axis=1)
        assert np.all(sums <= ROW_SUM_BOUND * (1.0 + 1e-12))


def test_heat_matrix_rejects_empty():
    with pytest.raises(ValueError, match="n >= 1"):
        heat_matrix(0)


def test_exact_solution_values_and_symmetry():
    assert np.array_equal(exact_solution(1), np.array([1.0]))
    assert np.allclose(exact_solution(2), [0.75, 0.75], rtol=1e-15)
    for n in (7, 16):
        u = exact_solution(n)
        t = (np.arange(n) + 0.5) / n
        assert np.allclose(u, 4.0 * t * (1.0 - t), rtol=1e-15)
        assert np.allclose(u, u[::-1], atol=1e-15)
        assert np.max(u) <= 1.0


def test_add_noise_scales_exactly():
    rng = np.random.default_rng(11)
    for seed in range(100):
        b = rng.standard_normal(8)
        b_noisy, delta = add_noise(b, 0.05, seed)
        assert delta == 0.05 * float(np.linalg.norm(b))
        noise_norm = float(np.linalg.norm(b_noisy - b))
        assert noise_norm == pytest.approx(delta, rel=1e-12)


def test_add_noise_determinism_and_edge_cases():
    b = np.array([1.0, 2.0, 3.0])
    first, _ = add_noise(b, 0.1, 7)
    second, _ = add_noise(b, 0.1, 7)
    assert np.array_equal(first, second)
    other, _ = add_noise(b, 0.1, 8)
    assert not np.array_equal(first, other)

    clean, delta = add_noise(b, 0.0, 3)
    assert delta == 0.0
    assert np.array_equal(clean, b)
    assert clean is not b

    with pytest.raises(ValueError, match="nonnegative"):
        add_noise(b, -0.1, 0)
    # A NaN or infinite delta_rel made NaN or infinite data.
    for delta_rel in (math.nan, math.inf):
        message = "^delta_rel must be finite and nonnegative, got (nan|inf)$"
        with pytest.raises(ValueError, match=message):
            add_noise(b, delta_rel, 0)
        with pytest.raises(ValueError, match=message):
            heat_instance(10, delta_rel, 0)


def test_heat_instance_consistency():
    for seed in range(100):
        inst = heat_instance(15, 0.05, seed)
        assert inst.n == 15
        assert inst.seed == seed
        assert inst.delta_rel == 0.05
        recomputed = inst.A @ inst.u_exact
        assert np.linalg.norm(recomputed - inst.b_exact) <= 1e-14 * np.linalg.norm(
            inst.b_exact
        )
        assert inst.delta == pytest.approx(
            0.05 * float(np.linalg.norm(inst.b_exact)), rel=1e-15
        )
        noise = float(np.linalg.norm(inst.b_noisy - inst.b_exact))
        assert noise == pytest.approx(inst.delta, rel=1e-12)
    assert np.array_equal(np.triu(inst.A, 1), np.zeros_like(inst.A))


def test_matrix_roundtrip_is_bitexact(tmp_path):
    path = tmp_path / "mat.csv"
    A = heat_matrix(10)
    save_matrix(path, A)
    assert np.array_equal(load_matrix(path), A)

    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-200, 200, size=(4, 6))
    save_matrix(path, B)
    assert np.array_equal(load_matrix(path), B)


def test_vector_roundtrip_is_bitexact(tmp_path):
    path = tmp_path / "vec.csv"
    v = np.array([1.0, -2.5e-300, 3.5e300, 0.0])
    save_vector(path, v)
    assert np.array_equal(load_vector(path), v)


def test_load_matrix_tolerates_blank_lines(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("1.0,2.0\n\n3.0,4.0\n\n")
    assert np.array_equal(load_matrix(path), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_load_errors_name_the_offending_line(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_matrix(ragged)

    junk = tmp_path / "junk.csv"
    junk.write_text("1.0,oops\n")
    with pytest.raises(ValueError, match="not a comma-separated row"):
        load_matrix(junk)

    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(ValueError, match="no rows"):
        load_matrix(empty)
    with pytest.raises(ValueError, match="no entries"):
        load_vector(empty)

    bad_vec = tmp_path / "badvec.csv"
    bad_vec.write_text("1.0\nnope\n")
    with pytest.raises(ValueError, match="not a number"):
        load_vector(bad_vec)
