"""End-to-end tests of the command line interface via main(argv)."""

from unittest import mock

import numpy as np
import pytest

from dsmsolve import DenseOperator, as_operator, choose_a, cli, linalg, op_norm, vr_newton
from dsmsolve.cli import BENCH_HEADER, SUMMARY_HEADER, main
from dsmsolve.linalg import cond_estimate
from dsmsolve.problems import heat_instance, heat_matrix, load_vector, save_matrix, save_vector


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def write_identity_problem(tmp_path, n=2, rhs=(1.0, 0.0)):
    mat = tmp_path / "A.csv"
    vec = tmp_path / "f.csv"
    save_matrix(mat, np.eye(n))
    save_vector(vec, np.array(rhs))
    return mat, vec


def write_heat_problem(tmp_path, n=20, delta_rel=0.05, seed=0):
    inst = heat_instance(n, delta_rel, seed)
    mat = tmp_path / "heat_A.csv"
    vec = tmp_path / "heat_f.csv"
    save_matrix(mat, inst.A)
    save_vector(vec, inst.b_noisy)
    return mat, vec, inst


def test_bench_small_grid(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc, stdout, _ = run(
        ["bench", "--n-list", "5,10", "--seeds", "3", "--out", str(out)], capsys
    )
    assert rc == 0
    header, rows = read_rows(out)
    assert header == BENCH_HEADER
    assert len(rows) == 2 * 3 * 3  # sizes x seeds x default methods
    methods = {row[1] for row in rows}
    assert methods == {"dsm", "vr_i", "vr_n"}
    for row in rows:
        assert int(row[0]) in (5, 10)
        assert int(row[2]) >= 1
        assert float(row[3]) >= 0.0
        assert int(row[4]) in (0, 1, 2)
        assert float(row[5]) == 0.05
        if row[1] == "vr_i":
            assert int(row[2]) == 1
        assert float(row[6]) > 0.0  # all default methods report the damping used

    summary = out.with_name("bench_summary.csv")
    sheader, srows = read_rows(summary)
    assert sheader == SUMMARY_HEADER
    assert len(srows) == 2 * 3
    assert all(int(row[2]) == 3 for row in srows)
    assert "wrote 18 rows" in stdout


def test_bench_is_deterministic(tmp_path, capsys):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    args = ["bench", "--n-list", "8", "--seeds", "2"]
    assert run(args + ["--out", str(first)], capsys)[0] == 0
    assert run(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert (
        first.with_name("one_summary.csv").read_bytes()
        == second.with_name("two_summary.csv").read_bytes()
    )


def test_bench_forms_each_gram_once_per_size(tmp_path, capsys, formed_grams, monkeypatch):
    """heat_matrix(n) does not depend on the seed, so one operator serves
    every seed of a size. At n = 12 every method settles on a complete
    Golub-Kahan basis, so neither the ToeplitzOperator that as_operator
    makes nor a DenseOperator forms a Gram matrix. With the basis capped at
    5 steps, where every method gives up to A's SVD, the DenseOperator
    forms none either. (The name is the one the test had when each give-up
    read A A^T.)"""
    argv = ["bench", "--n-list", "12", "--seeds", "3", "--out", str(tmp_path / "b.csv")]
    assert run(argv, capsys)[0] == 0
    assert formed_grams == []
    monkeypatch.setattr(cli, "as_operator", DenseOperator)
    assert run(argv, capsys)[0] == 0
    assert formed_grams == []
    monkeypatch.setattr(linalg, "_GOLUB_KAHAN_MAX_STEPS", 5)
    assert run(argv, capsys)[0] == 0
    assert formed_grams == []


def test_bench_landweber_leaves_a_used_blank(tmp_path, capsys):
    out = tmp_path / "lw.csv"
    rc, _, _ = run(
        ["bench", "--n-list", "5", "--seeds", "2", "--methods", "landweber",
         "--out", str(out)],
        capsys,
    )
    assert rc == 0
    header, rows = read_rows(out)
    assert header == BENCH_HEADER
    assert len(rows) == 2
    assert all(row[1] == "landweber" and row[6] == "" for row in rows)


def test_bench_invariant_flag_passes(tmp_path, capsys):
    out = tmp_path / "inv.csv"
    rc, _, _ = run(
        ["bench", "--n-list", "10", "--seeds", "2", "--methods", "dsm,landweber",
         "--assert-invariants", "--out", str(out)],
        capsys,
    )
    assert rc == 0


def test_bench_untuned_damping_flag(tmp_path, capsys):
    out = tmp_path / "a0.csv"
    rc, _, _ = run(
        ["bench", "--n-list", "10", "--seeds", "2", "--methods", "vr_i",
         "--vr-i-a0", "--out", str(out)],
        capsys,
    )
    assert rc == 0
    _, rows = read_rows(out)
    for row in rows:
        inst = heat_instance(int(row[0]), 0.05, int(row[4]))
        a0 = inst.delta * op_norm(inst.A) ** 2 / (3.0 * float(np.linalg.norm(inst.b_noisy)))
        assert float(row[6]) == pytest.approx(a0, rel=1e-12)


def fallback_warning(where, trace, delta):
    return (f"warning: {where}: choose_a ended on fallback_triple at a={trace.chosen_a:.6g}, "
            f"misfit {trace.phi_at_chosen:.6g} against the band [{delta:.6g}, {2.0 * delta:.6g}]")


def test_bench_reports_the_damping_fallback_on_stderr_only(tmp_path, capsys):
    """Each (n, seed) whose damping search ends on fallback_triple gets one
    warning line on stderr naming n, the seed, the misfit and the band; the
    bench CSV and the summary CSV are the bytes of a run that warns nothing."""
    args = ["bench", "--n-list", "10,20", "--seeds", "3", "--delta-rel", "2", "--methods", "dsm,vr_i"]
    expected = []
    for n in (10, 20):
        for seed in range(3):
            inst = heat_instance(n, 2.0, seed)
            trace = choose_a(inst.A, inst.b_noisy, inst.delta)
            if trace.steps[-1].action == "fallback_triple":
                expected.append(fallback_warning(f"n={n} seed={seed}", trace, inst.delta))
    assert 0 < len(expected) < 6

    rc, stdout, err = run(args + ["--out", str(tmp_path / "warned.csv")], capsys)
    assert rc == 0
    assert err.splitlines() == expected
    assert "warning" not in stdout
    with mock.patch.object(cli, "_warn_on_fallback"):
        assert run(args + ["--out", str(tmp_path / "quiet.csv")], capsys)[0] == 0
    for name in ("{}.csv", "{}_summary.csv"):
        warned, quiet = (tmp_path / name.format(stem) for stem in ("warned", "quiet"))
        assert warned.read_bytes() == quiet.read_bytes()


@pytest.mark.parametrize("method", ["dsm", "vr_i"])
def test_solve_reports_the_damping_fallback_on_stderr(tmp_path, capsys, method):
    """delta >= ||f_delta|| leaves every misfit below delta, so choose_a ends
    on fallback_triple; solve says so on stderr and still solves."""
    mat, vec = write_identity_problem(tmp_path)
    rc, stdout, err = run(
        ["solve", "--matrix", str(mat), "--rhs", str(vec), "--delta", "2.0", "--method", method,
         "--out", str(tmp_path / "u.csv")],
        capsys,
    )
    assert rc == 0
    trace = choose_a(np.eye(2), np.array([1.0, 0.0]), 2.0)
    assert err.splitlines() == [fallback_warning("n=2", trace, 2.0)]
    assert parse_kv(stdout)["a_used"] == format(trace.chosen_a, ".10e")
    assert "warning" not in stdout


def test_bench_rejects_bad_arguments(tmp_path, capsys):
    rc, _, err = run(["bench", "--seeds", "0", "--out", str(tmp_path / "x.csv")], capsys)
    assert rc == 2
    assert "--seeds" in err
    with pytest.raises(SystemExit):
        main(["bench", "--methods", "sorcery"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["bench", "--n-list", "0,10"])
    capsys.readouterr()
    for value in ("nan", "inf"):
        rc, _, err = run(["bench", "--n-list", "10", "--seeds", "1", "--delta-rel", value,
                          "--out", str(tmp_path / "x.csv")], capsys)
        assert rc == 2
        assert err == f"error: delta_rel must be finite and nonnegative, got {value}\n"


def test_solve_dsm_identity(tmp_path, capsys):
    mat, vec = write_identity_problem(tmp_path)
    out = tmp_path / "u.csv"
    rc, stdout, _ = run(
        ["solve", "--matrix", str(mat), "--rhs", str(vec), "--delta", "1e-6",
         "--out", str(out)],
        capsys,
    )
    assert rc == 0
    pairs = parse_kv(stdout)
    assert pairs["method"] == "dsm"
    assert pairs["stop_reason"] == "discrepancy_met"
    assert float(pairs["residual"]) <= 1.01e-6
    assert float(pairs["a_used"]) > 0.0
    u = load_vector(out)
    assert np.allclose(u, [1.0, 0.0], atol=1e-5)


def test_solve_vr_i_with_explicit_damping(tmp_path, capsys):
    mat, vec = write_identity_problem(tmp_path, rhs=(2.0, 0.0))
    out = tmp_path / "u.csv"
    rc, stdout, _ = run(
        ["solve", "--matrix", str(mat), "--rhs", str(vec), "--delta", "0.1",
         "--method", "vr_i", "--a", "1.0", "--out", str(out)],
        capsys,
    )
    assert rc == 0
    pairs = parse_kv(stdout)
    assert pairs["stop_reason"] == "direct"
    assert pairs["iterations"] == "1"
    assert float(pairs["a_used"]) == pytest.approx(1.0)
    assert np.allclose(load_vector(out), [1.0, 0.0], rtol=1e-12)


def test_solve_vr_n_on_heat_files(tmp_path, capsys):
    mat, vec, inst = write_heat_problem(tmp_path)
    out = tmp_path / "u.csv"
    rc, stdout, _ = run(
        ["solve", "--matrix", str(mat), "--rhs", str(vec),
         "--delta", format(inst.delta, ".17g"), "--method", "vr_n",
         "--out", str(out)],
        capsys,
    )
    assert rc == 0
    pairs = parse_kv(stdout)
    assert pairs["stop_reason"] == "discrepancy_root"
    target = 1.01 * inst.delta
    assert float(pairs["residual"]) == pytest.approx(target, rel=1e-6)


def test_solve_vr_n_on_heat_files_takes_the_toeplitz_route(tmp_path, capsys):
    """At n = 600 the saved heat matrix, read back exactly, is picked up as
    triangular Toeplitz: solve writes the bits of vr_newton on as_operator
    of it, which takes the FFT products and the Golub-Kahan spectrum."""
    mat, vec, inst = write_heat_problem(tmp_path, n=600, delta_rel=0.01, seed=1)
    out = tmp_path / "u.csv"
    rc, stdout, _ = run(
        ["solve", "--matrix", str(mat), "--rhs", str(vec),
         "--delta", format(inst.delta, ".17g"), "--method", "vr_n",
         "--out", str(out)],
        capsys,
    )
    assert rc == 0
    a, u, iterations = vr_newton(as_operator(inst.A), inst.b_noisy, inst.delta)
    pairs = parse_kv(stdout)
    assert (pairs["a_used"], pairs["iterations"]) == (format(a, ".10e"), str(iterations))
    assert np.array_equal(load_vector(out), u)


def test_solve_dsm_on_heat_files(tmp_path, capsys):
    mat, vec, inst = write_heat_problem(tmp_path)
    out = tmp_path / "u.csv"
    rc, stdout, _ = run(
        ["solve", "--matrix", str(mat), "--rhs", str(vec),
         "--delta", format(inst.delta, ".17g"), "--out", str(out)],
        capsys,
    )
    assert rc == 0
    pairs = parse_kv(stdout)
    assert pairs["stop_reason"] == "discrepancy_met"
    assert float(pairs["residual"]) <= 1.01 * inst.delta
    u = load_vector(out)
    rel_error = np.linalg.norm(u - inst.u_exact) / np.linalg.norm(inst.u_exact)
    assert rel_error < 0.5


def test_solve_error_paths(tmp_path, capsys):
    mat, _ = write_identity_problem(tmp_path)
    bad_vec = tmp_path / "long.csv"
    save_vector(bad_vec, np.ones(3))

    rc, _, err = run(
        ["solve", "--matrix", str(mat), "--rhs", str(bad_vec), "--delta", "0.1"],
        capsys,
    )
    assert rc == 2
    assert err.startswith("error:")
    assert "dimension mismatch" in err

    rc, _, err = run(
        ["solve", "--matrix", str(tmp_path / "missing.csv"), "--rhs", str(bad_vec),
         "--delta", "0.1"],
        capsys,
    )
    assert rc == 2
    assert err.startswith("error:")

    _, vec = write_identity_problem(tmp_path)
    rc, _, err = run(
        ["solve", "--matrix", str(mat), "--rhs", str(vec), "--delta", "0.1",
         "--method", "vr_i", "--a", "-1.0"],
        capsys,
    )
    assert rc == 2
    assert "--a must be positive" in err


def test_solve_rejects_an_infinite_apriori_budget(tmp_path, capsys):
    """h * delta**gamma underflows to 0: an error naming the budget, not a traceback."""
    mat, vec = write_identity_problem(tmp_path)
    rc, _, err = run(
        ["solve", "--matrix", str(mat), "--rhs", str(vec), "--delta", "0.1",
         "--stopping", "apriori", "--h", "1e-320"],
        capsys,
    )
    assert rc == 2
    assert err.startswith("error: a-priori step budget")
    assert "is not finite" in err


def test_cond_values(capsys):
    rc, out, _ = run(["cond", "1"], capsys)
    assert rc == 0
    assert out.strip() == "1.000000e+00"

    rc, out10, _ = run(["cond", "10"], capsys)
    assert rc == 0
    assert out10.strip() == f"{cond_estimate(heat_matrix(10)):.6e}"

    rc, out100, _ = run(["cond", "100"], capsys)
    assert rc == 0
    assert float(out100) > float(out10)

    rc, _, err = run(["cond", "0"], capsys)
    assert rc == 2
    assert "n must be at least 1" in err


def test_plot_data_profiles(tmp_path, capsys):
    out = tmp_path / "profiles.csv"
    rc, stdout, _ = run(["plot-data", "30", "--out", str(out)], capsys)
    assert rc == 0
    assert "wrote 30 rows" in stdout
    header, rows = read_rows(out)
    assert header == "t,u_exact,u_dsm,u_vr_n"
    assert len(rows) == 30
    t = np.array([float(row[0]) for row in rows])
    assert np.allclose(t, (np.arange(30) + 0.5) / 30, rtol=1e-12)
    exact = np.array([float(row[1]) for row in rows])
    assert np.allclose(exact, 4.0 * t * (1.0 - t), rtol=1e-12)

    again = tmp_path / "profiles2.csv"
    assert run(["plot-data", "30", "--out", str(again)], capsys)[0] == 0
    assert out.read_bytes() == again.read_bytes()


def test_plot_data_recovers_profile_at_tiny_noise(tmp_path, capsys):
    out = tmp_path / "tiny.csv"
    rc, _, _ = run(["plot-data", "8", "--delta-rel", "1e-9", "--out", str(out)], capsys)
    assert rc == 0
    _, rows = read_rows(out)
    exact = np.array([float(row[1]) for row in rows])
    dsm = np.array([float(row[2]) for row in rows])
    assert np.max(np.abs(dsm - exact)) <= 1e-3


def test_plot_data_rejects_empty(capsys):
    rc, _, err = run(["plot-data", "0"], capsys)
    assert rc == 2
    assert "n must be at least 1" in err
