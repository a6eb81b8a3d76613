"""Error norms, observed orders, and study orchestration."""

import numpy as np
import pytest

from fvvisc import verify
from fvvisc.verify import (ConvergenceRecord, DegenerateOrderError, l1_error,
                           finest_pair_order, observed_order)


class TestL1Error:
    def test_identical_arrays_give_zero(self):
        u = np.linspace(0.0, 1.0, 11)
        assert l1_error(u, u)[0] == 0.0

    def test_constant_offset_gives_the_offset(self):
        u = np.linspace(0.0, 1.0, 11)
        assert abs(l1_error(u + 1e-4, u)[0] - 1e-4) < 1e-16

    def test_two_cell_example(self):
        err = l1_error(np.array([0.0, 2e-3]), np.zeros(2))
        assert abs(err[0] - 1e-3) < 1e-18

    def test_multivariable_shape(self):
        a = np.zeros((10, 5))
        b = np.ones((10, 5)) * np.arange(1, 6)
        err = l1_error(a, b)
        assert err.shape == (5,)
        assert np.abs(err - np.arange(1, 6)).max() < 1e-15

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            l1_error(np.zeros(3), np.zeros(4))


def synthetic_record(p=2.0, c=3.0, sizes=(8, 16, 32, 64)):
    rec = ConvergenceRecord("arithmetic", ("u",))
    for n in sizes:
        h = 1.0 / n
        rec.add_row(f"n{n}", n, h, [c * h ** p])
    return rec


class TestConvergenceRecord:
    def test_rows_must_refine(self):
        rec = synthetic_record()
        with pytest.raises(ValueError):
            rec.add_row("coarse", 4, 0.25, [1.0])

    def test_error_column_by_name_and_index(self):
        rec = synthetic_record()
        assert np.array_equal(rec.error_column("u"), rec.error_column(0))

    def test_wrong_error_count_raises(self):
        rec = ConvergenceRecord("arithmetic", ("rho", "u"))
        with pytest.raises(ValueError):
            rec.add_row("n8", 8, 0.125, [1.0])


class TestObservedOrder:
    def test_recovers_synthetic_power_law(self):
        pair, slope = observed_order(synthetic_record(p=2.0))
        assert np.abs(pair - 2.0).max() < 1e-12
        assert abs(slope - 2.0) < 1e-12

    def test_recovers_first_order(self):
        pair, slope = observed_order(synthetic_record(p=1.0))
        assert np.abs(pair - 1.0).max() < 1e-12

    def test_finest_pair_order(self):
        assert abs(finest_pair_order(synthetic_record(p=1.7)) - 1.7) < 1e-12

    def test_finest_pair_skips_nan_rows(self):
        rec = synthetic_record(p=2.0, sizes=(8, 16, 32))
        rec.add_row("n64", 64, 1.0 / 64, [np.nan])
        # order computed from the two finest *converged* rows (16, 32)
        assert abs(finest_pair_order(rec) - 2.0) < 1e-12

    def test_too_few_rows_raises(self):
        rec = synthetic_record(sizes=(8,))
        with pytest.raises(DegenerateOrderError):
            observed_order(rec)
        with pytest.raises(DegenerateOrderError):
            finest_pair_order(rec)

    def test_zero_error_raises(self):
        rec = ConvergenceRecord("arithmetic", ("u",))
        rec.add_row("n8", 8, 0.125, [1e-3])
        rec.add_row("n16", 16, 0.0625, [0.0])
        with pytest.raises(DegenerateOrderError):
            observed_order(rec)
        with pytest.raises(DegenerateOrderError):
            finest_pair_order(rec)

    def test_all_nan_rows_raise(self):
        rec = ConvergenceRecord("arithmetic", ("u",))
        rec.add_row("n8", 8, 0.125, [np.nan])
        rec.add_row("n16", 16, 0.0625, [np.nan])
        with pytest.raises(DegenerateOrderError):
            finest_pair_order(rec)


@pytest.fixture(scope="module")
def records_1d():
    return verify.run_study_1d(["arithmetic", "one-sided-right"],
                               sizes=(7, 11, 15, 19, 23, 31), seed=2604)


class TestStudy1D:
    def test_returns_record_per_strategy(self, records_1d):
        assert set(records_1d) == {"arithmetic", "one-sided-right"}
        assert records_1d["arithmetic"].n_rows == 6

    def test_errors_decrease_under_refinement(self, records_1d):
        # per-level grids are independent random draws, so adjacent coarse
        # levels may not be monotone; refinement across the family must be
        e = records_1d["arithmetic"].error_column(0)
        assert e[-1] < 0.5 * e[0]

    def test_strategies_separate(self, records_1d):
        # the one-sided error on the finest grid dwarfs the arithmetic one
        e_os = records_1d["one-sided-right"].error_column(0)[-1]
        e_ar = records_1d["arithmetic"].error_column(0)[-1]
        assert e_os > 5.0 * e_ar


class TestStudyCellCounts:
    # the N column is each level's cell count, taken from its problem
    @pytest.mark.parametrize("run,sizes,study,n_cells", [
        (verify.run_study_1d, (7, 11), "study-1d", [7, 11]),
        (verify.run_study_3d, (2, 3), "study-3d", [48, 162]),
    ], ids=["1d", "3d"])
    def test_n_column(self, tmp_path, run, sizes, study, n_cells):
        rec = run(["arithmetic"], sizes=sizes, out_dir=str(tmp_path))
        assert rec["arithmetic"].n_cells == n_cells
        rows = (tmp_path / f"{study}_arithmetic.csv").read_text() \
            .splitlines()[2:]
        n_vars = len(rec["arithmetic"].var_names)
        assert [int(row.split(",")[2]) for row in rows] \
            == [n for n in n_cells for _ in range(n_vars)]


class TestCsvOutput:
    def test_schema_and_roundtrip(self, tmp_path):
        rec = synthetic_record()
        paths = verify.write_study_csv({"arithmetic": rec}, str(tmp_path),
                                       "study-1d")
        table = tmp_path / "study-1d_arithmetic.csv"
        assert table.exists()
        lines = table.read_text().splitlines()
        assert lines[1] == "strategy,grid_label,N,h_eff,var,l1_error,pair_order"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == rec.n_rows
        assert rows[0][6] == ""                      # no pair on coarsest row
        assert abs(float(rows[1][6]) - 2.0) < 1e-6
        assert abs(float(rows[-1][5]) - rec.errors[-1][0]) < 1e-18

        summary = tmp_path / "study-1d_summary.csv"
        sl = summary.read_text().splitlines()
        assert sl[1] == "strategy,var,global_slope,finest_pair_order"
        name, var, slope, pair = sl[2].split(",")
        assert (name, var) == ("arithmetic", "u")
        assert abs(float(pair) - 2.0) < 1e-6

    def test_two_rows_keep_pair_and_finest_pair_orders(self, tmp_path):
        # the finest half of two rows is one row, so only the fit is undefined
        rec = synthetic_record(p=2.0, sizes=(8, 16))
        verify.write_study_csv({"arithmetic": rec}, str(tmp_path), "s")
        rows = (tmp_path / "s_arithmetic.csv").read_text().splitlines()[2:]
        assert abs(float(rows[1].split(",")[6]) - 2.0) < 1e-6
        summary = (tmp_path / "s_summary.csv").read_text().splitlines()
        name, var, slope, pair = summary[2].split(",")
        assert slope == "nan"
        assert abs(float(pair) - 2.0) < 1e-6

    def test_weighted_strategy_filename_safe(self, tmp_path):
        rec = synthetic_record()
        rec.strategy = "weighted:0.75"
        verify.write_study_csv({"weighted:0.75": rec}, str(tmp_path), "s")
        assert (tmp_path / "s_weighted0.75.csv").exists()
