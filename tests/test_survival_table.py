import io

import numpy as np
import pytest

from flowhazard import (
    CoxOptions,
    EmptyInput,
    InvalidValue,
    LengthMismatch,
    NonFinite,
    SurvivalRecord,
    SurvivalTable,
    cox_fit,
    km_fit,
    read_survival_table,
)


def small_table():
    rng = np.random.default_rng(3)
    times = rng.integers(1, 6, size=12).astype(float)
    events = rng.integers(0, 2, size=12)
    events[0] = 1
    return SurvivalTable(times, events, rng.standard_normal((12, 2)),
                         ("a", "b"))


class TestRecordView:
    def test_len_iteration_and_indexing_give_records(self):
        table = small_table()
        assert len(table) == 12
        records = list(table)
        assert all(isinstance(r, SurvivalRecord) for r in records)
        for i, r in enumerate(records):
            assert r.time == table.times[i] and r.event == table.events[i]
            np.testing.assert_array_equal(r.covariates, table.X[i])
        assert table[-1].time == table.times[-1]
        assert {r.time for r in table} == set(table.times.tolist())

    def test_from_records_round_trip(self):
        table = small_table()
        again = SurvivalTable.from_records(table, table.feature_names)
        for col in ("times", "events", "X"):
            np.testing.assert_array_equal(getattr(again, col),
                                          getattr(table, col))
        assert again.feature_names == ("a", "b")
        assert SurvivalTable.from_records(table).feature_names == ("x0", "x1")

    def test_fits_on_table_equal_fits_on_records(self):
        table = small_table()
        by_table = cox_fit(table, CoxOptions(ridge=1e-2))
        by_records = cox_fit(list(table), CoxOptions(ridge=1e-2),
                             feature_names=("a", "b"))
        assert by_table.feature_names == ("a", "b")
        np.testing.assert_array_equal(by_table.beta, by_records.beta)
        np.testing.assert_array_equal(km_fit(table).survival,
                                      km_fit(list(table)).survival)


class TestValidation:
    @pytest.mark.parametrize("column, times, events", [
        ("time", [1.0, -2.0, 3.0], [1, 1, 0]),
        ("time", [1.0, np.nan, -3.0], [1, 1, 0]),
        ("event", [1.0, 2.0, 3.0], [1, 0.5, 0]),
        ("event", [1.0, 2.0, 3.0], [1, -1, 2]),
    ])
    def test_bad_time_or_event_names_first_row_and_column(self, column,
                                                          times, events):
        with pytest.raises(InvalidValue) as err:
            SurvivalTable(np.array(times), np.array(events), np.zeros((3, 1)))
        assert f"data row 2, column {column!r}" in str(err.value)

    def test_non_finite_covariate_names_row_and_column(self):
        X = np.zeros((3, 2))
        X[2, 1] = np.inf
        with pytest.raises(NonFinite) as err:
            SurvivalTable(np.ones(3), np.ones(3), X, ("a", "b"))
        assert "data row 3, column 'b'" in str(err.value)

    def test_shapes_and_names_must_agree(self):
        with pytest.raises(LengthMismatch):
            SurvivalTable(np.ones(3), np.ones(2), np.zeros((3, 1)))
        with pytest.raises(LengthMismatch):
            SurvivalTable(np.ones(3), np.ones(3), np.zeros((3, 1)), ("a", "b"))
        with pytest.raises(EmptyInput):
            SurvivalTable(np.ones(0), np.ones(0), np.zeros((0, 1)))
        with pytest.raises(LengthMismatch):
            cox_fit(SurvivalTable(np.ones(3), np.ones(3), np.zeros((3, 0))))


class TestReader:
    def test_ragged_row_is_a_length_mismatch(self):
        buf = io.StringIO("sequence_id,time,event,x\n0,1,1,0.5\n1,2,0\n")
        with pytest.raises(LengthMismatch) as err:
            read_survival_table(buf)
        assert "data row 2" in str(err.value)

    def test_blank_lines_skipped_and_ids_not_read(self):
        buf = io.StringIO(
            "sequence_id,time,event,x\n,1,1,0.5\n\n , , , \nabc,2,0,0.25\n"
        )
        table, names = read_survival_table(buf)
        assert names == ("x",) == table.feature_names
        assert table.times.tolist() == [1.0, 2.0]
        assert table.events.tolist() == [1, 0]
        assert table.X.tolist() == [[0.5], [0.25]]
