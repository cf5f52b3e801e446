import csv
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import locstat.harness as harness
from locstat.harness import (
    default_equivalence_candidates,
    default_rate_model,
    likelihood_equivalence_decay,
    log_log_slope,
    rate_study,
    read_rows_csv,
    study_knots,
    wavy_alpha_model,
    write_json,
    write_metadata,
    write_rows_csv,
)
from locstat.espec import replication_seed
from locstat.estimator import fit_monotone_tvar
from locstat.process import check_stability, simulate_tvar_batch


def test_study_knots_frozen_schedule():
    assert [study_knots(n) for n in (256, 512, 1024, 2048, 4096)] == [6, 6, 6, 8, 8]


@pytest.mark.parametrize(
    "n, message",
    [(1, "n must be at least 2"), (0, "n must be at least 2"), (2.5, "n must be an integer")],
)
def test_study_knots_rejects_sizes_default_knots_rejects(n, message):
    with pytest.raises(ValueError, match=message):
        study_knots(n)


def test_default_models_are_stable():
    m = default_rate_model()
    assert m.p == 1
    assert check_stability(np.array([0.5]))
    # variance steps 1 -> 2 at u = 2/5 (right-closed cells), off every
    # knot boundary of the study sieves k in {6, 8}
    u = np.array([0.25, 0.4, 0.41, 0.75])
    np.testing.assert_allclose(m.sigma2.values(u), [1.0, 1.0, 2.0, 2.0])
    w = wavy_alpha_model()
    assert float(np.max(np.abs(w.alpha[0].values(np.linspace(0.01, 1, 200))))) < 1.0


def test_rate_spec_validation(monkeypatch):
    # every parameter is checked before the first simulation, in this order
    def no_simulation(*args):
        raise AssertionError("simulated before checking")

    monkeypatch.setattr(harness, "simulate_tvar_batch", no_simulation)
    for bad, message in [
        ({"n_list": (64,)}, "need at least two sizes"),
        ({"n_list": (128, 64)}, "sizes must be strictly increasing"),
        ({"n_list": (4, 64)}, "n_list entry must be at least 8"),
        ({"n_list": 64}, "n_list must be a list"),
        ({"n_list": (64.5, 128)}, "n_list entry must be an integer"),
        ({"replications": 1}, "replications must be at least 2"),
        ({"replications": "abc"}, "replications must be"),
        ({"seed": -1}, "seed must be at least 0"),
        ({"p": -1}, "p must be at least 0"),
        ({"n_list": (64,), "replications": 1, "seed": -1}, "need at least two sizes"),
        ({"replications": 1, "seed": -1, "p": -1}, "replications must be at least 2"),
        ({"seed": -1, "p": -1}, "seed must be at least 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}"):
            rate_study(**bad)
    monkeypatch.undo()
    # integral floats are taken as integers, and rows and summary record them
    rows, summary = rate_study(n_list=[64.0, 128], replications=2.0, seed=3.0)
    assert [row["n"] for row in rows] == [64, 128]
    assert (summary["n_list"], summary["replications"]) == ([64, 128], 2)
    assert (rows, summary) == rate_study(n_list=(64, 128), replications=2, seed=3)


def test_log_log_slope_exact_on_power_law():
    ns = np.array([64, 128, 256, 512])
    values = 3.7 * ns ** -0.4
    assert log_log_slope(ns, values) == pytest.approx(-0.4, abs=1e-12)


def test_rate_study_small_run_deterministic():
    rows, summary = rate_study(n_list=(64, 128), replications=4, seed=9)
    assert (rows, summary) == rate_study(n_list=(64, 128), replications=4, seed=9)
    assert list(summary) == ["slope_spectrum", "slope_variance", "n_list", "replications"]
    ns = [row["n"] for row in rows]
    assert summary["slope_spectrum"] == log_log_slope(ns, [row["median_err_spectrum"] for row in rows])
    assert summary["slope_variance"] == log_log_slope(ns, [row["median_err_variance"] for row in rows])
    for row in rows:
        assert row["all_converged"]
        assert np.isfinite(row["median_err_spectrum"])
    assert [row["k_n"] for row in rows] == [study_knots(64), study_knots(128)]


def test_rate_rows_count_the_knots_on_the_bounds():
    # at n = 256 the truth's variance 2 lies above 1/eps^2 = 1.98, so fits clip
    replications, seed = 6, 1
    rows, _ = rate_study(n_list=(256, 512), replications=replications, seed=seed)
    model = default_rate_model()
    for row, n in zip(rows, (256, 512)):
        # appended after the columns that were there before
        assert list(row)[-2:] == ["knots_on_bounds", "clipped_frac"]
        seeds = [replication_seed(seed, r) for r in range(replications)]
        fits = [fit_monotone_tvar(x, p=1, k_n=study_knots(n)) for x in simulate_tvar_batch(model, n, seeds)]
        assert all(fit.sigma2_hat.knots == row["k_n"] and fit.eps == row["eps"] for fit in fits)
        assert row["knots_on_bounds"] == sum(fit.knots_at_lower + fit.knots_at_upper for fit in fits)
        assert row["clipped_frac"] == row["knots_on_bounds"] / (replications * row["k_n"])
    assert rows[0]["knots_on_bounds"] > 0


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        # x + 0.0 turns -0.0 into 0.0: see the signed-zero test below
        st.lists(st.floats(-1e300, 1e300).map(lambda x: x + 0.0), min_size=1, max_size=40),
        st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=40),
    )
)
def test_median_is_bit_identical_to_numpy(values):
    # odd and even lengths, floats and ints (median_iterations takes ints)
    assert np.float64(harness._median(values)).tobytes() == np.float64(np.median(values)).tobytes()


def test_median_of_tied_signed_zeros_equals_numpy_up_to_the_sign():
    # the sort and np.median's partition may leave different zeros in the
    # middle, which no study sees: its values are errors, gaps and counts >= 0
    assert harness._median([0.0, -0.0, 0.0]) == np.median([0.0, -0.0, 0.0]) == 0.0


def test_equivalence_candidates_are_stable_models():
    for g in default_equivalence_candidates():
        assert g.validated and g.p == 1
        assert check_stability(g.alpha_matrix(np.array([0.5]))[0])
        assert np.all(g.sigma2.values(np.linspace(0.1, 1.0, 7)) > 0)


def test_likelihood_equivalence_gap_decays():
    rows = likelihood_equivalence_decay(n_list=(128, 512), replications=5, seed=3)
    assert rows[0]["n"] == 128 and rows[1]["n"] == 512
    assert rows[1]["median_gap"] < rows[0]["median_gap"] / 2


@pytest.mark.parametrize(
    "bad",
    [{"replications": 1}, {"replications": 0}, {"n_list": ()}, {"n_list": {}}, {"n_list": 64}, {"seed": -1}],
)
def test_likelihood_equivalence_rejects_bad_arguments_before_simulating(monkeypatch, bad):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking its arguments")

    monkeypatch.setattr(harness, "simulate_tvar_batch", no_simulation)
    with pytest.raises(ValueError):
        likelihood_equivalence_decay(**{"n_list": (16, 32), "replications": 2, **bad})


def test_likelihood_equivalence_checks_its_sizes_before_simulating(monkeypatch):
    # a size no larger than the largest candidate order (1) is refused before
    # the first size is simulated and scored
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking its sizes")

    monkeypatch.setattr(harness, "simulate_tvar_batch", no_simulation)
    with pytest.raises(ValueError, match="^n_list entry must be at least 2, got 1$"):
        likelihood_equivalence_decay(n_list=[2, 1], replications=2)


def test_rows_csv_round_trip_exact(tmp_path):
    rows = [
        {"n": 256, "err": 0.1 + 0.2, "label": "a"},
        {"n": 512, "err": 1.0 / 3.0, "label": "b"},
    ]
    path = tmp_path / "rows.csv"
    write_rows_csv(path, rows)
    back = read_rows_csv(path)
    assert back == rows  # repr round-trips floats exactly
    for empty in ([], iter([])):
        with pytest.raises(ValueError, match="nothing to write"):
            write_rows_csv(tmp_path / "empty.csv", empty)
    assert not (tmp_path / "empty.csv").exists()


def dict_writer_oracle(path, rows):
    """The csv.DictWriter form the rows CSV was defined by: the columns of
    the first row, floats written by repr(float) and NumPy integers as int."""

    def cell(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return int(value) if isinstance(value, np.integer) else value

    fieldnames = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: cell(row.get(k)) for k in fieldnames})


@pytest.mark.parametrize("form", [list, lambda rows: (row for row in rows)], ids=["list", "generator"])
def test_rows_csv_bytes_equal_dict_writer(tmp_path, form):
    rows = [
        {"n": np.int64(256), "err": np.float64(0.1) + 0.2, "label": "a, b", "flag": True, "none": None},
        {"n": 7, "err": 1.0 / 3.0, "label": 'say "x"', "flag": np.float32(0.1), "none": None},
        {"n": -1, "err": 5e-324, "label": "", "flag": False, "none": "line\nbreak"},
        {"err": 2.5, "n": 3, "label": "keys reordered, two missing"},
    ]
    write_rows_csv(tmp_path / "new.csv", form(rows))
    dict_writer_oracle(tmp_path / "old.csv", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_rows_csv_refuses_a_key_the_first_row_lacks(tmp_path):
    # csv.DictWriter over the first row's keys refuses the extra key too
    rows = [{"n": 1, "err": 0.5}, {"n": 2, "err": 0.25, "extra": 3}]
    with pytest.raises(ValueError, match="'extra'"):
        csv.DictWriter(io.StringIO(), fieldnames=list(rows[0])).writerow(rows[1])
    with pytest.raises(ValueError, match="^a row holds key 'extra', which the first row lacks$"):
        write_rows_csv(tmp_path / "rows.csv", rows)
    assert not (tmp_path / "rows.csv").exists()


def test_rows_csv_refuses_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValueError, match="^columns must be of one length, got {'t': 3, 'value': 2}$"):
        write_rows_csv(tmp_path / "table.csv", {"t": np.arange(3), "value": [0.5, 1.5]})
    assert not (tmp_path / "table.csv").exists()


def csv_writer_oracle(path, table):
    """csv.writer's bytes for a table of columns, floats (NumPy's too)
    written by repr(float)."""

    def cell(value):
        return repr(float(value)) if isinstance(value, (float, np.floating)) else value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table))
        writer.writerows(zip(*([cell(value) for value in cells] for cells in table.values())))


QUOTING_TEXT = st.text(alphabet='a ,"\r\n', max_size=4)
CELLS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    QUOTING_TEXT,
)


@st.composite
def csv_tables(draw):
    """A table of 1-3 columns of one length, each a list of mixed cells or a
    float, integer or bool ndarray."""
    n = draw(st.integers(1, 12))
    names = draw(st.lists(QUOTING_TEXT, min_size=1, max_size=3, unique=True))
    column = st.one_of(
        st.lists(CELLS, min_size=n, max_size=n),
        st.sampled_from([np.float64, np.int64, np.bool_]).flatmap(lambda dtype: hnp.arrays(dtype, n)),
    )
    return {name: draw(column) for name in names}


@settings(max_examples=200, deadline=None)
@given(table=csv_tables(), block=st.integers(1, 7))
def test_rows_csv_bytes_equal_csv_writer(table, block):
    # blocks of 1-7 cells split the 1-12 rows across block edges
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "CSV_BLOCK_CELLS", block)
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        write_rows_csv(new, table)
        csv_writer_oracle(old, table)
        with open(new, "rb") as fh_new, open(old, "rb") as fh_old:
            assert fh_new.read() == fh_old.read()


def test_rows_csv_round_trips_numpy_scalars(tmp_path):
    write_rows_csv(tmp_path / "rows.csv", [{"a": np.float64(0.1), "b": np.int64(3), "c": np.float32(0.1)}])
    assert read_rows_csv(tmp_path / "rows.csv") == [{"a": 0.1, "b": 3, "c": float(np.float32(0.1))}]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=repr)
def test_json_refuses_non_finite_floats_without_a_file(tmp_path, value):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(path, {"ok": 1.0, "nested": [value]})
    assert not path.exists()


def test_metadata_is_byte_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    p1 = write_metadata(d1, "rate-study", config_text="{}", seed=5)
    p2 = write_metadata(d2, "rate-study", config_text="{}", seed=5)
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read()
    meta = json.loads(b1)
    assert meta["command"] == "rate-study"
    assert meta["seed"] == 5
    assert "timestamp" not in meta
    assert set(meta["versions"]) == {"locstat", "numpy", "python"}
    extra = write_metadata(tmp_path, "x", extra={"rows": 3})
    assert json.load(open(extra))["rows"] == 3
