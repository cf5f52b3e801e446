import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import locstat
from locstat.cli import build_parser, main
from locstat.curves import ConstantCurve, FourierCurve
from locstat.espec import TailStudySpec, bias_scaling_study, chi2_tail_study, spectral_process_sample
from locstat.estimator import fit_monotone_tvar
from locstat.harness import likelihood_equivalence_decay, rate_study, read_rows_csv, write_rows_csv
from locstat.process import TimeSeries, TvARModel


def run(*argv):
    assert main(list(argv)) == 0


def simulate_into(tmp_path, n=64, seed=3):
    out = tmp_path / "sim"
    run("simulate", "--n", str(n), "--seed", str(seed), "--out", str(out))
    return out / "series.csv"


def refused(argv, capsys):
    """The message main(argv) exits with, checked to be one line: a string
    exit code, which Python prints to stderr with status 1, and no argparse
    usage text."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert "usage:" not in capsys.readouterr().err
    return exc.value.code


def test_simulate_writes_series_and_metadata(tmp_path):
    path = simulate_into(tmp_path)
    values = np.loadtxt(path, skiprows=1)
    assert values.shape == (64,)
    meta = json.loads((path.parent / "metadata.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["seed"] == 3
    assert "timestamp" not in meta


def test_simulate_reruns_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run("simulate", "--n", "32", "--seed", "11", "--out", str(out))
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    assert (a / "metadata.json").read_bytes() == (b / "metadata.json").read_bytes()


def test_simulate_with_model_config(tmp_path):
    model = TvARModel(1, [ConstantCurve(-0.8)], ConstantCurve(1.0))
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(model.describe()))
    out = tmp_path / "out"
    run("simulate", "--n", "400", "--seed", "1", "--config", str(cfg), "--out", str(out))
    x = np.loadtxt(out / "series.csv", skiprows=1)
    # alpha = -0.8 sits on the LEFT of the recursion, so consecutive values
    # correlate positively
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r > 0.5


def test_preperiodogram_long_format(tmp_path):
    series = simulate_into(tmp_path, n=16)
    out = tmp_path / "pre"
    run(
        "preperiodogram",
        "--series",
        str(series),
        "--grid-size",
        "8",
        "--times",
        "1,5,5",
        "--out",
        str(out),
    )
    rows = read_rows_csv(out / "preperiodogram.csv")
    assert len(rows) == 2 * 8  # duplicate time collapsed
    assert {r["t"] for r in rows} == {1, 5}
    assert all(np.isfinite(r["value"]) for r in rows)


def test_preperiodogram_rejects_out_of_range_times(tmp_path, capsys):
    series = simulate_into(tmp_path, n=16)
    # the range is the pre-periodogram's own check, made once the series is read
    for times in ("0", "0,3", "3,-1", "3,17", f"3,{10**20}"):
        argv = ["preperiodogram", "--series", str(series), "--times", times, "--out", str(tmp_path / "x")]
        assert refused(argv, capsys) == "preperiodogram: times must be a 1-d sequence of integers in 1..16"
    assert not (tmp_path / "x").exists()


def test_likelihood_eval_requires_config(tmp_path):
    series = simulate_into(tmp_path)
    with pytest.raises(SystemExit):
        main(["likelihood-eval", "--series", str(series), "--out", str(tmp_path / "x")])


def test_likelihood_eval_constant_candidate(tmp_path):
    series = simulate_into(tmp_path, n=256)
    model = TvARModel(1, [ConstantCurve(0.4)], ConstantCurve(1.2))
    cfg = tmp_path / "candidate.json"
    cfg.write_text(json.dumps(model.describe()))
    out = tmp_path / "lik"
    run("likelihood-eval", "--series", str(series), "--config", str(cfg), "--out", str(out))
    res = json.loads((out / "likelihood.json").read_text())
    assert res["constant_alpha"] is True
    assert res["conditional"] is not None
    assert res["gap"] < 0.1  # boundary terms only
    assert np.isfinite(res["whittle"])


def test_likelihood_eval_time_varying_candidate(tmp_path):
    series = simulate_into(tmp_path, n=256)
    model = TvARModel(1, [FourierCurve(0.0, a=[0.5], b=[0.0])], ConstantCurve(1.0))
    cfg = tmp_path / "candidate.json"
    cfg.write_text(json.dumps(model.describe()))
    out = tmp_path / "lik"
    run("likelihood-eval", "--series", str(series), "--config", str(cfg), "--out", str(out))
    res = json.loads((out / "likelihood.json").read_text())
    assert res["constant_alpha"] is False
    assert isinstance(res["conditional"], float) and np.isfinite(res["conditional"])
    assert isinstance(res["gap"], float) and 0 <= res["gap"] < 0.1


def test_fit_then_likelihood_eval_pipeline(tmp_path):
    series = simulate_into(tmp_path, n=512)
    fit_out = tmp_path / "fit"
    run("fit", "--series", str(series), "--out", str(fit_out))
    fit = json.loads((fit_out / "fit.json").read_text())
    assert len(fit["alpha_hat"]) == 1
    assert fit["converged"] is True
    trace = fit["objective_trace"]
    assert all(b <= a + 1e-8 for a, b in zip(trace, trace[1:]))
    assert fit["model"]["sigma2"]["type"] == "monotone_step"

    # fit.json doubles as a candidate config for likelihood-eval
    lik_out = tmp_path / "lik"
    run(
        "likelihood-eval",
        "--series",
        str(series),
        "--config",
        str(fit_out / "fit.json"),
        "--out",
        str(lik_out),
    )
    res = json.loads((lik_out / "likelihood.json").read_text())
    assert res["whittle"] == pytest.approx(0.5 * (fit["objective"] - np.log(2 * np.pi)), abs=0.01)


def test_fit_with_config_overrides(tmp_path):
    series = simulate_into(tmp_path, n=256)
    cfg = tmp_path / "fit_cfg.json"
    cfg.write_text(json.dumps({"p": 1, "k_n": 4, "eps": 0.2}))
    out = tmp_path / "fit"
    run("fit", "--series", str(series), "--config", str(cfg), "--out", str(out))
    fit = json.loads((out / "fit.json").read_text())
    assert fit["k_n"] == 4
    assert fit["eps"] == 0.2


def test_fit_reports_knots_on_the_bounds(tmp_path, capsys):
    series = simulate_into(tmp_path, n=2048, seed=3)
    run("fit", "--series", str(series), "--out", str(tmp_path / "fit"))
    fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert (fit["knots_at_lower"], fit["knots_at_upper"]) == (0, 0)
    assert (fit["sigma2_lower"], fit["sigma2_upper"]) == (fit["eps"] ** 2, 1.0 / fit["eps"] ** 2)
    assert capsys.readouterr().err == ""

    scaled = tmp_path / "scaled.csv"
    TimeSeries(10.0 * TimeSeries.from_csv(series).values).to_csv(scaled)
    run("fit", "--series", str(scaled), "--out", str(tmp_path / "scaled-fit"))
    fit = json.loads((tmp_path / "scaled-fit" / "fit.json").read_text())
    assert (fit["knots_at_lower"], fit["knots_at_upper"]) == (0, 4)
    assert fit["sigma2_hat"]["values"] == [fit["sigma2_upper"]] * 4
    err = capsys.readouterr().err
    assert err.startswith("fit: warning: sigma2_hat knots on the bounds") and err.count("\n") == 1
    assert "0 at the lower, 4 at the upper, of 4" in err


def test_rate_study_small_config(tmp_path):
    cfg = tmp_path / "rate.json"
    cfg.write_text(json.dumps({"n_list": [64, 128], "replications": 3}))
    out = tmp_path / "rate"
    run("rate-study", "--config", str(cfg), "--seed", "5", "--out", str(out))
    rows = read_rows_csv(out / "rate_rows.csv")
    assert [r["n"] for r in rows] == [64, 128]
    summary = json.loads((out / "rate_summary.json").read_text())
    assert np.isfinite(summary["slope_spectrum"])
    assert summary["replications"] == 3


def test_tail_study_designs(tmp_path):
    cfg = tmp_path / "tail.json"
    cfg.write_text(json.dumps({"design": "linear", "n": 16, "replications": 2000, "etas": [1.0, 3.0]}))
    out = tmp_path / "tail"
    run("tail-study", "--config", str(cfg), "--seed", "1", "--out", str(out))
    rows = read_rows_csv(out / "tail_rows.csv")
    assert [r["eta"] for r in rows] == [1.0, 3.0]
    for r in rows:
        assert 0 <= r["empirical"] <= r["upper99"] <= 1
        assert r["upper99"] <= r["bound_quadratic"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"design": "geometric", "replications": 2000, "etas": [1.0]}))
    with pytest.raises(SystemExit):
        main(["tail-study", "--config", str(bad), "--out", str(tmp_path / "y")])


def test_clt_study_default_model(tmp_path):
    cfg = tmp_path / "clt.json"
    cfg.write_text(json.dumps({"n": 64, "replications": 100}))
    out = tmp_path / "clt"
    run("clt-study", "--config", str(cfg), "--seed", "2", "--out", str(out))
    summary = json.loads((out / "clt_summary.json").read_text())
    assert summary["limit_variance"] == pytest.approx(2.0, rel=1e-10)
    assert 0.5 < summary["ratio"] < 2.0
    devs = read_rows_csv(out / "clt_deviations.csv")
    assert len(devs) == 100


def test_prop33_bias_rows(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"n_list": [32, 64], "replications": 50}))
    out = tmp_path / "p"
    run("prop33", "--config", str(cfg), "--seed", "4", "--out", str(out))
    rows = read_rows_csv(out / "bias_rows.csv")
    assert [r["n"] for r in rows] == [32, 64]
    for r in rows:
        assert r["stderr"] > 0
        assert np.isfinite(r["n_bias"])


def test_equivalence_subcommand(tmp_path):
    cfg = tmp_path / "eq.json"
    cfg.write_text(json.dumps({"n_list": [64, 256], "replications": 3}))
    out = tmp_path / "eq"
    run("equivalence", "--config", str(cfg), "--out", str(out))
    rows = read_rows_csv(out / "equivalence_rows.csv")
    assert rows[1]["median_gap"] < rows[0]["median_gap"]


def test_tail_study_default_thresholds(tmp_path):
    cfg = tmp_path / "tail.json"
    cfg.write_text(json.dumps({"n": 16, "replications": 1000}))
    out = tmp_path / "tail"
    run("tail-study", "--config", str(cfg), "--seed", "1", "--out", str(out))
    rows = read_rows_csv(out / "tail_rows.csv")
    assert [r["eta"] for r in rows] == [0.5 * k for k in range(1, 11)]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", ["--n", "16"]),
        ("fit", None),
        ("likelihood-eval", None),
        ("rate-study", []),
        ("tail-study", []),
        ("clt-study", []),
        ("prop33", []),
        ("equivalence", []),
    ],
)
def test_unknown_config_key_rejected(tmp_path, command, extra):
    if extra is None:
        extra = ["--series", str(simulate_into(tmp_path, n=16))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kn": 4}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="unknown config key.*kn"):
        main([command, *extra, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


# a config key names a parameter of the library call the command configures,
# and the refusal lists every one of them, in the call's order
@pytest.mark.parametrize(
    "command, call",
    [
        ("rate-study", rate_study),
        ("tail-study", TailStudySpec.from_design),
        ("clt-study", spectral_process_sample),
        ("prop33", bias_scaling_study),
        ("equivalence", likelihood_equivalence_decay),
        ("fit", fit_monotone_tvar),
    ],
)
def test_config_keys_are_the_call_parameters(tmp_path, capsys, command, call):
    extra = ["--series", str(simulate_into(tmp_path, n=16))] if command == "fit" else []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kn": 4}))
    message = refused([command, *extra, "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
    head, allowed = message.split("; allowed: ")
    assert head == f"{command}: unknown config key(s) kn"
    # the fit's series comes from --series, never from the config
    assert allowed.split(", ") == [name for name in inspect.signature(call).parameters if name != "series"]


def test_equivalence_passes_model_through(tmp_path):
    model = TvARModel(1, [ConstantCurve(-0.3)], ConstantCurve(1.5))
    cfg = tmp_path / "eq.json"
    cfg.write_text(json.dumps({"model": model.describe(), "n_list": [64, 128], "replications": 2}))
    out = tmp_path / "eq"
    run("equivalence", "--config", str(cfg), "--seed", "3", "--out", str(out))
    rows = read_rows_csv(out / "equivalence_rows.csv")
    expected = likelihood_equivalence_decay(model=model, n_list=(64, 128), replications=2, seed=3)
    assert [r["median_gap"] for r in rows] == [r["median_gap"] for r in expected]
    default = likelihood_equivalence_decay(n_list=(64, 128), replications=2, seed=3)
    assert expected != default


# each study subcommand without --seed or a config seed, the seed its
# metadata.json records (the library call's default) and the tiny config it runs
DEFAULT_SEEDS = {
    "rate-study": (2026, {"n_list": [64, 128], "replications": 2}),
    "clt-study": (0, {"n": 64, "replications": 5}),
    "prop33": (0, {"n_list": [32, 64], "replications": 4}),
    "tail-study": (0, {"n": 64, "replications": 1000}),
    "equivalence": (7, {"n_list": [64, 128], "replications": 2}),
}


@pytest.mark.parametrize("command", list(DEFAULT_SEEDS))
def test_study_without_seed_runs_and_records_the_library_default(tmp_path, command):
    seed, config = DEFAULT_SEEDS[command]
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "study"
    run(command, "--config", str(cfg), "--out", str(out))
    assert json.loads((out / "metadata.json").read_text())["seed"] == seed
    # the outputs are the library call's at its own defaults
    if command == "rate-study":
        rows, summary = rate_study(n_list=(64, 128), replications=2)
        write_rows_csv(tmp_path / "expected.csv", rows)
        assert (out / "rate_rows.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert json.loads((out / "rate_summary.json").read_text()) == summary
    elif command == "tail-study":
        rows = chi2_tail_study(TailStudySpec.from_design(n=64, replications=1000))
        write_rows_csv(tmp_path / "expected.csv", rows)
        assert (out / "tail_rows.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    elif command == "equivalence":
        rows = read_rows_csv(out / "equivalence_rows.csv")
        expected = likelihood_equivalence_decay(n_list=(64, 128), replications=2)
        assert [r["median_gap"] for r in rows] == [r["median_gap"] for r in expected]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_rejected_at_parse_time(tmp_path, capsys, value):
    out = tmp_path / "sim"
    message = refused(["simulate", "--n", "16", "--threads", value, "--out", str(out)], capsys)
    assert message == f"simulate: --threads must be 1, got {value}: locstat runs on one thread"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "16"],
        ["preperiodogram", "--series", "x.csv"],
        ["likelihood-eval", "--series", "x.csv"],
        ["fit", "--series", "x.csv"],
        ["rate-study"],
        ["tail-study"],
        ["clt-study"],
        ["prop33"],
        ["equivalence"],
    ],
)
def test_threads_one_accepted_everywhere(argv):
    assert build_parser().parse_args([*argv, "--threads", "1"]).threads == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "16"],
        ["preperiodogram", "--series", "x.csv"],
        ["likelihood-eval", "--series", "x.csv"],
        ["fit", "--series", "x.csv"],
        ["tail-study"],
        ["clt-study"],
        ["prop33"],
        ["equivalence"],
    ],
)
def test_threads_above_one_rejected_outside_rate_study(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{argv[0]}: --threads must be 1, got 2: locstat runs on one thread$"):
        main([*argv, "--threads", "2", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv", [["rate-study", "--threads", "2"], ["fit", "--series", "x.csv", "--threads", "0"]])
def test_threads_other_than_one_rejected_by_every_command(tmp_path, capsys, argv):
    out = tmp_path / "out"
    message = refused([*argv, "--out", str(out)], capsys)
    assert message == f"{argv[0]}: --threads must be 1, got {argv[-1]}: locstat runs on one thread"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--series", "x.csv", "--seed", "1"],
        ["likelihood-eval", "--series", "x.csv", "--seed", "1"],
        ["preperiodogram", "--series", "x.csv", "--seed", "1"],
        ["preperiodogram", "--series", "x.csv", "--config", "c.json"],
    ],
)
def test_ignored_flag_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [("tail-study", []), ("fit", None)])
def test_malformed_config_json_exits_with_message(tmp_path, command, extra):
    if extra is None:
        extra = ["--series", str(simulate_into(tmp_path, n=16))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 64,')
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{command}: --config is not valid JSON: "):
        main([command, *extra, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_tail_study_unknown_design_names_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": "cube"}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="^tail-study: unknown design 'cube'$"):
        main(["tail-study", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_fit_json_feeds_likelihood_eval(tmp_path):
    series = simulate_into(tmp_path, n=256)
    fit_out = tmp_path / "fit"
    run("fit", "--series", str(series), "--out", str(fit_out))
    out = tmp_path / "lik"
    run("likelihood-eval", "--series", str(series), "--config", str(fit_out / "fit.json"), "--out", str(out))
    res = json.loads((out / "likelihood.json").read_text())
    assert res["constant_alpha"] is True
    assert np.isfinite(res["whittle"]) and np.isfinite(res["conditional"])
    assert isinstance(res["gap"], float) and 0 <= res["gap"] < np.inf


_MODEL = {"p": 1, "alpha": [{"type": "constant", "value": 0.5}], "sigma2": {"type": "constant", "value": 1.0}}


@pytest.mark.parametrize(
    "command, config, unknown",
    [
        ("clt-study", {"phi": {"type": "constant", "valu": 2.0}}, "valu"),
        ("clt-study", {"model": {**_MODEL, "burnin": 5}}, "burnin"),
        ("clt-study", {"model": _MODEL, "phi": {"type": "ar_inverse", "scal": 2.0}}, "scal"),
        ("prop33", {"phi": {"type": "lag_curves", "curves": {"0": {"type": "constant", "vale": 1.0}}}}, "vale"),
        ("rate-study", {"model": {**_MODEL, "sigma2": {"type": "sampled", "values": [1.0], "eps": 0.5}}}, "eps"),
        ("equivalence", {"model": {**_MODEL, "delt": 0.1}}, "delt"),
        ("simulate", {**_MODEL, "alpha": [{"type": "fourier", "a0": 0.1, "c": [0.2]}]}, "c"),
    ],
)
def test_unknown_nested_config_key_rejected(tmp_path, command, config, unknown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    extra = ["--n", "16"] if command == "simulate" else []
    with pytest.raises(SystemExit, match=f"^{command}: unknown .*key\\(s\\) {unknown};"):
        main([command, *extra, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "config, missing",
    [
        ({"model": {"p": 0, "sigma2": {"type": "constant"}}}, "constant curve lacks required key\\(s\\) value"),
        ({"model": {"p": 0}}, "model lacks required key\\(s\\) sigma2"),
        ({"phi": {"type": "lag_curves"}}, "lag_curves weight lacks required key\\(s\\) curves"),
    ],
)
def test_missing_nested_config_key_rejected(tmp_path, config, missing):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^clt-study: {missing}$"):
        main(["clt-study", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("times, token", [("5,abc", "'abc'"), ("", "''"), ("2,,4", "''")])
def test_preperiodogram_bad_times_rejected_before_reading(tmp_path, times, token):
    out = tmp_path / "out"
    # the series file does not exist: the times are checked first
    with pytest.raises(SystemExit, match=f"^preperiodogram: --times entry {token} "):
        main(["preperiodogram", "--series", str(tmp_path / "none.csv"), "--times", times, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [('{"kn": 4}', "fit: unknown config key(s) kn; allowed: "), ("[4]", "fit: --config must hold a JSON object")],
)
def test_fit_config_is_checked_before_the_series(tmp_path, capsys, config, message):
    # the series file does not exist: the config and its keys are checked first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    out = tmp_path / "out"
    argv = ["fit", "--series", str(tmp_path / "none.csv"), "--config", str(cfg), "--out", str(out)]
    assert refused(argv, capsys).startswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        (None, "likelihood-eval: needs --config with a candidate model"),
        ('{"kn": 4}', "likelihood-eval: unknown config key(s) kn"),
    ],
)
def test_likelihood_eval_config_is_checked_before_the_series(tmp_path, capsys, config, message):
    # the series file does not exist: the candidate model is built first
    argv = ["likelihood-eval", "--series", str(tmp_path / "none.csv"), "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert refused(argv, capsys).startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_simulate_n_below_one_rejected_at_parse_time(tmp_path, capsys, value):
    out = tmp_path / "sim"
    message = refused(["simulate", "--n", value, "--out", str(out)], capsys)
    assert message == f"simulate: n must be at least 1, got {value}"
    assert not out.exists()


def test_simulate_summary_overflow_writes_nothing(tmp_path, capsys):
    # the series is finite, but its squares overflow in the stdout summary,
    # which is computed before --out is created
    model = {"p": 1, "alpha": [{"type": "constant", "value": 0.999999}], "sigma2": {"type": "constant", "value": 1e308}}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(model))
    out = tmp_path / "sim"
    message = refused(["simulate", "--n", "64", "--config", str(cfg), "--out", str(out)], capsys)
    assert message.startswith("simulate: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "likelihood-eval", "preperiodogram"])
@pytest.mark.parametrize(
    "text, message",
    [
        (None, "No such file or directory"),
        ("", "series.csv: no observations"),
        ("x\n", "series.csv: no observations"),
        ("x\r\n0.5\r\n\r\nabc\r\n", "series.csv, line 4: 'abc' is not a number"),
        ("x\n0.5\nnan\n", "series.csv, line 3: 'nan' is not finite"),
        ("0.5\n  \n-inf,1\n", "series.csv, line 3: '-inf' is not finite"),
        ("x\n0.5\nnan\n1.0\nabc\n", "series.csv, line 3: 'nan' is not finite"),
    ],
    ids=[
        "missing",
        "empty",
        "header only",
        "bad cell",
        "nan cell",
        "inf cell after a whitespace line",
        "nan cell before a bad cell",
    ],
)
def test_unreadable_series_exits_with_message(tmp_path, command, text, message):
    series = tmp_path / "series.csv"
    if text is not None:
        series.write_bytes(text.encode())
    # each command's config is valid, since it is checked before the series
    config = {"fit": {"p": 1}, "likelihood-eval": TvARModel(0, [], ConstantCurve(1.0)).describe()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config.get(command)))
    extra = [] if command == "preperiodogram" else ["--config", str(cfg)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{command}: .*{message}"):
        main([command, "--series", str(series), *extra, "--out", str(out)])
    assert not out.exists()


def test_nested_curve_array_field_exits_with_message(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"sigma2": {"type": "sampled", "values": {}}}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=r"^simulate: .*sampled curve values must be a list, got \{\}"):
        main(["simulate", "--n", "16", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["simulate", "likelihood-eval", "fit", "rate-study", "tail-study", "clt-study", "prop33", "equivalence"]
)
def test_missing_config_file_exits_with_message(tmp_path, command):
    extra = {
        "simulate": ["--n", "16"],
        "likelihood-eval": ["--series", str(simulate_into(tmp_path, n=16))],
        "fit": ["--series", str(simulate_into(tmp_path, n=16))],
    }.get(command, [])
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{command}: .*nothere.json"):
        main([command, *extra, "--config", str(tmp_path / "nothere.json"), "--out", str(out)])
    assert not out.exists()


def test_fit_on_all_zero_series_exits_with_message(tmp_path):
    series = tmp_path / "zeros.csv"
    TimeSeries(np.zeros(64)).to_csv(series)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="^fit: normal equations are singular$"):
        main(["fit", "--series", str(series), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "likelihood-eval", "preperiodogram"])
def test_overflowing_series_exits_with_message(tmp_path, command):
    # squares and lag products of 1e300 overflow; the command stops there
    # instead of warning or writing Infinity and NaN
    series = tmp_path / "huge.csv"
    TimeSeries(np.full(64, 1e300)).to_csv(series)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TvARModel(0, [], ConstantCurve(1.0)).describe()))
    extra = ["--config", str(cfg)] if command == "likelihood-eval" else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{command}: .*overflow"):
        main([command, "--series", str(series), *extra, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["equivalence", "likelihood-eval"])
def test_model_that_is_not_an_object_is_named(tmp_path, command):
    extra = ["--series", str(simulate_into(tmp_path, n=16))] if command == "likelihood-eval" else []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "abc"}))
    with pytest.raises(SystemExit, match=f"^{command}: model must be a JSON object, got 'abc'$"):
        main([command, *extra, "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_unwritable_out_exits_with_message_and_status_one(tmp_path):
    blocker = tmp_path / "series.csv"
    blocker.write_text("x\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(locstat.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "locstat.cli", "simulate", "--n", "16", "--out", str(blocker / "x")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("simulate: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("curves, lag", [({"0": 1.0, "00": 2.0}, 0), ({"1": 1, " 1": 5}, 1)])
def test_clt_study_refuses_a_duplicate_lag(tmp_path, curves, lag):
    # both keys name one lag: the first curve was dropped without a word
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"phi": {"type": "lag_curves", "curves": curves}}))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(locstat.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "locstat.cli", "clt-study", "--config", str(cfg), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"clt-study: lag {lag} is given twice\n"
    assert not out.exists()


def test_likelihood_eval_without_config_names_command(tmp_path):
    series = simulate_into(tmp_path)
    with pytest.raises(SystemExit, match="^likelihood-eval: needs --config with a candidate model$"):
        main(["likelihood-eval", "--series", str(series), "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


def test_errors_other_than_bad_input_keep_their_traceback(tmp_path, monkeypatch):
    # a TypeError or a KeyError below main is a bug, not a message
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr("locstat.cli.simulate_tvar", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["simulate", "--n", "16", "--out", str(tmp_path / "out")])


def test_memory_error_exits_with_message(tmp_path, monkeypatch, capsys):
    # a request larger than memory, such as a huge --n, is refused like bad input
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    monkeypatch.setattr("locstat.cli.simulate_tvar", too_large)
    out = tmp_path / "out"
    message = refused(["simulate", "--n", "16", "--out", str(out)], capsys)
    assert message == "simulate: Unable to allocate 7.11 PiB for an array"
    assert not out.exists()


def test_preperiodogram_metadata_does_not_depend_on_series_directory(tmp_path):
    series = simulate_into(tmp_path, n=16)
    metas = []
    for name in ("a", "b/c"):
        copy = tmp_path / name / "series.csv"
        copy.parent.mkdir(parents=True)
        copy.write_bytes(series.read_bytes())
        out = tmp_path / name / "pre"
        run("preperiodogram", "--series", str(copy), "--grid-size", "4", "--out", str(out))
        metas.append((out / "metadata.json").read_bytes())
    assert metas[0] == metas[1]
    assert json.loads(metas[0])["series"] == "series.csv"


def test_fit_json_does_not_depend_on_blas_threads(tmp_path):
    # at n = 16384 a threaded BLAS product in the normal equations would split
    # its sums by thread count and move the last bits of the fit
    series = simulate_into(tmp_path, n=16384, seed=1)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(locstat.__file__))}
    fits = []
    for threads in ("1", "2"):
        out = tmp_path / f"fit{threads}"
        blas = {name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        subprocess.run(
            [sys.executable, "-m", "locstat.cli", "fit", "--series", str(series), "--out", str(out)],
            env={**env, **blas},
            check=True,
            capture_output=True,
        )
        fits.append((out / "fit.json").read_bytes())
    assert fits[0] == fits[1]


@pytest.mark.parametrize("size", ["3", "0", "-2", "1"])
def test_preperiodogram_bad_grid_size_rejected_at_parse_time(tmp_path, capsys, size):
    out = tmp_path / "out"
    # the series file does not exist: the grid is built first
    argv = ["preperiodogram", "--series", str(tmp_path / "none.csv"), "--grid-size", size, "--out", str(out)]
    message = refused(argv, capsys)
    reason = "must be at least 2" if int(size) < 2 else "must be even"
    assert message == f"preperiodogram: grid size {reason}, got {size}"
    assert not out.exists()


def test_preperiodogram_all_times_match_requested_rows(tmp_path):
    series = simulate_into(tmp_path, n=40)
    common = ["preperiodogram", "--series", str(series), "--grid-size", "8"]
    run(*common, "--out", str(tmp_path / "all"))
    run(*common, "--times", "40,3", "--out", str(tmp_path / "some"))
    every = read_rows_csv(tmp_path / "all" / "preperiodogram.csv")
    some = read_rows_csv(tmp_path / "some" / "preperiodogram.csv")
    assert len(every) == 40 * 8
    assert [r["t"] for r in every[::8]] == list(range(1, 41))
    assert some == [r for r in every if r["t"] in (3, 40)]


@pytest.mark.parametrize(
    "command, config",
    [
        ("tail-study", {"replications": 500}),
        ("tail-study", {"n": "abc"}),
        ("clt-study", {"replications": 1}),
        ("clt-study", {"centering": "median"}),
        ("rate-study", {"n_list": [64]}),
        ("fit", {"eps": 1.5}),
        ("prop33", {"n_list": ["abc"]}),
        ("equivalence", {"seed": "abc"}),
        ("prop33", {"replications": 1}),
        ("equivalence", {"replications": 0}),
        ("equivalence", {"model": "abc"}),
        ("likelihood-eval", {"model": "abc"}),
        ("clt-study", {"phi": {"type": "lag_curves", "curves": [1.0]}}),
        ("clt-study", {"phi": {"type": ["constant"]}}),
        ("clt-study", {"phi": {"type": "constant", "value": None}}),
        ("fit", {"max_iter": True}),
        ("tail-study", {"n": True, "etas": [True]}),
    ],
)
def test_rejected_config_value_exits_with_message(tmp_path, command, config):
    extra = ["--series", str(simulate_into(tmp_path, n=16))] if command in ("fit", "likelihood-eval") else []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{command}: "):
        main([command, *extra, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("eps", [1e-300, 1e-160])
def test_fit_eps_without_finite_bounds_exits_with_one_line(tmp_path, capsys, eps):
    series = simulate_into(tmp_path, n=64)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": eps}))
    out = tmp_path / "out"
    message = refused(["fit", "--series", str(series), "--config", str(cfg), "--out", str(out)], capsys)
    assert message == f"fit: eps must lie in (0, 1) with eps^2 > 0 and 1/eps^2 finite, got {eps!r}"
    assert not out.exists()


# Every top-level key each subcommand allows, set to each ill-typed or edge
# value on a small base config: the command either runs or exits with
# "<command>: <message>" before writing --out, never with a traceback.
PROBE_BASES = {
    "fit": ({}, ("p", "k_n", "eps", "max_iter", "rel_tol")),
    "rate-study": ({"n_list": [16, 32], "replications": 2}, ("seed", "model", "n_list", "replications", "p")),
    "tail-study": ({"n": 8, "replications": 1000, "etas": [1.0]}, ("seed", "design", "n", "replications", "etas")),
    "clt-study": ({"n": 16, "replications": 4}, ("seed", "model", "phi", "n", "replications", "centering")),
    "prop33": ({"n_list": [16, 32], "replications": 4}, ("seed", "model", "phi", "n_list", "replications")),
    "equivalence": ({"n_list": [16, 32], "replications": 2}, ("seed", "model", "n_list", "replications")),
    "simulate": ({"sigma2": {"type": "constant", "value": 1.0}}, ("p", "alpha", "sigma2", "delta", "burn_in")),
}


@pytest.fixture(scope="module")
def probe_series(tmp_path_factory):
    out = tmp_path_factory.mktemp("probe")
    run("simulate", "--n", "64", "--seed", "3", "--out", str(out))
    return str(out / "series.csv")


@pytest.mark.parametrize("command, key", [(c, k) for c, (_, keys) in PROBE_BASES.items() for k in keys])
@pytest.mark.parametrize("value", [None, "abc", [1], {}, 0, -1, 1.5], ids=json.dumps)
def test_config_value_runs_or_exits_with_message(tmp_path, probe_series, command, key, value):
    base, _ = PROBE_BASES[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, key: value}))
    out = tmp_path / "out"
    extra = {"fit": ["--series", probe_series], "simulate": ["--n", "16"]}.get(command, [])
    try:
        main([command, *extra, "--config", str(cfg), "--out", str(out)])
    except SystemExit as exc:
        assert str(exc.code).startswith(f"{command}: ")
        assert not out.exists()


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# Every subcommand on a small input, with the result files it writes in the
# order it writes them.
OUTPUT_RUNS = {
    "simulate": (["--n", "32", "--seed", "1"], None, ["series.csv"]),
    "preperiodogram": (["--series", "{series}", "--grid-size", "4", "--times", "1,2"], None, ["preperiodogram.csv"]),
    "likelihood-eval": (["--series", "{series}"], _MODEL, ["likelihood.json"]),
    "fit": (["--series", "{series}"], None, ["fit.json"]),
    "rate-study": ([], PROBE_BASES["rate-study"][0], ["rate_rows.csv", "rate_summary.json"]),
    "tail-study": ([], PROBE_BASES["tail-study"][0], ["tail_rows.csv"]),
    "clt-study": ([], PROBE_BASES["clt-study"][0], ["clt_summary.json", "clt_deviations.csv"]),
    "prop33": ([], PROBE_BASES["prop33"][0], ["bias_rows.csv"]),
    "equivalence": ([], PROBE_BASES["equivalence"][0], ["equivalence_rows.csv"]),
}


@pytest.mark.parametrize("command", OUTPUT_RUNS)
def test_every_command_writes_through_one_path(tmp_path, probe_series, capsys, command):
    argv, config, names = OUTPUT_RUNS[command]
    argv = [arg.format(series=probe_series) for arg in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    run(command, *argv, "--out", str(out))
    wrote = [line[len("wrote ") :] for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [str(out / name) for name in names]
    assert sorted(os.listdir(out)) == sorted([*names, "metadata.json"])
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == command
    assert meta.get("series") == ("series.csv" if "--series" in argv else None)


def test_simulate_fourier_model_passes_or_names_the_first_bad_node(tmp_path):
    # a Fourier-coefficient model passes the root check on the whole
    # validation grid, and one that leaves the unit disk is refused at its
    # first node
    def model(a):
        return {"p": 1, "alpha": [{"type": "fourier", "a0": 0.0, "a": [a], "b": [0.0]}], "sigma2": _MODEL["sigma2"]}

    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(model(0.5)))
    run("simulate", "--config", str(cfg), "--n", "512", "--seed", "1", "--out", str(tmp_path / "wavy"))
    assert len(TimeSeries.from_csv(tmp_path / "wavy" / "series.csv").values) == 512
    cfg.write_text(json.dumps(model(1.2)))
    out = tmp_path / "unstable"
    with pytest.raises(SystemExit, match=r"^simulate: .*root condition at u=0\.001953$"):
        main(["simulate", "--config", str(cfg), "--n", "512", "--out", str(out)])
    assert not out.exists()


def test_clt_study_ar_inverse_weight_ratio_is_positive(tmp_path):
    # the limit variance of an AR(1) model's inverse-spectrum weight is
    # positive, so the ratio is a positive number
    model = {**_MODEL, "sigma2": {"type": "sampled", "values": [1.0, 2.0]}, "burn_in": 30}
    cfg = tmp_path / "clt.json"
    cfg.write_text(json.dumps({"model": model, "phi": {"type": "ar_inverse"}, "n": 96, "replications": 40}))
    run("clt-study", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "clt"))
    ratio = json.loads((tmp_path / "clt" / "clt_summary.json").read_text())["ratio"]
    assert isinstance(ratio, float) and ratio > 0


def test_clt_study_zero_weight_ratio_is_null(tmp_path, capsys):
    cfg = tmp_path / "clt.json"
    cfg.write_text(json.dumps({"phi": {"type": "constant", "value": 0}, "n": 32, "replications": 20}))
    out = tmp_path / "clt"
    run("clt-study", "--config", str(cfg), "--out", str(out))
    summary = json.loads((out / "clt_summary.json").read_text(), parse_constant=_refuse_constant)
    assert summary["limit_variance"] == 0.0
    assert summary["ratio"] is None
    assert capsys.readouterr().out.splitlines()[-1].endswith(" ratio=None")
