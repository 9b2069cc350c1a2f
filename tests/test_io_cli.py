"""Experiment configs, report files, pipelines on tiny inputs, and the CLI."""

import json
import weakref

import numpy as np
import pytest

from ipcap import (
    CapacityEntry,
    CapacityReport,
    ConfigError,
    DataError,
    ExperimentConfig,
    get_preset,
    preset_names,
    read_report,
    run_ipc,
    run_tipc,
    write_report,
)
import ipcap.presets
from ipcap.cli import main
from ipcap.distributions import DistributionSpec, sample_stream
from ipcap.reports import report_from_dict, report_to_dict, write_series_csv


def write_csv(path, values, header="value"):
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    if arr.shape[0] == 1:
        arr = arr.T
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in arr]
    path.write_text("\n".join(lines) + "\n")
    return path


def delay_line_config(tmp_path, T=500):
    zeta = sample_stream(DistributionSpec(kind="uniform"), T, seed=71)
    state_path = write_csv(tmp_path / "state.csv", zeta, header="x0")
    input_path = write_csv(tmp_path / "input.csv", zeta)
    return ExperimentConfig.from_dict(
        {
            "name": "delayline",
            "kind": "ipc",
            "system": {"kind": "external", "state_csv": str(state_path)},
            "input": {"csv": str(input_path), "T": T},
            "sweep": {"family": {"kind": "legendre"}, "degree_blocks": [[1, 1]]},
            "output": {"basename": "delayline"},
        }
    )


def test_config_requires_known_kind():
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict({"name": "x", "kind": "spectral"})


def test_config_rejects_unknown_blocks_and_keys():
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_dict({"kind": "ipc", "wavelets": {}})
    with pytest.raises(ConfigError, match="system"):
        ExperimentConfig.from_dict(
            {"kind": "ipc", "system": {"kind": "esn", "depth": 3}}
        )


def test_config_capacity_requirements():
    base = {
        "kind": "ipc",
        "system": {"kind": "esn_1d", "rho": 0.9},
        "input": {"distribution": {"kind": "uniform"}, "T": 100},
        "sweep": {"family": {"kind": "legendre"}, "degree_blocks": [[1, 2]]},
    }
    ExperimentConfig.from_dict(base)  # sanity: the template itself is valid

    missing_system = {k: v for k, v in base.items() if k != "system"}
    with pytest.raises(ConfigError, match="system"):
        ExperimentConfig.from_dict(missing_system)

    no_t = dict(base, input={"distribution": {"kind": "uniform"}})
    with pytest.raises(ConfigError, match="input.T"):
        ExperimentConfig.from_dict(no_t)

    both = dict(
        base, input={"distribution": {"kind": "uniform"}, "csv": "x.csv", "T": 10}
    )
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_dict(both)

    no_blocks = dict(base, sweep={"family": {"kind": "legendre"}})
    with pytest.raises(ConfigError, match="degree_blocks"):
        ExperimentConfig.from_dict(no_blocks)

    bad_block = dict(
        base, sweep={"family": {"kind": "legendre"}, "degree_blocks": [[0, 2]]}
    )
    with pytest.raises(ConfigError, match="degree_blocks"):
        ExperimentConfig.from_dict(bad_block)


def test_config_narma_suite_requires_analysis():
    with pytest.raises(ConfigError, match="analysis"):
        ExperimentConfig.from_dict({"kind": "narma_suite", "system": {"kind": "narma10"}})


def test_config_roundtrip():
    cfg = get_preset("fig2a_symmetric")
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_all_presets_are_valid():
    names = preset_names()
    assert len(names) >= 15
    for name in names:
        cfg = get_preset(name)
        assert cfg.kind in ("ipc", "tipc", "narma_suite")


def test_unknown_preset():
    with pytest.raises(ConfigError, match="preset"):
        get_preset("fig9")


def test_run_ipc_external_delay_line(tmp_path):
    report = run_ipc(delay_line_config(tmp_path), tmp_path)
    assert report.rank == 1
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.spec == "1@1"
    assert entry.raw_capacity > 0.98
    assert entry.thresholded_capacity == entry.raw_capacity

    loaded = read_report(tmp_path / "delayline.json")
    assert report_to_dict(loaded) == report_to_dict(report)
    assert (tmp_path / "delayline.csv").read_text().startswith("spec,order")


def test_cli_external_state_length_must_equal_T(tmp_path, capsys):
    cfg = delay_line_config(tmp_path, T=3000).to_dict()
    write_csv(tmp_path / "state.csv", np.linspace(-1, 1, 50), header="x0")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "50" in err and "3000" in err


def test_run_ipc_output_is_byte_stable(tmp_path):
    cfg = delay_line_config(tmp_path, T=200)
    run_ipc(cfg, tmp_path / "a")
    run_ipc(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "delayline.json").read_bytes() == (
        tmp_path / "b" / "delayline.json"
    ).read_bytes()


def test_run_ipc_zero_state_has_zero_capacity(tmp_path):
    state_path = write_csv(tmp_path / "state.csv", np.zeros(40))
    input_path = write_csv(
        tmp_path / "input.csv", sample_stream(DistributionSpec(kind="uniform"), 40, 3)
    )
    cfg = ExperimentConfig.from_dict(
        {
            "name": "flat",
            "kind": "ipc",
            "system": {"kind": "external", "state_csv": str(state_path)},
            "input": {"csv": str(input_path), "T": 40},
            "sweep": {"family": {"kind": "legendre"}, "degree_blocks": [[1, 1]]},
            "output": {"basename": "flat"},
        }
    )
    report = run_ipc(cfg, tmp_path)
    assert report.rank == 0
    assert report.total == 0.0


@pytest.mark.parametrize(
    "kind, system",
    [("ipc", {"kind": "esn", "n_nodes": 8}), ("tipc", {"kind": "esn_1d", "rho": 0.9})],
)
def test_capacity_run_frees_the_trajectory_before_the_sweep(tmp_path, monkeypatch, kind, system):
    config = ExperimentConfig.from_dict(
        {
            "name": "freed",
            "kind": kind,
            "system": system,
            "input": {"distribution": {"kind": "uniform"}, "T": 2000, "washout": 100},
            "sweep": {"family": {"kind": "legendre"}, "degree_blocks": [[1, 4], [2, 3]]},
        }
    )
    arrays, components = [], []
    real_build, real_detrend = ipcap.presets._build_state, ipcap.presets.detrend
    real_sweep = ipcap.presets.capacity_sweep

    def recording_build(*args):
        state = real_build(*args)
        arrays.append(weakref.ref(state.data))
        return state

    def recording_detrend(*args):
        state = real_detrend(*args)
        arrays.append(weakref.ref(state.data))
        components.append(state.meta["detrend"]["components"])
        return state

    def checking_sweep(*args, **kwargs):
        assert len(arrays) == 2 and all(ref() is None for ref in arrays)
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(ipcap.presets, "_build_state", recording_build)
    monkeypatch.setattr(ipcap.presets, "detrend", recording_detrend)
    monkeypatch.setattr(ipcap.presets, "capacity_sweep", checking_sweep)
    report = (run_tipc if kind == "tipc" else run_ipc)(config, tmp_path)
    assert report.entries
    if kind == "tipc":
        assert report.meta["detrend"] == components[0] and any(components[0])


def test_run_ipc_rejects_short_state(tmp_path):
    state_path = write_csv(
        tmp_path / "state.csv",
        np.random.default_rng(5).normal(size=(5, 6)),
        header=",".join(f"x{i}" for i in range(6)),
    )
    input_path = write_csv(tmp_path / "input.csv", np.linspace(-1, 1, 5))
    cfg = ExperimentConfig.from_dict(
        {
            "name": "short",
            "kind": "ipc",
            "system": {"kind": "external", "state_csv": str(state_path)},
            "input": {"csv": str(input_path), "T": 5},
            "sweep": {"family": {"kind": "legendre"}, "degree_blocks": [[1, 1]]},
        }
    )
    with pytest.raises(DataError, match="rows"):
        run_ipc(cfg, tmp_path)


def test_run_ipc_rejects_wrong_kind(tmp_path):
    cfg = get_preset("esn1d_tipc_null")
    with pytest.raises(ConfigError, match="kind"):
        run_ipc(cfg, tmp_path)
    with pytest.raises(ConfigError, match="kind"):
        run_tipc(get_preset("fig2a_symmetric"), tmp_path)


def test_report_dict_roundtrip(tmp_path):
    report = run_ipc(delay_line_config(tmp_path, T=200), tmp_path)
    payload = report_to_dict(report)
    again = report_to_dict(report_from_dict(payload))
    assert again == payload
    with pytest.raises(DataError, match="entries"):
        report_from_dict({"total": 1.0})


def test_report_file_roundtrip_is_byte_identical(tmp_path):
    report = CapacityReport(
        entries=(CapacityEntry("1@1", 1, 0.75, 0.75), CapacityEntry("2@1", 2, 1e-3, 0.0)),
        per_order_totals={1: 0.75, 2: 0.0},
        total=0.75,
        rank=1,
        threshold_meta={"n_surrogates": 200, "significance_pct": 1.0, "factor": 2.0, "seed": 7},
        skipped=(("1@9", "delay 9 exceeds window start 1"),),
        meta={"name": "roundtrip"},
    )
    write_report(report, tmp_path / "a.json", tmp_path / "a.csv")
    loaded = read_report(tmp_path / "a.json")
    assert isinstance(loaded.entries, tuple)
    assert isinstance(loaded.skipped, tuple) and loaded.skipped == report.skipped
    write_report(loaded, tmp_path / "b.json", tmp_path / "b.csv")
    for suffix in ("json", "csv"):
        assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()


def test_write_series_csv_errors(tmp_path):
    with pytest.raises(DataError, match="at least one"):
        write_series_csv(tmp_path / "x.csv", {})
    with pytest.raises(DataError, match="lengths"):
        write_series_csv(
            tmp_path / "x.csv", {"a": np.zeros(3), "b": np.zeros(4)}
        )


def test_cli_simulate_writes_series(tmp_path, capsys):
    out = tmp_path / "lc.csv"
    code = main(
        ["simulate", "--system", "limit_cycle", "--steps", "50", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == ["x", "y"]
    assert len(lines) == 51


@pytest.mark.parametrize(
    "system, header",
    [
        ("esn", [f"x{i}" for i in range(50)]),
        ("esn_1d", ["x"]),
        ("narma10", ["y"]),
        ("limit_cycle", ["x", "y"]),
    ],
)
def test_cli_simulate_writes_every_state_column(tmp_path, system, header):
    out = tmp_path / "state.csv"
    assert main(["simulate", "--system", system, "--steps", "80", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == header
    assert len(lines) == 81


def test_cli_basis_writes_table(tmp_path):
    out = tmp_path / "basis.csv"
    code = main(
        ["basis", "--family", "hermite", "--max-degree", "3", "--lo", "-2",
         "--hi", "2", "--count", "9", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == ["zeta", "degree_0", "degree_1", "degree_2", "degree_3"]
    assert len(lines) == 10


def test_cli_ipc_runs_config_file(tmp_path, capsys):
    cfg = delay_line_config(tmp_path, T=200)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    code = main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert code == 0
    assert "total=" in capsys.readouterr().out
    assert (tmp_path / "delayline.json").exists()


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    assert main(["ipc", "--preset", "fig9", "--outdir", str(tmp_path)]) == 2
    assert main(["ipc", "--outdir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def capacity_config_text(**blocks):
    payload = {
        "name": "bad",
        "kind": "ipc",
        "system": {"kind": "esn_1d", "rho": 0.9},
        "input": {"distribution": {"kind": "uniform"}, "T": 200},
        "sweep": {"family": {"kind": "legendre"}, "degree_blocks": [[1, 2]]},
    }
    payload.update(blocks)
    return json.dumps(payload)


gram_schmidt_sweep = {"family": {"kind": "gram_schmidt"}, "degree_blocks": [[1, 2]]}

# an input law with a family that is not orthogonal under it
MISMATCHED = [
    {
        "input": {"distribution": {"kind": law, "params": law_params}, "T": 200},
        "sweep": {"family": family, "degree_blocks": [[1, 2]]},
    }
    for law, law_params, family in (
        ("gamma", {"alpha": 4.0}, {"kind": "laguerre", "params": {"alpha": 1.0}}),
        ("gamma", {}, {"kind": "hermite"}),
        ("poisson", {"a": 3.0}, {"kind": "charlier", "params": {"a": 6.0}}),
    )
]


def capacity_config(**blocks):
    return json.loads(capacity_config_text(**blocks))


def suite_config(system=None, **analysis):
    return {"name": "bad", "kind": "narma_suite", "system": system or {"kind": "narma10"}, "analysis": analysis}


# id -> (command, config, the key its error names)
NAMED = {
    "esn_1d_without_rho": ("ipc", capacity_config(system={"kind": "esn_1d"}), "system.rho"),
    **{
        f"{kind}_init_{tag}": ("ipc", capacity_config(system={"kind": kind, "init": init}), "system.init")
        for kind, length in (("narma10", 10), ("limit_cycle", 2))
        for tag, init in (("text", "abc"), ("length", [0.5] * (length + 1)))
    },
    **{
        f"{name}_symmetric_text": (
            "narma", suite_config(**{name: {"symmetric": "no"}}), f"analysis.{name}.symmetric"
        )
        for name in ("divergence", "approx_model", "lyapunov")
    },
    # the divergence block is valid and comes first in the suite; nothing of it may run
    "suite_lyapunov_M_zero": (
        "narma",
        suite_config(divergence={"sigmas": [0.3], "n_seeds": 2, "horizon": 50}, lyapunov={"M": 0}),
        "analysis.lyapunov.M",
    ),
    **{
        f"input_T_{T}": ("ipc", capacity_config(input={"distribution": {"kind": "uniform"}, "T": T}), "input.T")
        for T in (0, 1, -5)
    },
    # both analyses divide by beta
    **{
        f"{name}_beta_zero": (
            "narma", suite_config({"kind": "narma10", "beta": 0.0}, **{name: {}}), "system.beta"
        )
        for name in ("fixed_point", "nullclines")
    },
    "nullclines_count_zero": ("narma", suite_config(nullclines={"count": 0}), "analysis.nullclines.count"),
    # detrend needs 4 steps; the readout fits 50 weights and tests on 2 steps at least
    "approx_model_T_3": ("narma", suite_config(approx_model={"T": 3}), "analysis.approx_model.T"),
    "nrmse_table_T_40": ("narma", suite_config(nrmse_table={"T": 40}), "analysis.nrmse_table.T"),
    "nrmse_table_T_50": ("narma", suite_config(nrmse_table={"T": 50}), "analysis.nrmse_table.T"),
    **{
        f"nrmse_table_split_{tag}": (
            "narma", suite_config(nrmse_table={"T": T, "train_frac": frac}), "analysis.nrmse_table.train_frac"
        )
        for tag, T, frac in (("fit_short", 80, 0.5), ("test_short", 60, 0.99), ("test_empty", 51, 0.999))
    },
    **{
        f"basin_{axis}_count_zero": (
            "narma", suite_config(basin={f"{axis}_count": 0}), f"analysis.basin.{axis}_count"
        )
        for axis in "ab"
    },
}


@pytest.mark.parametrize(
    "command, text",
    [
        ("ipc", capacity_config_text(sweep={"family": {"kind": "legendre"}, "degree_blocks": [["a", 3]]})),
        ("ipc", capacity_config_text(input={"distribution": {"kind": "uniform"}, "T": 200, "shaping": {"gain": 1}})),
        ("ipc", capacity_config_text(system={"kind": "esn", "n_nodes": "ten"})),
        ("ipc", capacity_config_text()[:-9]),
        ("narma", json.dumps({"kind": "narma_suite", "analysis": {"divergence": {"horizn": 10}}})),
        ("ipc", capacity_config_text(sweep={"family": {"kind": "legendre"}, "degree_blocks": 5})),
        ("narma", json.dumps({"kind": "narma_suite", "analysis": {"divergence": {"sigmas": 0.3}}})),
        (
            "ipc",
            capacity_config_text(
                input={"distribution": {"kind": "gamma", "params": {"alpha": "a"}}, "T": 200}
            ),
        ),
        ("ipc", capacity_config_text(threshold={"seed": -3})),
        ("ipc", capacity_config_text(input={"distribution": {"kind": "uniform"}, "T": 200, "seed": -1})),
        ("ipc", capacity_config_text(input={"distribution": {"kind": "uniform"}, "T": 200, "washout": -50})),
        ("ipc", capacity_config_text(system={"kind": "esn", "weight_seed": -1})),
        (
            "narma",
            json.dumps(
                {"kind": "narma_suite", "analysis": {"divergence": {"sigmas": [0.3], "seed": -2}}}
            ),
        ),
        ("ipc", capacity_config_text(sweep={"family": "gram_schmidt", "degree_blocks": [[1, 2]]})),
        ("ipc", capacity_config_text(sweep={"family": {"params": {}}, "degree_blocks": [[1, 2]]})),
        *[
            ("ipc", capacity_config_text(sweep={"family": family, "degree_blocks": [[1, 2]]}))
            for family in (
                {"kind": "laguerre", "params": {"alpha": "x"}},
                {"kind": "krawtchouk", "params": {"n": 2.5}},
                {"kind": "jacobi", "params": {"alpha": -3.0}},
                {"kind": "gram_schmidt", "params": {"max_degree": "q"}},
            )
        ],
        *[
            ("tipc", capacity_config_text(kind="tipc", sweep={**gram_schmidt_sweep, key: value}))
            for key, value in (
                ("fit_degree", 0), ("fit_degree", "a"), ("max_degree_per_var", "a"),
                ("detrend_harmonics", "a"), ("detrend_harmonics", -1), ("rank_tol", "a"),
                ("max_degree_per_var", 0),
            )
        ],
        (
            "ipc",
            capacity_config_text(
                sweep={
                    "family": {"kind": "hahn", "params": {"alpha": -1.0, "beta": -1.0}},
                    "degree_blocks": [[1, 2]],
                }
            ),
        ),
        ("ipc", capacity_config_text(sweep={**gram_schmidt_sweep, "degree_blocks": [[3, 2]], "fit_degree": 2})),
        *[("ipc", capacity_config_text(**blocks)) for blocks in MISMATCHED],
        (
            "ipc",
            capacity_config_text(
                input={"distribution": {"kind": "uniform", "params": {"low": 0.0, "high": 1.0}}, "T": 200}
            ),
        ),
        # a degree-3 multilinear target needs 3 delays; only 2 are allowed
        (
            "ipc",
            capacity_config_text(
                input={"distribution": {"kind": "bernoulli"}, "T": 2000},
                sweep={"degree_blocks": [[3, 2]], "max_degree_per_var": 1},
            ),
        ),
        *[(command, json.dumps(payload)) for command, payload, _ in NAMED.values()],
    ],
    ids=[
        "degree_blocks", "shaping_key", "n_nodes_type", "truncated_json", "analysis_key",
        "degree_blocks_scalar", "sigmas_scalar", "distribution_param_type",
        "threshold_seed_negative", "input_seed_negative", "washout_negative",
        "weight_seed_negative", "analysis_seed_negative", "family_not_mapping", "family_no_kind",
        "laguerre_alpha_type", "krawtchouk_n_fraction", "jacobi_alpha_range",
        "gram_schmidt_max_degree_alias", "fit_degree_zero", "fit_degree_type",
        "max_degree_per_var_type", "detrend_harmonics_type", "detrend_harmonics_negative",
        "rank_tol_type", "max_degree_per_var_zero", "hahn_zero_denominator", "fit_degree_below_top",
        "gamma_laguerre_alpha", "gamma_hermite", "poisson_charlier_a", "uniform_low_high",
        "degree_blocks_without_target",
        *NAMED,
    ],
)
def test_cli_bad_config_exits_2(tmp_path, capsys, monkeypatch, command, text):
    def no_run(*args, **kwargs):
        raise AssertionError("the config must be refused before anything runs")

    monkeypatch.setattr(ipcap.presets, "_input_stream", no_run)
    monkeypatch.setattr(ipcap.presets, "divergence_probability", no_run)
    monkeypatch.setattr(ipcap.presets, "_run_nrmse_table", no_run)
    monkeypatch.setattr(ipcap.presets, "_run_approx_model", no_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main([command, "--config", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, key", [case[1:] for case in NAMED.values()], ids=list(NAMED))
def test_config_error_names_the_key(payload, key):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(payload)
    assert str(info.value).startswith(f"{key}: ")


@pytest.mark.parametrize("per_var", [1, 2, 3, None])
def test_config_refuses_exactly_the_blocks_without_a_target(per_var):
    # the config's closed form against the sweep's own enumeration
    for degree in range(1, 8):
        for max_delay in range(1, 5):
            sweep = {"family": {"kind": "legendre"}, "degree_blocks": [[degree, max_delay]]}
            if per_var is not None:
                sweep["max_degree_per_var"] = per_var
            payload = json.loads(capacity_config_text(sweep=sweep))
            if ipcap.presets._sweep_specs(sweep):
                ExperimentConfig.from_dict(payload)
            else:
                with pytest.raises(ConfigError, match="sweep.degree_blocks: no block yields a target"):
                    ExperimentConfig.from_dict(payload)


@pytest.mark.parametrize(
    "family, sweep, message",
    [
        # 2n + alpha + beta hits 0, -1 or -2 only at the step to degree 3
        ({"kind": "hahn", "params": {"alpha": -4.5, "beta": -0.5}}, {}, "step to degree 3 divides by zero"),
        ({"kind": "gram_schmidt"}, {"fit_degree": 2}, "sweep.fit_degree: must be >= 3"),
    ],
)
def test_config_rejects_a_family_the_sweep_cannot_evaluate(family, sweep, message):
    # a CSV input has no law, so the config takes the family as given
    payload = json.loads(
        capacity_config_text(
            input={"csv": "input.csv", "T": 200},
            sweep={"family": family, "degree_blocks": [[3, 2]], **sweep},
        )
    )
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(payload)
    # the sweep never evaluates degree 3 when each variable is capped at degree 2
    ExperimentConfig.from_dict({**payload, "sweep": {**payload["sweep"], "max_degree_per_var": 2}})


@pytest.mark.parametrize(
    "law, sweep, points, key",
    [
        # fitted: a degree-3 block, so the fit and the targets reach degree 3
        ({"kind": "bernoulli"}, {"degree_blocks": [[1, 2], [3, 2]]}, 2, "max_degree_per_var"),
        # fitted: the targets stop at degree 1, the fit does not
        (
            {"kind": "bernoulli"},
            {"degree_blocks": [[3, 4]], "max_degree_per_var": 1, "fit_degree": 3},
            2,
            "fit_degree",
        ),
        ({"kind": "zipf", "params": {"k_max": 3}}, {"degree_blocks": [[3, 2]]}, 3, "max_degree_per_var"),
        # Hahn, whose recurrence would reach degree 3 before dividing by zero
        (
            {"kind": "hypergeometric", "params": {"draws": 2}},
            {"degree_blocks": [[1, 2], [3, 2]]},
            3,
            "max_degree_per_var",
        ),
        (
            {"kind": "binomial", "params": {"n": 2}},
            {"family": {"kind": "gram_schmidt"}, "degree_blocks": [[3, 2]]},
            3,
            "max_degree_per_var",
        ),
    ],
    ids=["bernoulli_degree", "bernoulli_fit_degree", "zipf", "hypergeometric", "binomial_gram_schmidt"],
)
def test_cli_refuses_a_basis_the_law_cannot_carry(tmp_path, capsys, monkeypatch, law, sweep, points, key):
    def no_run(*args):
        raise AssertionError("the config must be refused before anything runs")

    monkeypatch.setattr(ipcap.presets, "_input_stream", no_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(capacity_config_text(input={"distribution": law, "T": 300}, sweep=sweep))
    assert main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: sweep.{key}: ") and err.count("\n") == 1
    assert f"has {points} support points" in err


def test_finite_support_laws_run_within_their_degree(tmp_path, capsys):
    # the fit degree defaults to the top degree the targets evaluate (1 here)
    cfg_path = tmp_path / "bernoulli.json"
    cfg_path.write_text(
        capacity_config_text(
            input={"distribution": {"kind": "bernoulli"}, "T": 300},
            sweep={"degree_blocks": [[1, 3], [3, 4]], "max_degree_per_var": 1},
            output={"basename": "bernoulli"},
        )
    )
    assert main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
    assert read_report(tmp_path / "bernoulli.json").meta["family"] == "gram_schmidt"
    # Krawtchouk's degrees above n vanish on the support: skipped, not refused
    cfg_path = tmp_path / "binomial.json"
    cfg_path.write_text(
        capacity_config_text(
            input={"distribution": {"kind": "binomial", "params": {"n": 2}}, "T": 300},
            sweep={"degree_blocks": [[1, 2], [3, 2]]},
            output={"basename": "binomial"},
        )
    )
    assert main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
    report = read_report(tmp_path / "binomial.json")
    assert report.meta["family"] == "krawtchouk"
    assert {label for label, why in report.skipped if "degenerate" in why} == {"3@1", "3@2"}


@pytest.mark.parametrize("blocks", MISMATCHED)
def test_config_error_names_the_law_and_the_family(tmp_path, capsys, blocks):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(capacity_config_text(**blocks))
    assert main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input.distribution" in err and "sweep.family" in err


@pytest.mark.parametrize(
    "law, restated, family",
    [
        ({"kind": "uniform"}, {"kind": "legendre"}, {"kind": "legendre", "params": {}}),
        (
            {"kind": "hypergeometric", "params": {"m": 30}},
            {"kind": "hahn", "params": {"alpha": -31.0}},
            {"kind": "hahn", "params": {"alpha": -31.0, "beta": -51.0, "n": 20}},
        ),
        ({"kind": "pareto"}, {"kind": "gram_schmidt"}, {"kind": "gram_schmidt", "params": {}}),
    ],
)
def test_the_input_law_picks_the_family(law, restated, family):
    payload = json.loads(capacity_config_text(input={"distribution": law, "T": 200}))
    # no family, or the law's family restated with or without its defaults
    for given in ({}, {"family": restated}, {"family": family}):
        config = ExperimentConfig.from_dict({**payload, "sweep": {**given, "degree_blocks": [[1, 2]]}})
        assert config.sweep["family"] == family
    assert ExperimentConfig.from_dict(
        {**payload, "sweep": gram_schmidt_sweep}
    ).sweep["family"] == {"kind": "gram_schmidt", "params": {}}


def test_cli_capacity_config_without_family_runs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        capacity_config_text(sweep={"degree_blocks": [[1, 2]]}, output={"basename": "derived"})
    )
    assert main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
    assert read_report(tmp_path / "derived.json").meta["family"] == "legendre"


def test_cli_csv_input_without_family_runs_on_gram_schmidt(tmp_path, capsys):
    cfg = delay_line_config(tmp_path, T=200).to_dict()
    del cfg["sweep"]["family"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 0
    report = read_report(tmp_path / "delayline.json")
    assert report.meta["family"] == "gram_schmidt"
    assert report.entries[0].raw_capacity > 0.98


def test_cli_multi_column_input_exits_3(tmp_path, capsys):
    cfg = delay_line_config(tmp_path, T=200).to_dict()
    write_csv(tmp_path / "input.csv", np.ones((200, 2)), header="a,b")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 3
    assert "one column" in capsys.readouterr().err


def test_cli_exit_code_on_nonpositive_narma_horizon(tmp_path, capsys):
    for analysis in (
        {"divergence": {"sigmas": [0.3], "n_seeds": 2, "horizon": 0}},
        {"basin": {"a_count": 2, "b_count": 2, "max_steps": 0}},
    ):
        cfg = {"name": "empty", "kind": "narma_suite", "analysis": analysis}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["narma", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_exit_code_on_missing_file(tmp_path, capsys):
    code = main(["ipc", "--config", str(tmp_path / "absent.json"), "--outdir", str(tmp_path)])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_cli_exit_code_on_divergence(tmp_path, capsys):
    cfg = {
        "name": "blowup",
        "kind": "ipc",
        "system": {
            "kind": "esn",
            "n_nodes": 10,
            "spectral_radius": 1.5,
            "activation": "linear",
        },
        "input": {"distribution": {"kind": "uniform"}, "T": 2000, "washout": 100},
        "sweep": {"family": {"kind": "legendre"}, "degree_blocks": [[1, 2]]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["ipc", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert code == 4
    assert "numeric error" in capsys.readouterr().err


def test_tipc_null_system_keeps_no_temporal_capacity(tmp_path):
    report = run_tipc(get_preset("esn1d_tipc_null"), tmp_path)
    temporal = [e for e in report.entries if "cos" in e.spec or "sin" in e.spec]
    assert len(temporal) == 40
    assert all(e.thresholded_capacity == 0.0 for e in temporal)
    plain_total = sum(
        e.thresholded_capacity
        for e in report.entries
        if "cos" not in e.spec and "sin" not in e.spec
    )
    assert plain_total > 0.5
