"""Experiment configs, report files, pipelines on tiny inputs, and the CLI."""

import json

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
                input={"distribution": {"kind": "uniform", "params": {"low": "a"}}, "T": 200}
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
    ],
    ids=[
        "degree_blocks", "shaping_key", "n_nodes_type", "truncated_json", "analysis_key",
        "degree_blocks_scalar", "sigmas_scalar", "distribution_param_type",
        "threshold_seed_negative", "input_seed_negative", "washout_negative",
        "weight_seed_negative", "analysis_seed_negative",
    ],
)
def test_cli_bad_config_exits_2(tmp_path, capsys, command, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main([command, "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


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
