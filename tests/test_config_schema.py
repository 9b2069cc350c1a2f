"""The config schema: a seeded fuzz of invalid configs, and the README reference it writes."""

import copy
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest

import ipcap.presets
from ipcap import ConfigError, ExperimentConfig
from ipcap.cli import main
from ipcap.distributions import LAWS, DistributionSpec
from ipcap.polychaos import _FAMILIES
from ipcap.presets import _CAPACITY_ONLY, _SYSTEM_KIND, PRESETS, SCHEMA, SYSTEMS
from ipcap.schema import REQUIRED, Key

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import config_reference  # noqa: E402

# values of the wrong type, by key type; null is wrong too unless the key is
# nullable, and so are NaN and +-inf (JSON's NaN and Infinity literals)
NON_FINITE = [math.nan, math.inf, -math.inf]
WRONG = {
    "int": [1.5, "3", True, [1], {}],
    "float": ["x", True, [0.5], {}, *NON_FINITE],
    "bool": ["no", "true", 0, 1],
    "str": [3, True, ["a"], {}],
    "numbers": ["x", 0.5, ["x"], [True], {}, *([x] for x in NON_FINITE)],
    "integers": [1, [1.5], ["1"], [True]],
    "names": ["tanh", [1], [None]],
    "pairs": [5, [[1]], [[1, 2, 3]], [["a", 3]], [[1.0, 2]]],
    "mapping": [[], "x", 3],
    "system": ["x", 3, []],
    "block": ["x", 3, [], True],
    "components": [
        "x", 3, [], [1.0], [[0.5, 0.0]], [["a", 0.0, 1.0]], [[True, 0.0, 1.0]], {},
        [[0.5, math.nan, 1.0]], [[0.5, 0.0, math.inf]],
    ],
}
# candidates for a value outside a bound
EDGES = {
    "int": [-10**6, -5, -1, 0, 1, 2, 31],
    "float": [-1.0, 0.0, 1.0, 1.5],
    "components": [[0.0, 0.0, 1.0], [-0.5, 0.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, -1.0]],
}
ENTRY = {
    "int": "int", "integers": "int", "pairs": "int", "float": "float", "numbers": "float",
    "components": "components",
}
CASES_PER_PRESET = 30
CLI_EVERY = 10


def sites(payload: dict) -> list:
    """(path, key) for every key the schema declares in a block the payload gives.

    The parameters of the payload's input law, and those of the family it
    picks, are reached through the law table.
    """
    found = []

    def visit(path, keys, block):
        for name, key in keys.items():
            found.append((path + (name,), key))
            if key.type == "block" and key.keys and isinstance(block.get(name), dict):
                visit(path + (name,), key.keys, block[name])

    visit((), SCHEMA, payload)
    if "system" in payload:
        found.append((("system", "kind"), _SYSTEM_KIND["kind"]))
        found += [(("system", name), key) for name, key in SYSTEMS[payload["system"]["kind"]][1].items()]
    if has(payload, ("input", "distribution")):
        law = LAWS[payload["input"]["distribution"]["kind"]]
        found += [(("input", "distribution", "params", name), key) for name, key in law.params.items()]
        family = _FAMILIES[law.family][1]
        found += [(("sweep", "family", "params", name), key) for name, key in family.items()]
    return found


def blocks(payload: dict) -> list:
    """Paths of the schema blocks the payload gives, the top level included."""
    given = [
        path for path, key in sites(payload) if key.type in ("block", "system", "mapping") and has(payload, path)
    ]
    return [()] + given


def has(payload, path) -> bool:
    for name in path:
        if not isinstance(payload, dict) or name not in payload:
            return False
        payload = payload[name]
    return isinstance(payload, dict)


def _at(payload, path):
    for name in path:
        payload = payload[name]
    return payload


def put(payload, path, value):
    if path[:2] == ("sweep", "family") and "family" not in payload["sweep"]:
        # restate the family the input law picks, which the config accepts
        payload["sweep"]["family"] = DistributionSpec.from_dict(payload["input"]["distribution"]).family
    _at(payload, path[:-1])[path[-1]] = value


def out_of_bound(rng, key: Key):
    """A value of the key's type that breaks its bound or its choices, or None if it has neither."""
    if key.choices:
        bad = rng.choice(["bogus", key.choices[0].upper() + "_"])
        return [bad] if key.type == "names" else bad
    if key.bound is None:
        return None
    bad = rng.choice([x for x in EDGES[ENTRY[key.type]] if not key.bound[0](x)])
    return {"numbers": [bad], "integers": [bad], "pairs": [[bad, 1]], "components": [bad]}.get(key.type, bad)


def mutations(rng, name: str) -> list:
    """Invalid copies of a preset, each one mutation away from it: (what, payload)."""
    preset = PRESETS[name]
    capacity = preset["kind"] != "narma_suite"
    found = sites(preset)
    # the keys the schema requires, and those ipc and tipc configs must give
    required = [
        path
        for path, key in found
        if has(preset, path[:-1])
        and path[-1] in _at(preset, path[:-1])
        and (key.default is REQUIRED or (capacity and key.default is _CAPACITY_ONLY))
    ]
    required.append(("system",) if capacity else ("analysis",))
    cases = []
    while len(cases) < CASES_PER_PRESET:
        payload = copy.deepcopy(preset)
        kind = rng.choice(["type", "bound", "unknown", "missing"])
        if kind == "type":
            path, key = rng.choice(found)
            wrong = WRONG[key.type] + ([] if key.nullable else [None])
            if key.length:
                wrong = wrong + [[0.5] * (key.length + 1)]
            put(payload, path, rng.choice(wrong))
        elif kind == "bound":
            path, key = rng.choice(found)
            bad = out_of_bound(rng, key)
            if bad is None:
                continue
            put(payload, path, bad)
        elif kind == "unknown":
            path = rng.choice(blocks(preset))
            put(payload, path + ("bogus_key",), 1)
        else:
            path = rng.choice(required)
            del _at(payload, path[:-1])[path[-1]]
        cases.append((f"{kind} {'.'.join(path)}", payload))
    return cases


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_fuzz_every_invalid_mutation_is_refused(name, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the config must be refused before anything runs")

    for target in ("_input_stream", "divergence_probability", "basin_scan", "fixed_point"):
        monkeypatch.setattr(ipcap.presets, target, no_run)
    rng = random.Random(f"config-schema-{name}")
    ExperimentConfig.from_dict(PRESETS[name])  # sanity: the preset itself is valid
    for i, (what, payload) in enumerate(mutations(rng, name)):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(payload)
            pytest.fail(f"{name}: {what} was accepted")
        if i % CLI_EVERY == 0:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(payload))
            command = {"ipc": "ipc", "tipc": "tipc", "narma_suite": "narma"}[PRESETS[name]["kind"]]
            assert main([command, "--config", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2, what
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, what
            assert not (tmp_path / "out").exists(), what


def test_readme_config_reference_is_written_from_the_schema():
    readme = (ROOT / "README.md").read_text()
    assert config_reference.rewrite(readme) == readme
    # each law's parameters, written from the law table
    for kind, law in LAWS.items():
        title = f"`input.distribution.params` with `kind: {kind}`"
        assert config_reference.table(title, law.params, "none.")[0] in readme
        for name, key in law.params.items():
            row = f"| `{name}` | {config_reference.type_text(key)} | {config_reference.default_text(key)} |"
            assert f"{row} {key.bound[1]} |" in readme


def test_readme_quick_start_runs(capsys):
    # the README's one python block, run as written: a name it imports that
    # the package no longer exports fails here
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md quick start", "exec"), {})
    total, rank = capsys.readouterr().out.split()
    assert int(rank) == 50
    assert 0.0 < float(total) <= 50.0
