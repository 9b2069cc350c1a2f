"""Write the config reference in README.md, generated from the config schema.

Usage (from the repository root):

    PYTHONPATH=src python tools/config_reference.py

The section lies between the BEGIN and END markers below: one table per block
of ipcap.presets.SCHEMA, one per system kind of ipcap.presets.SYSTEMS, one per
input law of ipcap.distributions.LAWS and one per polynomial family.
tests/test_config_schema.py checks that the README holds what this writes.
"""

from __future__ import annotations

import json
from pathlib import Path

from ipcap.distributions import LAWS
from ipcap.polychaos import _FAMILIES
from ipcap.presets import SCHEMA, SYSTEMS
from ipcap.schema import Unset

README = Path(__file__).resolve().parents[1] / "README.md"
BEGIN = "<!-- config reference: written by tools/config_reference.py from ipcap.presets.SCHEMA -->"
END = "<!-- end of config reference -->"

TYPE_NAMES = {
    "int": "integer",
    "float": "number",
    "bool": "true or false",
    "str": "string",
    "numbers": "list of numbers",
    "integers": "list of integers",
    "names": "list of names",
    "pairs": "list of [degree, max_delay] pairs",
    "mapping": "mapping",
    "system": "block, keys by `kind`",
    "block": "block",
    "components": "list of [weight, mean, sd] lists",
}
# the params mappings, by path: kind -> the kind's parameter keys
PARAMS = {
    "input.distribution.params": {kind: law.params for kind, law in LAWS.items()},
    "sweep.family.params": {kind: keys for kind, (_, keys) in _FAMILIES.items()},
}


def type_text(key) -> str:
    text = f"list of {key.length} numbers" if key.length else TYPE_NAMES[key.type]
    if key.choices:
        text += ", each one of" if key.type == "names" else ", one of"
        text += " " + ", ".join(f"`{choice}`" for choice in key.choices)
    return text + (", or null" if key.nullable else "")


def default_text(key) -> str:
    if isinstance(key.default, Unset):
        return str(key.default)
    if key.type == "block":
        return "its keys' defaults"
    return f"`{json.dumps(key.default)}`"


def table(title: str, keys: dict, empty: str = "no keys; give `{}` to run it.") -> list[str]:
    if not keys:
        return [f"{title}: {empty}", ""]
    lines = [f"{title}:", "", "| key | type | default | bound |", "|---|---|---|---|"]
    for name, key in keys.items():
        bound = key.bound[1] if key.bound else ""
        lines.append(f"| `{name}` | {type_text(key)} | {default_text(key)} | {bound} |")
    return lines + [""]


def reference() -> str:
    """The README section between BEGIN and END, markers excluded."""
    lines: list[str] = []

    def block(path: str, keys: dict) -> None:
        lines.extend(table(f"`{path}`" if path else "Top level", keys))
        for name, key in keys.items():
            where = f"{path}.{name}" if path else name
            if key.type == "block" and key.keys is not None:
                block(where, key.keys)
            elif key.type == "system":
                for kind, (_, kind_keys) in SYSTEMS.items():
                    lines.extend(table(f"`{where}` with `kind: {kind}`", kind_keys))
            elif where in PARAMS:
                for kind, kind_keys in PARAMS[where].items():
                    lines.extend(table(f"`{where}` with `kind: {kind}`", kind_keys, "none."))

    block("", SCHEMA)
    return "\n".join(lines)


def rewrite(readme: str) -> str:
    head, rest = readme.split(BEGIN + "\n", 1)
    _, tail = rest.split(END, 1)
    return f"{head}{BEGIN}\n{reference()}\n{END}{tail}"


if __name__ == "__main__":
    README.write_text(rewrite(README.read_text()))
