"""The README's Python examples run as written, and the names they use are the public surface."""

import argparse
import json
import re
import types
from pathlib import Path

import eabsorb
from eabsorb import cli, errors

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from eabsorb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(eabsorb.__all__)
    assert len(set(eabsorb.__all__)) == len(eabsorb.__all__)
    assert not [n for n in eabsorb.__all__ if isinstance(getattr(eabsorb, n), types.ModuleType)]


def test_readme_names_are_exported():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    used = set(re.findall(r"\bea\.(\w+)", "".join(blocks)))
    assert used
    assert used <= set(eabsorb.__all__)


def test_readme_cli_verbs_are_the_parser_subcommands():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    verbs = set(re.findall(r"^eabsorb\s+([\w-]+)", "".join(blocks), flags=re.M))
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert verbs == set(sub.choices)


CONFIG_BLOCKS = (
    "driver", "target", "feedback", "grid", "montecarlo", "kundt", "simulate", "estimate_factors"
)


def test_readme_config_keys_are_read_by_cli():
    # a backticked config path (`driver.csb_m_per_pa`, `target.resonators[0].q`)
    # names a key that cli.py still spells as a string literal
    blocks = "|".join(CONFIG_BLOCKS)
    paths = re.findall(rf"`((?:{blocks})(?:\.\w+|\[\d+\])*\.(\w+))", README.read_text())
    assert {"driver.csb_m_per_pa", "target.resonators[0].q", "simulate.latency"} <= {
        path for path, _ in paths
    }
    source = Path(cli.__file__).read_text()
    assert [path for path, key in paths if f'"{key}"' not in source] == []


def _table_value(check, allow_zero) -> str:
    kind = {errors.check_number: "number", errors.check_count: "integer"}[check]
    return f"{kind} ≥ 0" if allow_zero else f"{kind} > 0"


def test_readme_key_table_is_the_readers_tables():
    # every row of README's key table is a key of the reader's tables, with
    # its check and default, and every key of the tables has a row
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \| (.+) \|$", README.read_text(), flags=re.M)
    documented = {key.replace("[i]", ""): (value, default) for key, value, default in rows}
    assert len(documented) == len(rows)
    entries = {
        f"{name}.{key}": entry
        for name, table in cli._TABLES.items()
        if name != "config"
        for key, entry in table.items()
    }
    assert set(documented) == set(entries)
    for key, (check, allow_zero, default) in entries.items():
        value, shown = documented[key]
        if check is None:
            assert not value.startswith(("number", "integer")), key
        else:
            assert value.startswith(_table_value(check, allow_zero)), key
        want = "required" if default is cli._REQUIRED else f"`{json.dumps(default)}`"
        assert shown == want or shown.startswith((want + ",", want + ":")), key
    blocks = {key.split(".")[0] for key in documented}
    assert set(cli._TABLES["config"]) == {"version"} | blocks
