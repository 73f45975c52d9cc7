"""Experiment configs: one INI-style text format plus a JSON twin.

Both forms describe the same thing: which command to run, on which model,
with which parameters, where the report goes.  Parsing is strict: an unknown
section or key is a :class:`ConfigError` carrying its location, never a
silent default.  Values inside ``[params]`` are parsed as JSON scalars when
they look like one (numbers, booleans, lists), and kept as plain strings
otherwise, so ``eps = 0.25`` and ``powers = [1, 2, 3]`` both do what they
read as.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .harness import _int_param

# the subcommands that take --config; any other command is refused at parse
COMMANDS = ("verify",)

_EXPERIMENT_KEYS = {"command", "model", "seed"}
_OUTPUT_KEYS = {"path", "format"}
_TOP_KEYS = {"command", "model", "seed", "params", "output"}
FORMATS = ("json", "csv", "markdown")


@dataclass
class ExperimentConfig:
    command: str
    model: str | dict | None = None
    params: dict = field(default_factory=dict)
    output_path: str | None = None
    output_format: str = "json"
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(
                f"unknown command {self.command!r}; expected one of "
                + ", ".join(COMMANDS),
                location="command",
            )
        if self.output_format not in FORMATS:
            raise ConfigError(
                f"unknown output format {self.output_format!r}",
                location="output.format",
            )


def _scalar(text):
    """JSON value when the text parses as one, the raw string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _seed(value, location):
    """The seed by the suites' integer rule: 1.7, "1.7" and booleans are
    refused, not truncated."""
    try:
        return _int_param(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be an integer: {exc}", location=location) from None


def _from_ini(text, source):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}", location=source) from exc
    known = {"experiment", "params", "output"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(
                f"unknown section [{section}]", location=f"{source}:[{section}]"
            )
    if not parser.has_section("experiment"):
        raise ConfigError("missing [experiment] section", location=source)
    exp = parser["experiment"]
    for key in exp:
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(
                f"unknown key {key!r} in [experiment]",
                location=f"{source}:[experiment]:{key}",
            )
    if "command" not in exp:
        raise ConfigError("missing command", location=f"{source}:[experiment]")
    params = {}
    if parser.has_section("params"):
        for key, value in parser["params"].items():
            params[key] = _scalar(value)
    out_path, out_format = None, "json"
    if parser.has_section("output"):
        for key in parser["output"]:
            if key not in _OUTPUT_KEYS:
                raise ConfigError(
                    f"unknown key {key!r} in [output]",
                    location=f"{source}:[output]:{key}",
                )
        out_path = parser["output"].get("path")
        out_format = parser["output"].get("format", "json")
    model = exp.get("model")
    return ExperimentConfig(
        command=exp["command"],
        model=_scalar(model) if model is not None else None,
        params=params,
        output_path=out_path,
        output_format=out_format,
        seed=_seed(exp.get("seed", "0"), f"{source}:[experiment]:seed"),
    )


def _from_json(obj, source):
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object", location=source)
    for key in obj:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r}", location=f"{source}:{key}")
    if "command" not in obj:
        raise ConfigError("missing command", location=source)
    output = obj.get("output") or {}
    if not isinstance(output, dict):
        raise ConfigError("output must be an object", location=f"{source}:output")
    for key in output:
        if key not in _OUTPUT_KEYS:
            raise ConfigError(
                f"unknown key {key!r} in output", location=f"{source}:output:{key}"
            )
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", location=f"{source}:params")
    return ExperimentConfig(
        command=obj["command"],
        model=obj.get("model"),
        params=dict(params),
        output_path=output.get("path"),
        output_format=output.get("format", "json"),
        seed=_seed(obj.get("seed", 0), f"{source}:seed"),
    )


def parse_config(text, source="<config>"):
    """Accept either format: JSON when it parses as an object, INI otherwise."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON: {exc.msg}",
                location=f"{source}:{exc.lineno}:{exc.colno}",
            ) from exc
        return _from_json(obj, source)
    return _from_ini(text, source)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", location=str(path)) from exc
    return parse_config(text, source=str(path))
