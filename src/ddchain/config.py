"""Run configuration: flat key=value files, flag overrides, validation.

Config files are UTF-8 text, one ``key=value`` per line; blank lines and
lines starting with ``#`` are ignored; a key given twice is an error.
Keys not in the schema are an error (no silent typo tolerance), with two
exceptions: keys under the reserved ``result.`` prefix are skipped, so a
run's metadata sidecar can be fed back in as a config file and
reproduces the run exactly, and so are the retired ``LEGACY_KEYS``.

Every field always has a concrete value after parsing (kind-dependent
defaults are resolved at parse time), so serializing a RunConfig and
parsing it back is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DdchainError

# Every experiment kind, with its one-line help text.
KINDS = {
    "delta-tau": "final fidelity over a (width, period) grid",
    "size": "free vs controlled final fidelity per chain size",
    "trace": "fidelity time traces for the disorder variants",
    "ratio-psi": "final fidelity over a (period/width, strength) grid",
    "kernel": "environment correlation function and its lifetime",
    "pq-check": "memory-kernel route vs direct propagation",
}

RESULT_PREFIX = "result."
LEGACY_KEYS = ("workers",)  # skipped in configs and sidecars; --workers is a run option


class ConfigError(DdchainError):
    """Malformed, unknown, missing, or out-of-range configuration input."""


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Fully validated parameters of one CLI run. The field defaults are
    the kind-independent run defaults; ``_kind_defaults`` gives the rest."""

    kind: str
    n: int = 130
    j: float = 1.0
    psi: float = 8.0
    delta: float = 1.2
    tau: float = 1.3
    m: int = 128
    gamma: float
    epsilon: float
    eta: float
    seed: int = 1
    out: str
    record_every: int = 1
    n_values: tuple[int, ...] = tuple(range(20, 131))
    delta_min: float = 0.02
    delta_max: float = 2.0
    delta_steps: int = 100
    tau_min: float = 0.02
    tau_max: float = 2.5
    tau_steps: int = 100
    ratio_min: float = 1.0
    ratio_max: float = 2.0
    ratio_steps: int = 100
    psi_min: float = 0.0
    psi_max: float = 20.0
    psi_steps: int = 100
    dt: float
    t_max: float = 5.0
    threshold: float = 0.02
    hold: float = 0.5


def _kind_defaults(kind: str) -> dict[str, object]:
    """The defaults that depend on the experiment kind."""
    gamma, epsilon, eta = (0.5, 0.5, 0.1) if kind == "trace" else (0.0, 0.0, 0.0)
    return {"out": f"{kind}.csv", "dt": 0.001 if kind == "pq-check" else 0.01,
            "gamma": gamma, "epsilon": epsilon, "eta": eta}


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# The RunConfig fields are the schema: one parser per field, chosen by
# its annotation (a string, under postponed evaluation).
_PARSERS = {
    f.name: {"int": int, "float": float, "str": str,
             "tuple[int, ...]": _parse_int_list}[f.type]
    for f in fields(RunConfig)
}
_FLOAT_KEYS = tuple(f.name for f in fields(RunConfig) if f.type == "float")

# Kinds that consume the single (delta, tau) pair and so must satisfy
# delta <= tau up front.
SINGLE_PULSE_KINDS = ("size", "trace", "pq-check")


def read_key_value_file(path: str) -> dict[str, str]:
    """Raw key -> value strings from a flat UTF-8 config file; a key given twice is an error."""
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:  # a leading byte-order mark is skipped
        try:  # one decode of the whole file, so an error's offset counts from its first byte
            for lineno, raw in enumerate(handle.read().removeprefix("\ufeff").split("\n"), 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if (first := first_line.setdefault(key, lineno)) != lineno:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} already given on line {first}")
                entries[key] = value
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return entries


def parse_config(
    path: str | None = None,
    overrides: dict[str, str] | None = None,
    kind: str | None = None,
) -> RunConfig:
    """Build a validated RunConfig from a config file and/or overrides.

    ``overrides`` (e.g. command-line flags) take precedence over file
    values. ``kind`` (e.g. the CLI subcommand) must agree with any kind
    given in the file.
    """
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(read_key_value_file(path))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    values: dict[str, object] = {}
    for key, text in raw.items():
        if key.startswith(RESULT_PREFIX) or key in LEGACY_KEYS:
            continue
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown key {key!r}")
        try:
            values[key] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for key {key!r}: {text!r} ({exc})") from exc

    file_kind = values.pop("kind", None)
    if kind is None:
        kind = file_kind
    elif file_kind is not None and file_kind != kind:
        raise ConfigError(f"config kind {file_kind!r} does not match requested {kind!r}")
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")

    config = RunConfig(**{**_kind_defaults(kind), **values, "kind": kind})
    _validate(config)
    return config


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _validate(cfg: RunConfig) -> None:
    _require(cfg.n >= 2, f"n must be >= 2, got {cfg.n}")
    _require(cfg.n < 2 ** 63, f"n must fit in a signed 64-bit integer, got {cfg.n}")
    for key in _FLOAT_KEYS:
        _require(math.isfinite(getattr(cfg, key)), f"{key} must be finite")
    _require(cfg.tau > 0, f"tau must be > 0, got {cfg.tau}")
    _require(cfg.delta >= 0, f"delta must be >= 0, got {cfg.delta}")
    _require(cfg.m >= 1, f"m must be >= 1, got {cfg.m}")
    for key in ("gamma", "epsilon", "eta"):
        _require(getattr(cfg, key) >= 0, f"{key} must be >= 0")
    _require(0 <= cfg.seed < 2 ** 64, f"seed must fit in 64 bits, got {cfg.seed}")
    _require(cfg.record_every >= 1, f"record_every must be >= 1, got {cfg.record_every}")
    _require(cfg.dt > 0, f"dt must be > 0, got {cfg.dt}")
    _require(cfg.t_max > 0, f"t_max must be > 0, got {cfg.t_max}")
    _require(0 < cfg.threshold < 1, f"threshold must be in (0, 1), got {cfg.threshold}")

    if cfg.kind in SINGLE_PULSE_KINDS:
        _require(
            cfg.delta <= cfg.tau,
            f"delta must be <= tau for kind={cfg.kind}, got delta={cfg.delta}, tau={cfg.tau}",
        )
    if cfg.kind == "size":
        _require(len(cfg.n_values) > 0, "n_values must be nonempty")
        _require(all(v >= 2 for v in cfg.n_values), "every n_values entry must be >= 2")
        _require(all(v < 2 ** 63 for v in cfg.n_values),
                 "every n_values entry must fit in a signed 64-bit integer")
        _require(
            all(b > a for a, b in zip(cfg.n_values, cfg.n_values[1:])),
            "n_values must be strictly increasing",
        )
    if cfg.kind == "kernel":
        _require(cfg.hold >= cfg.dt, f"hold must be >= dt, got {cfg.hold}")
    if cfg.kind == "delta-tau":  # every (delta, tau) cell must be a pulse train
        _require(cfg.delta_min >= 0, f"delta_min must be >= 0, got {cfg.delta_min}")
        _require(cfg.tau_min > 0, f"tau_min must be > 0, got {cfg.tau_min}")
    if cfg.kind == "ratio-psi":
        # The sweep's period is ratio * delta, so a zero width leaves no period.
        _require(cfg.delta > 0, f"delta must be > 0 for kind=ratio-psi, got {cfg.delta}")
        _require(cfg.ratio_min >= 1.0, f"ratio_min must be >= 1, got {cfg.ratio_min}")
    if cfg.kind == "pq-check":
        _require(cfg.eta == 0.0, "pq-check needs a static environment; eta must be 0")
    for axis in ("delta", "tau", "ratio", "psi"):
        lo = getattr(cfg, f"{axis}_min")
        hi = getattr(cfg, f"{axis}_max")
        steps = getattr(cfg, f"{axis}_steps")
        _require(steps >= 1, f"{axis}_steps must be >= 1, got {steps}")
        _require(
            lo <= hi if steps == 1 else lo < hi,
            f"need {axis}_min < {axis}_max, got [{lo}, {hi}]",
        )


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_lines(cfg: RunConfig) -> list[str]:
    """Canonical key=value serialization, one field per line.

    Floats use ``repr`` so parsing the lines back reproduces the config
    bit for bit.
    """
    return [f"{f.name}={_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
