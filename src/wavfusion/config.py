"""Experiment configuration: every hyperparameter of a run, a key=value file
format for persistence, and validation."""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .data import RatioSplit, read_text, write_atomic
from .errors import ConfigError
from .model import check_architecture, check_modalities

ENV_OUT_DIR = "WAVFUSION_OUT_DIR"

PRECISIONS = ("float64", "float32")


@dataclass
class ExperimentConfig:
    # model
    d: int = 64
    heads: int = 4
    n_shallow: int = 9
    n_deep: int = 3
    lvc_centers: int = 8
    lvc_enabled: bool = True
    # objective
    alpha: float = 0.5
    balance: float = 1.0              # weight of the margin loss
    strict_cosine: bool = False
    # optimizer (Adam)
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # loop
    batch_size: int = 8
    epochs: int = 20
    seed: int = 0
    modalities: str = "avt"
    precision: str = "float64"
    num_classes: int = 0              # 0: infer from the dataset
    # data
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1
    data_dir: str = ""
    out_dir: str = ""

    def __post_init__(self):
        # key -> where ``set_value`` took its value from: a flag or a config
        # file line; a key absent here holds its default
        self.sources = {}

    def validate(self) -> "ExperimentConfig":
        """Check every rule. When a flag or a config file line set a key the
        failed rule is about, the error starts with where each of its keys
        came from, ``default <key>`` for one that no flag or line set."""
        try:
            check_architecture(self.modalities, self.d, self.heads, self.n_shallow, self.n_deep,
                               self.lvc_centers)
            for key, ok, rule in (
                    ("alpha", 0.0 < self.alpha <= 2.0, "must lie in (0, 2]"),
                    ("balance", 0.0 <= self.balance < math.inf, "must be finite and non-negative"),
                    ("batch_size", self.batch_size >= 1, "must be at least 1"),
                    ("lr", 0.0 <= self.lr < math.inf, "must be finite and non-negative"),
                    ("beta1", 0.0 <= self.beta1 < 1.0, "must lie in [0, 1)"),
                    ("beta2", 0.0 <= self.beta2 < 1.0, "must lie in [0, 1)"),
                    ("eps", 0.0 < self.eps < math.inf, "must be finite and positive"),
                    ("epochs", self.epochs >= 1, "must be at least 1"),
                    ("precision", self.precision in PRECISIONS, f"must be one of {PRECISIONS}"),
                    ("num_classes", self.num_classes >= 0, "must be non-negative (0 = infer)")):
                if not ok:
                    raise ConfigError(f"{key} {rule}; got {getattr(self, key)!r}", (key,))
            for key, value in vars(self).items():   # the file holds one stripped value per line
                if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
                    raise ConfigError(f"{key} must not hold a line break or start or end with a "
                                      f"blank; got {value!r}", (key,))
            self.split_policy().check()
        except ConfigError as exc:
            if not set(exc.keys) & self.sources.keys():
                raise
            where = ", ".join(self.sources.get(key, f"default {key}") for key in exc.keys)
            raise ConfigError(f"{where}: {exc}", exc.keys) from None
        return self

    def mask(self) -> tuple:
        return check_modalities(self.modalities)

    def split_policy(self) -> RatioSplit:
        return RatioSplit(self.train_frac, self.val_frac, self.test_frac, self.seed)

    def resolved_out_dir(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        return Path(os.environ.get(ENV_OUT_DIR, "runs"))

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


_KINDS = {f.name: {"int": int, "float": float, "str": str, "bool": bool}[f.type]
          for f in dataclasses.fields(ExperimentConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def set_value(cfg: ExperimentConfig, key: str, raw: str, where: str) -> None:
    """Parse ``raw`` as the type of config key ``key`` and set it on ``cfg``;
    errors name ``where`` (a config file line or a command-line flag)."""
    kind = _KINDS.get(key)
    if kind is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    raw = raw.strip()
    try:
        value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind.__name__} for {key!r}") from None
    setattr(cfg, key, value)
    cfg.sources[key] = where


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = dataclasses.replace(base) if base else ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):    # a "#" after the first character is data
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected key = value, got {line!r}")
        key, raw = body.split("=", 1)
        set_value(cfg, key.strip(), raw, f"config line {lineno}")
    return cfg


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    return parse_config_text(read_text(path, ConfigError), base)


def save_config(path, cfg: ExperimentConfig) -> None:
    write_atomic(path, cfg.to_text())
