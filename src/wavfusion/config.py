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

    def validate(self) -> "ExperimentConfig":
        check_architecture(self.modalities, self.d, self.heads, self.n_shallow, self.n_deep,
                           self.lvc_centers)
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigError(f"alpha must lie in (0, 2]; got {self.alpha}")
        if not 0.0 <= self.balance < math.inf:
            raise ConfigError(f"balance must be finite and non-negative; got {self.balance}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1; got {self.batch_size}")
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and non-negative; got {self.lr}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1); got {getattr(self, key)}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be finite and positive; got {self.eps}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1; got {self.epochs}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}; got {self.precision!r}")
        if self.num_classes < 0:
            raise ConfigError("num_classes must be non-negative (0 = infer)")
        for key, value in vars(self).items():   # the file holds one stripped value per line
            if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
                raise ConfigError(f"{key} must not hold a line break or start or end with a blank; "
                                  f"got {value!r}")
        self.split_policy().check()
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
