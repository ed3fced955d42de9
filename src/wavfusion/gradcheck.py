"""Finite-difference verification of every parameter gradient of the full
training objective on a tiny in-memory configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import ExperimentConfig
from .data import Dataset, UtteranceSample
from .errors import ConfigError
from .rng import Prng
from .train import batch_objective, build_model


def tiny_config(**overrides) -> ExperimentConfig:
    """Defaults sized for fast finite differences (seconds, not minutes)."""
    base = dict(d=8, heads=2, n_shallow=2, n_deep=1, lvc_centers=3, alpha=0.5, balance=1.0,
                batch_size=3, epochs=1, seed=0, modalities="avt", precision="float64")
    base.update(overrides)
    return ExperimentConfig(**base)


def synthetic_batch(seed: int, dims: dict, num_classes: int, batch: int,
                    t_max: int = 4) -> list:
    """Random labeled samples with per-modality sequences of varying length."""
    rng = Prng(seed, stream=55)
    samples = []
    for i in range(batch):
        srng = rng.child(i)
        feats = {}
        for mi, m in enumerate(sorted(dims)):
            t_len = srng.child(mi).randint(1, t_max + 1)
            feats[m] = srng.child(10 + mi).normal(t_len * dims[m]).reshape(t_len, dims[m])
        samples.append(UtteranceSample(f"g{i}", i % num_classes, feats))
    return samples


@dataclass
class GradcheckReport:
    tolerance: float
    per_param: list = field(default_factory=list)   # (name, max relative error)
    worst_name: str = ""
    worst_error: float = 0.0
    passed: bool = False

    def to_text(self) -> str:
        lines = [f"{'PASS' if self.passed else 'FAIL'}  tolerance={self.tolerance:g}  "
                 f"worst={self.worst_error:.3e} at {self.worst_name}"]
        for name, err in self.per_param:
            lines.append(f"  {err:.3e}  {name}")
        return "\n".join(lines) + "\n"


def run_gradcheck(cfg: ExperimentConfig, tolerance: float = 1e-3, eps: float = 1e-4,
                  corrupt: str | None = None) -> GradcheckReport:
    """Compare analytic gradients of the batch objective against central
    differences for every parameter scalar, on a ``synthetic_batch`` of 3
    classes with 6 audio, 5 text and 4 visual features per step.

    ``corrupt`` names a parameter whose analytic gradient is perturbed after
    backward; the report must then fail and point at it (harness self-test).
    """
    for key, value in (("tolerance", tolerance), ("eps", eps)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"gradcheck {key} (--{key}) must be finite and positive; "
                              f"got {value}")
    cfg.validate()
    if cfg.precision != "float64":
        raise ConfigError("gradcheck requires precision=float64")
    mask = cfg.mask()
    dims = {m: {"a": 6, "t": 5, "v": 4}[m] for m in mask}
    dataset = Dataset(samples=[], num_classes=3, feature_dims=dims)
    model = build_model(cfg, dataset)
    samples = synthetic_batch(cfg.seed, dims, dataset.num_classes, cfg.batch_size)

    loss, _, _, _ = batch_objective(model, samples, mask, cfg.alpha, cfg.balance)
    loss.backward()
    params = model.named_parameters()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params}
    if corrupt is not None:
        if corrupt not in analytic:
            raise ConfigError(f"no parameter named {corrupt!r} to corrupt")
        analytic[corrupt] = analytic[corrupt] + 1.0

    def objective() -> float:
        with T.no_grad():
            value, _, _, _ = batch_objective(model, samples, mask, cfg.alpha, cfg.balance)
        return float(value.data)

    report = GradcheckReport(tolerance=tolerance)
    for name, p in params:
        flat = p.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            up = objective()
            flat[i] = orig - eps
            down = objective()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            rel = abs(grad_flat[i] - numeric) / (abs(numeric) + 1e-8)
            if rel > worst:
                worst = rel
        report.per_param.append((name, worst))
        if worst > report.worst_error:
            report.worst_error = worst
            report.worst_name = name
    report.passed = report.worst_error < tolerance
    return report
