"""Ablation harnesses: fixed row sets over modality masks, the local-center
block, the margin-loss balance factor, and the shallow/deep layer split.
Each suite trains and scores one run per row and seed and emits a delimited
table with per-seed and mean metrics, always containing exactly its fixed
rows so tables diff cleanly across runs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .config import ExperimentConfig
from .data import Dataset, write_atomic
from .errors import ConfigError
from .train import train

MODALITY_ROWS = [("A", "a"), ("T", "t"), ("V", "v"),
                 ("A+T", "at"), ("A+V", "av"), ("A+V+T", "avt")]
LVC_ROWS = [("w/o LVC block", False), ("w/ LVC block", True)]
BALANCE_ROWS = [0.0, 0.01, 0.1, 1.0, 10.0]
LAYER_ROWS = [("concat", 12, 0), ("Attention", 11, 1), ("Attention", 10, 2),
              ("Attention", 9, 3), ("Attention", 8, 4)]

SUITES = ("modality", "lvc", "lambda", "layers")


@dataclass
class AblationRow:
    label: tuple                      # leading display cells
    per_seed: list = field(default_factory=list)   # (seed, acc, wf1)

    def mean_acc(self) -> float:
        return sum(a for _, a, _ in self.per_seed) / len(self.per_seed)

    def mean_wf1(self) -> float:
        return sum(w for _, _, w in self.per_seed) / len(self.per_seed)


@dataclass
class AblationTable:
    suite: str
    header: tuple
    rows: list = field(default_factory=list)
    seeds: tuple = ()

    def to_text(self) -> str:
        cols = list(self.header) + ["ACC(%)", "WF1(%)"]
        for seed in self.seeds:
            cols += [f"seed{seed} ACC(%)", f"seed{seed} WF1(%)"]
        lines = ["\t".join(cols)]
        for row in self.rows:
            cells = [str(c) for c in row.label]
            cells += [f"{100 * row.mean_acc():.2f}", f"{100 * row.mean_wf1():.2f}"]
            for _, acc, wf1 in row.per_seed:
                cells += [f"{100 * acc:.2f}", f"{100 * wf1:.2f}"]
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def _suite_configs(suite: str, base: ExperimentConfig):
    """Yield (label cells, config overrides) per fixed row of ``suite``, one of ``SUITES``."""
    if suite == "modality":
        for label, mods in MODALITY_ROWS:
            yield (label,), {"modalities": mods}
    elif suite == "lvc":
        for label, enabled in LVC_ROWS:
            yield (label,), {"lvc_enabled": enabled, "modalities": "avt"}
    elif suite == "lambda":
        for balance in BALANCE_ROWS:
            yield (f"{balance:g}",), {"balance": balance}
    elif suite == "layers":
        for method, shallow, deep in LAYER_ROWS:
            yield (method, str(shallow), str(deep)), {"n_shallow": shallow, "n_deep": deep,
                                                      "modalities": "avt"}


_HEADERS = {
    "modality": ("Modality",),
    "lvc": ("Models",),
    "lambda": ("lambda",),
    "layers": ("method", "Shallow transformer", "Deep transformer"),
}


def run_suite(suite: str, base: ExperimentConfig, seeds, dataset: Dataset | None = None,
              out_dir=None) -> AblationTable:
    """Train and test ``base`` with each row's overrides once per distinct seed,
    writing no run artifacts; with ``out_dir``, write the table to ``<suite>.tsv`` there."""
    if suite not in SUITES:
        raise ConfigError(f"unknown ablation suite {suite!r}; pick one of {SUITES}")
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("ablation needs at least one seed")
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise ConfigError(f"ablation seeds must differ; {repeated} repeat in {list(seeds)}")
    table = AblationTable(suite=suite, header=_HEADERS[suite], seeds=seeds)
    for label, overrides in _suite_configs(suite, base):
        row = AblationRow(label=label)
        for seed in seeds:
            cfg = dataclasses.replace(base, seed=seed, **overrides)
            result = train(cfg, dataset=dataset, write_artifacts=False)
            row.per_seed.append((seed, result.report.test_acc, result.report.test_wf1))
        table.rows.append(row)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_atomic(Path(out_dir) / f"{suite}.tsv", table.to_text())
    return table
