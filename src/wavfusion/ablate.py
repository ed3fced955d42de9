"""Ablation harnesses: fixed row sets over modality masks, the local-center
block, the margin-loss balance factor, and the shallow/deep layer split.
Each suite trains and scores one run per row and seed and emits a delimited
table with per-seed and mean metrics, always containing exactly its fixed
rows so tables diff cleanly across runs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig
from .data import Dataset, write_atomic
from .errors import ConfigError
from .train import train

# suite name -> (header cells, [(label cells, config overrides)]), one entry
# per fixed row in table order
SUITES = {
    "modality": (("Modality",), [((label,), {"modalities": mods}) for label, mods in
                                 (("A", "a"), ("T", "t"), ("V", "v"),
                                  ("A+T", "at"), ("A+V", "av"), ("A+V+T", "avt"))]),
    "lvc": (("Models",), [(("w/o LVC block",), {"lvc_enabled": False, "modalities": "avt"}),
                          (("w/ LVC block",), {"lvc_enabled": True, "modalities": "avt"})]),
    "lambda": (("lambda",), [((f"{balance:g}",), {"balance": balance})
                             for balance in (0.0, 0.01, 0.1, 1.0, 10.0)]),
    "layers": (("method", "Shallow transformer", "Deep transformer"),
               [(("concat" if deep == 0 else "Attention", str(12 - deep), str(deep)),
                 {"n_shallow": 12 - deep, "n_deep": deep, "modalities": "avt"})
                for deep in range(5)]),
}


@dataclass
class AblationRow:
    label: tuple                      # leading display cells
    per_seed: list                    # (seed, acc, wf1) per run

    def mean_acc(self) -> float:
        return sum(a for _, a, _ in self.per_seed) / len(self.per_seed)

    def mean_wf1(self) -> float:
        return sum(w for _, _, w in self.per_seed) / len(self.per_seed)


@dataclass
class AblationTable:
    suite: str
    header: tuple
    rows: list
    seeds: tuple

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


def run_suite(suite: str, base: ExperimentConfig, seeds, dataset: Dataset | None = None,
              out_dir=None) -> AblationTable:
    """Train and test ``base`` with each row's overrides once per distinct seed,
    writing no run artifacts; with ``out_dir``, write the table to ``<suite>.tsv`` there."""
    if suite not in SUITES:
        raise ConfigError(f"unknown ablation suite {suite!r}; pick one of {tuple(SUITES)}")
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("ablation needs at least one seed")
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise ConfigError(f"ablation seeds must differ; {repeated} repeat in {list(seeds)}")
    header, rows = SUITES[suite]
    runs = [dataclasses.replace(base, seed=seed, **overrides)
            for _, overrides in rows for seed in seeds]
    reports = [train(cfg, dataset=dataset, write_artifacts=False).report for cfg in runs]
    scores = [(r.seed, r.test_acc, r.test_wf1) for r in reports]
    n = len(seeds)
    table = AblationTable(suite, header, [AblationRow(label, scores[i * n:(i + 1) * n])
                                          for i, (label, _) in enumerate(rows)], seeds)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_atomic(Path(out_dir) / f"{suite}.tsv", table.to_text())
    return table
