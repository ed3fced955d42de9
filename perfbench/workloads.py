"""The benchmark's workloads: one synthetic dataset shape and one experiment
config per name. Plain data, so this module imports nothing from the program.

Every workload trains the full trimodal (avt) model with the margin loss on
(balance = 1). Both datasets hold 4 classes x 160 utterances; a 50/50 split
leaves 320 training utterances, a whole number of batches at B = 8 and
B = 16, and 320 held-out utterances for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

CLASSES = 4
PER_CLASS = 160
DIMS = {"a": 12, "t": 10, "v": 8}     # raw feature width per modality


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict                 # ExperimentConfig overrides
    seq_len: dict               # modality -> (shortest, longest) sequence length


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="paper-b8",
            why="paper-size model (d=64, 9+3 layers) at B=8 with 4x spread in sequence "
                "length: numpy kernels, the 9-layer audio stack and Adam carry weight",
            model=dict(d=64, heads=4, n_shallow=9, n_deep=3, lvc_centers=8, batch_size=8),
            seq_len={"a": (5, 20), "t": (3, 12), "v": (2, 8)},
        ),
        Workload(
            name="margin-b16",
            why="tiny acceptance model (d=16, 2+1 layers) at B=16: the cubic triplet margin "
                "loss is most of a step, graph bookkeeping and gc the rest",
            model=dict(d=16, heads=2, n_shallow=2, n_deep=1, lvc_centers=4, batch_size=16),
            seq_len={"a": (6, 10), "t": (4, 8), "v": (3, 6)},
        ),
    )
}

# shared objective and split settings
COMMON = dict(modalities="avt", alpha=0.5, balance=1.0, train_frac=0.5, val_frac=0.0,
              test_frac=0.5)
