"""Command-line interface.

Subcommands: gen-data, train, eval, ablate, gradcheck, oracle-margin.
Config values come from built-in defaults, overridden by --config FILE
(key = value lines), overridden by individual flags. Exit codes: 0 success,
2 validation failure, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .ablate import SUITES, run_suite
from .config import ExperimentConfig, load_config, set_value
from .data import SynthSpec, generate_synthetic, load_dataset, read_text
from .errors import ConfigError, DataError, FormatError, GraphError
from .gradcheck import run_gradcheck, tiny_config
from .losses import build_triplets, margin_loss
from .model import MODALITIES
from .oracles import margin_loss_reference
from .tensor import Tensor
from .train import dump_predictions, evaluate_checkpoint, train


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    for f in dataclasses.fields(ExperimentConfig):
        parser.add_argument(_flag(f.name), help=f"override {f.name} ({f.type})")


def _input_file(path, flag: str) -> Path:
    """``path`` if it names an existing file; otherwise a validation error
    naming ``flag``."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{flag}: no such file {str(path)!r}")
    return path


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(_input_file(args.config, "--config")) if args.config else ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            set_value(cfg, f.name, raw, _flag(f.name))
    return cfg.validate()


def _parse_groups(raw_list) -> dict:
    """'a=0,1|2,3' -> {'a': [[0, 1], [2, 3]]}."""
    groups = {}
    for raw in raw_list or ():
        if "=" not in raw:
            raise ConfigError(f"--mean-groups expects MOD=c,c|c,c; got {raw!r}")
        mod, body = raw.split("=", 1)
        try:
            groups[mod.strip()] = [[int(c) for c in part.split(",") if c != ""]
                                   for part in body.split("|")]
        except ValueError:
            raise ConfigError(f"--mean-groups: classes must be integers; got {raw!r}") from None
    return groups


def _parse_scales(raw_list) -> dict:
    scales = {}
    for raw in raw_list or ():
        mod, _, value = raw.partition("=")
        try:
            scales[mod.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--mu-scale expects MOD=FACTOR; got {raw!r}") from None
    return scales


def _synth_scalars() -> dict:
    """The number-valued ``SynthSpec`` fields and their defaults, one flag each."""
    defaults = SynthSpec()
    return {f.name: getattr(defaults, f.name) for f in dataclasses.fields(SynthSpec)
            if f.type in ("int", "float")}


def _cmd_gen_data(args) -> int:
    spec = SynthSpec(
        **{name: getattr(args, name) for name in _synth_scalars()},
        dims={m: getattr(args, f"dim_{m}") for m in MODALITIES},
        seq_len={m: (getattr(args, f"len_{m}_min"), getattr(args, f"len_{m}_max")) for m in MODALITIES},
        mean_groups=_parse_groups(args.mean_groups),
        mu_scale=_parse_scales(args.mu_scale),
    )
    out = generate_synthetic(spec, args.out)
    print(f"wrote {spec.classes * spec.per_class} samples to {out}")
    return 0


def _data_dir(cfg: ExperimentConfig, command: str) -> None:
    if not cfg.data_dir:
        raise ConfigError(f"{command} needs --data-dir (or data_dir in the config file)")
    _input_file(Path(cfg.data_dir) / "manifest.tsv", "--data-dir")


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    _data_dir(cfg, "train")
    result = train(cfg)
    report = result.report
    print(f"run dir: {result.run_dir}")
    print(f"epochs run: {len(report.epoch_train_loss)}")
    print(f"test ACC = {report.test_acc:.4f}  WF1 = {report.test_wf1:.4f}")
    print(f"wall clock: {report.wall_clock_s:.3f} s")
    return 0


def _cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    checkpoint = _input_file(args.checkpoint, "--checkpoint")
    _data_dir(cfg, "eval")
    mask = tuple(args.eval_modalities) if args.eval_modalities else None
    acc, wf1, samples, predictions = evaluate_checkpoint(checkpoint, cfg, mask, args.split)
    print(f"{args.split} ACC = {acc:.4f}  WF1 = {wf1:.4f}  over {len(samples)} samples")
    if args.dump:
        dump_predictions(args.dump, samples, predictions)
        print(f"predictions written to {args.dump}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    _data_dir(cfg, "ablate")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds expects comma-separated integers; got {args.seeds!r}") from None
    dataset = load_dataset(cfg.data_dir, cfg.num_classes or None)
    table = run_suite(args.suite, cfg, seeds, dataset, out_dir=cfg.resolved_out_dir())
    print(table.to_text(), end="")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = (load_config(_input_file(args.config, "--config"), tiny_config()) if args.config
           else tiny_config())
    report = run_gradcheck(cfg, tolerance=args.tolerance, eps=args.eps, corrupt=args.corrupt)
    print(report.to_text(), end="")
    if not report.passed:
        print(f"gradcheck FAILED: worst offender {report.worst_name} "
              f"at {report.worst_error:.3e}", file=sys.stderr)
        return 1
    return 0


def _read_margin_batch(path):
    entries = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            modality, label, vec = line.split("\t")
            entries.append((modality, int(label), [float(x) for x in vec.split(",")]))
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected modality<TAB>label<TAB>v1,v2,...; "
                            f"got {line!r}") from None
        if len(entries[-1][2]) != len(entries[0][2]):
            raise DataError(f"{path}:{lineno}: {len(entries[-1][2])} embedding values; "
                            f"the first line has {len(entries[0][2])}")
    if not entries:
        raise DataError(f"{path}: empty batch file")
    return entries


def _cmd_oracle_margin(args) -> int:
    entries = _read_margin_batch(_input_file(args.batch_file, "--batch-file"))
    tagged = [(m, lab) for m, lab, _ in entries]
    embeddings = [Tensor([vec]) for _, _, vec in entries]
    production = float(margin_loss(embeddings, build_triplets(tagged), args.alpha).data)
    reference = margin_loss_reference(entries, args.alpha)
    diff = abs(production - reference)
    print(f"production = {production!r}")
    print(f"bruteforce = {reference!r}")
    print(f"difference = {diff!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wavfusion",
                                     description="gated cross-modal fusion trainer and harnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a seeded synthetic multimodal dataset")
    gen.add_argument("--out", required=True)
    defaults = SynthSpec()
    for name, value in _synth_scalars().items():
        gen.add_argument(_flag(name), type=type(value), default=value)
    for m in MODALITIES:
        gen.add_argument(f"--dim-{m}", type=int, default=defaults.dims[m])
        gen.add_argument(f"--len-{m}-min", type=int, default=defaults.seq_len[m][0])
        gen.add_argument(f"--len-{m}-max", type=int, default=defaults.seq_len[m][1])
    gen.add_argument("--mean-groups", action="append",
                     help="share class means within groups, e.g. a=0,1|2,3 (repeatable)")
    gen.add_argument("--mu-scale", action="append",
                     help="per-modality mean scale, e.g. v=0.5 (repeatable)")
    gen.set_defaults(func=_cmd_gen_data)

    tr = sub.add_parser("train", help="train a model and write run artifacts")
    _add_config_flags(tr)
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    _add_config_flags(ev)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--split", default="test", choices=("train", "val", "test", "all"))
    ev.add_argument("--eval-modalities", default="",
                    help="modality mask for evaluation (default: config mask)")
    ev.add_argument("--dump", default="", help="write predictions TSV here")
    ev.set_defaults(func=_cmd_eval)

    ab = sub.add_parser("ablate", help="run a fixed ablation row set")
    _add_config_flags(ab)
    ab.add_argument("--suite", required=True, choices=SUITES)
    ab.add_argument("--seeds", default="0", help="comma-separated seed list")
    ab.set_defaults(func=_cmd_ablate)

    gc = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    gc.add_argument("--config", help="key=value config file (defaults: tiny 64-bit setup)")
    gc.add_argument("--tolerance", type=float, default=1e-3)
    gc.add_argument("--eps", type=float, default=1e-4)
    gc.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    gc.set_defaults(func=_cmd_gradcheck)

    om = sub.add_parser("oracle-margin", help="margin loss: production vs brute force")
    om.add_argument("--batch-file", required=True,
                    help="TSV: modality<TAB>label<TAB>comma-separated embedding")
    om.add_argument("--alpha", type=float, default=0.5)
    om.set_defaults(func=_cmd_oracle_margin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
