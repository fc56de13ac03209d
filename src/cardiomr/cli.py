"""Command-line interface.

One executable with a subcommand per pipeline capability. The
subcommands that read configuration (``roi``, ``weights``, ``loss``,
``postproc``, ``features`` and ``pipeline``) accept ``--config FILE`` (flat
key=value) and honor CARDIOMR_* environment overrides; diagnostics go to
stderr, data goes to files, or to stdout when ``--out -`` is given. Exit
code 0 on success.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .augment import augment_volume, sample_params
from .diagnosis import (
    Dataset,
    load_model,
    predict_two_stage,
    save_model,
    train_ensemble,
)
from .features import FEATURE_NAMES, FeatureRecord, PhaseLabels, extract_features
from .loss import dice_loss, weight_map_volume, weighted_ce
from .netgraph import NetConfig, build_graph, summarize, to_dot
from .pipeline import PipelineConfig, PipelineError, dumps_report, roi_stage, run_pipeline
from .postprocess import postprocess_labels
from .volume import LabelVolume, ScalarVolume, load_volume, save_volume


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _config_from(args) -> PipelineConfig:
    overrides = {}
    for key in vars(args):
        if key.startswith("cfg__"):
            value = getattr(args, key)
            if value is not None:
                overrides[key[len("cfg__"):].replace("__", ".")] = value
    return PipelineConfig.load(path=getattr(args, "config", None), overrides=overrides)


def _add_config_flag(sub) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")


def _cmd_roi(args) -> int:
    entry = roi_stage(args.input, _config_from(args).roi_config(), args.out_patch)
    _write_out(json.dumps(entry, sort_keys=True) + "\n", args.out_center)
    return 0


def _cmd_augment(args) -> int:
    vol = load_volume(args.input, "scalar")
    lbl = load_volume(args.labels, "label") if args.labels else None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        params = sample_params(int(rng.integers(0, 2**32)))
        flips = (False, False)
        if args.flips:
            flips = (bool(rng.integers(0, 2)), bool(rng.integers(0, 2)))
        img_out, lbl_out = augment_volume(vol, lbl, params, flips)
        save_volume(img_out, out_dir / f"aug_{i:03d}.vol")
        if lbl_out is not None:
            save_volume(lbl_out, out_dir / f"aug_{i:03d}_labels.vol")
        sidecar = params.as_dict()
        sidecar["flips"] = {"horizontal": flips[0], "vertical": flips[1]}
        (out_dir / f"aug_{i:03d}.json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
        )
    print(f"wrote {args.count} augmented pair(s) to {out_dir}", file=sys.stderr)
    return 0


def _first_frame(lbl: LabelVolume) -> np.ndarray:
    return lbl.data if lbl.data.ndim == 3 else lbl.data[:, :, :, 0]


def _cmd_weights(args) -> int:
    cfg = _config_from(args)
    lbl = load_volume(args.input, "label")
    w = weight_map_volume(_first_frame(lbl), cfg["loss.dilate_iters"])
    save_volume(
        ScalarVolume(data=w[:, :, :, np.newaxis], spacing=lbl.spacing[:3] + (1.0,)),
        args.output,
    )
    return 0


def _cmd_loss(args) -> int:
    cfg = _config_from(args)
    loss_cfg = cfg.loss_config()
    probs_vol = load_volume(args.probs, "scalar")
    lbl_data = _first_frame(load_volume(args.labels, "label"))
    p = np.moveaxis(probs_vol.data, 3, 0)  # class axis first
    w = weight_map_volume(lbl_data, cfg["loss.dilate_iters"])
    ce = weighted_ce(p, lbl_data, w)
    dl = dice_loss(p, lbl_data, loss_cfg)
    total = loss_cfg.lam * ce + loss_cfg.gamma * dl + loss_cfg.eta * args.l2
    payload = {"ce": ce, "dice_loss": dl, "total": total}
    _write_out(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_postproc(args) -> int:
    cfg = _config_from(args)
    lbl = load_volume(args.input, "label")
    cleaned = postprocess_labels(
        lbl,
        skip_3d=cfg["postproc.skip_3d"],
        skip_2d=cfg["postproc.skip_2d"],
        skip_fill=cfg["postproc.skip_fill"],
    )
    save_volume(cleaned, args.output)
    return 0


_EVAL_COLUMNS = ("case_id", "class", "dice", "jaccard", "tpr", "spc", "ppv", "npv", "hd_mm")


def _metric_row(case_id, cls_name, m) -> list:
    d = m.as_dict()
    return [case_id, cls_name] + [
        ("" if d[c] is None else f"{d[c]:.6f}") for c in _EVAL_COLUMNS[2:]
    ]


def _cmd_eval(args) -> int:
    pred_path, gt_path = Path(args.pred), Path(args.gt)
    if pred_path.is_dir() != gt_path.is_dir():
        print("error: --pred and --gt must both be files or both directories", file=sys.stderr)
        return 2
    if pred_path.is_dir():
        cases = sorted(p.name for p in pred_path.iterdir() if p.is_file())
        pairs = [(name, pred_path / name, gt_path / name) for name in cases]
    else:
        pairs = [(pred_path.stem, pred_path, gt_path)]

    rows = []
    all_cases = []
    for case_id, ppath, gpath in pairs:
        case = metrics_mod.evaluate_case(
            load_volume(ppath, "label"), load_volume(gpath, "label")
        )
        all_cases.append(case)
        for cls_name, m in case.items():
            rows.append(_metric_row(case_id, cls_name, m))

    summary = metrics_mod.aggregate_cases(all_cases)
    for cls_name, stats in summary.items():
        for stat in ("mean", "std"):
            rows.append(
                [stat, cls_name]
                + [
                    (f"{stats[c][stat]:.6f}" if c in stats else "")
                    for c in _EVAL_COLUMNS[2:]
                ]
            )

    out = args.csv
    text_rows = [",".join(_EVAL_COLUMNS)] + [",".join(str(v) for v in r) for r in rows]
    _write_out("\n".join(text_rows) + "\n", out)
    return 0


def _cmd_features(args) -> int:
    cfg = _config_from(args)
    ed = load_volume(args.ed, "label")
    es = load_volume(args.es, "label")
    record = extract_features(
        PhaseLabels(ed=ed, es=es), density=cfg["features.density"]
    )
    case_id = args.case_id or Path(args.ed).stem
    header = ("case_id",) + FEATURE_NAMES
    values = [case_id] + [
        "" if getattr(record, n) is None else f"{getattr(record, n):.6f}"
        for n in FEATURE_NAMES
    ]
    _write_out(",".join(header) + "\n" + ",".join(values) + "\n", args.out)
    return 0


def _read_csv(path, *columns):
    """Rows of a CSV file; ValueError names any required column it lacks."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column(s): {', '.join(missing)}")
        return list(reader)


def _read_features_csv(path):
    ids, records = [], []
    for row in _read_csv(path, "case_id"):
        ids.append(row["case_id"])
        vec = [
            float(row[name]) if row.get(name, "") != "" else np.nan
            for name in FEATURE_NAMES
        ]
        records.append(FeatureRecord.from_vector(np.array(vec)))
    return ids, records


def _cmd_train_clf(args) -> int:
    ids, records = _read_features_csv(args.features)
    label_of = {
        row["case_id"]: row["label"] for row in _read_csv(args.labels, "case_id", "label")
    }
    missing = [i for i in ids if i not in label_of]
    if missing:
        print(f"error: no label for case(s): {missing}", file=sys.stderr)
        return 2
    ds = Dataset.from_records(records, [label_of[i] for i in ids])
    model = train_ensemble(
        ds, seed=args.seed, mode=args.mode, n_trees=args.trees
    )
    save_model(model, args.model)
    acc = {k: round(v, 4) for k, v in model.cv_accuracy.items()}
    print(f"trained ensemble on {len(ids)} cases; cv accuracy: {acc}", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    ids, records = _read_features_csv(args.features)
    results = {}
    for case_id, record in zip(ids, records):
        label, audit = predict_two_stage(model, record)
        results[case_id] = {"label": label, "audit": audit}
    _write_out(json.dumps(results, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_netinfo(args) -> int:
    c, h, w = (int(v) for v in args.input.split("x"))
    cfg = NetConfig(
        variant=args.variant, k=args.k, f=args.f, poolings=args.p,
        input_shape=(c, h, w), classes=args.classes,
        db_layers_down=tuple(args.db_layers) if args.db_layers else (4,) * args.p,
        db_layers_up=tuple(reversed(args.db_layers)) if args.db_layers else (4,) * args.p,
        db_layers_bottleneck=args.db_bottleneck,
    )
    graph = build_graph(cfg)
    if args.dot:
        Path(args.dot).write_text(to_dot(graph) + "\n")
    if args.json:
        _write_out(json.dumps(summarize(graph), sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = [
            f"variant {cfg.variant}  k={cfg.k}  F={cfg.initial_maps}  P={cfg.poolings}",
            f"input  {c}x{h}x{w}",
        ]
        for node in graph.nodes:
            shape = graph.shapes[node.id]
            lines.append(
                f"{node.name:<28} {node.kind:<8} {shape[0]:>4}x{shape[1]:<4}x{shape[2]:<4}"
                f" {node.params:>10,}"
            )
        lines.append(f"total trainable parameters: {graph.total_params:,}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_pipeline(args) -> int:
    config = _config_from(args)
    report = run_pipeline(
        args.input,
        args.out_dir,
        seg_ed=args.seg_ed, seg_es=args.seg_es,
        probs_ed=args.probs_ed, probs_es=args.probs_es,
        gt_ed=args.gt_ed, gt_es=args.gt_es,
        model_path=args.model,
        config=config,
    )
    if args.out == "-":
        sys.stdout.write(dumps_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiomr",
        description="cardiac cine-MR segmentation support pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roi", help="locate the LV center and crop the ROI patch")
    p.add_argument("--input", required=True)
    p.add_argument("--out-center", default="-")
    p.add_argument("--out-patch")
    for key in ("radius_min", "radius_max", "top_p"):
        p.add_argument(f"--{key.replace('_', '-')}", type=int, dest=f"cfg__roi__{key}")
    for key in ("vote_sigma", "h1_noise_frac", "canny_sigma", "canny_low", "canny_high"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=f"cfg__roi__{key}")
    p.add_argument("--patch-w", type=int, dest="cfg__roi__patch_w")
    p.add_argument("--patch-h", type=int, dest="cfg__roi__patch_h")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_roi)

    p = sub.add_parser("augment", help="emit augmented copies with parameter sidecars")
    p.add_argument("--input", required=True)
    p.add_argument("--labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--flips", action="store_true", help="also sample random flips")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("weights", help="spatial weight map volume from labels")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dilate-iters", type=int, dest="cfg__loss__dilate_iters")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("loss", help="loss breakdown of probabilities vs labels")
    p.add_argument("--probs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--out", default="-")
    for key in ("lambda", "gamma", "eta", "epsilon"):
        p.add_argument(f"--{key}", type=float, dest=f"cfg__loss__{key}")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("postproc", help="clean a label volume")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    for key in ("skip_3d", "skip_2d", "skip_fill"):
        p.add_argument(f"--{key.replace('_', '-')}", action="store_const", const=True,
                       dest=f"cfg__postproc__{key}")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_postproc)

    p = sub.add_parser("eval", help="metric table of predictions vs ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--csv", default="-")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("features", help="20-feature record from ED/ES labels")
    p.add_argument("--ed", required=True)
    p.add_argument("--es", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--case-id")
    p.add_argument("--density", type=float, dest="cfg__features__density")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train-clf", help="train the two-stage ensemble")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=int, default=1000)
    p.add_argument("--mode", choices=("all", "selected"), default="all")
    p.set_defaults(func=_cmd_train_clf)

    p = sub.add_parser("predict", help="predict disease labels for feature records")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("netinfo", help="shapes and parameter counts of a variant")
    p.add_argument("--variant", choices=("A", "B", "C"), default="C")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--f", type=int)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--input", default="1x128x128")
    p.add_argument("--db-layers", type=int, nargs="+")
    p.add_argument("--db-bottleneck", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", help="write a GraphViz DOT file")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_netinfo)

    p = sub.add_parser("pipeline", help="run one case end to end")
    p.add_argument("--input", required=True, help="cine scalar volume")
    p.add_argument("--seg-ed")
    p.add_argument("--seg-es")
    p.add_argument("--probs-ed")
    p.add_argument("--probs-es")
    p.add_argument("--gt-ed")
    p.add_argument("--gt-es")
    p.add_argument("--model")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--out", default=None, help="'-' echoes the report to stdout")
    p.add_argument("--seed", type=int, dest="cfg__seed")
    p.add_argument("--patch-w", type=int, dest="cfg__roi__patch_w")
    p.add_argument("--patch-h", type=int, dest="cfg__roi__patch_h")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
