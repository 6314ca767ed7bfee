"""Command-line surface: basis/descriptor caching, matching, evaluation,
training, inference, and visualization export.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure. Artifacts carry the content hashes of their inputs; a cached file
whose hash no longer matches its input is refused, never silently reused.

`--config` files set the [pipeline], [descriptor], [model] and [train]
sections of ``config.SCHEMA``. The filter bank has no settings: every
command builds the stock bank (``filters.STOCK``) on the basis in use, and
`infer` refuses a checkpoint that records any other [bank].

`descriptor --basis B` and `infer --basis B` also keep the wavelet atom
column statistics (L1 norms, minima, maxima; one symmetric tile sweep per
scale set, see ``wavelets.atom_stats``) in the sidecar B.atoms.npz. It is
keyed by the SHA-256 of the eigenvalues, eigenvectors and areas of the
basis in use (after truncation to -k) and the filter bank's hash: scales
stored under the same key are reused, missing ones are computed and merged
in, and a sidecar under another key (a rebuilt basis that differs) is
recomputed and replaced, so `basis --force` leaves it alone. A sidecar that
fails its checks exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._files import atomic_write
from .chebyshev import chebyshev_operators, spectral_max
from .config import check_section, default_config, format_config, load_config
from .descriptors import (
    export_descriptors_csv,
    hks,
    load_descriptors,
    save_descriptors,
    weds,
    wks,
)
from .errors import DataError, MeshwaveError, UsageError
from .evaluation import (
    CorrespondenceMap,
    GroundTruth,
    cmc_curve,
    evaluate_map,
    nn_match,
    read_correspondence,
    report_csv_text,
    report_summary_text,
    write_correspondence,
)
from .filters import STOCK, build_filter_bank
from .mesh import cotangent_laplacian, load_mesh, lumped_areas
from .meshio import write_ply
from .model import (
    build_model,
    build_wavelet_operators,
    forward as model_forward,
    load_checkpoint,
    required_operator_keys,
    save_checkpoint,
)
from .spectral import eig_generalized, load_basis, save_basis
from .training import ShapeData, TrainConfig, adam_init, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; usage problems are exit 1 here
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _log(msg: str):
    print(msg)


def _compute_basis(mesh, k: int):
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    return eig_generalized(lap, areas, k, mesh_hash=mesh.content_hash())


def _basis_for(mesh, k: int, cache_path=None):
    """Load a basis cache after verifying it matches the mesh, else compute."""
    if cache_path is not None:
        basis = load_basis(cache_path, expect_mesh_hash=mesh.content_hash())
        if basis.k < k:
            raise DataError(
                f"basis cache {cache_path} holds k={basis.k} < requested {k}"
            )
        if basis.k > k:
            basis = dataclasses.replace(
                basis,
                eigenvalues=basis.eigenvalues[:k].copy(),
                eigenvectors=basis.eigenvectors[:, :k].copy(),
            )
        return basis
    return _compute_basis(mesh, k)


def _atom_cache(basis_path):
    """The atom statistics sidecar of a basis cache file, or None."""
    return None if basis_path is None else f"{basis_path}.atoms.npz"


def _bank(basis):
    return build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)


def _shape_operators(kind, mesh, basis, keys, atom_cache=None):
    """A network's per-shape operators for its scale (or order) keys."""
    if kind == "chebyshev":
        lap = cotangent_laplacian(mesh)
        areas = lumped_areas(mesh)
        return chebyshev_operators(lap, areas, spectral_max(lap, areas), max(keys) + 1)
    return build_wavelet_operators(basis, _bank(basis), keys, atom_cache)


def _check_destination(out, make_parents=False):
    """Refuse an output path before any work is done: its directory must
    exist, or with `make_parents` its nearest existing ancestor must be a
    directory."""
    parent = Path(out).parent
    while make_parents and not parent.exists() and parent != parent.parent:
        parent = parent.parent
    if not parent.is_dir():
        raise DataError(f"cannot write {out}: {parent} is not a directory")


def _descriptor_field(mesh, basis, kind: str, num: int, power: int, atom_cache=None):
    if kind == "weds":
        return weds(basis, _bank(basis), mesh.vertices, n_dims=num,
                    power=power, atom_cache=atom_cache)
    if kind == "hks":
        return hks(basis, n_times=num)
    if kind == "wks":
        return wks(basis, n_energies=num)
    raise DataError(f"unknown descriptor type {kind!r}")


def _check_desc_mesh(desc, mesh, what: str):
    stored = desc.metadata.get("mesh_hash")
    if stored and stored != mesh.content_hash():
        raise DataError(
            f"{what}: descriptor file was computed for a different mesh "
            "(content hash mismatch); refusing stale artifact"
        )
    if desc.n_vertices != mesh.n_vertices:
        raise DataError(
            f"{what}: descriptor rows ({desc.n_vertices}) do not match "
            f"mesh vertices ({mesh.n_vertices})"
        )


# ---------------------------------------------------------------- commands


def _cmd_basis(args, cfg):
    mesh = load_mesh(args.mesh)
    k = args.k if args.k is not None else cfg["descriptor"]["k"]
    out = Path(args.out) if args.out else Path(str(args.mesh) + ".basis.npz")
    if out.exists() and not args.force:
        try:
            cached = load_basis(out, expect_mesh_hash=mesh.content_hash())
        except DataError as exc:
            raise DataError(
                f"stale basis cache {out}: {exc}; remove it or pass --force"
            ) from None
        if cached.k == k:
            _log(f"cache hit: {out} (k={k}, n={cached.n_vertices})")
            return 0
        raise DataError(
            f"basis cache {out} holds k={cached.k}, requested {k}; "
            "remove it or pass --force"
        )
    basis = _compute_basis(mesh, k)
    save_basis(out, basis)
    _log(f"wrote {out} (k={basis.k}, n={basis.n_vertices})")
    return 0


def _cmd_descriptor(args, cfg):
    mesh = load_mesh(args.mesh)
    kind = args.type if args.type else cfg["descriptor"]["type"]
    num = args.num if args.num is not None else cfg["descriptor"]["num"]
    k = args.k if args.k is not None else cfg["descriptor"]["k"]
    power = args.power if args.power is not None else cfg["descriptor"]["power"]
    if args.csv:  # a failed export must not leave the new .mwd behind
        _check_destination(args.csv)
    basis = _basis_for(mesh, k, args.basis)
    field = _descriptor_field(mesh, basis, kind, num, power, _atom_cache(args.basis))
    field.metadata["mesh_hash"] = mesh.content_hash()
    out = Path(args.out) if args.out else Path(f"{args.mesh}.{kind}.mwd")
    save_descriptors(out, field)
    _log(f"wrote {out} (n={field.n_vertices}, d={field.n_dims}, type={kind})")
    if args.csv:
        export_descriptors_csv(args.csv, field)
        _log(f"wrote {args.csv}")
    return 0


def _cmd_match(args, cfg):
    desc_a = load_descriptors(args.desc_a)
    desc_b = load_descriptors(args.desc_b)
    corr = nn_match(desc_a.values, desc_b.values)
    comment_lines = [
        f"source = {args.desc_a}",
        f"target = {args.desc_b}",
    ]
    for name, desc in (("source", desc_a), ("target", desc_b)):
        h = desc.metadata.get("mesh_hash")
        if h:
            comment_lines.append(f"{name}_mesh = {h}")
    write_correspondence(args.out, corr.indices, comment="\n".join(comment_lines))
    _log(f"wrote {args.out} ({corr.n_source} correspondences)")
    return 0


def _cmd_eval(args, cfg):
    if args.n_radii < 1:
        raise UsageError(f"--n-radii must be at least 1, got {args.n_radii}")
    if not 0.0 <= args.max_radius < np.inf:
        raise UsageError(f"--max-radius must be finite and >= 0, got {args.max_radius}")
    target = load_mesh(args.target_mesh)
    pred = read_correspondence(args.correspondence, n_target=target.n_vertices,
                               expect_target_hash=target.content_hash())
    direct = read_correspondence(args.gt, n_target=target.n_vertices)
    symmetric = None
    if args.gt_symmetric:
        symmetric = read_correspondence(args.gt_symmetric, n_target=target.n_vertices)
    gt = GroundTruth(direct, symmetric)
    radii = np.linspace(0.0, args.max_radius, args.n_radii)
    report = evaluate_map(CorrespondenceMap(pred), gt, target, radii)
    if args.desc_a and args.desc_b:
        da = load_descriptors(args.desc_a)
        db = load_descriptors(args.desc_b)
        kmax = args.kmax if args.kmax is not None else min(100, db.n_vertices)
        ks, fractions = cmc_curve(da.values, db.values, gt.direct, kmax)
        report = dataclasses.replace(report, cmc_ranks=ks, cmc_fractions=fractions)
    summary = report_summary_text(report)
    # the suffixes extend the whole prefix: "-o run.1" writes run.1.summary.txt
    summary_path = f"{args.out_prefix}.summary.txt"
    curves_path = f"{args.out_prefix}.curves.csv"
    for path, text in ((summary_path, summary), (curves_path, report_csv_text(report))):
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(summary)
    _log(f"wrote {summary_path}")
    _log(f"wrote {curves_path}")
    return 0


def _load_training_shapes(cfg, kind, paths, corr_paths):
    shapes = []
    hashes = []
    k = cfg["descriptor"]["k"]
    num = cfg["descriptor"]["num"]
    power = cfg["descriptor"]["power"]
    dtype = cfg["descriptor"]["type"]
    arch_model = build_model(
        cfg["model"]["architecture"], input_dim=num, kind=kind, seed=0
    )
    needed = required_operator_keys(arch_model)
    for i, path in enumerate(paths):
        mesh = load_mesh(path)
        basis = _compute_basis(mesh, k)
        field = _descriptor_field(mesh, basis, dtype, num, power)
        if corr_paths:
            labels = read_correspondence(corr_paths[i])
        else:
            labels = np.arange(mesh.n_vertices, dtype=np.int64)
        ops = _shape_operators(kind, mesh, basis, needed)
        shapes.append(ShapeData(field.values, labels, ops, name=str(path)))
        hashes.append(mesh.content_hash())
    return shapes, hashes


def _cmd_train(args, cfg):
    paths = cfg["train"]["meshes"]
    if not paths:
        raise DataError("config [train] meshes is empty")
    corr_paths = cfg["train"]["correspondences"]
    if corr_paths and len(corr_paths) != len(paths):
        raise DataError("one correspondence file per training mesh required")
    seed = args.seed if args.seed is not None else cfg["pipeline"]["seed"]
    kind = cfg["model"]["kind"]
    out = Path(args.out) if args.out else Path(cfg["pipeline"]["output_dir"]) / "model.npz"
    _check_destination(out, make_parents=True)  # before training, not after
    shapes, hashes = _load_training_shapes(cfg, kind, paths, corr_paths)
    head_dim = int(max(int(s.labels.max()) for s in shapes)) + 1
    net = build_model(
        cfg["model"]["architecture"],
        input_dim=cfg["descriptor"]["num"],
        kind=kind,
        head_dim=head_dim,
        seed=seed,
    )
    settings = {f.name: cfg["train"][f.name]
                for f in dataclasses.fields(TrainConfig) if f.name != "seed"}
    train_cfg = TrainConfig(**settings, seed=seed)
    opt_state = adam_init(net.params)
    rng = np.random.default_rng(seed)
    net, history = train(net, shapes, train_cfg, opt_state=opt_state, rng=rng)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc.strerror or exc}") from exc
    metadata = {
        "descriptor": cfg["descriptor"],
        "train_meshes": [str(p) for p in paths],
        "mesh_hashes": hashes,
        "history": history,
        "config": format_config(cfg),
    }
    save_checkpoint(
        out, net, opt_state=opt_state,
        rng_state=json.loads(json.dumps(rng.bit_generator.state)),
        metadata=metadata,
    )
    for phase in ("phase1", "phase2"):
        if history[phase]:
            _log(f"{phase}: {len(history[phase])} epochs, "
                 f"final loss {history[phase][-1]:.6g}")
    _log(f"wrote {out}")
    return 0


def _cmd_infer(args, cfg):
    net, _, _, meta = load_checkpoint(args.checkpoint)
    mesh = load_mesh(args.mesh)
    field = load_descriptors(args.descriptors)
    _check_desc_mesh(field, mesh, str(args.descriptors))
    if field.n_dims != net.input_dim:
        raise DataError(
            f"descriptor dim {field.n_dims} does not match model input "
            f"{net.input_dim}"
        )
    source = f"{args.checkpoint} metadata"
    desc_cfg = check_section("descriptor", meta.get("descriptor", cfg["descriptor"]), source)
    k = args.k if args.k is not None else desc_cfg["k"]
    # older checkpoints record the bank's constants; only the stock bank exists
    if meta.get("bank", STOCK) != STOCK:
        raise DataError(f"{source}: [bank] must be absent or the stock {STOCK}, "
                        f"got {meta['bank']!r}")
    basis = _basis_for(mesh, k, args.basis)
    ops = _shape_operators(net.kind, mesh, basis, required_operator_keys(net),
                           _atom_cache(args.basis))
    out_values, _ = model_forward(net, field.values, ops)
    learned = dataclasses.replace(
        field,
        values=np.ascontiguousarray(out_values),
        kind="learned",
        metadata={
            "type": "learned",
            "backbone": net.kind,
            "architecture": net.architecture,
            "k": int(k),
            "mesh_hash": mesh.content_hash(),
            "input_type": field.metadata.get("type", field.kind),
        },
    )
    out = Path(args.out) if args.out else Path(str(args.mesh) + ".learned.mwd")
    save_descriptors(out, learned)
    _log(f"wrote {out} (n={learned.n_vertices}, d={learned.n_dims})")
    return 0


def _cmd_dissimilarity(args, cfg):
    field = load_descriptors(args.descriptors)
    mesh = load_mesh(args.mesh)
    _check_desc_mesh(field, mesh, str(args.descriptors))
    v = args.vertex
    if not 0 <= v < field.n_vertices:
        raise DataError(
            f"reference vertex {v} out of range for {field.n_vertices} vertices"
        )
    dist = np.linalg.norm(field.values - field.values[v][None, :], axis=1)
    peak = dist.max()
    t = dist / peak if peak > 0 else np.zeros_like(dist)
    colors = np.zeros((mesh.n_vertices, 3), dtype=np.uint8)
    colors[:, 0] = np.rint(255.0 * t).astype(np.uint8)  # red = far
    colors[:, 2] = np.rint(255.0 * (1.0 - t)).astype(np.uint8)  # blue = near
    out = Path(args.out) if args.out else Path(str(args.mesh) + ".dissim.ply")
    write_ply(
        out, mesh.vertices, mesh.triangles, colors=colors,
        comment=f"descriptor dissimilarity to vertex {v}",
    )
    _log(f"wrote {out}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file (key = value)")
    common.add_argument("--seed", type=int, help="override the config rng seed")

    parser = _Parser(prog="meshwave", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common],
                       help="compute and cache a Laplacian eigenbasis")
    p.add_argument("mesh")
    p.add_argument("-k", type=int, help="number of eigenpairs")
    p.add_argument("-o", "--out", help="cache file (default MESH.basis.npz)")
    p.add_argument("--force", action="store_true", help="rebuild an existing cache")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("descriptor", parents=[common],
                       help="compute a descriptor field for a mesh")
    p.add_argument("mesh")
    p.add_argument("--type", choices=("weds", "hks", "wks"))
    p.add_argument("--num", type=int, help="descriptor dimension")
    p.add_argument("-k", type=int, help="number of eigenpairs")
    p.add_argument("--power", type=int, choices=(1, 2),
                   help="eigenvalue power in the energy table")
    p.add_argument("--basis", help="use a cached basis file (atom statistics "
                                    "are cached beside it in BASIS.atoms.npz)")
    p.add_argument("-o", "--out", help="output file (default MESH.TYPE.mwd)")
    p.add_argument("--csv", help="also export the field as CSV")
    p.set_defaults(func=_cmd_descriptor)

    p = sub.add_parser("match", parents=[common],
                       help="nearest-neighbor matching between descriptor files")
    p.add_argument("desc_a")
    p.add_argument("desc_b")
    p.add_argument("-o", "--out", required=True, help="correspondence file")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", parents=[common],
                       help="score a correspondence against ground truth")
    p.add_argument("correspondence")
    p.add_argument("gt", help="ground-truth correspondence file")
    p.add_argument("target_mesh")
    p.add_argument("--gt-symmetric", help="symmetric ground-truth file")
    p.add_argument("--desc-a", help="source descriptors (enables the rank curve)")
    p.add_argument("--desc-b", help="target descriptors (enables the rank curve)")
    p.add_argument("--kmax", type=int, help="rank curve depth")
    p.add_argument("--max-radius", type=float, default=0.25)
    p.add_argument("--n-radii", type=int, default=51)
    p.add_argument("-o", "--out-prefix", default="report",
                   help="output prefix for .summary.txt / .curves.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("train", parents=[common],
                       help="train a descriptor network from a config manifest")
    p.add_argument("-o", "--out", help="checkpoint path (default OUTDIR/model.npz)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", parents=[common],
                       help="apply a trained network to a descriptor field")
    p.add_argument("checkpoint")
    p.add_argument("mesh")
    p.add_argument("descriptors", help="input descriptor file (network input)")
    p.add_argument("-k", type=int, help="override the checkpoint's eigenpair count")
    p.add_argument("--basis", help="use a cached basis file (atom statistics "
                                    "are cached beside it in BASIS.atoms.npz)")
    p.add_argument("-o", "--out", help="output file (default MESH.learned.mwd)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("dissimilarity", parents=[common],
                       help="export per-vertex descriptor distance as a colored PLY")
    p.add_argument("descriptors")
    p.add_argument("mesh")
    p.add_argument("--vertex", type=int, required=True, help="reference vertex")
    p.add_argument("-o", "--out", help="output PLY (default MESH.dissim.ply)")
    p.set_defaults(func=_cmd_dissimilarity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else default_config()
        return args.func(args, cfg)
    except MeshwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
