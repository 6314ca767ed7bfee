"""Command-line surface: basis/descriptor caching, matching, evaluation,
training, inference, and visualization export.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure. Basis caches, descriptor files and correspondence maps record the
content hash of the mesh they were computed for, and each is read against
the mesh it serves (`eval --desc-a` against its map's `# source_mesh`): one
recorded for another mesh is refused, never reused (``_files.check_mesh_hash``).
A basis cache serves every k from 1 to the pairs it holds: `basis -o`,
`descriptor --basis` and `infer --basis` read its first -k pairs through
``spectral.load_basis``. Every command reads and writes files through
``_files``, and checks each output path there, against its other files
too, before any eigensolve, match, epoch or forward pass.

`basis`, `descriptor`, `train` and `infer` take `--config`, a file that
sets the [pipeline], [descriptor], [model] and [train] sections of
``config.SCHEMA``; the other commands read none. The filter bank has no
settings: every command builds the stock bank (``filters.STOCK``) on the
basis in use, and `infer` refuses a checkpoint that records any other
[bank].

`descriptor --basis B` keeps the WEDS atom column ranges in the sidecar
B.range.npz, and `infer --basis B` the L1 norms in B.l1.npz
(``_sidecar``). Each holds one table under one key, the SHA-256 of
everything it depends on: the statistic, the bank, the basis in use (the
cache's first -k pairs) and the scale set (``wavelets.filter_atom_stats``).
A sidecar under another key is replaced, so the output is byte-identical
to a run without --basis and `basis --force` leaves the sidecars alone; a
table under the key that fails its checks or its digest exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._files import atomic_write, check_destination, create_parents
from .chebyshev import chebyshev_operators
from .config import check_section, default_config, format_config, load_config
from .descriptors import (
    check_settings,
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
from .training import ShapeData, TrainConfig, common_vertices, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; usage problems are exit 1 here
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _log(msg: str):
    print(msg)


def _mesh_basis(mesh, k: int, path=None):
    """The mesh's first k eigenpairs, freshly solved, or the first k pairs
    of the cache file `path`, read against the mesh (it serves every k from
    1 to the pairs it holds)."""
    if path is None:
        lap = cotangent_laplacian(mesh)
        areas = lumped_areas(mesh)
        return eig_generalized(lap, areas, k, mesh_hash=mesh.content_hash())
    return load_basis(path, mesh, k)


def _sidecar(path, stat):
    """The file beside the basis cache `path` (None for none) that keeps
    the atom statistic `stat` (``wavelets.filter_atom_stats``)."""
    return path and f"{path}.{stat}.npz"


def _bank(basis):
    return build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)


def _shape_operators(net, mesh, basis, atom_cache=None):
    """The network's per-shape operators for its scale (or order) keys, None
    for a wavelet network with none; only wavelet scales read `basis`."""
    keys = required_operator_keys(net)
    if net.kind == "chebyshev":
        return chebyshev_operators(cotangent_laplacian(mesh), lumped_areas(mesh), keys)
    return build_wavelet_operators(basis, _bank(basis), keys, atom_cache) if keys else None


def _descriptor_field(mesh, basis, kind: str, num: int, power: int, atom_cache=None):
    if kind == "weds":
        return weds(basis, _bank(basis), mesh.vertices, n_dims=num,
                    power=power, atom_cache=atom_cache)
    if kind == "hks":
        return hks(basis, n_times=num)
    return wks(basis, n_energies=num)  # the callers ran check_settings


# ---------------------------------------------------------------- commands


def _cmd_basis(args, cfg):
    mesh = load_mesh(args.mesh)
    k = args.k if args.k is not None else cfg["descriptor"]["k"]
    out = check_destination(args.out or f"{args.mesh}.basis.npz", args.mesh, args.config)
    if out.exists() and not args.force:
        try:
            cached = load_basis(out, mesh, k)
        except DataError as exc:  # --force helps only a k the mesh can serve
            hint = "; remove it or pass --force" if 1 <= k <= mesh.n_vertices else ""
            raise DataError(f"{exc}{hint}") from None
        _log(f"cache hit: {out} (k={k}, n={cached.n_vertices})")
        return 0
    basis = _mesh_basis(mesh, k)
    save_basis(out, basis)
    _log(f"wrote {out} (k={basis.k}, n={basis.n_vertices})")
    return 0


def _cmd_descriptor(args, cfg):
    mesh = load_mesh(args.mesh)
    kind = args.type if args.type else cfg["descriptor"]["type"]
    num = args.num if args.num is not None else cfg["descriptor"]["num"]
    k = args.k if args.k is not None else cfg["descriptor"]["k"]
    power = args.power if args.power is not None else cfg["descriptor"]["power"]
    check_settings(kind, num, power)
    sidecar = _sidecar(args.basis, "range")
    inputs = [args.mesh, args.config, args.basis, sidecar]
    out = check_destination(args.out or f"{args.mesh}.{kind}.mwd", *inputs)
    csv = args.csv and check_destination(args.csv, out, *inputs)
    basis = _mesh_basis(mesh, k, args.basis)
    field = _descriptor_field(mesh, basis, kind, num, power, sidecar)
    field.metadata["mesh_hash"] = mesh.content_hash()
    save_descriptors(out, field)
    _log(f"wrote {out} (n={field.n_vertices}, d={field.n_dims}, type={kind})")
    if csv:
        export_descriptors_csv(csv, field)
        _log(f"wrote {csv}")
    return 0


def _cmd_match(args, cfg):
    out = check_destination(args.out, args.desc_a, args.desc_b)
    desc_a = load_descriptors(args.desc_a)
    desc_b = load_descriptors(args.desc_b)
    corr = nn_match(desc_a.values, desc_b.values)
    comment_lines = [f"source = {args.desc_a}", f"target = {args.desc_b}"]
    for name, desc in (("source", desc_a), ("target", desc_b)):
        h = desc.metadata.get("mesh_hash")
        if h is not None:
            comment_lines.append(f"{name}_mesh = {h}")
    write_correspondence(out, corr.indices, comment="\n".join(comment_lines))
    _log(f"wrote {out} ({corr.n_source} correspondences)")
    return 0


def _cmd_eval(args, cfg):
    if args.n_radii < 1:
        raise UsageError(f"--n-radii must be at least 1, got {args.n_radii}")
    if not 0.0 <= args.max_radius < np.inf:
        raise UsageError(f"--max-radius must be finite and >= 0, got {args.max_radius}")
    if (args.desc_a is None) != (args.desc_b is None):
        raise UsageError("--desc-a and --desc-b must be given together")
    if args.kmax is not None and (args.desc_a is None or args.kmax < 1):
        raise UsageError(f"--kmax needs --desc-a and --desc-b and must be "
                         f"at least 1, got {args.kmax}")
    # the suffixes extend the whole prefix: "-o run.1" writes run.1.summary.txt
    paths = [check_destination(f"{args.out_prefix}.{suffix}", args.correspondence, args.gt,
                               args.target_mesh, args.gt_symmetric, args.desc_a, args.desc_b)
             for suffix in ("summary.txt", "curves.csv")]
    target = load_mesh(args.target_mesh)
    da = db = source = None
    if args.desc_a is not None:  # --desc-a is read against the map's source_mesh
        da, db = load_descriptors(args.desc_a), load_descriptors(args.desc_b, target)
        source = args.desc_a, da.metadata.get("mesh_hash")
    pred = read_correspondence(args.correspondence, target, source)
    direct = read_correspondence(args.gt, target)
    symmetric = read_correspondence(args.gt_symmetric, target) if args.gt_symmetric else None
    gt = GroundTruth(direct, symmetric)
    if da is not None:  # cmc_curve checks kmax before the geodesic work
        kmax = args.kmax if args.kmax is not None else min(100, db.n_vertices)
        ks, fractions = cmc_curve(da.values, db.values, gt.direct, kmax)
    radii = np.linspace(0.0, args.max_radius, args.n_radii)
    report = evaluate_map(CorrespondenceMap(pred), gt, target, radii)
    if da is not None:
        report = dataclasses.replace(report, cmc_ranks=ks, cmc_fractions=fractions)
    summary = report_summary_text(report)
    for path, text in zip(paths, (summary, report_csv_text(report))):
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(summary)
    for path in paths:
        _log(f"wrote {path}")
    return 0


def _cmd_train(args, cfg):
    paths = cfg["train"]["meshes"]
    if not paths:
        raise DataError("config [train] meshes is empty")
    corr_paths = cfg["train"]["correspondences"]
    if corr_paths and len(corr_paths) != len(paths):
        raise DataError("one correspondence file per training mesh required")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    seed = args.seed if args.seed is not None else cfg["pipeline"]["seed"]
    if seed < 0:
        raise DataError(f"[pipeline] seed must be non-negative, got {seed}")
    out = check_destination(args.out or Path(cfg["pipeline"]["output_dir"]) / "model.npz",
                            args.config, *paths, *corr_paths, make_parents=True)
    # every input is read, and the model built, before any eigensolve
    meshes = [load_mesh(path) for path in paths]
    if corr_paths:
        labels = [read_correspondence(path) for path in corr_paths]
        for path, mesh, lab in zip(corr_paths, meshes, labels):
            if lab.size != mesh.n_vertices:
                raise DataError(f"{path}: {lab.size} labels for {mesh.n_vertices} vertices")
    else:
        labels = [np.arange(mesh.n_vertices, dtype=np.int64) for mesh in meshes]
    desc = cfg["descriptor"]
    try:  # a refused config value names its file
        train_cfg = TrainConfig(**{f.name: cfg["train"][f.name]
                                   for f in dataclasses.fields(TrainConfig)})
        net = build_model(
            cfg["model"]["architecture"],
            input_dim=desc["num"],
            kind=cfg["model"]["kind"],
            head_dim=int(max(int(lab.max()) for lab in labels)) + 1,
            seed=seed,
        )
    except DataError as exc:
        raise DataError(f"{args.config}: {exc}") from None
    if train_cfg.phase2_epochs > 0:  # phase 2 pairs every two shapes by their labels
        for (pa, la), (pb, lb) in itertools.combinations(zip(corr_paths or paths, labels), 2):
            common_vertices(la, lb, str(pa), str(pb))
    shapes = []
    for path, mesh, lab in zip(paths, meshes, labels):
        basis = _mesh_basis(mesh, desc["k"])
        field = _descriptor_field(mesh, basis, desc["type"], desc["num"], desc["power"])
        ops = _shape_operators(net, mesh, basis)
        shapes.append(ShapeData(field.values, lab, ops, name=str(path)))
    net, history = train(net, shapes, train_cfg, rng=np.random.default_rng(seed))
    create_parents(out)
    metadata = {
        "descriptor": cfg["descriptor"],
        "train_meshes": [str(p) for p in paths],
        "mesh_hashes": [mesh.content_hash() for mesh in meshes],
        "history": history,
        "config": format_config(cfg),
    }
    save_checkpoint(out, net, metadata=metadata)
    for phase in ("phase1", "phase2"):
        if history[phase]:
            _log(f"{phase}: {len(history[phase])} epochs, "
                 f"final loss {history[phase][-1]:.6g}")
    _log(f"wrote {out}")
    return 0


def _cmd_infer(args, cfg):
    sidecar = _sidecar(args.basis, "l1")
    out = check_destination(args.out or f"{args.mesh}.learned.mwd", args.checkpoint, args.mesh,
                            args.descriptors, args.config, args.basis, sidecar)
    net, _, _, meta = load_checkpoint(args.checkpoint)
    mesh = load_mesh(args.mesh)
    field = load_descriptors(args.descriptors, mesh)
    if field.n_dims != net.input_dim:
        raise DataError(f"descriptor dim {field.n_dims} does not match model input "
                        f"{net.input_dim}")
    source = f"{args.checkpoint} metadata"
    desc_cfg = check_section("descriptor", meta.get("descriptor", cfg["descriptor"]), source)
    trained = (desc_cfg["type"], desc_cfg["power"] if desc_cfg["type"] == "weds" else None)
    given = (field.kind, field.metadata.get("power", trained[1]) if field.kind == "weds" else None)
    if "descriptor" in meta and given != trained:
        raise DataError(f"{args.descriptors}: descriptor type and power {given} differ "
                        f"from the {trained} the network was trained on")
    # older checkpoints record the bank's constants; only the stock bank exists
    if meta.get("bank", STOCK) != STOCK:
        raise DataError(f"{source}: [bank] must be absent or the stock {STOCK}, "
                        f"got {meta['bank']!r}")
    metadata = {"type": "learned", "backbone": net.kind, "architecture": net.architecture,
                "mesh_hash": mesh.content_hash(),
                "input_type": field.metadata.get("type", field.kind)}
    basis = None
    if net.kind != "chebyshev" and required_operator_keys(net):
        metadata["k"] = k = args.k if args.k is not None else desc_cfg["k"]
        basis = _mesh_basis(mesh, k, args.basis)
    elif args.k is not None or args.basis is not None:
        raise UsageError(f"-k and --basis set an eigenbasis, and this {net.kind} "
                         f"network ({net.architecture}) reads none")
    ops = _shape_operators(net, mesh, basis, sidecar)
    out_values, _ = model_forward(net, field.values, ops)
    learned = dataclasses.replace(field, values=np.ascontiguousarray(out_values),
                                  kind="learned", metadata=metadata)
    save_descriptors(out, learned)
    _log(f"wrote {out} (n={learned.n_vertices}, d={learned.n_dims})")
    return 0


def _cmd_dissimilarity(args, cfg):
    out = check_destination(args.out or f"{args.mesh}.dissim.ply", args.descriptors, args.mesh)
    mesh = load_mesh(args.mesh)
    field = load_descriptors(args.descriptors, mesh)
    v = args.vertex
    if not 0 <= v < field.n_vertices:
        raise DataError(f"reference vertex {v} out of range for {field.n_vertices} vertices")
    # scaled by a power of two into [-2, 2], no distance overflows; t keeps its bits
    values = field.values / np.ldexp(1.0, np.frexp(np.abs(field.values).max())[1] - 1)
    dist = np.linalg.norm(values - values[v][None, :], axis=1)
    peak = dist.max()
    t = dist / peak if peak > 0 else np.zeros_like(dist)
    colors = np.zeros((mesh.n_vertices, 3), dtype=np.uint8)
    colors[:, 0] = np.rint(255.0 * t).astype(np.uint8)  # red = far
    colors[:, 2] = np.rint(255.0 * (1.0 - t)).astype(np.uint8)  # blue = near
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
    p.add_argument("--basis", help="use a cached basis file (WEDS atom ranges "
                                    "are cached beside it in BASIS.range.npz)")
    p.add_argument("-o", "--out", help="output file (default MESH.TYPE.mwd)")
    p.add_argument("--csv", help="also export the field as CSV")
    p.set_defaults(func=_cmd_descriptor)

    p = sub.add_parser("match", help="nearest-neighbor matching between descriptor files")
    p.add_argument("desc_a")
    p.add_argument("desc_b")
    p.add_argument("-o", "--out", required=True, help="correspondence file")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", help="score a correspondence against ground truth")
    p.add_argument("correspondence")
    p.add_argument("gt", help="ground-truth correspondence file")
    p.add_argument("target_mesh")
    p.add_argument("--gt-symmetric", help="symmetric ground-truth file")
    p.add_argument("--desc-a", help="source descriptors (with --desc-b, the rank curve)")
    p.add_argument("--desc-b", help="target descriptors, of TARGET_MESH (with --desc-a, "
                                    "the rank curve)")
    p.add_argument("--kmax", type=int, help="rank curve depth (default min(100, target rows))")
    p.add_argument("--max-radius", type=float, default=0.25)
    p.add_argument("--n-radii", type=int, default=51)
    p.add_argument("-o", "--out-prefix", default="report",
                   help="output prefix for .summary.txt / .curves.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("train", parents=[common],
                       help="train a descriptor network from a config manifest")
    p.add_argument("-o", "--out", help="checkpoint path (default OUTDIR/model.npz)")
    p.add_argument("--seed", type=int, help="override the config rng seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", parents=[common],
                       help="apply a trained network to a descriptor field")
    p.add_argument("checkpoint")
    p.add_argument("mesh")
    p.add_argument("descriptors", help="input descriptor file (network input)")
    p.add_argument("-k", type=int, help="override the checkpoint's eigenpair count "
                                         "(wavelet conv layers only)")
    p.add_argument("--basis", help="use a cached basis file, atom L1 norms cached "
                                    "beside it in BASIS.l1.npz (wavelet conv layers only)")
    p.add_argument("-o", "--out", help="output file (default MESH.learned.mwd)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("dissimilarity",
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
        cfg = load_config(args.config) if getattr(args, "config", None) else default_config()
        return args.func(args, cfg)
    except MeshwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
