"""atlas: command-line interface.

Subcommands mirror the library drivers and print JSON (DOT for Hasse
diagrams on request).  Node numbers on the command line are 1-based Bourbaki
labels; exit status is nonzero when a classification driver finds a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache

from .branching import branch_adjoint
from .chevalley import build_algebra
from .classify import (
    assemble_tables_2_3,
    mixed_orbit_cohom,
    reproduce_table1,
    reproduce_thm_ss_c2,
    ClassificationError,
)
from .cohom import SampleConfig, cohom_adjoint
from .flags import flag_cohom, kostant_summands, painted
from .orbits import (
    OrbitLabel,
    Partition,
    WeightedDynkinDiagram,
    expected_orbit_dimension,
    hasse_diagram,
    minimal_orbit,
    next_to_minimal,
    orbit_dimension,
    representative,
    valid_partitions,
    weighted_diagram,
)
from .roots import build_root_system, root_centralizer_subsystem
from .sl2 import isotypic_decomposition, triple_centralizer


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _cfg(args) -> SampleConfig:
    kw = {}
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        kw["num_samples"] = args.samples
    if getattr(args, "steps", None) is not None:
        kw["unipotent_steps"] = args.steps
    return SampleConfig(**kw)


_LABEL_FORMS = "min, ntm, wdd:<marks> such as wdd:0001, or a partition such as 3,1,1"


def _ints(texts, option: str, forms: str) -> list[int]:
    """The integers `texts` spell; otherwise a ValueError naming `option`'s accepted forms."""
    try:
        return [int(v) for v in texts]
    except ValueError:
        raise ValueError(f"{option}: expected {forms}") from None


def _parse_label(t: str, s: str) -> OrbitLabel:
    if s == "min":
        return minimal_orbit(t)
    if s == "ntm":
        ls = next_to_minimal(t)
        if not ls:
            raise ValueError(f"{t} has no next-to-minimal orbit")
        if len(ls) > 1:
            wdds = ", ".join(f"wdd:{weighted_diagram(t, l)}" for l in ls)
            raise ValueError(f"{t} has {len(ls)} next-to-minimal orbits; pass one of {wdds}")
        return ls[0]
    if s.startswith("wdd:"):
        marks = _ints(s[4:].replace(",", ""), f"--label {s!r}", _LABEL_FORMS)
        return OrbitLabel(diagram=WeightedDynkinDiagram(tuple(marks)))
    parts = _ints(s.strip("()").split(","), f"--label {s!r}", _LABEL_FORMS)
    return OrbitLabel(partition=Partition(tuple(parts)))


def cmd_roots(args):
    rs = build_root_system(args.type)
    _emit({
        "type": str(rs.cartan_type),
        "rank": rs.rank,
        "dimension": rs.dimension,
        "num_positive_roots": rs.num_positive,
        "cartan_matrix": [list(r) for r in rs.cartan_matrix],
        "det_cartan": rs.det_cartan,
        "highest_root": list(rs.highest_root) if rs.cartan_type.is_simple else None,
        "positive_roots": [list(r) for r in rs.positive_roots],
    })
    return 0


def cmd_orbits_list(args):
    t = args.type
    mini, ntm = minimal_orbit(t), next_to_minimal(t)
    # every partition on classical types; only these two on exceptional ones (no catalog yet)
    labels = valid_partitions(t) if mini.partition is not None else [mini, *ntm]
    rows = [{
        "label": str(lab),
        "dimension": orbit_dimension(t, lab),
        "weighted_diagram": str(weighted_diagram(t, lab)),
        **({"very_even_pair": lab.very_even} if lab.partition is not None else {}),
        "minimal": lab == mini,
        "next_to_minimal": lab in ntm,
    } for lab in labels]
    _emit({"type": t, "orbits": rows})
    return 0


def cmd_orbits_hasse(args):
    edges = hasse_diagram(args.type)
    if args.format == "dot":
        lines = ["digraph hasse {"]
        for lo, hi in edges:
            lines.append(f'  "{lo}" -> "{hi}";')
        lines.append("}")
        print("\n".join(lines))
    else:
        _emit({
            "type": args.type,
            "edges": [[str(lo), str(hi)] for lo, hi in edges],
        })
    return 0


def cmd_cohom_orbit(args):
    t = args.type
    a = build_algebra(t)
    lab = _parse_label(t, args.label)
    w = weighted_diagram(t, lab)
    x = representative(a, w, seed=args.seed or 0).x
    rep = cohom_adjoint(a, x, _cfg(args), orbit_dim=expected_orbit_dimension(a.rs, w))
    _emit({"type": t, "label": str(lab), "weighted_diagram": str(w), **asdict(rep)})
    return 0


def cmd_cohom_flag(args):
    a = build_algebra(args.type)
    nodes = _ints(args.cross.split(","), f"--cross {args.cross!r}",
                  "comma-separated 1-based nodes such as 1,2")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"--cross: nodes must be distinct, got {args.cross}")
    pd = painted(args.type, [v - 1 for v in nodes])
    rep = flag_cohom(a, pd, _cfg(args))
    _emit({
        "type": args.type,
        "crossed_nodes": sorted(nodes),
        "num_kostant_summands": kostant_summands(a.rs, pd),
        **asdict(rep),
    })
    return 0


def cmd_decomp(args):
    t = args.type
    a = build_algebra(t)
    lab = _parse_label(t, args.label)
    w = weighted_diagram(t, lab)
    triple = representative(a, w, seed=args.seed or 0)
    _, k_dim = triple_centralizer(a, triple)
    d = isotypic_decomposition(a, triple)
    _emit({
        "type": t,
        "label": str(lab),
        "weighted_diagram": str(w),
        "k_dim": k_dim,
        "isotypic_multiplicities": {str(k): v for k, v in sorted(d.multiplicities.items())},
        "w_dim": d.w_dim,
        "graded_dims": {str(k): v for k, v in sorted(d.graded_dims.items())},
    })
    return 0


def cmd_branch(args):
    kind, _, spec = args.sub.partition(":")
    if kind not in ("marks", "nodes"):
        raise ValueError(f"--sub must be marks:... or nodes:..., got {args.sub!r}")
    values = _ints(spec.split(","), f"--sub {args.sub!r}", "integer entries")
    rs = build_root_system(args.type)
    if kind == "marks":
        if len(values) != rs.rank:
            raise ValueError(f"--sub marks: needs {rs.rank} entries for {args.type}, "
                             f"got {len(values)}")
        sub = root_centralizer_subsystem(rs, values)
        if sub.cartan_type is None:
            raise ValueError(f"--sub {args.sub!r}: no root vanishes on a regular element; "
                             "nothing to branch to")
        simples = list(sub.simple_roots)
        meta = {
            "centralizer_type": str(sub.cartan_type),
            "torus_dim": sub.torus_dim,
            "num_zero_roots": len(sub.roots),
        }
    else:
        if len(set(values)) != len(values) or not all(1 <= v <= rs.rank for v in values):
            raise ValueError(f"--sub nodes: must be distinct nodes in 1..{rs.rank}, "
                             f"got {spec}")
        simples = [
            tuple(1 if j == v - 1 else 0 for j in range(rs.rank)) for v in values
        ]
        meta = {"subsystem_nodes": values}
    br = branch_adjoint(rs, simples)
    _emit({
        "type": args.type,
        **meta,
        "parent_dimension": br.parent_dimension,
        "components": [
            {
                "subsystem": c.subsystem_type,
                "highest_weight": list(c.highest_weight),
                "torus_charge": [str(q) for q in c.torus_charge],
                "multiplicity": c.multiplicity,
                "dimension": c.dimension,
            }
            for c in br.components
        ],
        "dimension_check": br.total_dimension == br.parent_dimension,
    })
    return 0


def cmd_classify(args):
    cfg = _cfg(args)
    try:
        if args.what == "table1":
            types = args.types.split(",") if args.types is not None else None
            table = reproduce_table1(types=types, cfg=cfg)
            _emit(table.as_dict())
            return 0 if table.all_match else 1
        if args.what == "ss-c2":
            table = reproduce_thm_ss_c2(max_rank=args.max_rank, cfg=cfg)
            _emit(table.as_dict())
            return 0 if table.all_match else 1
        if args.what == "tables23":
            t2, t3 = assemble_tables_2_3(cfg)
            _emit({"table2": t2.as_dict(), "table3": t3.as_dict()})
            return 0 if (t2.all_match and t3.all_match) else 1
        rep = mixed_orbit_cohom(args.n, cfg)  # "mixed", the last of the parser's choices
        _emit(asdict(rep))
        return 0
    except ClassificationError as e:
        print(f"classification mismatch: {e}", file=sys.stderr)
        return 1


def _add_sampler_args(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)


@cache  # built once per process: parsing leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="atlas",
        description="Exact cohomogeneity computations for adjoint orbits",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("roots", help="root system summary (JSON)")
    p.add_argument("type")
    p.set_defaults(fn=cmd_roots, parser=p)

    po = sub.add_parser("orbits", help="nilpotent orbit catalog")
    so = po.add_subparsers(dest="sub", required=True)
    p = so.add_parser("list", help="orbit labels, dimensions, flags (JSON)")
    p.add_argument("type")
    p.set_defaults(fn=cmd_orbits_list, parser=p)
    p = so.add_parser("hasse", help="closure order")
    p.add_argument("type")
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(fn=cmd_orbits_hasse, parser=p)

    pc = sub.add_parser("cohom", help="cohomogeneity reports")
    sc = pc.add_subparsers(dest="sub", required=True)
    p = sc.add_parser("orbit", help="cohomogeneity of a nilpotent orbit")
    p.add_argument("type")
    p.add_argument("--label", required=True,
                   help="partition '2,2,1' | wdd:0001 | min | ntm")
    _add_sampler_args(p)
    p.set_defaults(fn=cmd_cohom_orbit, parser=p)
    p = sc.add_parser("flag", help="cohomogeneity of a painted-diagram orbit")
    p.add_argument("type")
    p.add_argument("--cross", required=True, help="1-based node list, e.g. 1,2")
    _add_sampler_args(p)
    p.set_defaults(fn=cmd_cohom_flag, parser=p)

    p = sub.add_parser("decomp", help="sl2 isotypic decomposition and W data")
    p.add_argument("type")
    p.add_argument("--label", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_decomp, parser=p)

    p = sub.add_parser("branch", help="restriction of the adjoint representation")
    p.add_argument("type")
    p.add_argument("--sub", required=True, dest="sub",
                   help="marks:1,0,... (coweight centralizer) or nodes:2,3")
    p.set_defaults(fn=cmd_branch, parser=p)

    p = sub.add_parser("classify", help="classification drivers")
    p.add_argument("what", choices=["table1", "ss-c2", "tables23", "mixed"])
    p.add_argument("--types", default=None, help="comma list restricting table1")
    p.add_argument("--max-rank", type=int, default=6)
    p.add_argument("--n", type=int, default=3, help="rank for the mixed orbit")
    _add_sampler_args(p)
    p.set_defaults(fn=cmd_classify, parser=p)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as e:
        # bad input; a failed exactness check is an ArithmeticError and propagates
        args.parser.exit(2, f"{args.parser.prog}: error: {e}\n")
    except BrokenPipeError:
        # the reader left; the interpreter's final flush of stdout now goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
