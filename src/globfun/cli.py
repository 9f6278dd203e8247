"""Command-line front end.

Exit codes: 0 clean, 1 when a mathematical check fails (a falsified
invariant, not a bug in the caller), 2 for every other package error, such
as usage, caps and unsupported groups.  JSON output is canonical: sorted
keys, integers only, so parse-and-reserialize is byte-identical.
"""

import argparse
import json
import os
import random
import sys
from itertools import chain

from .burncat import product_section, section_of_restriction
from .burnside import BurnsideFunctor
from .cache import Cache
from .characters import char_table_symmetric
from .errors import GlobfunError, MathCheckError, NonIntegralError, UsageError
from .functors import standard_probe, verify_axioms
from .perms import _check_order_factors, _spec_order_factors, parse_group_spec, symmetric_group
from .repring import RepRingFunctor
from .splitting import (
    decompose,
    non_splitting_witness_alternating,
    reassemble,
    splitting_report,
    verify_dcf_symmetric,
)
from .subgroups import table_of_marks


class Config:
    """Run-wide knobs; environment variables override the defaults."""

    __slots__ = ("cache_dir", "max_group_order", "max_lattice_order", "seed", "output")

    def __init__(self, cache_dir, max_group_order, max_lattice_order, seed, output):
        self.cache_dir = cache_dir
        self.max_group_order = max_group_order
        self.max_lattice_order = max_lattice_order
        self.seed = seed
        self.output = output
        if max_group_order <= 0 or max_lattice_order <= 0:
            raise UsageError("caps must be positive")

    @staticmethod
    def from_args(args) -> "Config":
        env = os.environ
        cache_dir = args.cache_dir
        if cache_dir is None:
            cache_dir = env.get(
                "GLOBFUN_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "globfun")
            )
        try:
            max_group = int(env.get("GLOBFUN_MAX_GROUP_ORDER", 50000))
            max_lattice = int(env.get("GLOBFUN_MAX_LATTICE_ORDER", 1000))
            seed = args.seed if args.seed is not None else int(env.get("GLOBFUN_SEED", 0))
        except ValueError as exc:
            raise UsageError(f"bad integer in environment: {exc}")
        return Config(cache_dir, max_group, max_lattice, seed, args.output)


def _group(config: Config, spec: str, lattice: bool):
    """Build the group a spec names, once its order has met the caps."""
    _check_spec(config, spec, lattice)
    return parse_group_spec(spec, cap=config.max_group_order)


def _check_spec(config: Config, spec: str, lattice: bool):
    """Refuse a spec whose order passes the caps, from the spec alone."""
    _check_order(config, _spec_order_factors(spec, config.max_group_order), lattice)


def _check_order(config: Config, factors, lattice: bool):
    """Refuse before any work when the order, the running product of
    `factors`, passes the group cap, or the lattice cap for commands that
    build lattices.  The first cap passed names the error."""
    caps = {"group order": config.max_group_order}
    if lattice:
        caps["subgroup lattice order"] = config.max_lattice_order
    _check_order_factors(factors, caps)


def _functor(config: Config, name: str):
    if name == "burnside":
        return BurnsideFunctor(lattice_cap=config.max_lattice_order)
    if name == "repring":
        return RepRingFunctor()
    raise UsageError(f"unknown functor {name!r}")


# each command handler returns (payload, text_lines, ok)


def _cmd_marks(config, cache, args):
    key = args.group.strip()
    # caps are checked before the cache lookup, so warm and cold runs agree;
    # the group itself is built only on a miss
    _check_spec(config, args.group, True)
    payload = cache.get("marks", key)
    if payload is None:
        g = parse_group_spec(args.group, cap=config.max_group_order)
        lat, marks = table_of_marks(g, cap=config.max_lattice_order)
        payload = {
            "group": key,
            "classes": [c.label() for c in lat.classes],
            "orders": [c.order for c in lat.classes],
            "matrix": [list(row) for row in marks],
        }
        cache.put("marks", key, payload)
    width = max(len(str(v)) for row in payload["matrix"] for v in row)
    lines = [f"table of marks for {payload['group']} ({len(payload['classes'])} classes)"]
    for label, row in zip(payload["classes"], payload["matrix"]):
        body = " ".join(f"{v:>{width}}" for v in row)
        lines.append(f"{body}  {label}")
    return payload, lines, True


def _cmd_functor_value(config, cache, args):
    f = _functor(config, args.functor)
    g = _group(config, args.group, args.functor == "burnside")
    value = f.value(g)
    payload = {
        "functor": args.functor,
        "group": args.group.strip(),
        "rank": value.rank,
        "basis": [str(label) for label in value.labels],
    }
    lines = [f"{args.functor} value at {payload['group']}: rank {value.rank}"]
    lines += [f"  {label}" for label in payload["basis"]]
    return payload, lines, True


def _cmd_verify_axioms(config, cache, args):
    _check_order(config, range(2, args.max_n + 1), args.functor == "burnside")
    f = _functor(config, args.functor)
    report = verify_axioms(f, standard_probe(args.max_n))
    return report.to_dict(), report.summary_lines(), report.all_passed


def _cmd_dcf(config, cache, args):
    _check_order(config, range(2, args.n + 1), args.functor == "burnside")
    f = _functor(config, args.functor)
    check = verify_dcf_symmetric(f, args.k, args.n)
    return check.to_dict(), [check.summary()], check.passed


def _cmd_split(config, cache, args):
    _check_order(config, range(2, args.n + 1), args.functor == "burnside")
    f = _functor(config, args.functor)
    report = splitting_report(f, args.n)
    return report.to_dict(), report.summary_lines(), True


def _cmd_decompose(config, cache, args):
    _check_order(config, range(2, args.n + 1), args.functor == "burnside")
    f = _functor(config, args.functor)
    rank = f.value(symmetric_group(args.n, config.max_group_order)).rank
    if args.element is not None:
        try:
            x = json.loads(args.element)
        except ValueError as exc:
            raise UsageError(f"--element is not valid JSON: {exc}")
        if not isinstance(x, list) or any(
            not isinstance(v, int) or isinstance(v, bool) for v in x
        ):
            raise UsageError("--element must be a JSON array of integers")
    else:
        rng = random.Random(config.seed)
        x = [rng.randint(-4, 4) for _ in range(rank)]
    parts = decompose(f, args.n, x)
    back = reassemble(f, args.n, parts)
    if list(back) != list(x):
        raise MathCheckError("reassembly does not return the input")
    payload = {
        "functor": args.functor,
        "n": args.n,
        "element": list(x),
        "components": [list(p) for p in parts],
    }
    lines = [f"decompose {x} at n={args.n} under {args.functor}"]
    lines += [f"  slot {k}: {list(p)}" for k, p in enumerate(parts)]
    lines.append("reassembly returns the input")
    return payload, lines, True


def _cmd_section(config, cache, args):
    g = _group(config, args.with_product_group, True) if args.with_product_group else None
    _check_order(config, chain([g.order if g else 1], range(2, args.n + 1)), True)
    report = section_of_restriction(args.n, lattice_cap=config.max_lattice_order)
    payload = report.to_dict()
    lines = report.summary_lines()
    if g is not None:
        prod = product_section(g, report, lattice_cap=config.max_lattice_order)
        payload["product"] = prod.to_dict()
        lines += prod.summary_lines()
    return payload, lines, True


def _cmd_fusion(config, cache, args):
    if args.family != "alternating":
        raise UsageError(f"unknown family {args.family!r}")
    text = args.n_range.strip()
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"bad --n-range {args.n_range!r}, expected like 5..8")
    if lo > hi:
        raise UsageError("empty --n-range")
    if not 5 <= lo <= hi <= 8:
        raise UsageError("the fusion search covers 5 <= n <= 8")
    _check_order(config, range(3, hi + 1), False)
    payload = {"family": args.family, "reports": []}
    lines = []
    for n in range(lo, hi + 1):
        report = non_splitting_witness_alternating(n)
        payload["reports"].append(report.to_dict())
        lines += report.summary_lines()
    return payload, lines, True


def _cmd_char_table(config, cache, args):
    key = f"S{args.n}"
    payload = cache.get("char-table", key)
    if payload is None:
        table = char_table_symmetric(args.n)
        payload = {
            "group": key,
            "rows": [str(label[0]) for label in table.labels],
            "class_types": [list(t[0]) for t in table.class_types],
            "class_sizes": list(table.class_sizes),
            "matrix": [list(row) for row in table.matrix],
        }
        cache.put("char-table", key, payload)
    width = max(
        max(len(str(v)) for row in payload["matrix"] for v in row),
        max(len(str(tuple(t))) for t in payload["class_types"]),
    )
    label_width = max(len(r) for r in payload["rows"] + ["size"])
    head = " ".join(f"{str(tuple(t)):>{width}}" for t in payload["class_types"])
    sizes = " ".join(f"{v:>{width}}" for v in payload["class_sizes"])
    lines = [
        f"character table of {payload['group']}",
        f"{'':>{label_width}}  {head}",
        f"{'size':>{label_width}}  {sizes}",
    ]
    for label, row in zip(payload["rows"], payload["matrix"]):
        body = " ".join(f"{v:>{width}}" for v in row)
        lines.append(f"{label:>{label_width}}  {body}")
    return payload, lines, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="globfun",
        description="Exact computations with global Mackey functors on symmetric groups.",
    )
    parser.add_argument("--output", choices=["text", "json"], default="text")
    parser.add_argument("--cache-dir", default=None, help="cache directory (env GLOBFUN_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true", help="disable the on-disk cache")
    parser.add_argument("--seed", type=int, default=None, help="seed for generated elements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("marks", help="table of marks of a group")
    p.add_argument("--group", required=True, help="S<n>, A<n>, S<k>xS<l> or Y<k>,<l>")
    p.set_defaults(handler=_cmd_marks)

    p = sub.add_parser("functor-value", help="basis and rank of a functor value")
    p.add_argument("--functor", choices=["burnside", "repring"], required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_functor_value)

    p = sub.add_parser("verify-axioms", help="check the functor axioms on a probe set")
    p.add_argument("--functor", choices=["burnside", "repring"], required=True)
    p.add_argument("--max-n", type=int, default=3)
    p.set_defaults(handler=_cmd_verify_axioms)

    p = sub.add_parser("dcf", help="two-sided double coset identity at (n, k)")
    p.add_argument("--functor", choices=["burnside", "repring"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_dcf)

    p = sub.add_parser("split", help="splitting report at level n")
    p.add_argument("--functor", choices=["burnside", "repring"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("decompose", help="split a vector into kernel components")
    p.add_argument("--functor", choices=["burnside", "repring"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--element", default=None, help="JSON integer vector; seeded random if omitted")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("section", help="section of composition with the restriction morphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--with-product-group", default=None, metavar="SPEC")
    p.set_defaults(handler=_cmd_section)

    p = sub.add_parser("fusion", help="search for fused conjugacy classes")
    p.add_argument("--family", choices=["alternating"], required=True)
    p.add_argument("--n-range", required=True, help="single n or a range like 5..8")
    p.set_defaults(handler=_cmd_fusion)

    p = sub.add_parser("char-table", help="character table of a symmetric group")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_char_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = Config.from_args(args)
        cache = Cache(config.cache_dir, enabled=not args.no_cache)
        payload, lines, ok = args.handler(config, cache, args)
    except (MathCheckError, NonIntegralError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except GlobfunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
