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
import re
import sys
from itertools import chain

from .burncat import product_section, section_of_restriction
from .burnside import BurnsideFunctor
from .cache import Cache
from .characters import _check_moved_degree, char_table_symmetric
from .errors import GlobfunError, MathCheckError, NonIntegralError, UsageError, _cap, _read_int
from .functors import standard_probe, verify_axioms
from .perms import _check_order_factors, _read_group_spec, parse_group_spec
from .repring import RepRingFunctor
from .splitting import (
    decompose,
    non_splitting_witness_alternating,
    reassemble,
    splitting_report,
    verify_dcf_symmetric,
)
from .subgroups import table_of_marks


def _int_arg(text: str) -> int:
    """An integer option; non-ASCII digits are refused like any bad int."""
    try:
        return _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _check_spec(spec: str, lattice: bool):
    """The sizes of a spec, once its order (factors 2..n for S<n>, 3..n for
    A<n>, 2..k then 2..l) has met the caps, from the spec alone."""
    family, sizes = _read_group_spec(spec)
    _check_order((i for n in sizes for i in range(3 if family == "A" else 2, n + 1)), lattice)
    return sizes


def _check_order(factors, lattice: bool):
    """Refuse before any work when the order, the running product of
    `factors`, passes the group cap, or the lattice cap for commands that
    build lattices.  The first cap passed names the error."""
    whats = ("group order", "subgroup lattice order") if lattice else ("group order",)
    _check_order_factors(factors, *whats)


def _check_table(functor: str, *degrees):
    """Refuse an RU command before any group, table or Pieri matrix is built
    when its groups move more points than the table cap covers; `degrees`
    are block sizes.  The RU split builds no group, so this is its only cap."""
    if functor == "repring":
        _check_moved_degree(sum(d for d in degrees if d > 1))


def _functor(name: str):
    """The functor a `--functor` choice names; argparse admits only these two."""
    return BurnsideFunctor() if name == "burnside" else RepRingFunctor()


def _cached_table(cache, artifact: str, key: str, **fields):
    """The stored payload of a square table, or None on a miss.

    `fields` names each list of a fresh payload with the type of its
    entries, where a list entry is a list of integers.  A stored payload
    that has other keys, a field that is not such a list, fields of unequal
    or zero length n, or a matrix row whose length is not n counts as a
    miss, so the table is recomputed and the entry rewritten.
    """
    payload = cache.get(artifact, key)
    if not (isinstance(payload, dict) and payload.keys() == fields.keys()
            and all(isinstance(v, list) for v in payload.values())):
        return None
    n = len(payload["matrix"])
    ok = n > 0 and all(
        len(payload[field]) == n and all(
            type(v) is kind and (kind is not list or all(type(x) is int for x in v))
            for v in payload[field])
        for field, kind in fields.items())
    return payload if ok and all(len(row) == n for row in payload["matrix"]) else None


# each command handler returns (payload, text_lines, ok)


def _cmd_marks(cache, args):
    spec = args.group.strip()
    # caps are checked before the cache lookup, so warm and cold runs agree;
    # the group itself is built only on a miss.  The key drops each size's
    # leading zeros, so every spelling of a group shares one short entry
    _check_spec(spec, True)
    key = re.sub(r"(?<!\d)0+(?=\d)", "", spec)
    payload = _cached_table(cache, "marks", key, classes=str, orders=int, matrix=list)
    if payload is None:
        lat, marks = table_of_marks(parse_group_spec(spec))
        payload = {
            "classes": [c.label() for c in lat.classes],
            "orders": [c.order for c in lat.classes],
            "matrix": [list(row) for row in marks],
        }
        cache.put("marks", key, payload)
    payload["group"] = spec
    width = max(len(str(v)) for row in payload["matrix"] for v in row)
    lines = [f"table of marks for {payload['group']} ({len(payload['classes'])} classes)"]
    for label, row in zip(payload["classes"], payload["matrix"]):
        body = " ".join(f"{v:>{width}}" for v in row)
        lines.append(f"{body}  {label}")
    return payload, lines, True


def _cmd_functor_value(cache, args):
    f = _functor(args.functor)
    _check_table(args.functor, *_check_spec(args.group, args.functor == "burnside"))
    value = f.value(parse_group_spec(args.group))
    payload = {
        "functor": args.functor,
        "group": args.group.strip(),
        "rank": value.rank,
        "basis": [str(label) for label in value.labels],
    }
    lines = [f"{args.functor} value at {payload['group']}: rank {value.rank}"]
    lines += [f"  {label}" for label in payload["basis"]]
    return payload, lines, True


def _cmd_verify_axioms(cache, args):
    _check_order(range(2, args.max_n + 1), args.functor == "burnside")
    _check_table(args.functor, args.max_n)
    f = _functor(args.functor)
    report = verify_axioms(f, standard_probe(args.max_n))
    return report.to_dict(), report.summary_lines(), report.all_passed


def _cmd_dcf(cache, args):
    _check_order(range(2, args.n + 1), args.functor == "burnside")
    _check_table(args.functor, args.n)
    f = _functor(args.functor)
    check = verify_dcf_symmetric(f, args.k, args.n)
    return check.to_dict(), [check.summary()], check.passed


def _cmd_split(cache, args):
    if args.functor == "burnside":
        _check_order(range(2, args.n + 1), True)
    _check_table(args.functor, args.n)
    f = _functor(args.functor)
    report = splitting_report(f, args.n)
    return report.to_dict(), report.summary_lines(), True


def _cmd_decompose(cache, args):
    _check_order(range(2, args.n + 1), args.functor == "burnside")
    _check_table(args.functor, args.n)
    f = _functor(args.functor)
    rank = f.tower_value(args.n).rank
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
        rng = random.Random(args.seed)
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


def _cmd_section(cache, args):
    g = None
    if args.with_product_group:
        _check_spec(args.with_product_group, True)
        g = parse_group_spec(args.with_product_group)
    _check_order(chain([g.order if g else 1], range(2, args.n + 1)), True)
    report = section_of_restriction(args.n)
    payload = report.to_dict()
    lines = report.summary_lines()
    if g is not None:
        prod = product_section(g, report)
        payload["product"] = prod.to_dict()
        lines += prod.summary_lines()
    return payload, lines, True


def _cmd_fusion(cache, args):
    text = args.n_range.strip()
    try:
        if ".." in text:
            lo, hi = (_read_int(part) for part in text.split("..", 1))
        else:
            lo = hi = _read_int(text)
    except ValueError:
        raise UsageError(f"bad --n-range {args.n_range!r}, expected like 5..8")
    if lo > hi:
        raise UsageError("empty --n-range")
    if lo < 5:
        raise UsageError("the fusion search needs n >= 5")
    _check_moved_degree(hi)
    payload = {"family": args.family, "reports": []}
    lines = []
    for n in range(lo, hi + 1):
        report = non_splitting_witness_alternating(n)
        payload["reports"].append(report.to_dict())
        lines += report.summary_lines()
    return payload, lines, True


def _cmd_char_table(cache, args):
    key = f"S{args.n}"
    # n is checked before the cache lookup, as in _cmd_marks, so a stored
    # entry cannot answer an n that a cold run refuses
    if args.n < 0:
        raise UsageError("n must be >= 0")
    _check_moved_degree(args.n)
    payload = _cached_table(cache, "char-table", key,
                            rows=str, class_types=list, class_sizes=int, matrix=list)
    if payload is None:
        table = char_table_symmetric(args.n)
        payload = {
            "rows": [str(label[0]) for label in table.labels],
            "class_types": [list(t[0]) for t in table.class_types],
            "class_sizes": list(table.class_sizes),
            "matrix": [list(row) for row in table.matrix],
        }
        cache.put("char-table", key, payload)
    payload["group"] = key
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
    parser.add_argument("--seed", type=_int_arg, default=None, help="seed for generated elements")
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
    p.add_argument("--max-n", type=_int_arg, default=3)
    p.set_defaults(handler=_cmd_verify_axioms)

    p = sub.add_parser("dcf", help="two-sided double coset identity at (n, k)")
    p.add_argument("--functor", choices=["burnside", "repring"], required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.set_defaults(handler=_cmd_dcf)

    p = sub.add_parser("split", help="splitting report at level n")
    p.add_argument("--functor", choices=["burnside", "repring"], required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("decompose", help="split a vector into kernel components")
    p.add_argument("--functor", choices=["burnside", "repring"], required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--element", default=None, help="JSON integer vector; seeded random if omitted")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("section", help="section of composition with the restriction morphism")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--with-product-group", default=None, metavar="SPEC")
    p.set_defaults(handler=_cmd_section)

    p = sub.add_parser("fusion", help="search for fused conjugacy classes")
    p.add_argument("--family", choices=["alternating"], required=True)
    p.add_argument("--n-range", required=True, help="single n or a range like 5..8")
    p.set_defaults(handler=_cmd_fusion)

    p = sub.add_parser("char-table", help="character table of a symmetric group")
    p.add_argument("--n", type=_int_arg, required=True)
    p.set_defaults(handler=_cmd_char_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the caps and the seed are read before any command runs, so a bad
        # value exits 2 on every command
        _cap("group order")
        _cap("subgroup lattice order")
        if args.seed is None:
            text = os.environ.get("GLOBFUN_SEED", "0")
            try:
                args.seed = _read_int(text)
            except ValueError:
                raise UsageError(f"GLOBFUN_SEED must be an integer, got {text!r}")
        cache_dir = args.cache_dir
        if cache_dir is None:
            cache_dir = os.environ.get(
                "GLOBFUN_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "globfun")
            )
        cache = Cache(cache_dir, enabled=not args.no_cache)
        payload, lines, ok = args.handler(cache, args)
    except (MathCheckError, NonIntegralError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except GlobfunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
