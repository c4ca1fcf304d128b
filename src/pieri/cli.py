"""Command line front end.

Subcommands: ``mult``, ``decompose``, ``cone``, ``poset``, ``lattice``,
``eta``, ``verify``.  Diagrams and compositions are comma-separated row
lists (``--D 3,1,1``); an omitted flag means the empty diagram / zero
composition.  Pair-node sets use colon pairs (``--Z 1:2,1:3``).

Output is an aligned text table by default and a versioned JSON record
("pieri/1", sorted keys, two-space indent) with ``--json``; ``--out FILE``
writes the output to a file instead of stdout.  Diagram lists are ordered
by size, then reverse-lexicographically.

Exit codes: 0 ok, 1 usage error (bad arguments, or an ``--out`` file that
cannot be opened or written), 2 domain error (also an input that exhausts
the recursion limit or memory), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .algebra import (
    PieriContext,
    decompose_o,
    decompose_sp,
    multiplicity,
    multiplicity_via_cone,
)
from .cone import enumerate_fiber
from .diagrams import (
    EMPTY,
    SkewShape,
    YoungDiagram,
    as_composition,
    gl_iterated_pieri,
    kostka,
)
from .hibi import _cover_indices, _factors, from_cijz
from .poset import Eps, Gamma, GammaPoset, check_rank
from .verify import run_suites

SCHEMA = "pieri/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_diagram(text: str | None) -> YoungDiagram:
    if not text:
        return EMPTY
    try:
        return YoungDiagram(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad diagram {text!r}: {exc}") from exc


def parse_composition(text: str | None, ell: int) -> tuple[int, ...]:
    if not text:
        return (0,) * ell
    try:
        return as_composition((int(p) for p in text.split(",")), ell)
    except ValueError as exc:
        raise ValueError(f"bad composition {text!r}: {exc}") from exc


def parse_index_set(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad index set {text!r}") from exc


def parse_eps_set(text: str | None) -> tuple[Eps, ...]:
    if not text:
        return ()
    out = []
    for chunk in text.split(","):
        try:
            s, t = chunk.split(":")
            out.append(Eps(int(s), int(t)))
        except ValueError as exc:
            raise ValueError(f"bad pair set {text!r} (use s:t,s:t)") from exc
    return tuple(out)


def render_diagram(d: YoungDiagram) -> str:
    return ",".join(str(r) for r in d.rows) if d.rows else "-"


def point_record(pt, eps_names) -> dict:
    """A cone point's rows by level and its pair values under ``eps_names`` ("s,t", poset order)."""
    ell = pt.poset.ell
    return {
        "rows": {str(i): list(pt.row(i)) for i in range(-ell, ell + 1)},
        "eps": dict(zip(eps_names, pt.eps_values())),
    }


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}


def _json(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` of a value nested at indent ``pad``.

    Dict keys must be strings.  Strings and ints are written directly, and a
    list of only one of them in one pass; any other leaf by ``json.dumps``,
    on which the indent has no effect.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [encode_basestring_ascii(key) + ": " + _json(obj[key], inner) for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, obj))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, obj) if scalar is not None else [_json(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def emit(args, record: dict | None, text: str) -> None:
    if args.json:
        payload = _json(record) + "\n"
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload)


def make_record(command: str, params: dict, result: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "params": params, "result": result}


# -- subcommands -------------------------------------------------------------


def cmd_mult(args) -> int:
    F = parse_diagram(args.F)
    params, k, ell, D, P = _table_args(args)
    params["F"] = list(F.rows)
    verified = None
    if args.group == "gl":
        m = kostka(SkewShape(F, D), P) if len(F) <= args.n and F.contains(D) else 0
        if args.verify:
            verified = gl_iterated_pieri(D, P, args.n).get(F, 0)
    else:
        m = multiplicity(k, ell, F, D, P)
        if args.verify:
            verified = multiplicity_via_cone(k, ell, F, D, P)
    result = {"multiplicity": m}
    if verified is not None:
        result["independent_count"] = verified
    record = make_record("mult", params, result)
    if verified is not None and verified != m:
        emit(args, record, f"{m}\nMISMATCH: independent count {verified}")
        return EXIT_VERIFY
    text = str(m) if verified is None else f"{m}\nverified: independent count agrees"
    emit(args, record, text)
    return EXIT_OK


def cmd_decompose(args) -> int:
    params, k, ell, D, P = _table_args(args)
    if args.group == "gl":
        table = gl_iterated_pieri(D, P, args.n)
    elif args.group == "sp":
        table = decompose_sp(k, ell, D, P, args.n)
    else:
        table = decompose_o(k, ell, D, P, args.n)
    record = make_record(
        "decompose",
        params,
        {"table": [[list(f.rows), m] for f, m in table.items()]},
    )
    lines = [f"{render_diagram(f):12s} {m}" for f, m in table.items()]
    emit(args, record, "\n".join(lines) if lines else "(empty)")
    return EXIT_OK


def cmd_cone(args) -> int:
    k, ell = _require_k_ell(args)
    D = parse_diagram(args.D)
    P = parse_composition(args.P, ell)
    F = parse_diagram(args.F)
    params = {"k": k, "ell": ell, "D": list(D.rows), "P": list(P), "F": list(F.rows)}
    if args.list:
        args.json = True  # the point list is a JSON-only format
        poset = GammaPoset(k, ell)
        fiber = enumerate_fiber(poset, F, D, P)
        eps_names = [f"{e.s},{e.t}" for e in poset.eps_elements]
        result = {"count": len(fiber), "points": [point_record(pt, eps_names) for pt in fiber]}
    else:  # counted block by block, no point built
        result = {"count": multiplicity_via_cone(k, ell, F, D, P)}
    emit(args, make_record("cone", params, result), str(result["count"]))
    return EXIT_OK


def _poset_node_name(el) -> str:
    if isinstance(el, Gamma):
        return f"g({el.level},{el.index})"
    return f"e({el.s},{el.t})"


def cmd_poset(args) -> int:
    k, ell = _require_k_ell(args)
    poset = GammaPoset(k, ell)
    nodes = [_poset_node_name(el) for el in poset.elements]
    edges = (
        (_poset_node_name(lower), _poset_node_name(upper))
        for upper, lower in poset.hasse_edges()
    )
    return _emit_graph(args, "poset", {"k": k, "ell": ell}, nodes, edges)


def cmd_lattice(args) -> int:
    k, ell = _require_k_ell(args)
    poset = GammaPoset(k, ell)
    # set r * n_z + z joins row part r and pair part z, and so does its label
    rows, pairs = _factors(poset)
    row_labels = ["(" + ",".join(map(str, s.profile())) + ")" for s in rows]
    pair_labels = [";Z=" + "+".join(_pair_names(s.Z)) if s.Z else "" for s in pairs]
    nodes = [row + z for row in row_labels for z in pair_labels]
    edges = ((nodes[lower], nodes[upper]) for upper, lower in _cover_indices(poset))
    return _emit_graph(args, "lattice", {"k": k, "ell": ell}, nodes, edges)


def _pair_names(Z) -> list[str]:
    """The pair nodes of Z as "s:t", in poset order."""
    return [f"{e.s}:{e.t}" for e in sorted(Z, key=lambda e: (e.t, e.s))]


def _emit_graph(args, command, params, nodes, edges) -> int:
    """DOT, or the ``pieri/1`` record under ``--json`` or ``--format json``; ``edges`` is read once."""
    if args.json or args.format == "json":
        args.json = True
        result = {"nodes": nodes, "edges": list(edges)}
        emit(args, make_record(command, {**params, "format": args.format}, result), "")
    else:
        lines = [f"digraph {command} {{"]
        lines += [f'  "{n}";' for n in nodes]
        lines += [f'  "{a}" -> "{b}";' for a, b in edges]
        lines.append("}")
        emit(args, None, "\n".join(lines))
    return EXIT_OK


def cmd_eta(args) -> int:
    k, ell = _require_k_ell(args)
    ctx = PieriContext(args.n, k, ell)
    a_set = from_cijz(
        ctx.poset,
        args.c,
        parse_index_set(args.I),
        parse_index_set(args.J),
        parse_eps_set(args.Z),
    )
    eta = ctx.eta(a_set)
    lm = ctx.ring.render_monomial(eta.leading_monomial())
    record = make_record(
        "eta",
        {"k": k, "ell": ell, "n": args.n, "c": args.c,
         "I": sorted(a_set.I), "J": sorted(a_set.J),
         "Z": _pair_names(a_set.Z)},
        {"polynomial": str(eta), "lm": lm},
    )
    emit(args, record, f"{eta}\nLM: {lm}")
    return EXIT_OK


def cmd_verify(args) -> int:
    k, ell = _require_k_ell(args)
    n = args.n if args.n is not None else 2 * (k + ell) + 1
    results = run_suites(args.suite.split(","), k, ell, n)
    lines = []
    for res in results:
        if res.ok:
            lines.append(f"PASS {res.name}: checked {res.checked} instances")
        else:
            lines.append(f"FAIL {res.name}: {len(res.failures)} failures")
            lines.extend(f"  {msg}" for msg in res.failures[:10])
    record = make_record(
        "verify",
        {"suite": args.suite, "k": k, "ell": ell, "n": n},
        {
            "suites": [
                {"name": r.name, "checked": r.checked, "failures": r.failures}
                for r in results
            ],
            "ok": all(r.ok for r in results),
        },
    )
    emit(args, record, "\n".join(lines))
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def _require_k_ell(args):
    if args.k is None or args.ell is None:
        raise ValueError("this command requires --k and --ell")
    return args.k, args.ell


def _table_args(args):
    """``(params, k, ell, D, P)`` of ``mult`` and ``decompose``, the rank checked.

    GL takes no k; its --ell, or else the number of --P entries, is the
    length of P.  An orthogonal table asserts a rank only when --n is given.
    """
    if args.group == "gl":
        k = None
        ell = args.ell if args.ell is not None else (args.P or "").count(",") + 1
        params = {"group": "gl", "n": args.n}
    else:
        k, ell = _require_k_ell(args)
        params = {"group": args.group, "k": k, "ell": ell, "n": args.n}
    D = parse_diagram(args.D)
    P = parse_composition(args.P, ell)
    if args.group != "o" or args.n is not None:
        check_rank(args.group, k, ell, args.n, D)
    params.update(D=list(D.rows), P=list(P))
    return params, k, ell, D, P


@cache
def build_parser() -> Parser:
    """The argument parser, built once per process; ``parse_args`` keeps no state in it."""
    parser = Parser(prog="pieri", description=__doc__,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_flag=True):
        p.add_argument("--k", type=int)
        p.add_argument("--ell", type=int)
        if n_flag:
            p.add_argument("--n", type=int)
        p.add_argument("--json", action="store_true", help="emit a JSON record")
        p.add_argument("--out", help="write output to FILE instead of stdout")

    p = sub.add_parser("mult", help="one tensor product multiplicity")
    p.add_argument("--group", choices=["o", "sp", "gl"], default="o")
    p.add_argument("--D")
    p.add_argument("--P")
    p.add_argument("--F")
    p.add_argument("--verify", action="store_true",
                   help="also run the independent lattice-point count")
    common(p)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("decompose", help="full multiplicity table")
    p.add_argument("--group", choices=["o", "sp", "gl"], default="o")
    p.add_argument("--D")
    p.add_argument("--P")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cone", help="lattice points over a multidegree")
    p.add_argument("--D")
    p.add_argument("--P")
    p.add_argument("--F")
    p.add_argument("--list", action="store_true", help="list the points (JSON)")
    common(p, n_flag=False)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("poset", help="Hasse diagram of the pattern poset")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    common(p, n_flag=False)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("lattice", help="Hasse diagram of the increasing-set lattice")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    common(p, n_flag=False)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("eta", help="one determinant generator and its LM")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--I")
    p.add_argument("--J")
    p.add_argument("--Z")
    common(p)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("verify", help="run structural verification suites")
    p.add_argument("--suite", default="all",
                   help="comma list of lm,hibi,oracle,subduction,hw or 'all'")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (RecursionError, MemoryError, OverflowError) as exc:
        # a backstop, not a fix: the input needs more recursion, memory or
        # index range than this process has
        print(f"error: input too large for this process ({exc!r})", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
