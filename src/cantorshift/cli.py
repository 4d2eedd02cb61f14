"""Command-line frontend.

Subcommands: analyze, code, verify, chi, render, oracle-test.
Exit codes: 0 success, 2 usage errors, 3 certification failures
(resolution/precision/budget/undecided), 4 hypothesis violations,
5 failed verification or oracle checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coding import assign_symbols, chi, coding_to_json_dict, verify_semiconjugacy
from .config import env_budget_overrides, load_map_config
from .errors import (
    BudgetExceeded,
    CantorshiftError,
    HypothesisViolation,
    NotInCover,
    PrecisionExceeded,
    ResolutionExceeded,
    Undecided,
    check_level,
)
from .maps import DomainDisk, parse_point
from .oracle import run_equivalence_cases
from .render import svg_parts
from .tree import ResolutionPolicy, build_tree, cantor_diagnostic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3
EXIT_HYPOTHESIS = 4
EXIT_CHECKS_FAILED = 5


def _run_config(args, horizon):
    """The budgets of a run; an environment budget overrides the flag, and
    an unset budget takes the ResolutionPolicy default.  Zero is a value
    here, so ResolutionPolicy rejects it."""
    env_boxes, env_res = env_budget_overrides()
    max_res = env_res if env_res is not None else args.max_resolution
    return ResolutionPolicy(
        max_boxes=ResolutionPolicy.max_boxes if env_boxes is None else env_boxes,
        max_resolution=ResolutionPolicy.max_resolution if max_res is None else max_res,
        validation_horizon=horizon,
    )


def _write_json(out_dir, name, payload):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _build(args):
    pmap, disk, horizon, shrink = load_map_config(args.config)
    policy = _run_config(args, horizon)
    try:
        tree = build_tree(pmap, disk, args.depth, policy=policy)
    except HypothesisViolation as exc:
        report = getattr(exc, "report", None)
        if shrink is None or report is None or report.compactly_contained:
            raise
        # boundary contact with a configured shrink factor: retry once on
        # the slightly smaller disk
        smaller = DomainDisk(disk.center, disk.radius * shrink)
        print(f"boundary contact at radius {disk.radius}; retrying with "
              f"radius {smaller.radius}", file=sys.stderr)
        disk = smaller
        tree = build_tree(pmap, disk, args.depth, policy=policy)
    return pmap, disk, tree


def cmd_analyze(args):
    pmap, disk, tree = _build(args)
    diag = cantor_diagnostic(tree)
    path = _write_json(args.out, "tree.json", tree.to_json_dict())
    print(f"map: {pmap.describe()}")
    print(f"domain: disk of radius {disk.radius} at ({disk.center[0]}, {disk.center[1]})")
    for line in tree.restriction.summary_lines():
        print(line)
    counts = [len(lvl) for lvl in tree.levels]
    print(f"components per level: {counts}")
    hist = {}
    for lvl in tree.levels[1:]:
        for c in lvl:
            hist[c.local_degree] = hist.get(c.local_degree, 0) + 1
    print(f"local degree histogram: {dict(sorted(hist.items()))}")
    print("max diameter bound per level: "
          + ", ".join(repr(x) for x in diag.max_diameters))
    print(f"diameters strictly decreasing over levels 1..{tree.depth}: "
          f"{diag.strictly_decreasing}")
    print(f"tree written to {path}")
    return EXIT_OK


def cmd_code(args):
    _, _, tree = _build(args)
    assignment = assign_symbols(tree)
    payload = coding_to_json_dict(assignment, tree, tree.depth)
    path = _write_json(args.out, "coding.json", payload)
    print(f"coded {tree.depth} levels, alphabet size {tree.degree}")
    print(f"coding written to {path}")
    return EXIT_OK


def cmd_verify(args):
    # the check of verify_semiconjugacy, made before the build
    level = args.level if args.level is not None else args.depth
    check_level(level, args.depth, lowest=1)
    _, _, tree = _build(args)
    assignment = assign_symbols(tree)
    report = verify_semiconjugacy(assignment, tree, level)
    _write_json(args.out, "verify.json", report.to_json_dict())
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_CHECKS_FAILED


def cmd_chi(args):
    try:
        re_s, im_s = args.point.split(",")
    except ValueError:
        print("error: --point must be RE,IM", file=sys.stderr)
        return EXIT_USAGE
    if args.horizon < 0:  # the checks of coding.chi, made before the build
        raise ValueError(f"horizon {args.horizon} is below 0")
    if args.depth < 1:
        raise ValueError(f"chi needs a tree of depth at least 1, not {args.depth}")
    z = parse_point((re_s.strip(), im_s.strip()))
    pmap, _, tree = _build(args)
    result = chi(pmap, z, tree, horizon=args.horizon)
    _write_json(args.out, "chi.json", result.to_json_dict())
    print(f"chi value: {result.value} ({result.status})")
    for step, point, deg in result.hits:
        print(f"  critical hit at orbit step {step}: {point}, local degree {deg}")
    if result.escaped_at is not None:
        print(f"  orbit left the domain at step {result.escaped_at}")
    return EXIT_OK


def cmd_render(args):
    if args.size < 1:  # the checks of svg_parts, made before the build
        raise ValueError(f"size {args.size} is not a positive pixel count")
    if args.level is not None:
        check_level(args.level, args.depth)
    _, _, tree = _build(args)
    assignment = assign_symbols(tree) if args.color_by == "symbols" else None
    level = args.level if args.level is not None else tree.depth
    parts = svg_parts(tree, level, color_by=args.color_by,
                      assignment=assignment, size=args.size)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"pieces-level{level}.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)
    print(f"svg written to {path}")
    return EXIT_OK


def cmd_oracle_test(args):
    degrees = (args.d,) if args.d is not None else (2, 3, 4)
    passed, failed, messages = run_equivalence_cases(
        args.seed, args.cases, degrees=degrees, max_depth=args.depth)
    for msg in messages[:20]:
        print(msg)
    print(f"oracle equivalence: {passed}/{args.cases} cases pass, {failed} fail")
    return EXIT_OK if failed == 0 else EXIT_CHECKS_FAILED


def _add_common(p, depth_default=6):
    p.add_argument("--config", required=True, help="map configuration file (JSON)")
    p.add_argument("--depth", type=int, default=depth_default, help="tree depth K")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--max-resolution", type=int, default=None,
                   help="cap on the dyadic subdivision level")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cantorshift",
        description="Certified component trees and shift-space coding for "
                    "polynomial maps restricted to a disk.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="build the component tree and diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("code", help="export the symbol assignment and fibers")
    _add_common(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("verify", help="run the semi-conjugacy checks")
    _add_common(p)
    p.add_argument("--level", type=int, default=None, help="word length to check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chi", help="maximal local degree along an orbit")
    _add_common(p, depth_default=1)
    p.add_argument("--point", required=True, help="exact point RE,IM (decimal strings)")
    p.add_argument("--horizon", type=int, default=24)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("render", help="render puzzle-piece outlines to SVG")
    _add_common(p)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--color-by", choices=("level", "symbols"), default="level")
    p.add_argument("--size", type=int, default=800)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle-test", help="compare coding fibers against brute force")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--d", type=int, default=None, help="fix the alphabet size")
    p.add_argument("--depth", type=int, default=6, help="maximal tree depth")
    p.set_defaults(func=cmd_oracle_test)
    return ap


def _normalize_argv(argv):
    """Merge ``--point -2,0`` into ``--point=-2,0`` so argparse does not
    mistake a negative coordinate for an option."""
    if argv is None:
        argv = sys.argv[1:]
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--point" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--point={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_normalize_argv(argv))
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ResolutionExceeded, PrecisionExceeded, Undecided, BudgetExceeded,
            NotInCover) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (OSError, ValueError, CantorshiftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
