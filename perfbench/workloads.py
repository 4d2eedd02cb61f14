"""The benchmark's workloads: seeded inputs, one measured iteration each,
and the checks on every output.

Two geometric workloads build a reference instance and run the user-facing
steps after the build; one abstract workload runs the coding oracle.  The
library sees only the generated inputs (decimal strings, words, case
seeds), never the benchmark seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cantorshift import coding, oracle, render
from cantorshift import tree as tree_mod
from cantorshift.maps import DomainDisk, PolynomialMap

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# the parameter b of the reference cubic in tests/conftest.py
CUBIC_B = ("3.0027928292887019597148481277688810288243",
           "1.0489775926434714088283088554051079718497")


class Outcome:
    """Attempted operations and the problems found in them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, name, problems=()):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: {'; '.join(problems)}")


def _attempt(fn, *args, **kwargs):
    """(result, None) or (None, repr of the exception); the failure is
    counted by the caller's check, the run goes on."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # every library error is an operation failure
        return None, repr(exc)


def _json_bytes(payload) -> bytes:
    """Serialize as the CLI's _write_json does: sorted keys, indent 2,
    trailing newline."""
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True, indent=2)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def _dec(x: float) -> str:
    # a fixed 16-decimal format keeps the exact rationals the same bit size
    # for every seed, so exact-orbit costs do not depend on the seed
    return f"{x:.16f}"


def _point_in_disk(rng, radius):
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) < radius:
            return z


def _preimages(coeffs_desc, u, branches):
    """[u, z_1, ..., z_k] in floats, z_m a root of f(z) = z_{m-1}, chosen by
    ``branches`` among the roots in (re, im) order."""
    chain = [u]
    for b in branches:
        p = list(coeffs_desc)
        p[-1] -= chain[-1]
        roots = sorted(np.roots(p), key=lambda r: (r.real, r.imag))
        chain.append(complex(roots[b]))
    return chain


@dataclass
class Geometric:
    """Build a reference instance, then code, verify, query and export it."""

    name: str
    coefficients: tuple
    radius: str
    depth: int
    policy: dict
    verify_level: int
    chi_ks: tuple = ()     # orbit lengths of the chi queries, one per query
    n_locate: int = 8      # preimage chains located level by level
    n_words: int = 64      # random depth-length words coded

    def prepare(self, seed):
        pmap = PolynomialMap(self.coefficients)
        disk = DomainDisk(("0", "0"), self.radius)
        policy = tree_mod.ResolutionPolicy(**self.policy)
        rng = random.Random(f"{self.name}:{seed}")
        desc = [complex(float(re), float(im)) for re, im in reversed(self.coefficients)]
        r = float(self.radius)
        d = pmap.degree

        # points deep inside U pulled back depth times: z_m lies in
        # f^-m(U) with margin, and f(z_m) is z_{m-1}
        locate = []
        for _ in range(self.n_locate):
            u = _point_in_disk(rng, 0.5 * r)
            chain = _preimages(desc, u, [rng.randrange(d) for _ in range(self.depth)])
            locate.append([(_dec(z.real), _dec(z.imag)) for z in chain[1:]])
        words = [tuple(rng.randrange(d) for _ in range(self.depth))
                 for _ in range(self.n_words)]

        # chi queries: the critical point +1, then k-fold preimages of a
        # point u of U whose image leaves U with margin, so the exact orbit
        # escapes at step k + 1
        chi_points = [(("1", "0"), None)] if self.chi_ks else []
        for k in self.chi_ks:
            while True:
                u = _point_in_disk(rng, 0.97 * r)
                if abs(np.polyval(desc, u)) > 1.1 * r:
                    break
            z = _preimages(desc, u, [rng.randrange(d) for _ in range(k)])[-1]
            chi_points.append(((_dec(z.real), _dec(z.imag)), k))
        return {"pmap": pmap, "disk": disk, "policy": policy, "locate": locate,
                "words": words, "chi": chi_points}

    def iterate(self, inp, stage, out: Outcome) -> dict:
        ref = REFERENCE[self.name]
        with stage("build"):
            tree, err = _attempt(tree_mod.build_tree, inp["pmap"], inp["disk"],
                                 self.depth, policy=inp["policy"])
        if err:
            out.op("build", [err])
            return {}
        with stage("post"):
            assignment = coding.assign_symbols(tree)
            fib, fib_err = _attempt(coding.fibers, assignment, tree, self.depth)
            report = coding.verify_semiconjugacy(assignment, tree, self.verify_level)
            diag = tree_mod.cantor_diagnostic(tree)
            located = [[_attempt(tree_mod.locate, tree, z, m)
                        for m, z in enumerate(q, start=1)] for q in inp["locate"]]
            chain_words = []
            for chains in located:
                if any(err for _, err in chains):
                    chain_words.append((None, None))
                    continue
                word = tuple(min(assignment.of(m, c[-1].index))
                             for m, (c, _) in reversed(list(enumerate(chains, start=1))))
                chain_words.append(_attempt(coding.cylinder_component,
                                            assignment, tree, word))
            coded = [tuple(_attempt(coding.cylinder_component, assignment, tree, v)
                           for v in (w, w[1:], w[:-1])) for w in inp["words"]]
        with stage("export"):
            exports = {
                "tree.json": _json_bytes(tree.to_json_dict()),
                "coding.json": _json_bytes(
                    coding.coding_to_json_dict(assignment, tree, tree.depth)),
                "svg": render.render_svg(tree, tree.depth, color_by="symbols",
                                         assignment=assignment).encode("utf-8"),
            }
        chi_results = []
        if self.chi_ks:
            with stage("chi"):
                chi_results = [_attempt(coding.chi, inp["pmap"], z, tree)
                               for z, _ in inp["chi"]]

        counts = [len(level) for level in tree.levels]
        out.op("build", [f"components per level {counts}, want {ref['components']}"]
               if counts != ref["components"] else [])
        degrees = list(tree.restriction.branch_degrees)
        out.op("branch_degrees", [f"{degrees}, want {ref['branch_degrees']}"]
               if degrees != ref["branch_degrees"] else [])
        if fib_err:
            out.op("fibers", [fib_err])
        else:
            largest = max(len(ws) for ws in fib.words_by_component.values())
            out.op("fibers", [] if largest == ref["max_fiber"] else
                   [f"largest fiber {largest}, want {ref['max_fiber']}"])
        out.op("verify_semiconjugacy", [] if report.all_passed else report.summary_lines())
        out.op("cantor_diagnostic", [] if diag.strictly_decreasing else
               ["diameter bounds not strictly decreasing"])
        for q, (chains, (cid, err)) in enumerate(zip(located, chain_words)):
            problems = [e for _, e in chains if e]
            if not problems:
                for m, (chain, _) in enumerate(chains, start=1):
                    image = chains[m - 2][0][-1].index if m >= 2 else 0
                    if len(chain) != m + 1 or chain[-1].image != image:
                        problems.append(f"level-{m} chain breaks the image edge")
                if err or cid != (self.depth, chains[-1][0][-1].index):
                    problems.append(f"chain word codes {cid or err}")
            out.op(f"locate[{q}]", problems)
        for w, ((cid, e0), (img, e1), (cont, e2)) in zip(inp["words"], coded):
            errs = [e for e in (e0, e1, e2) if e]
            if not errs:
                comp = tree.levels[self.depth][cid[1]]
                if comp.image != img[1] or comp.container != cont[1]:
                    errs.append("image or container edge disagrees with the shift")
                elif fib is not None and w not in fib.words_by_component[cid]:
                    errs.append("word missing from its fiber")
            out.op(f"cylinder_component{w}", errs)
        for key, blob in exports.items():
            digest = hashlib.sha256(blob).hexdigest()
            out.op(f"export {key}", [] if digest == ref["sha256"][key]
                   else [f"sha256 {digest}"])
        budget = 2 ** (tree.degree - tree.n_level1)
        for ((z, k), (res, err)) in zip(inp["chi"], chi_results):
            out.op(f"chi{z}", [err] if err else _chi_problems(res, k, budget, ref))
        return {
            "tree": tree,
            "json_bytes": (len(exports["tree.json"]), len(exports["coding.json"]),
                           len(exports["svg"])),
            "chi_certified": [r.status == "certified" for r, e in chi_results if not e],
        }


def _chi_problems(res, k, budget, ref):
    if res.value > budget:
        return [f"value {res.value} exceeds 2^(d-N) = {budget}"]
    if k is None:  # the critical point +1 itself
        want = ref["chi_critical"]
        got = {"value": res.value, "status": res.status}
        return [] if got == want else [f"got {got}, want {want}"]
    # a generic preimage meets no critical point and leaves U at step k+1;
    # lower_bound (the exact-orbit size guard) would be a regression here
    if res.status != "certified" or res.value != 1 or res.escaped_at != k + 1:
        return [f"got {res.value} {res.status} escaped_at={res.escaped_at}, "
                f"want 1 certified escaped_at={k + 1}"]
    return []


@dataclass
class OracleBatch:
    """Coding fibers against the brute-force oracle on abstract trees.

    The cases are stratified: every (d, depth) pair gets the same number of
    cases, which is the expected mix of ``oracle.run_equivalence_cases``
    (d uniform in {2,3,4}, depth uniform in 1..6) without its seed-to-seed
    swing in how many of the costly d=4, depth=6 cases a batch holds.
    """

    name: str
    per_stratum: int = 56
    degrees: tuple = (2, 3, 4)
    max_depth: int = 6
    bias: float = 0.55  # the run_equivalence_cases default

    def prepare(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        cases = [(d, depth, rng.randrange(2**62))
                 for d in self.degrees for depth in range(1, self.max_depth + 1)
                 for _ in range(self.per_stratum)]
        rng.shuffle(cases)
        return {"cases": cases}

    def iterate(self, inp, stage, out: Outcome) -> dict:
        results = []
        with stage("cases"):
            for d, depth, case_seed in inp["cases"]:
                results.append(_attempt(self._case, d, depth, case_seed))
        failed = 0
        for (d, depth, case_seed), (agree, err) in zip(inp["cases"], results):
            problems = [err] if err else [] if agree else ["fiber counts disagree"]
            failed += bool(problems)
            out.op(f"case(d={d},depth={depth},seed={case_seed})", problems)
        return {"cases_failed": failed}

    def _case(self, d, depth, case_seed):
        t = oracle.generate(case_seed, d, depth, self.bias)
        assignment = coding.assign_symbols(t)
        ours = coding.fibers(assignment, t, depth)
        theirs = oracle.brute_force_fibers(t, assignment, depth)
        return {cid: len(ws) for cid, ws in ours.words_by_component.items()} == theirs


QUAD = Geometric(
    name="quad-d10",
    coefficients=(("-6", "0"), ("0", "0"), ("1", "0")),
    radius="4", depth=10,
    policy={"max_resolution": 34, "max_boxes": 2_000_000},
    verify_level=8,
)

CUBIC = Geometric(
    name="cubic-d6",
    coefficients=(CUBIC_B, ("-3", "0"), ("0", "0"), ("1", "0")),
    radius="3", depth=6,
    policy={"max_resolution": 44, "max_boxes": 8_000_000},
    verify_level=6,
    chi_ks=(2,) * 4 + (3,) * 4 + (4,) * 4 + (5,) * 4 + (6,) * 6,
)

WORKLOADS = {w.name: w for w in (QUAD, CUBIC, OracleBatch("oracle-batch"))}
