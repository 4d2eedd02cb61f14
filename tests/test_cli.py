"""CLI surface: subcommands, exit codes, deterministic outputs, SVG."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cantorshift
from cantorshift import cli
from cantorshift.cli import main
from cantorshift import render
from cantorshift.render import render_svg
from cantorshift.coding import assign_symbols

from conftest import abstract_tree_d3

QUAD_CONFIG = {
    "coefficients": [["-6", "0"], ["0", "0"], ["1", "0"]],
    "disk_center": ["0", "0"],
    "disk_radius": "4",
    "horizon": 20,
}


@pytest.fixture()
def quad_config(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(QUAD_CONFIG))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _no_build(monkeypatch):
    """Make any tree build fail the test: usage errors come before it."""
    def build_tree(*args, **kwargs):
        raise AssertionError("the tree was built before a usage error")
    monkeypatch.setattr(cli, "build_tree", build_tree)


def test_analyze(quad_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CANTORSHIFT_MAX_RESOLUTION", "30")
    out_dir = str(tmp_path / "out")
    code, out, _ = run(["analyze", "--config", quad_config, "--depth", "4",
                        "--out", out_dir], capsys)
    assert code == 0
    assert "components per level: [1, 2, 4, 8, 16]" in out
    assert "hypothesis_ok = True" in out
    doc = json.loads(open(os.path.join(out_dir, "tree.json")).read())
    assert doc["meta"]["depth"] == 4


def test_analyze_hypothesis_violation(tmp_path, capsys):
    cfg = dict(QUAD_CONFIG, coefficients=[["0", "0"], ["0", "0"], ["1", "0"]],
               disk_radius="2")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["analyze", "--config", str(path), "--depth", "2",
                        "--out", str(tmp_path / "o"), "--max-resolution", "24"], capsys)
    assert code == 4
    assert "hypothesis violation" in err


def test_missing_config_is_usage_error(tmp_path, capsys):
    code, _, err = run(["analyze", "--config", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "error" in err


def test_resolution_failure_exit_code(quad_config, tmp_path, capsys):
    code, _, err = run(["analyze", "--config", quad_config, "--depth", "8",
                        "--out", str(tmp_path / "o"), "--max-resolution", "6"], capsys)
    assert code == 3
    assert "certification failure" in err


def test_code_verify_chi_render(quad_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CANTORSHIFT_MAX_RESOLUTION", "30")
    out_dir = str(tmp_path / "out")
    code, out, _ = run(["code", "--config", quad_config, "--depth", "3",
                        "--out", out_dir], capsys)
    assert code == 0
    coding = json.loads(open(os.path.join(out_dir, "coding.json")).read())
    assert coding["degree"] == 2
    assert coding["levels"]["1"]["1:0"]["symbols"] == [0]

    code, out, _ = run(["verify", "--config", quad_config, "--depth", "6",
                        "--level", "6", "--out", out_dir], capsys)
    assert code == 0
    assert "5/5 checks pass, 64 cylinders" in out

    code, out, _ = run(["chi", "--config", quad_config, "--point", "0.5,0",
                        "--out", out_dir], capsys)
    assert code == 0
    assert "chi value: 1 (certified)" in out

    # negative coordinates survive argparse
    code, out, _ = run(["chi", "--config", quad_config, "--point", "-2,0",
                        "--out", out_dir], capsys)
    assert code == 0
    assert "chi value: 1 (certified)" in out

    code, out, _ = run(["render", "--config", quad_config, "--depth", "2",
                        "--level", "2", "--out", out_dir], capsys)
    assert code == 0
    svg = open(os.path.join(out_dir, "pieces-level2.svg")).read()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_oracle_test_command(capsys):
    code, out, _ = run(["oracle-test", "--seed", "5", "--cases", "40",
                        "--depth", "5"], capsys)
    assert code == 0
    assert "40/40 cases pass" in out


@pytest.mark.parametrize("args, message", [
    (["--d", "1"], "degree must be at least 2, not 1"),
    (["--d", "0"], "degree must be at least 2, not 0"),
    (["--depth", "0"], "depth must be at least 1, not 0"),
    (["--cases", "-2"], "case count must be at least 0, not -2"),
])
def test_oracle_test_rejects_arguments_before_any_case(capsys, monkeypatch, args, message):
    # these used to fail every case (exit 5) or print "0/-2 cases pass"
    monkeypatch.setattr("cantorshift.oracle.generate", None)  # never called
    code, out, err = run(["oracle-test", *args], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_oracle_test_past_the_word_budget_exits_3_before_any_case(capsys, monkeypatch):
    # 4^10 words pass the brute-force budget of 2^18: this used to generate
    # and count the case for about 15 s, then call it failed (exit 5)
    def generate(*args):
        raise AssertionError("a case was generated")
    monkeypatch.setattr("cantorshift.oracle.generate", generate)
    code, out, err = run(["oracle-test", "--seed", "1", "--cases", "1", "--d", "4",
                          "--depth", "10"], capsys)
    assert code == 3
    assert out == ""
    assert err == "certification failure: 4^10 words exceed the enumeration budget\n"


def test_byte_identical_exports(quad_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CANTORSHIFT_MAX_RESOLUTION", "30")
    blobs = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        code, _, _ = run(["code", "--config", quad_config, "--depth", "4",
                          "--out", out_dir], capsys)
        assert code == 0
        tree_bytes = open(os.path.join(out_dir, "coding.json"), "rb").read()
        run(["render", "--config", quad_config, "--depth", "3", "--level", "3",
             "--out", out_dir], capsys)
        svg_bytes = open(os.path.join(out_dir, "pieces-level3.svg"), "rb").read()
        blobs.append((tree_bytes, svg_bytes))
    assert blobs[0] == blobs[1]


def test_render_by_symbols(quadratic_tree, quadratic_assignment):
    svg = render_svg(quadratic_tree, 3, color_by="symbols",
                     assignment=quadratic_assignment)
    assert "level-3" in svg
    with pytest.raises(ValueError):
        render_svg(quadratic_tree, 2, color_by="symbols")  # needs an assignment
    with pytest.raises(ValueError):
        render_svg(quadratic_tree, 99)
    with pytest.raises(ValueError, match="level -3 outside 0..10"):
        render_svg(quadratic_tree, -3)
    assert "level-1" not in render_svg(quadratic_tree, 0)  # the circle alone


def _reference_svg(tree, level, color_by="level", assignment=None, size=800):
    """The renderer as one f-string per cell, formatting every coordinate:
    the reference that ``render_svg`` must match byte for byte."""
    frame = tree.frame
    vb = f"{frame.x0:.8f} {-(frame.y0 + frame.side):.8f} {frame.side:.8f} {frame.side:.8f}"
    stroke = frame.side / 800.0
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{vb}">',
        f'<rect x="{frame.x0:.8f}" y="{-(frame.y0 + frame.side):.8f}" '
        f'width="{frame.side:.8f}" height="{frame.side:.8f}" fill="#ffffff"/>',
    ]
    cx = 0.5 * (tree.disk.center_box[0] + tree.disk.center_box[1])
    cy = 0.5 * (tree.disk.center_box[2] + tree.disk.center_box[3])
    out.append(f'<circle cx="{cx:.8f}" cy="{-cy:.8f}" r="{float(tree.disk.radius):.8f}" '
               f'fill="none" stroke="#cccccc" stroke-width="{stroke:.8f}"/>')
    for lvl in range(1, level + 1):
        symbol_index = {}
        if color_by == "symbols":
            for comp in tree.levels[lvl]:
                symbol_index.setdefault(assignment.of(lvl, comp.index), len(symbol_index))
        out.append(f'<g id="level-{lvl}" fill-opacity="0.35" '
                   f'stroke-width="{stroke:.8f}">')
        pavement = tree.pavement(lvl)
        for comp in tree.levels[lvl]:
            color = render._color_for(comp, color_by, assignment, symbol_index)
            cells = comp.cover
            walls = (w.tolist() for w in frame.cell_walls(
                pavement.r[cells], pavement.i[cells], pavement.j[cells]))
            out.append("\n".join([
                f'<g fill="{color}" stroke="{color}"><title>component '
                f'{lvl}:{comp.index} degree {comp.local_degree}</title>',
                *(f'<rect x="{x_lo:.8f}" y="{-y_hi:.8f}" '
                  f'width="{x_hi - x_lo:.8f}" height="{y_hi - y_lo:.8f}"/>'
                  for x_lo, x_hi, y_lo, y_hi in zip(*walls)),
                '</g>']))
        out.append('</g>')
    out.append('</svg>\n')
    return "\n".join(out)


@pytest.mark.parametrize("case, levels", [("quadratic", (0, 1, 5, 10)), ("cubic", (2, 4))])
def test_render_matches_the_per_cell_reference(request, case, levels):
    tree = request.getfixturevalue(f"{case}_tree")
    assignment = request.getfixturevalue(f"{case}_assignment")
    for level in levels:
        for color_by in ("level", "symbols"):
            svg = render_svg(tree, level, color_by=color_by, assignment=assignment, size=321)
            assert svg == _reference_svg(tree, level, color_by, assignment, size=321)
            assert svg == "".join(render.svg_parts(tree, level, color_by, assignment, 321))



def test_render_formats_zeros_by_sign():
    # values are deduplicated by bit pattern, not by ==, which merges -0.0
    # and 0.0; a cell whose top wall is 0.0 draws at y = -0.0
    values = np.array([0.0, -0.0, 1 / 3, 0.0, -0.0])
    assert render._formatted(values) == ["0.00000000", "-0.00000000", "0.33333333",
                                         "0.00000000", "-0.00000000"]


@pytest.mark.parametrize("size", [0, -5])
def test_render_size_below_one_is_rejected(quad_config, tmp_path, capsys, quadratic_tree, size,
                                           monkeypatch):
    with pytest.raises(ValueError, match=f"size {size} is not a positive pixel count"):
        render_svg(quadratic_tree, 1, size=size)
    _no_build(monkeypatch)
    out_dir = tmp_path / "o"
    code, _, err = run(["render", "--config", quad_config, "--depth", "1", "--size", str(size),
                        "--out", str(out_dir), "--max-resolution", "24"], capsys)
    assert code == 2
    assert f"size {size} is not a positive pixel count" in err
    assert not (out_dir / "pieces-level1.svg").exists()
    for level in ("-1", "2"):
        code, _, err = run(["render", "--config", quad_config, "--depth", "1", "--level", level,
                            "--out", str(out_dir), "--max-resolution", "24"], capsys)
        assert code == 2
        assert f"level {level} outside 0..1, the tree's depth" in err
    assert not out_dir.exists()


def test_chi_horizon_below_zero_is_usage_error(quad_config, tmp_path, capsys, monkeypatch):
    _no_build(monkeypatch)
    code, _, err = run(["chi", "--config", quad_config, "--point", "0.5,0", "--horizon", "-1",
                        "--out", str(tmp_path / "o"), "--max-resolution", "24"], capsys)
    assert code == 2
    assert "horizon -1 is below 0" in err
    code, _, err = run(["chi", "--config", quad_config, "--point", "0.5", "--horizon", "3",
                        "--out", str(tmp_path / "o"), "--max-resolution", "24"], capsys)
    assert code == 2
    assert "--point must be RE,IM" in err
    assert not (tmp_path / "o").exists()


def test_non_finite_point_and_coefficient_are_usage_errors(quad_config, tmp_path, capsys,
                                                           monkeypatch):
    _no_build(monkeypatch)
    code, _, err = run(["chi", "--config", quad_config, "--point", "inf,0",
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err == "error: not a finite decimal number: 'inf'\n"
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(dict(QUAD_CONFIG, coefficients=[["inf", "0"], ["0", "0"],
                                                               ["1", "0"]])))
    code, _, err = run(["analyze", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err == "error: not a finite decimal number: 'inf'\n"
    assert not (tmp_path / "o").exists()


def test_chi_on_the_boundary_circle_is_a_certification_failure(tmp_path, capsys, monkeypatch,
                                                                cubic_map, cubic_disk,
                                                                cubic_tree):
    # 3 lies exactly on the circle |z| = 3 of the cubic's U: the query is
    # undecidable, exit 3, and no chi.json is written.  The map and tree are
    # the session's cubic, so the config file is never read
    monkeypatch.setattr(cli, "_build", lambda args: (cubic_map, cubic_disk, cubic_tree))
    out_dir = tmp_path / "o"
    code, out, err = run(["chi", "--config", str(tmp_path / "cubic.json"), "--point", "3,0",
                          "--out", str(out_dir)], capsys)
    assert code == 3
    assert out == ""
    assert err == ("certification failure: orbit step 0 lies exactly on the boundary "
                   "circle of U\n")
    assert not out_dir.exists()


def test_chi_depth_below_one_is_usage_error(quad_config, tmp_path, capsys, monkeypatch):
    _no_build(monkeypatch)
    for depth in ("0", "-2"):
        code, _, err = run(["chi", "--config", quad_config, "--point", "0.5,0",
                            "--depth", depth, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert f"chi needs a tree of depth at least 1, not {depth}" in err
    assert not (tmp_path / "o").exists()


def test_run_config_validation(quad_config, tmp_path, capsys, monkeypatch):
    # a run's budgets are one ResolutionPolicy: the environment overrides the
    # flag, an unset budget takes the default, and zero is rejected; the
    # depth is checked by build_tree
    from types import SimpleNamespace

    from cantorshift import DomainDisk, PolynomialMap, ResolutionPolicy, build_tree
    from cantorshift.cli import _run_config
    monkeypatch.delenv("CANTORSHIFT_MAX_BOXES", raising=False)
    monkeypatch.delenv("CANTORSHIFT_MAX_RESOLUTION", raising=False)
    args = SimpleNamespace(max_resolution=30)
    assert _run_config(args, 25) == ResolutionPolicy(max_resolution=30, validation_horizon=25)
    monkeypatch.setenv("CANTORSHIFT_MAX_BOXES", "500")
    monkeypatch.setenv("CANTORSHIFT_MAX_RESOLUTION", "12")
    assert _run_config(args, 25) == ResolutionPolicy(
        max_boxes=500, max_resolution=12, validation_horizon=25)
    for budgets in ({"max_boxes": 0}, {"max_resolution": -1}):
        with pytest.raises(ValueError, match="budgets must be positive"):
            ResolutionPolicy(**budgets)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        build_tree(PolynomialMap(QUAD_CONFIG["coefficients"]), DomainDisk(("0", "0"), "4"), -1)
    code, _, err = run(["analyze", "--config", quad_config, "--depth", "-1",
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "depth must be >= 0" in err


@pytest.mark.parametrize("flags, env", [
    (["--max-resolution", "0"], {}),
    ([], {"CANTORSHIFT_MAX_BOXES": "0"}),
    ([], {"CANTORSHIFT_MAX_RESOLUTION": "0"}),
])
def test_zero_budget_is_usage_error(quad_config, tmp_path, capsys, monkeypatch,
                                    flags, env):
    # a zero budget is rejected, not replaced by the default
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, _, err = run(["analyze", "--config", quad_config, "--depth", "1",
                        "--out", str(tmp_path / "o")] + flags, capsys)
    assert code == 2
    assert "budgets must be positive" in err


def test_resolution_past_the_exact_key_limit_is_usage_error(quad_config, tmp_path, capsys,
                                                            monkeypatch):
    _no_build(monkeypatch)
    monkeypatch.delenv("CANTORSHIFT_MAX_RESOLUTION", raising=False)
    code, _, err = run(["analyze", "--config", quad_config, "--depth", "1",
                        "--out", str(tmp_path / "o"), "--max-resolution", "63"], capsys)
    assert code == 2
    assert "max_resolution must be at most 62" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("document, named", [
    ([QUAD_CONFIG], "JSON object"),
    (dict(QUAD_CONFIG, coefficients=[1, 0, 1]), "'coefficients'"),
    (dict(QUAD_CONFIG, coefficients=[["-6", "0", "1"]]), "'coefficients'"),
    (dict(QUAD_CONFIG, disk_center="0"), "'disk_center'"),
    (dict(QUAD_CONFIG, horizon=20.7), "'horizon'"),
    (dict(QUAD_CONFIG, horizon=True), "'horizon'"),
], ids=["list", "flat-coefficients", "triple", "center-string", "float-horizon",
        "bool-horizon"])
def test_malformed_map_config_is_usage_error(tmp_path, capsys, monkeypatch, document, named):
    _no_build(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, _, err = run(["analyze", "--config", str(path), "--depth", "1",
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith(f"error: {path}: ") and named in err


@pytest.mark.parametrize("field, value", [
    ("coefficients", [["-6", "0"], [True, "0"], ["1", "0"]]),
    ("disk_center", [True, "0"]),
    ("disk_radius", True),
    ("shrink_on_contact", True),
])
def test_boolean_number_in_map_config_is_usage_error(tmp_path, capsys, monkeypatch, field,
                                                     value):
    # a JSON true used to read as 1: [true, "0"] made the map z^2 + z - 6
    _no_build(monkeypatch)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(dict(QUAD_CONFIG, **{field: value})))
    code, _, err = run(["analyze", "--config", str(path), "--depth", "1",
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err == "error: not a decimal number: True\n"


def test_map_config_auto_radius(tmp_path):
    from cantorshift.config import load_map_config
    cfg = dict(QUAD_CONFIG, disk_radius="auto")
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(cfg))
    pmap, disk, horizon, shrink = load_map_config(str(path))
    assert disk.radius == 7  # escape radius of z^2 - 6
    assert horizon == 20
    assert shrink is None


def _config_error(tmp_path, document):
    """The message ``load_map_config`` raises on a map file of ``document``,
    without its path prefix."""
    from cantorshift.config import load_map_config
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError) as info:
        load_map_config(str(path))
    assert str(info.value).startswith(f"{path}: ")
    return str(info.value)[len(f"{path}: "):]


def test_map_config_without_coefficients_is_rejected(tmp_path):
    document = {key: value for key, value in QUAD_CONFIG.items() if key != "coefficients"}
    assert _config_error(tmp_path, document) == "missing 'coefficients'"


@pytest.mark.parametrize("horizon", [0, -3])
def test_map_config_horizon_below_one_is_rejected(tmp_path, horizon):
    assert (_config_error(tmp_path, dict(QUAD_CONFIG, horizon=horizon))
            == "horizon must be positive")


@pytest.mark.parametrize("shrink", ["0", "1", "-0.5", "1.25"])
def test_map_config_shrink_outside_the_open_unit_interval_is_rejected(tmp_path, shrink):
    assert (_config_error(tmp_path, dict(QUAD_CONFIG, shrink_on_contact=shrink))
            == "shrink_on_contact must be in (0, 1)")


def test_render_rejects_an_unknown_coloring():
    with pytest.raises(ValueError) as info:
        render.svg_parts(abstract_tree_d3(), 1, "hue")
    assert str(info.value) == "color_by must be 'level' or 'symbols'"


def test_shrink_on_contact_retries(tmp_path, capsys):
    # boundary contact (z^2 - 6 on radius 3) with a shrink factor: the CLI
    # retries once on the smaller disk and reports both radii; for this map
    # shrinking cannot repair containment, so the run still fails honestly
    cfg = dict(QUAD_CONFIG, disk_radius="3", shrink_on_contact="0.9")
    path = tmp_path / "contact.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["analyze", "--config", str(path), "--depth", "1",
                        "--out", str(tmp_path / "o"), "--max-resolution", "24"], capsys)
    assert "retrying with radius 27/10" in err
    assert code == 4  # still a certified hypothesis violation afterwards


def test_shrink_on_contact_keeps_a_fractional_center(tmp_path, capsys):
    # the retry keeps the exact center 1/2, whose string form is no decimal
    cfg = dict(QUAD_CONFIG, disk_center=["0.5", "0"], disk_radius="3",
               shrink_on_contact="0.9")
    path = tmp_path / "contact.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["analyze", "--config", str(path), "--depth", "1",
                        "--out", str(tmp_path / "o"), "--max-resolution", "24"], capsys)
    assert "retrying with radius 27/10" in err
    assert code == 4


@pytest.mark.parametrize("level", ["0", "3"])
def test_verify_level_outside_the_tree_is_usage_error(quad_config, tmp_path, capsys, level,
                                                      monkeypatch):
    _no_build(monkeypatch)
    code, _, err = run(["verify", "--config", quad_config, "--depth", "2", "--level", level,
                        "--out", str(tmp_path / "o"), "--max-resolution", "24"], capsys)
    assert code == 2
    assert f"level {level} outside 1..2" in err


def test_verify_depth_zero_is_usage_error(quad_config, tmp_path, capsys, monkeypatch):
    # without --level the word length is the depth, and no word has length 0
    _no_build(monkeypatch)
    code, _, err = run(["verify", "--config", quad_config, "--depth", "0",
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err == "error: level 0 outside 1..0, the tree's depth\n"
    assert not (tmp_path / "o").exists()



@pytest.mark.parametrize("level", ["-1", "3"])
def test_render_level_outside_the_tree_is_usage_error(quad_config, tmp_path, capsys, level):
    out_dir = tmp_path / "o"
    code, _, err = run(["render", "--config", quad_config, "--depth", "2", "--level", level,
                        "--out", str(out_dir), "--max-resolution", "24"], capsys)
    assert code == 2
    assert f"level {level} outside 0..2" in err
    assert not (out_dir / f"pieces-level{level}.svg").exists()


def test_library_runs_without_scipy():
    # the build, the clustering and the renderer need numpy alone
    src = os.path.dirname(os.path.dirname(cantorshift.__file__))
    code = (
        "import sys\n"
        "from cantorshift import DomainDisk, PolynomialMap, ResolutionPolicy, build_tree\n"
        "from cantorshift.render import render_svg\n"
        "pmap = PolynomialMap([('-6', '0'), ('0', '0'), ('1', '0')])\n"
        "tree = build_tree(pmap, DomainDisk(('0', '0'), '4'), 3,\n"
        "                  policy=ResolutionPolicy(max_resolution=30))\n"
        "assert render_svg(tree, 3).endswith('</svg>\\n')\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
