"""Command-line surface: subcommands, exit codes, canonical JSON output."""

import argparse
import inspect
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import latticeknot as lk
from latticeknot.cli import _COMMANDS, _make_parser, _UsageError, main

from conftest import random_star_presentation


def run(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, arcs in {
        "3_1": [[1, 4], [2, 5], [1, 3], [2, 4], [3, 5]],
        "4_1": [[1, 3], [2, 5], [4, 6], [3, 5], [1, 4], [2, 6]],
        "bad": [[1, 2], [3, 4], [1, 2], [3, 4]],
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"arcs": arcs}))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


class TestBasicCommands:
    def test_validate_prints_canonical(self, files):
        code, out, _ = run(["validate", files["3_1"]])
        assert code == 0
        assert json.loads(out) == {"arcs": [[1, 4], [2, 5], [1, 3], [2, 4], [3, 5]]}
        assert out == out.strip() + "\n" and '": ' not in out  # canonical, no spaces

    def test_validate_invalid_exit_4(self, files):
        code, _, err = run(["validate", files["bad"]])
        assert code == 4
        assert "disconnected" in err

    def test_dual_involution_byte_exact(self, files):
        _, v_out, _ = run(["validate", files["4_1"]])
        _, d1, _ = run(["dual", files["4_1"]])
        code, d2, _ = run(["dual", "-"], stdin_text=d1)
        assert code == 0
        assert d2 == v_out

    def test_rotate(self, files):
        code, out, _ = run(["rotate", "--pages", "2", files["3_1"]])
        assert code == 0
        arcs = json.loads(out)["arcs"]
        assert arcs[2] == [1, 4]  # page 1 moved to page 3
        code, out, _ = run(["rotate", "--bindings", "1", files["3_1"]])
        assert json.loads(out)["arcs"][4] == [1, 4]
        # both settings at once: pages first, then bindings, as one relabelling
        code, out, _ = run(["rotate", "--pages", "2", "--bindings", "3", files["4_1"]])
        assert (code, out) == (0, '{"arcs":[[1,4],[3,5],[4,6],[2,5],[1,3],[2,6]]}\n')

    def test_star(self, files):
        code, out, _ = run(["star", files["3_1"]])
        data = json.loads(out)
        assert data["star_shaped"] is True
        assert data["torus_order"]["torus_knot"] == [3, 2]
        code, out, _ = run(["star", files["4_1"]])
        assert json.loads(out)["torus_order"] is None

    def test_usage_error_64(self, files):
        code, _, _ = run(["frobnicate"])
        assert code == 64
        code, _, _ = run(["rotate", files["3_1"], "--pages", "x"])
        assert code == 64
        code, _, _ = run(["rotate", files["3_1"]])
        assert code == 64
        for removed in ("--alternating", "--prime"):
            code, _, _ = run(["certify", files["4_1"], "--c", "4", removed])
            assert code == 64
        code, _, _ = run(["invariant", files["4_1"], "--jones", "--jones-cap", "48"])
        assert code == 64

    def test_missing_file_exit_4(self):
        code, _, err = run(["validate", "/nonexistent/x.json"])
        assert code == 4


# per command: argv that parses, and argv that is a usage error
_PARSER_CASES = {
    "validate": (["f.json"], []),
    "dual": (["f.json"], ["a.json", "b.json"]),
    "rotate": (["--pages", "2", "--bindings", "-1", "f.json"], ["--pages", "x", "f.json"]),
    "star": (["f.json"], ["--nope", "f.json"]),
    "build": (["--branch", "nonstar", "--out", "o.json", "f.json"], ["--branch", "best", "f.json"]),
    "invariant": (["--jones", "--pd", "f.json"], ["--jones-cap", "48", "f.json"]),
    "certify": (["--c", "4", "--non-alternating-prime", "--skip-invariant", "f.json"], ["f.json"]),
    "render": (["--svg", "a.svg", "--obj", "a.obj", "f.json"], []),
    "dataset": (["get", "4_1"], ["show"]),
    "random": (["--a", "7", "--seed", "3"], ["--a", "x"]),
}


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def _usage_error(parser, argv):
    with pytest.raises(_UsageError) as info:
        parser.parse_args(argv)
    return str(info.value)


class TestParser:
    """main builds only the named command's subparser; it must parse like the full tree."""

    def test_full_tree_has_every_command(self):
        assert _subcommands(_make_parser()) == list(_PARSER_CASES)

    @pytest.mark.parametrize("command", list(_PARSER_CASES))
    def test_one_subparser_parses_like_the_full_tree(self, command):
        good, bad = _PARSER_CASES[command]
        one, full = _make_parser(command), _make_parser()
        assert _subcommands(one) == [command]
        args = one.parse_args([command, *good])
        assert args == full.parse_args([command, *good])
        assert args.command == command
        assert _usage_error(one, [command, *bad]) == _usage_error(full, [command, *bad])

    def test_help_lists_every_command(self):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert out.getvalue().startswith("usage: latticeknot [-h]")
        for command in _PARSER_CASES:
            assert f"\n    {command} " in out.getvalue()

    @pytest.mark.parametrize("command", list(_PARSER_CASES))
    def test_command_help_names_the_command(self, command):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert out.getvalue().startswith(f"usage: latticeknot {command} ")

    def test_unknown_command_exit_64_with_invalid_choice(self):
        code, out, err = run(["nope"])
        assert code == 64
        assert out == ""
        assert err == f"usage error: {_usage_error(_make_parser(), ['nope'])}\n"
        assert "invalid choice: 'nope'" in err

    def test_no_command_exit_64(self):
        code, _, err = run([])
        assert code == 64
        assert err == f"usage error: {_usage_error(_make_parser(), [])}\n"

    def test_argv_defaults_to_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["latticeknot", "random", "--a", "7", "--seed", "3"])
        assert run(None) == run(["random", "--a", "7", "--seed", "3"])

    def test_a_shared_parser_leaks_nothing_between_calls(self, tmp_path):
        from latticeknot import dataset

        src = tmp_path / "8_20.json"
        src.write_text(json.dumps(dataset.get("8_20").arcs.to_json_obj()))
        certify = ["certify", "--c", "8"]
        calls = [
            [*certify, "--non-alternating-prime", str(src)],
            [*certify, str(src)],
            [*certify, "--skip-invariant", str(src)],
            ["certify", "--c", "x", str(src)],
            ["nope"],
            [*certify, str(src)],
        ]
        cold = []
        for argv in calls:
            _make_parser.cache_clear()
            cold.append(run(argv))
        _make_parser.cache_clear()
        warm = [run(argv) for argv in calls]
        assert warm == cold
        assert [code for code, _, _ in warm] == [0, 0, 0, 64, 64, 0]
        # the flags of one call must not reach the next
        assert '"name":"3c-4"' in warm[0][1]
        assert '"name":"3c-4"' not in warm[1][1]
        assert '"status":"skipped"' in warm[2][1]
        assert warm[5] == warm[1]

    def test_the_cache_holds_a_parser_per_command_and_one_tree(self):
        _make_parser.cache_clear()
        for command in _COMMANDS:
            assert run([command])[0] == 64
        for k in range(50):
            assert run([f"nope{k}"])[0] == 64
        assert _make_parser.cache_info().currsize <= len(_COMMANDS) + 1

    def test_repeated_certify_builds_its_parser_once(self, files):
        _make_parser.cache_clear()
        for _ in range(20):
            assert run(["certify", "--c", "4", files["4_1"]])[0] == 0
        assert _make_parser.cache_info().misses == 1

    def test_help_reads_the_same_warm_as_cold(self):
        def help_text(argv):
            out = io.StringIO()
            with redirect_stdout(out), pytest.raises(SystemExit) as info:
                main(argv)
            return info.value.code, out.getvalue()

        calls = [["--help"], *([command, "--help"] for command in _COMMANDS)]
        cold = []
        for argv in calls:
            _make_parser.cache_clear()
            cold.append(help_text(argv))
        for argv in calls:
            help_text(argv)
        assert [help_text(argv) for argv in calls] == cold


class TestBuildInvariant:
    def test_build_auto_trefoil(self, files):
        code, out, _ = run(["build", files["3_1"]])
        assert code == 0
        assert len(json.loads(out)["sticks"]) == 13

    def test_build_branches(self, files):
        for branch, count in (("basic", 18), ("reduced", 16), ("nonstar", 14)):
            code, out, _ = run(["build", "--branch", branch, files["4_1"]])
            assert code == 0
            assert len(json.loads(out)["sticks"]) == count

    def test_build_reduced_is_auto_on_torus_order(self, files):
        _, auto, _ = run(["build", files["3_1"]])
        code, reduced, _ = run(["build", "--branch", "reduced", files["3_1"]])
        assert code == 0
        assert reduced == auto

    def test_build_nonstar_rejects_star(self, files):
        code, _, err = run(["build", "--branch", "nonstar", files["3_1"]])
        assert code == 4

    @pytest.mark.parametrize("branch", ["basic", "reduced", "nonstar"])
    def test_explicit_branch_obeys_arc_range(self, branch):
        doc = json.dumps(lk.random_presentation(65, random.Random(65)).to_json_obj())
        code, out, err = run(["build", "--branch", branch, "-"], stdin_text=doc)
        assert code == 4
        assert out == ""
        assert err.startswith("invalid input: pipeline needs 5 <= a <= 64, got a=65")

    def test_basic_branch_at_a64_renders(self, tmp_path):
        doc = json.dumps(lk.random_presentation(64, random.Random(64)).to_json_obj())
        code, out, _ = run(["build", "--branch", "basic", "-"], stdin_text=doc)
        assert code == 0
        assert len(json.loads(out)["sticks"]) == 192
        code, _, _ = run(["render", "--obj", str(tmp_path / "p.obj"), "-"], stdin_text=out)
        assert code == 0

    def test_build_out_file_then_invariant(self, files):
        out_path = str(files["dir"] / "poly.json")
        code, _, _ = run(["build", files["4_1"], "--out", out_path])
        assert code == 0
        code, out, _ = run(["invariant", out_path])
        assert code == 0
        assert json.loads(out)["alexander"] == [1, -3, 1]

    def test_invariant_presentation_with_jones(self, files):
        code, out, _ = run(["invariant", "--jones", files["3_1"]])
        data = json.loads(out)
        assert data["alexander"] == [1, -1, 1]
        assert data["determinant"] == 3
        assert data["jones_bracket"]

    def test_invariant_with_jones_simplifies_once(self, files, monkeypatch):
        import latticeknot.cli as cli_mod
        import latticeknot.diagram as diagram_mod

        calls = []
        simplify = diagram_mod.simplify_diagram

        def counting(D):
            calls.append(D.n)
            return simplify(D)

        monkeypatch.setattr(diagram_mod, "simplify_diagram", counting)
        monkeypatch.setattr(cli_mod, "simplify_diagram", counting)
        code, out, _ = run(["invariant", "--jones", files["4_1"]])
        assert code == 0
        assert json.loads(out)["alexander"] == [1, -3, 1]
        assert len(calls) == 1

    def test_invariant_pd_export(self, files):
        code, out, _ = run(["invariant", "--pd", files["3_1"]])
        data = json.loads(out)
        assert len(data["pd_code"]) == data["crossings"]
        assert all(line.startswith("X(") for line in data["pd_code"])


class TestCertifyExitCodes:
    def test_figure8_ok(self, files):
        code, out, _ = run(["certify", files["4_1"], "--c", "4"])
        assert code == 0
        cert = json.loads(out)
        assert cert["branch"] == "nonstar"
        assert cert["stick_count"] == 14
        names = {b["name"]: b for b in cert["bound_checks"]}
        assert names["3c+2"]["rhs"] == 14 and names["3c+2"]["holds"]

    def test_trefoil_bound_failure_exit_2(self, files):
        code, out, _ = run(["certify", files["3_1"], "--c", "3"])
        assert code == 2
        cert = json.loads(out)
        names = {b["name"]: b for b in cert["bound_checks"]}
        assert not names["3c+2"]["holds"]

    def test_skip_invariant(self, files):
        code, out, _ = run(["certify", files["4_1"], "--c", "4", "--skip-invariant"])
        assert code == 0
        assert json.loads(out)["invariant_match"]["status"] == "skipped"

    def test_invalid_input_exit_4(self, files):
        code, _, _ = run(["certify", files["bad"], "--c", "3"])
        assert code == 4

    @pytest.mark.parametrize("c", ["0", "-3"])
    def test_crossing_number_below_1_exit_4_before_the_pipeline(self, files, monkeypatch, c):
        import latticeknot.cli as cli_mod

        def pipeline_must_not_run(P, **kwargs):
            raise AssertionError("construct_auto called for a crossing number below 1")

        monkeypatch.setattr(cli_mod, "construct_auto", pipeline_must_not_run)
        code, out, err = run(["certify", files["4_1"], "--c", c])
        assert code == 4
        assert out == ""
        assert err == f"invalid input: crossing number must be positive, got {c}\n"

    def test_invariant_mismatch_exit_3(self, files, monkeypatch):
        import latticeknot.cli as cli_mod
        from latticeknot.certify import InvariantMatch

        real = cli_mod.construct_auto

        def forced_mismatch(P, **kwargs):
            poly, cert = real(P, **kwargs)
            bad = InvariantMatch("mismatched", (1,), (2,))
            from dataclasses import replace

            return poly, replace(cert, invariant_match=bad)

        monkeypatch.setattr(cli_mod, "construct_auto", forced_mismatch)
        code, _, _ = run(["certify", files["4_1"], "--c", "4"])
        assert code == 3


class TestInternalErrors:
    """A pipeline bug exits 70 with a one-line message, never 4 or a traceback."""

    def test_star_shaped_dual_exit_70(self, tmp_path, monkeypatch):
        import latticeknot.certify as certify_mod

        P = next(
            Q
            for Q in (random_star_presentation(7, random.Random(s)) for s in range(100))
            if lk.torus_order_check(Q) is None
        )
        path = tmp_path / "star.json"
        path.write_text(json.dumps(P.to_json_obj()))
        monkeypatch.setattr(certify_mod, "dual", lambda Q: Q)  # a dual that stays star shaped
        code, out, err = run(["certify", str(path), "--c", "5"])
        assert code == 70
        assert out == ""
        assert err.startswith("internal error: dual of a star-shaped")
        assert "Traceback" not in err

    def test_inexact_bareiss_division_exit_70(self, files, monkeypatch):
        import latticeknot.diagram as diagram_mod

        # every integer division in the elimination now leaves a remainder
        monkeypatch.setattr(diagram_mod, "divmod", lambda a, b: (a // b, 1), raising=False)
        code, out, err = run(["invariant", files["4_1"]])
        assert code == 70
        assert out == ""
        assert err.startswith("internal error:")
        assert "Traceback" not in err

    def test_key_error_from_the_pipeline_exit_70(self, files, monkeypatch):
        import latticeknot.certify as certify_mod

        def buggy(d):
            raise KeyError("bug")

        monkeypatch.setattr(certify_mod, "simplify_diagram", buggy)
        code, out, err = run(["certify", files["4_1"], "--c", "4"])
        assert code == 70
        assert out == ""
        assert err == "internal error: 'bug'\n"

    @pytest.mark.parametrize("command", [["build"], ["certify", "--c", "4"]])
    def test_constructed_polygon_failing_validation_exit_70(self, files, monkeypatch, command):
        import latticeknot.lattice as lattice_mod

        violation = lattice_mod.Violation("overlap", (0, 5), "non-adjacent sticks share 1 points")
        monkeypatch.setattr(lattice_mod, "validate_polygon", lambda poly: [violation])
        code, out, err = run([*command, files["4_1"]])
        assert code == 70
        assert out == ""
        assert err.startswith("internal error: constructed polygon is invalid: overlap[0, 5]: ")
        assert "Traceback" not in err


class TestClosedStdout:
    """A reader that closes the pipe early is an unwritable output: exit 4."""

    @pytest.mark.parametrize("command", [["dataset", "get", "7_4"], ["certify", "--c", "4", "4_1"]])
    def test_closed_pipe_exit_4_without_traceback(self, files, command):
        argv = [files.get(arg, arg) for arg in command]
        src = str(Path(lk.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes anything
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "latticeknot.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 4
        assert proc.stderr.startswith("invalid input: cannot write <stdout>: ")
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("command", [["dataset", "get", "7_4"], ["certify", "--c", "4", "4_1"]])
    def test_stdout_and_stderr_on_one_closed_pipe_exit_4(self, files, command):
        """As with `latticeknot ... 2>&1 | head`: the diagnostic itself cannot be written."""
        argv = [files.get(arg, arg) for arg in command]
        src = str(Path(lk.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "latticeknot.cli", *argv],
                stdout=write_end, stderr=write_end, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 4


class TestRender:
    def test_svg_and_obj(self, files):
        poly_path = str(files["dir"] / "p.json")
        run(["build", files["4_1"], "--out", poly_path])
        svg_path = str(files["dir"] / "p.svg")
        obj_path = str(files["dir"] / "p.obj")
        code, _, _ = run(["render", poly_path, "--svg", svg_path, "--obj", obj_path])
        assert code == 0
        svg = Path(svg_path).read_text()
        assert svg.startswith("<svg") and "<line" in svg
        obj = Path(obj_path).read_text()
        assert obj.count("\nl ") + obj.count("v ") > 0

    def test_render_needs_target(self, files):
        poly_path = str(files["dir"] / "p2.json")
        run(["build", files["3_1"], "--out", poly_path])
        code, _, _ = run(["render", poly_path])
        assert code == 64

    def test_render_usage_is_checked_before_the_file_is_read(self):
        # like rotate: a usage error is reported before FILE is opened
        for command in (["render"], ["rotate"]):
            code, out, err = run([*command, "/nonexistent/x.json"])
            assert code == 64, command
            assert out == "" and "Traceback" not in err

    def test_obj_counts_match_sticks(self, files):
        poly_path = str(files["dir"] / "p3.json")
        run(["build", files["4_1"], "--out", poly_path])
        obj_path = str(files["dir"] / "p3.obj")
        run(["render", poly_path, "--obj", obj_path])
        lines = Path(obj_path).read_text().splitlines()
        vs = [l for l in lines if l.startswith("v ")]
        ls = [l for l in lines if l.startswith("l ")]
        assert len(vs) == len(ls) == 14  # closed cycle: one vertex per stick


class TestOutputPaths:
    """A path that cannot be written is invalid input: exit 4, no traceback."""

    @pytest.mark.parametrize("option", ["build --out", "render --svg", "render --obj"])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_path_exit_4(self, files, option, target):
        poly_path = str(files["dir"] / "poly.json")
        run(["build", files["4_1"], "--out", poly_path])
        bad = files["dir"] / "no_such_dir" / "x" if target == "missing directory" else files["dir"]
        command, flag = option.split()
        source = files["4_1"] if command == "build" else poly_path
        code, out, err = run([command, source, flag, str(bad)])
        assert code == 4
        assert out == ""
        assert err.startswith(f"invalid input: cannot write {bad}: ")
        assert "Traceback" not in err


class TestPolygonSizeBound:
    def test_too_many_sticks_exit_4(self):
        sticks = [{"axis": "x", "range": [0, 1], "fixed": {"y": k, "z": 0}} for k in range(193)]
        for command in (["invariant"], ["render", "--obj", os.devnull]):
            code, out, err = run([*command, "-"], stdin_text=json.dumps({"sticks": sticks}))
            assert code == 4
            assert out == ""
            assert err.startswith("invalid input: a polygon may have at most 192 sticks, got 193")

    def test_largest_built_polygon_accepted(self):
        from latticeknot import jsonio

        poly = lk.construct_basic(lk.random_presentation(64, random.Random(64)))
        assert len(poly.sticks) == 192
        assert jsonio.polygon_from_obj(poly.to_json_obj()) == poly


class TestPresentationSizeBound:
    def test_invariant_refuses_65_arcs_exit_4(self):
        P = lk.random_presentation(65, random.Random(65))
        doc = json.dumps({"arcs": [list(pair) for pair in P.arcs]})
        code, out, err = run(["invariant", "-"], stdin_text=doc)
        assert code == 4
        assert out == ""
        assert err.startswith("invalid input: a presentation may have at most 64 arcs, got 65")
        assert "Traceback" not in err
        # the commands that only read presentations keep accepting any a >= 2
        code, out, _ = run(["validate", "-"], stdin_text=doc)
        assert code == 0


def _far_square(x_max):
    """A 4-stick rectangle from x = 0 to x = x_max, one unit wide in y."""
    return {
        "sticks": [
            {"axis": "x", "range": [0, x_max], "fixed": {"y": 0, "z": 0}},
            {"axis": "y", "range": [0, 1], "fixed": {"x": x_max, "z": 0}},
            {"axis": "x", "range": [0, x_max], "fixed": {"y": 1, "z": 0}},
            {"axis": "y", "range": [0, 1], "fixed": {"x": 0, "z": 0}},
        ]
    }


class TestCoordinateBound:
    def test_render_svg_refuses_far_coordinates_exit_4(self):
        doc = json.dumps(_far_square(10**400))
        code, out, err = run(["render", "--svg", os.devnull, "-"], stdin_text=doc)
        assert code == 4
        assert out == ""
        assert err.startswith(
            "invalid input: stick 0 is malformed: coordinates must have magnitude at most 1099511627776"
        )
        assert "Traceback" not in err

    def test_largest_coordinate_accepted(self, tmp_path):
        svg = tmp_path / "far.svg"
        doc = json.dumps(_far_square(2**40))
        code, _, _ = run(["render", "--svg", str(svg), "-"], stdin_text=doc)
        assert code == 0
        assert 'x2="32985348833280.00"' in svg.read_text()  # 30 * 2**40, to the hundredth


class TestDatasetCommands:
    def test_list(self):
        code, out, _ = run(["dataset", "list"])
        assert code == 0
        assert len(out.strip().splitlines()) == 17
        assert any(line.startswith("4_1\t") for line in out.splitlines())

    def test_get_interchange_schema(self, files):
        code, out, _ = run(["dataset", "get", "4_1"])
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"arcs"}
        # output feeds straight back into other commands
        p = files["dir"] / "from_dataset.json"
        p.write_text(out)
        code, out2, _ = run(["certify", str(p), "--c", "4"])
        assert code == 0

    def test_get_unknown(self):
        code, out, err = run(["dataset", "get", "99_99"])
        assert code == 4
        assert out == ""
        assert err == "invalid input: no bundled knot named '99_99'; see latticeknot dataset list\n"

    def test_get_without_name(self):
        code, _, _ = run(["dataset", "get"])
        assert code == 64

    def test_list_with_name_is_usage_error(self):
        code, out, err = run(["dataset", "list", "extra"])
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: ")


class TestRandomCommand:
    def test_seed_reproducible(self):
        code1, out1, _ = run(["random", "--a", "8", "--seed", "7"])
        code2, out2, _ = run(["random", "--a", "8", "--seed", "7"])
        assert code1 == code2 == 0
        assert out1 == out2
        lk.validate(json.loads(out1)["arcs"])

    def test_different_seeds_differ(self):
        _, out1, _ = run(["random", "--a", "9", "--seed", "1"])
        _, out2, _ = run(["random", "--a", "9", "--seed", "2"])
        assert out1 != out2

    def test_arc_count_bounded_like_the_pipeline(self):
        code, out, _ = run(["random", "--a", "64", "--seed", "1"])
        assert code == 0 and len(json.loads(out)["arcs"]) == 64
        code, out, err = run(["random", "--a", "65", "--seed", "1"])
        assert code == 4
        assert out == ""
        assert err.startswith("invalid input: ") and "64" in err


class TestRoundTrips:
    def test_presentation_round_trip(self, files):
        from latticeknot import jsonio

        _, out, _ = run(["validate", files["4_1"]])
        P = jsonio.presentation_from_obj(json.loads(out))
        assert jsonio.canonical_dumps(P.to_json_obj()) == out.strip()

    @pytest.mark.parametrize(
        "stick",
        [
            {"axis": "x", "range": [0.5, 1], "fixed": {"y": 1, "z": 1}},
            {"axis": "x", "range": [True, 2], "fixed": {"y": 1, "z": 1}},
            {"axis": "x", "range": [0, 1, 2], "fixed": {"y": 1, "z": 1}},
            {"axis": "x", "range": [0, 1], "fixed": {"y": 1.0, "z": 1}},
            {"axis": "x", "range": [0, 1], "fixed": {"y": "1", "z": 1}},
            {"axis": "x", "range": [0, 1], "fixed": {"x": 5, "y": 0, "z": 0}},
        ],
    )
    def test_polygon_rejects_non_integer_coordinates(self, stick):
        from latticeknot import jsonio

        with pytest.raises(ValueError):
            jsonio.polygon_from_obj({"sticks": [stick]})

    def test_polygon_round_trip(self, files):
        from latticeknot import jsonio

        _, out, _ = run(["build", files["3_1"]])
        poly = jsonio.polygon_from_obj(json.loads(out))
        assert jsonio.canonical_dumps(poly.to_json_obj()) == out.strip()


_FIG8 = [[1, 3], [2, 5], [4, 6], [3, 5], [1, 4], [2, 6]]


def _fig8_polygon_with_stick_key(key):
    doc = lk.construct_basic(lk.validate(_FIG8)).to_json_obj()
    doc["sticks"][0][key] = "x"
    return doc


class TestExactKeySets:
    """Each object kind has one exact key set; a document with any other key exits 4."""

    @pytest.mark.parametrize(
        "command, doc",
        [
            (["invariant"], {"arcs": [[1, 2], [1, 2]], "sticks": 5}),
            (["validate"], {"arcs": [[1, 2], [1, 2]], "sticks": 5}),
            (["invariant"], {"arcs": _FIG8, "arcs_extra": 1}),
            (["certify", "--c", "4"], {"arcs": _FIG8, "arcs_extra": 1}),
            (["invariant"], _fig8_polygon_with_stick_key("axis2")),
            (["render", "--obj", os.devnull], _fig8_polygon_with_stick_key("axis2")),
        ],
        ids=["both-kinds-invariant", "both-kinds-validate", "arcs_extra-invariant",
             "arcs_extra-certify", "axis2-invariant", "axis2-render"],
    )
    def test_unknown_key_exit_4(self, command, doc):
        code, out, err = run([*command, "-"], stdin_text=json.dumps(doc))
        assert code == 4
        assert out == ""
        assert err.startswith("invalid input: ")
        assert "exactly" in err


_SCALARS = st.one_of(
    st.integers(-2, 10),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
_ANY_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["arcs", "sticks", "axis", "range", "fixed", "x", "y"]), inner, max_size=3
    ),
    max_leaves=12,
)


@st.composite
def _presentation_docs(draw):
    """Valid presentations, near-misses with one pair replaced, and junk arcs."""
    P = lk.random_presentation(draw(st.integers(3, 8)), random.Random(draw(st.integers(0, 2**16))))
    arcs = [list(pair) for pair in P.arcs]
    if draw(st.booleans()):
        arcs[draw(st.integers(0, len(arcs) - 1))] = draw(st.lists(_SCALARS, max_size=3) | _SCALARS)
    return {"arcs": draw(st.just(arcs) | _ANY_JSON)}


@st.composite
def _polygon_docs(draw):
    """Built polygons, some with one field of one stick replaced, and junk sticks."""
    P = lk.random_presentation(draw(st.integers(5, 7)), random.Random(draw(st.integers(0, 2**16))))
    doc = lk.construct_basic(P).to_json_obj()
    if draw(st.booleans()):
        stick = draw(st.sampled_from(doc["sticks"]))
        field = draw(st.sampled_from(["axis", "range", "fixed"]))
        inner = stick[field]
        if isinstance(inner, list):
            inner[draw(st.integers(0, 1))] = draw(_SCALARS)
        elif isinstance(inner, dict):
            inner[draw(st.sampled_from(sorted(inner)))] = draw(_SCALARS)
        else:
            stick[field] = draw(_ANY_JSON)
    return {"sticks": draw(st.just(doc["sticks"]) | _ANY_JSON)}


@st.composite
def _docs_with_an_unknown_key(draw):
    """A valid presentation or polygon with one unknown key added to one of its objects.

    The objects are the document itself, each stick and each stick's "fixed".
    """
    P = lk.random_presentation(draw(st.integers(5, 7)), random.Random(draw(st.integers(0, 2**16))))
    doc = P.to_json_obj() if draw(st.booleans()) else lk.construct_basic(P).to_json_obj()
    objects = [doc]
    for stick in doc.get("sticks", []):
        objects += [stick, stick["fixed"]]
    target = draw(st.sampled_from(objects))
    key = draw(st.text(max_size=6).filter(lambda k: k not in target))
    target[key] = draw(_SCALARS)
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=_docs_with_an_unknown_key())
def test_an_unknown_key_at_any_depth_exits_4(doc):
    code, out, err = run(["invariant", "-"], stdin_text=json.dumps(doc))
    assert code == 4
    assert out == ""
    assert err.startswith("invalid input: ")


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(
        [
            ("validate",),
            ("invariant",),
            ("dual",),
            ("star",),
            ("rotate", "--pages", "1"),
            ("certify", "--c", "3"),
            ("render", "--obj", os.devnull),
            ("render", "--svg", os.devnull),
        ]
    ),
    doc=_presentation_docs() | _polygon_docs() | _docs_with_an_unknown_key() | _ANY_JSON,
)
@example(command=("invariant",), doc={"sticks": 5})
@example(command=("render", "--svg", os.devnull), doc=_far_square(10**400))
def test_any_json_input_gets_a_documented_exit_code(command, doc):
    code, _, err = run([*command, "-"], stdin_text=json.dumps(doc))
    assert code in {0, 2, 3, 4, 64, 70}
    assert "Traceback" not in err


# Functions that no CLI command enters and that stay in src/, each with its reason.
_NOT_ON_A_COMMAND_PATH = {
    "laurent.LaurentPolynomial.__hash__": "the value type defines __eq__, so it stays hashable",
    "laurent.LaurentPolynomial.__repr__": "pytest failure messages show the polynomial",
    "laurent.LaurentPolynomial.__sub__": "the tests' dense Bareiss reference subtracts entries",
    "laurent.LaurentPolynomial.from_coeffs": "scripts/find_dataset_presentations.py builds its targets",
    "cli._silence": "runs only when stdout or stderr is a broken pipe",
    "dataset._entry": "runs once, at import, before any command",
}

_PRESENTATION_COMMANDS = (
    ["validate"], ["dual"], ["star"], ["rotate", "--pages", "2", "--bindings", "3"], ["invariant"]
)

_SPIKE_POLYGON = {"sticks": [
    {"axis": "x", "range": [0, 2], "fixed": {"y": 0, "z": 0}},
    {"axis": "z", "range": [0, 1], "fixed": {"x": 2, "y": 0}},
    {"axis": "y", "range": [0, 2], "fixed": {"x": 2, "z": 0}},
    {"axis": "x", "range": [0, 2], "fixed": {"y": 2, "z": 0}},
    {"axis": "y", "range": [0, 2], "fixed": {"x": 0, "z": 0}},
]}


def _source_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> "module.qualified.name" for every function or
    method written in a latticeknot module; class bodies, comprehensions and
    dataclass-generated methods (compiled from no file) are left out."""
    out = {}

    def walk(code, prefix, module):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            qualname = f"{prefix}.{const.co_name}" if prefix else const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:
                out[const.co_filename, const.co_firstlineno, const.co_name] = f"{module}.{qualname}"
            walk(const, qualname, module)

    for info in pkgutil.iter_modules(lk.__path__):
        path = os.path.join(lk.__path__[0], f"{info.name}.py")
        with open(path, encoding="utf-8") as fh:
            walk(compile(fh.read(), path, "exec"), "", info.name)
    return out


def test_every_src_function_is_entered_by_a_cli_command(tmp_path):
    """src/ holds only what a command runs: every command over the 17 bundled
    knots, each build branch's polygon through invariant and render, and the
    error paths, run under a profiler that records each function entered."""
    from latticeknot import dataset

    for name in lk.__all__:
        getattr(lk, name)

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    _make_parser.cache_clear()  # so a command builds its parser under the profiler
    sys.setprofile(profile)
    try:
        for name in dataset.names():
            e = dataset.get(name)
            src = write(f"{name}.json", e.arcs.to_json_obj())
            for argv in _PRESENTATION_COMMANDS:
                assert run([*argv, src])[0] == 0, (name, argv)
            certify = ["certify", "--c", str(e.crossing_number)]
            if e.non_alternating_prime:
                certify.append("--non-alternating-prime")
            assert run([*certify, src])[0] == (2 if name == "3_1" else 0), name
            for branch in ("auto", "basic", "reduced", "nonstar"):
                out = str(tmp_path / f"{name}-{branch}.json")
                if run(["build", "--branch", branch, "--out", out, src])[0] == 0:
                    assert run(["invariant", out])[0] == 0, (name, branch)
                    svg, obj = str(tmp_path / "out.svg"), str(tmp_path / "out.obj")
                    assert run(["render", "--svg", svg, "--obj", obj, out])[0] == 0, (name, branch)
        assert run(["invariant", "--jones", "--pd", str(tmp_path / "3_1.json")])[0] == 0
        assert run(["dataset", "list"])[0] == 0
        assert run(["dataset", "get", "4_1"])[0] == 0
        assert run(["random", "--a", "9", "--seed", "1"])[0] == 0
        assert run(["nope"])[0] == 64
        triple = write("triple.json", {"arcs": [[1, 2], [1, 3], [1, 4], [3, 4]]})
        assert run(["validate", triple])[0] == 4
        assert run(["invariant", write("spike.json", _SPIKE_POLYGON)])[0] == 4
    finally:
        sys.setprofile(previous)

    seen = {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}
    functions = _source_functions()
    allowed = set(_NOT_ON_A_COMMAND_PATH)
    assert not allowed - set(functions.values()), "an allow-listed function is gone"
    never = {name for key, name in functions.items() if key not in seen}
    assert not never - allowed, f"no CLI command enters {sorted(never - allowed)}"
    assert not allowed - never, f"allow-listed but entered: {sorted(allowed - never)}"
