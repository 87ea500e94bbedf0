"""Command-line behavior: exit codes, JSON shape, determinism."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from mucone import cli, interp, valuations
from mucone.complement import standard_inner_product
from mucone.errors import InternalInconsistencyError, NonIntegerResultError

GOLDEN = Path(__file__).parent / "golden"


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def quadrant(tmp_path):
    return write_json(tmp_path / "quadrant.json",
                      {"ambient": 2, "generators": [[1, 0], [0, 1]]})


@pytest.fixture
def triangle2(tmp_path):
    # twice the standard triangle
    return write_json(tmp_path / "tri2.json",
                      {"vertices": [[0, 0], [2, 0], [0, 2]], "name": "tri2"})


class TestMuCommand:
    def test_cone_mu0(self, capsys, quadrant):
        code, out, _ = run_cli(capsys, "mu", "--input", quadrant)
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "cone"
        assert data["mu"]["mu0"] == "1/4"
        assert data["mu"]["provenance"] == "reduction"

    def test_single_ray_series_is_t(self, capsys, tmp_path):
        path = write_json(tmp_path / "ray.json",
                          {"ambient": 1, "generators": [[1]]})
        code, out, _ = run_cli(capsys, "mu", "--input", path, "--degree", "4")
        assert code == 0
        series = json.loads(out)["mu"]["series"]
        got = {tuple(t["exponents"]): t["coefficient"]
               for t in series["terms"]}
        assert got == {(0,): "1/2", (1,): "1/12", (3,): "-1/720"}

    def test_cone_in_r0_cross_validated(self, capsys, tmp_path):
        path = write_json(tmp_path / "r0.json", {"generators": [], "ambient": 0})
        code, out, _ = run_cli(capsys, "mu", "--input", path, "--cross-validate")
        assert code == 0
        assert json.loads(out)["mu"]["mu0"] == "1"

    def test_triangle_mu0_column(self, capsys, triangle2):
        code, out, _ = run_cli(capsys, "mu", "--input", triangle2)
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "polytope"
        assert data["mu0_column"] == ["1/4", "3/8", "3/8",
                                      "1/2", "1/2", "1/2", "1"]
        assert len(data["table"]) == 7
        assert data["table"][-1]["face_vertex_indices"] == [0, 1, 2]

    def test_df_map_on_fan_cone(self, capsys, tmp_path):
        path = write_json(tmp_path / "c.json",
                          {"ambient": 2, "generators": [[1, 0], [0, 1]]})
        code, out, _ = run_cli(capsys, "mu", "--input", path, "--map", "df")
        assert code == 0
        assert json.loads(out)["mu"]["mu0"] == "1/3"

    def test_map_file(self, capsys, tmp_path, quadrant):
        mp = write_json(tmp_path / "map.json",
                        {"type": "inner_product",
                         "gram": [["2", "1"], ["1", "3"]]})
        code, out, _ = run_cli(capsys, "mu", "--input", quadrant, "--map", mp)
        assert code == 0
        json.loads(out)

    def test_out_file_and_rerun_identical(self, tmp_path, quadrant, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["mu", "--input", quadrant, "--out", str(a)]) == 0
        assert cli.main(["mu", "--input", quadrant, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestCountCommand:
    def test_triangle_count(self, capsys, triangle2):
        code, out, _ = run_cli(capsys, "count", "--input", triangle2)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 6 and data["brute_force"] == 6
        assert data["match"] is True
        assert len(data["breakdown"]) == 7
        from fractions import Fraction
        total = sum(Fraction(r["contribution"]) for r in data["breakdown"])
        assert total == 6

    def test_cube_count(self, capsys, tmp_path):
        verts = [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        path = write_json(tmp_path / "cube.json", {"vertices": verts})
        code, out, _ = run_cli(capsys, "count", "--input", path)
        assert code == 0
        assert json.loads(out)["count"] == 27

    def test_count_needs_polytope(self, capsys, quadrant):
        code, _, err = run_cli(capsys, "count", "--input", quadrant)
        assert code == 1
        assert "polytope" in err


class TestVerifyCommand:
    def test_triangle_passes(self, capsys, triangle2):
        code, out, _ = run_cli(capsys, "verify", "--input", triangle2)
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["q"] == 4
        assert data["achieved_order"] >= 4
        assert data["seed"] == 1729

    def test_brion_flag(self, capsys, triangle2):
        code, out, _ = run_cli(capsys, "verify", "--input", triangle2,
                               "--brion")
        assert code == 0
        assert json.loads(out)["brion_check"] is True

    @pytest.mark.parametrize("vertices, seed", [
        ([[-6, -5], [-2, -6], [5, 0], [6, 2], [5, 6]], None),
        ([[-3, -3], [6, -4], [-3, 3]], "0"),
    ])
    def test_brion_direction_avoids_cell_rays(self, capsys, tmp_path, vertices, seed):
        # the drawn direction annihilated a ray of a vertex cone's basic cell,
        # (-3, -2) and (-3, 2) here, and the check exited 2 on valid input
        path = write_json(tmp_path / "p.json", {"vertices": vertices})
        argv = ["verify", "--input", path, "--brion"] + (["--seed", seed] if seed else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        data = json.loads(out)
        assert data["passed"] is True and data["brion_check"] is True

    def test_order_override(self, capsys, triangle2):
        code, out, _ = run_cli(capsys, "verify", "--input", triangle2,
                               "--order", "2")
        assert code == 0
        data = json.loads(out)
        assert data["q"] == 2 and data["passed"] is True

    def test_seed_recorded_and_outcome_stable(self, capsys, triangle2):
        _, out1, _ = run_cli(capsys, "verify", "--input", triangle2)
        _, out2, _ = run_cli(capsys, "verify", "--input", triangle2,
                             "--seed", "7")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["passed"] and d2["passed"]
        assert d1["seed"] == 1729 and d2["seed"] == 7

    def test_rerun_byte_identical(self, tmp_path, triangle2, capsys):
        a, b = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["verify", "--input", triangle2, "--out", str(a)]) == 0
        assert cli.main(["verify", "--input", triangle2, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_corpus_sorted(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_json(corpus / "b_seg.json", {"vertices": [[0], [3]]})
        write_json(corpus / "a_tri.json",
                   {"vertices": [[0, 0], [1, 0], [0, 1]]})
        code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus))
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        assert [r["file"] for r in data["reports"]] == ["a_tri.json",
                                                        "b_seg.json"]

    def test_failure_exits_3(self, capsys, triangle2, monkeypatch):
        class FakeReport:
            def to_json(self):
                return {"passed": False, "q": 4}
        monkeypatch.setattr(cli, "verify_interpolator",
                            lambda *a, **k: FakeReport())
        code, _, _ = run_cli(capsys, "verify", "--input", triangle2)
        assert code == 3


class TestVerifyGoldenBytes:
    """verify output frozen byte for byte; any change to the mu route must
    reproduce it exactly for the same input and seed."""

    PYRAMID = {"vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0],
                            [1, 1, 2]], "name": "pyramid"}
    TRI_SKEW = {"vertices": [[0, 0], [3, 1], [1, 4]], "name": "tri-skew"}

    def run_verify(self, tmp_path, capsys, poly, *extra):
        src = write_json(tmp_path / "in.json", poly)
        out = tmp_path / "out.json"
        code = cli.main(["verify", "--input", src, "--out", str(out), *extra])
        capsys.readouterr()
        return code, out.read_bytes() if out.exists() else None

    def test_pyramid_default_seed(self, tmp_path, capsys):
        code, got = self.run_verify(tmp_path, capsys, self.PYRAMID)
        assert code == 0
        assert got == (GOLDEN / "verify_pyramid.json").read_bytes()

    def test_tri_skew_cross_validate(self, tmp_path, capsys):
        code, got = self.run_verify(tmp_path, capsys, self.TRI_SKEW,
                                    "--cross-validate")
        assert code == 0
        assert got == (GOLDEN / "verify_tri_skew_cross_validate.json"
                       ).read_bytes()

    def test_cross_validate_mismatch_exits_4(self, tmp_path, capsys,
                                             monkeypatch):
        real = interp.mu_explicit

        def skewed(cone, cmap, order=interp.DEFAULT_ORDER):
            v = real(cone, cmap, order)
            return interp.MuValue(v.cone, v.map_key, v.order,
                                  v.series.scale(2), v.provenance)

        interp.clear_mu_cache()
        monkeypatch.setattr(interp, "mu_explicit", skewed)
        try:
            code, got = self.run_verify(tmp_path, capsys, self.TRI_SKEW,
                                        "--cross-validate")
        finally:
            interp.clear_mu_cache()
        assert code == 4 and got is None


class TestCliGoldenBytes:
    """mu, count and pn-demo output frozen byte for byte.  The pyramid's
    apex normal cone has four generators, so the mu golden pins their
    order; the segment is given top end first."""

    BOX = {"vertices": [[0, 0, 0], [2, 0, 0], [0, 1, 0], [2, 1, 0],
                        [0, 0, 3], [2, 0, 3], [0, 1, 3], [2, 1, 3]],
           "name": "box-2x1x3"}
    SEGMENT = {"vertices": [[3], [-2]], "name": "segment"}

    @pytest.mark.parametrize("golden, poly, argv", [
        ("mu_pyramid_degree2.json", TestVerifyGoldenBytes.PYRAMID,
         ["mu", "--degree", "2"]),
        ("count_box_2x1x3.json", BOX, ["count"]),
        ("count_segment.json", SEGMENT, ["count"]),
        ("pn_demo_2.json", None, ["pn-demo", "--n", "2"]),
    ])
    def test_golden(self, tmp_path, capsys, golden, poly, argv):
        if poly is not None:
            argv = argv + ["--input", write_json(tmp_path / "in.json", poly)]
        self.check_golden(tmp_path, capsys, golden, argv)

    CONE3 = {"generators": [[1, 0, 0], [1, 1, 0], [1, 1, 1]]}
    FLAG3 = {"type": "flag", "basis": [[1, 2, 4], [1, 3, 9], [1, 5, 25]]}

    @pytest.mark.parametrize("golden, cone, cmap", [
        ("mu_cone3_flag_degree6.json", CONE3, FLAG3),
        ("mu_cone3_ip_degree6.json", CONE3, None),
        ("mu_ray1_degree6.json", {"generators": [[-1]]}, None),
    ])
    def test_mu_cone_golden(self, tmp_path, capsys, golden, cone, cmap):
        # mu of one basic cone at degree 6; in R^1 the interpolation
        # lattice has no variables
        argv = ["mu", "--degree", "6", "--input", write_json(tmp_path / "in.json", cone)]
        if cmap is not None:
            argv += ["--map", write_json(tmp_path / "map.json", cmap)]
        self.check_golden(tmp_path, capsys, golden, argv)

    @staticmethod
    def check_golden(tmp_path, capsys, golden, argv):
        out = tmp_path / "out.json"
        # start cold, as a fresh process would
        # (TestMuCache checks that the output ignores what is cached)
        interp.clear_mu_cache()
        code = cli.main(argv + ["--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


class TestToddCommand:
    def test_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "todd", "--degree", "6")
        assert code == 0
        data = json.loads(out)
        assert data["td"] == ["1", "1/2", "1/12", "0", "-1/720", "0",
                              "1/30240"]
        assert data["t"] == ["1/2", "1/12", "0", "-1/720", "0", "1/30240",
                             "0"]

    def test_rerun_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "todd")
        _, out2, _ = run_cli(capsys, "todd")
        assert out1 == out2


class TestPnDemo:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_checks_pass(self, capsys, n):
        code, out, _ = run_cli(capsys, "pn-demo", "--n", str(n), "--degree",
                               "4")
        assert code == 0
        data = json.loads(out)
        assert data["all_checks_passed"] is True
        ray_rows = [c for c in data["checks"] if c["kind"] == "ray"]
        assert len(ray_rows) == n + 1
        assert all(c["mu0"] == "1/2" for c in ray_rows)

    def test_p3_pair_constants(self, capsys):
        code, out, _ = run_cli(capsys, "pn-demo", "--n", "3")
        assert code == 0
        data = json.loads(out)
        cons = [c for c in data["checks"] if c["kind"] == "consecutive-pair"]
        non = [c for c in data["checks"] if c["kind"] == "nonconsecutive-pair"]
        assert len(cons) == 4 and len(non) == 2
        assert all(c["mu0"] == "1/3" for c in cons)
        assert all(c["mu0"] == "1/4" for c in non)

    def test_bad_n(self, capsys):
        code, _, _ = run_cli(capsys, "pn-demo", "--n", "9")
        assert code == 1


class TestExitCodes:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_input(self, capsys):
        code, _, _ = run_cli(capsys, "mu")
        assert code == 1

    @pytest.mark.parametrize("command, option", [
        ("mu", ["--order", "2"]), ("count", ["--order", "2"]),
        ("todd", ["--order", "2"]), ("pn-demo", ["--order", "2"]),
        ("count", ["--cross-validate"]), ("todd", ["--cross-validate"]),
        ("pn-demo", ["--cross-validate"]),
    ], ids=lambda x: x if isinstance(x, str) else x[0].lstrip("-"))
    def test_option_of_another_subcommand_exits_1(self, capsys, triangle2, command, option):
        """A subcommand refuses an option it would not read: count
        --cross-validate would otherwise skip the cross-check it asks for."""
        given = {"mu": ["--input", triangle2], "count": ["--input", triangle2],
                 "todd": [], "pn-demo": ["--n", "2"]}[command]
        code, out, err = run_cli(capsys, command, *given, *option)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mu", "--input",
                               str(tmp_path / "nope.json"))
        assert code == 1 and "cannot read" in err

    def test_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "todd", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert not path.parent.exists()

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "mu", "--input", str(path))
        assert code == 1 and "not valid JSON" in err

    def test_wrong_keys(self, capsys, tmp_path):
        path = write_json(tmp_path / "odd.json", {"points": [[0, 0]]})
        code, _, _ = run_cli(capsys, "mu", "--input", str(path))
        assert code == 1

    def test_map_dimension_mismatch(self, capsys, tmp_path, quadrant):
        mp = write_json(tmp_path / "m3.json",
                        {"type": "inner_product",
                         "gram": [["1", "0", "0"], ["0", "1", "0"],
                                  ["0", "0", "1"]]})
        code, _, err = run_cli(capsys, "mu", "--input", quadrant, "--map", mp)
        assert code == 1 and "dimension" in err

    TRIANGLE = {"vertices": [[0, 0], [2, 0], [0, 2]], "name": "tri2"}

    @pytest.mark.parametrize("argv, data", [
        (["count"], {"vertices": []}),
        (["count"], {"vertices": [[0, 0], [1]]}),
        (["count"], {"vertices": [[0, 0], [1, 0], [0, 1]], "name": 5}),
        (["count"], {"vertices": 5}),
        (["mu", "--degree", "-1"], TRIANGLE),
        (["verify", "--degree", "1"], TRIANGLE),
        (["verify", "--order", "-1"], TRIANGLE),
        (["mu"], {"generators": []}),
        (["mu"], {"generators": [[1, 0], [1]]}),
        (["mu"], {"ambient": 3, "generators": [[1, 0]]}),
    ], ids=["no-vertices", "mixed-dim-vertices", "non-string-name",
            "vertices-not-a-list", "negative-degree", "degree-below-dim",
            "negative-order", "no-generators-no-ambient",
            "mixed-dim-generators", "ambient-mismatch"])
    def test_malformed_input_exits_1(self, capsys, tmp_path, argv, data):
        path = write_json(tmp_path / "in.json", data)
        code, out, err = run_cli(capsys, *argv, "--input", path)
        assert code == 1 and out == ""
        assert "error:" in err and "unexpected" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("data", [
        [1, 2],
        "ip",
        {"type": "inner_product", "gram": 5},
        {"type": "flag", "basis": 5},
        {"type": "ray_table", "entries": 5},
        {"type": "ray_table", "entries": [5]},
        {"type": "ray_table", "entries": [{"ray": [1, 0], "u": [1, 0]},
                                          {"ray": [0, 1, 0], "u": [0, 1, 0]}]},
    ], ids=["map-is-a-list", "map-is-a-string", "gram-is-a-number",
            "basis-is-a-number", "entries-is-a-number", "table-entry-not-an-object",
            "table-mixes-dimensions"])
    def test_malformed_map_exits_1(self, capsys, tmp_path, triangle2, data):
        mp = write_json(tmp_path / "m.json", data)
        code, out, err = run_cli(capsys, "mu", "--input", triangle2, "--map", mp)
        assert code == 1 and out == ""
        assert "error:" in err and "unexpected" not in err

    @pytest.mark.parametrize("argv, message", [
        (["verify"], "verify requires --input or --corpus"),
        (["verify", "--corpus", "{empty}"], "no *.json files under"),
        (["verify", "--corpus", "{cones}"], "corpus entries must be polytopes"),
        (["mu", "--input", "{tri}", "--map", "{missing}"], "cannot read map"),
        (["mu", "--input", "{tri}", "--map", "{not_json}"], "is not valid JSON"),
        (["mu", "--input", "{tri}", "--degree", "x"], "not an integer: 'x'"),
    ], ids=["verify-without-input", "empty-corpus", "cone-in-corpus",
            "unreadable-map", "map-not-json", "degree-not-an-integer"])
    def test_usage_error_exits_1(self, capsys, tmp_path, triangle2, argv, message):
        for name in ("empty", "cones"):
            (tmp_path / name).mkdir()
        write_json(tmp_path / "cones" / "quadrant.json",
                   {"ambient": 2, "generators": [[1, 0], [0, 1]]})
        (tmp_path / "not-json.json").write_text("{not json")
        paths = {"empty": tmp_path / "empty", "cones": tmp_path / "cones",
                 "tri": triangle2, "missing": tmp_path / "nope.json",
                 "not_json": tmp_path / "not-json.json"}
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 1 and out == ""
        assert message in err and "error:" in err
        assert "Traceback" not in err and "unexpected" not in err

    def test_non_extreme_input_exits_1(self, capsys, tmp_path):
        path = write_json(tmp_path / "mid.json",
                          {"vertices": [[0, 0], [1, 0], [2, 0], [0, 2]]})
        code, _, err = run_cli(capsys, "count", "--input", path)
        assert code == 1
        assert "NotExtremeError: input point Vector(1, 0) is not a vertex" in err

    def test_non_integral_polytope(self, capsys, tmp_path):
        path = write_json(tmp_path / "half.json",
                          {"vertices": [["0", "0"], ["1/2", "0"], ["0", "1"]]})
        code, _, err = run_cli(capsys, "mu", "--input", str(path))
        assert code == 2 and "NotIntegral" in err

    def test_flag_map_non_generic(self, capsys, tmp_path):
        # flag step 1 = span{e1} meets the annihilator of ray e2
        mp = write_json(tmp_path / "flag.json",
                        {"type": "flag", "basis": [["1", "0"], ["0", "1"]]})
        cone = write_json(tmp_path / "e2.json",
                          {"ambient": 2, "generators": [[0, 1]]})
        code, _, err = run_cli(capsys, "mu", "--input", cone, "--map", mp)
        assert code == 2 and "NotGeneric" in err

    def test_df_unknown_ray(self, capsys, tmp_path):
        cone = write_json(tmp_path / "offfan.json",
                          {"ambient": 2, "generators": [[1, 2]]})
        code, _, err = run_cli(capsys, "mu", "--input", cone, "--map", "df")
        assert code == 2 and "UnknownRay" in err

    def test_not_pointed(self, capsys, tmp_path):
        cone = write_json(tmp_path / "line.json",
                          {"ambient": 1, "generators": [[1], [-1]]})
        code, _, _ = run_cli(capsys, "mu", "--input", cone)
        assert code == 2

    def test_internal_error_exits_4(self, capsys, triangle2, monkeypatch):
        def boom(*a, **k):
            raise InternalInconsistencyError("forced")
        monkeypatch.setattr(cli, "mu_table", boom)
        code, _, err = run_cli(capsys, "mu", "--input", triangle2)
        assert code == 4 and "forced" in err

    def test_unexpected_exception_exits_4(self, capsys, triangle2,
                                          monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("surprise")
        monkeypatch.setattr(cli, "mu_table", boom)
        code, _, _ = run_cli(capsys, "mu", "--input", triangle2)
        assert code == 4

    def test_non_integer_count_exits_4(self, capsys, tmp_path, monkeypatch):
        # a point of volume 1/2 has local count 1/2: the library raises, and
        # the CLI reports that as a bug
        monkeypatch.setattr(valuations, "normalized_volume", lambda face: Fraction(1, 2))
        path = write_json(tmp_path / "pt.json", {"vertices": [[3, 4]], "name": "pt"})
        with pytest.raises(NonIntegerResultError, match="local count 1/2 of pt is not"):
            valuations.count_via_local_formula(cli.load_input(path), standard_inner_product(2))
        code, out, err = run_cli(capsys, "count", "--input", path)
        assert (code, out) == (4, "")
        assert err == "internal inconsistency: local count 1/2 of pt is not an integer\n"


# random JSON: ints, rational strings, bools and null, nested in lists, and
# objects that hold some of the keys the loaders look for; coordinate lists
# are mostly well formed, so that most inputs get past the parser
_SCALARS = st.one_of(st.integers(-3, 3), st.booleans(), st.none(),
                     st.fractions(-3, 3, max_denominator=4).map(str))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=8)


@st.composite
def _rows(draw):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=width, max_size=width),
                         min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 3:
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[i][draw(st.integers(0, width - 1))] = draw(_SCALARS)
        else:
            rows[i] = draw(_VALUES)
    return rows


_FIELDS = st.one_of(_rows(), _VALUES)
_KEYS = {"vertices": _FIELDS, "generators": _FIELDS, "gram": _FIELDS, "basis": _FIELDS,
         "ambient": st.one_of(st.integers(-1, 4), _VALUES),
         "type": st.one_of(st.sampled_from(["inner_product", "flag", "ray_table"]), _VALUES)}
_INPUTS = st.one_of(st.fixed_dictionaries({"vertices": _rows()}),
                    st.fixed_dictionaries({"generators": _rows()},
                                          optional={"ambient": st.integers(-1, 4)}),
                    st.fixed_dictionaries({}, optional=_KEYS), _VALUES)
_MAPS = st.one_of(st.fixed_dictionaries({"type": st.just("inner_product"), "gram": _rows()}),
                  st.fixed_dictionaries({"type": st.just("flag"), "basis": _rows()}),
                  st.fixed_dictionaries({}, optional=_KEYS), _VALUES)


class TestRandomInputs:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(command=st.sampled_from(["mu", "count", "verify"]), degree=st.integers(0, 2),
           data=_INPUTS, spec=st.sampled_from(["ip", "df", None]), cmap=_MAPS)
    def test_never_exits_4(self, command, degree, data, spec, cmap):
        """Whatever the JSON, main() answers with a contract exit code,
        never with exit 4 or a traceback.  `spec` None reads the map from
        the JSON `cmap`."""
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, "--degree", str(degree),
                    "--input", write_json(Path(tmp) / "in.json", data),
                    "--map", spec or write_json(Path(tmp) / "map.json", cmap)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            interp.clear_mu_cache()
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestInstalledScript:
    def test_console_entry_point(self):
        exe = shutil.which("mucone")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "todd", "--degree", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["td"] == ["1", "1/2", "1/12"]

    def test_module_invocation(self):
        # run from the directory that holds the package under test, so that
        # `-m` finds it with or without PYTHONPATH
        proc = subprocess.run([sys.executable, "-m", "mucone.cli", "todd",
                               "--degree", "1"], capture_output=True,
                              text=True, cwd=Path(cli.__file__).resolve().parents[1])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["td"] == ["1", "1/2"]
