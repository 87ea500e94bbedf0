"""Command-line behavior: exit codes, JSON shape, determinism."""

import json
import shutil
import subprocess
import sys

import pytest

from pathlib import Path

from mucone import cli, interp
from mucone.errors import InternalInconsistencyError

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

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mu", "--input",
                               str(tmp_path / "nope.json"))
        assert code == 1 and "cannot read" in err

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
        proc = subprocess.run([sys.executable, "-m", "mucone.cli", "todd",
                               "--degree", "1"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["td"] == ["1", "1/2"]
