import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bcvhelix import cli, cmc, gauss_intrinsic
from bcvhelix.cli import main
from bcvhelix.errors import BcvHelixError, ConfigError, DomainError
from bcvhelix.numerics import SCALAR
from bcvhelix.oracle import MeshGrid, SurfaceChart

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (the benchmark's job lists)


def run(tmp_path, command, cfg, overrides=(), out=None):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = str(out or tmp_path)
    argv = [command, "--config", str(cfg_path), "--out", out_dir]
    for item in overrides:
        argv += ["--override", item]
    return main(argv)


NIL_MINIMAL = {
    "space": {"kappa": 0.0, "tau": 0.5},
    "seed": {"family": "minimal-case", "m": 1.0, "a": 0.5, "c": 1.0, "u_range": [-3, 3]},
    "grid": {"nu": 15, "nt": 7, "t_range": [-3.0, 3.0]},
    "output": {"basename": "nilcat", "formats": ["csv", "obj", "json"]},
}

HELICOID = {
    "space": {"kappa": 0.0, "tau": 0.0},
    "seed": {
        "family": "explicit",
        "m": 1.0,
        "a": 1.0,
        "u_range": [0.5, 1.5],
        "U": "sqrt(u*u + 1)",
        "dU": "u / sqrt(u*u + 1)",
    },
    "grid": {"nu": 2, "nt": 2, "t_range": [0.0, 1.0]},
    "output": {"basename": "heli", "formats": ["obj", "csv", "json"]},
}


class TestClassify:
    def test_heisenberg(self, tmp_path, capsys):
        assert run(tmp_path, "classify", NIL_MINIMAL) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == "Heisenberg"

    def test_sphere(self, tmp_path, capsys):
        cfg = dict(NIL_MINIMAL, space={"kappa": 1.0, "tau": 0.5})
        assert run(tmp_path, "classify", cfg) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "Sphere"


class TestChartProfile:
    def test_nil_profile_csv_matches_closed_forms(self, tmp_path):
        cfg = dict(NIL_MINIMAL)
        cfg["grid"] = {"nu": 31, "nt": 5, "t_range": [-3.0, 3.0]}
        assert run(tmp_path, "minimal", cfg) == 0
        rows = (tmp_path / "nilcat.profile.csv").read_text().strip().splitlines()
        assert rows[0] == "u,xi1,xi2,theta0,U"
        for row in rows[1:]:
            u, xi1, xi2, th0, U = map(float, row.split(","))
            assert abs(xi1 - math.sqrt(u * u + 1)) < 1e-8
            assert abs(xi2 - 0.5 * (u + math.atan(u))) < 1e-8
            th_exact = -math.atan(u) + math.sqrt(2) * math.atan(u / math.sqrt(2))
            assert abs(th0 - th_exact) < 1e-8
            assert abs(U - 0.5 * (u * u + 2)) < 1e-12

    def test_one_profile_evaluation_per_csv_row(self, tmp_path, monkeypatch):
        # the U column is the U that xi1 reads: a warm profile CSV of the
        # S2 x R minimal family (oscillatory: U is sin of one product per
        # abscissa) evaluates sin once per row, and xi2 and theta0 read the
        # cells the first CSV grew
        counts = {}
        for name in ("sin", "cos", "sinh", "cosh"):  # the profile takes them when it is built
            fn = getattr(cmc, name)

            def counted(x, fn=fn, name=name):
                counts[name] = counts.get(name, 0) + np.size(x)
                return fn(x)

            monkeypatch.setattr(cmc, name, counted)
        job = cli.parse_config(inputs._minimal_config("S2xR", 1.0, 0.0, 0.3, 0.5, 1.0, ["csv"]), "minimal")
        chart, _ = cli.make_chart(job, *cli.resolve_profile(job))
        path = str(tmp_path / "profile.csv")
        cli.write_profile_csv(path, chart, 101)
        warm = pathlib.Path(path).read_bytes()
        counts.clear()
        cli.write_profile_csv(path, chart, 101)
        assert counts == {"sin": 101}
        assert pathlib.Path(path).read_bytes() == warm


class TestVerify:
    def test_nil_minimal_passes(self, tmp_path, capsys):
        assert run(tmp_path, "verify", NIL_MINIMAL) == 0
        report = json.loads((tmp_path / "nilcat.verify.json").read_text())
        assert report["pass"] is True
        assert report["checks"]["h_ext_vs_H"]["value"] < 1e-4
        printed = json.loads(capsys.readouterr().out)
        assert printed["pass"] is True
        assert "diagnostic_failures" not in report

    def test_euclidean_cmc_case(self, tmp_path):
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.0},
            "seed": {"family": "cmc-case", "m": 1.0, "a": 0.0, "H": 1.0, "c": 0.0,
                      "u_range": [-1.2, 1.2]},
            "grid": {"nu": 11, "nt": 5, "t_range": [-2.0, 2.0]},
            "output": {"basename": "dd", "formats": ["json"]},
        }
        assert run(tmp_path, "verify", cfg) == 0

    def test_hyperbolic_cosh_member_passes(self, tmp_path):
        # kappa = -4 cosh member of acceptance C3: U reaches about 112 near the
        # window's edge, where the relative rounding of the oracle's first form
        # exceeds the absolute gate unless the derivative steps balance it
        cfg = {
            "space": {"kappa": -4.0, "tau": 0.0},
            "seed": {"family": "cmc-case", "m": 1.0, "a": 0.5, "H": 1.0, "c": 1.0,
                      "u_range": [-3.5, 3.5]},
            "output": {"basename": "cosh", "formats": ["json"]},
        }
        assert run(tmp_path, "verify", cfg) == 0
        report = json.loads((tmp_path / "cosh.verify.json").read_text())
        assert report["pass"] is True
        assert report["checks"]["first_form"]["value"] < 1e-6

    def test_perturbed_explicit_fails(self, tmp_path):
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.0},
            "seed": {
                "family": "explicit", "m": 1.0, "a": 0.0, "H": 0.0,
                "u_range": [-1.5, 1.5],
                "U": "sqrt(u*u + 1) + 0.02*u*u",
            },
            "grid": {"nu": 11, "nt": 5, "t_range": [-2.0, 2.0]},
            "output": {"basename": "bad", "formats": ["json"]},
        }
        assert run(tmp_path, "verify", cfg) == 1
        report = json.loads((tmp_path / "bad.verify.json").read_text())
        assert report["pass"] is False
        assert report["checks"]["cmc_residual"]["value"] > 1e-3

    @pytest.mark.parametrize("raising", ["one-row", "every-row"])
    def test_row_whose_residual_raises_fails_the_check(self, tmp_path, monkeypatch, raising):
        # a row whose CMC residual cannot be evaluated is no passing row, and
        # the report stays JSON (no NaN) when no row evaluates at all: the
        # array pass fails the row, and its float evaluation raises
        floats = []

        def residual(space, seed, H, u, tol, xp=SCALAR):
            if xp is SCALAR:
                floats.append(u)
                raise DomainError("residual refused")
            xp.fails(np.arange(u.size) == 4 if raising == "one-row" else np.ones(u.size, bool))
            return np.zeros(u.size)

        monkeypatch.setattr(cmc, "_residual", residual)
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["output"]["formats"] = ["json"]
        assert run(tmp_path, "verify", cfg) == 1
        assert len(floats) == (1 if raising == "one-row" else cfg["grid"]["nu"])

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        text = (tmp_path / "nilcat.verify.json").read_text()
        report = json.loads(text, parse_constant=reject)
        check = report["checks"]["cmc_residual"]
        assert report["pass"] is False and check["pass"] is False
        assert check["value"] == (0.0 if raising == "one-row" else None)

    # a = 2 - 1e-13 leaves U = 2 - u^2 a validity interval of about +-2.6e-7:
    # at fd_min = 1e-7 the stencils fit 28 of the 98 vertices, at 1e-6 none
    NARROW = {
        "space": {"kappa": 0.0, "tau": 0.0},
        "seed": {"family": "explicit", "m": 1.0, "a": 1.9999999999999, "u_range": [-1.0, 1.0],
                  "U": "2 - u*u", "dU": "-2*u"},
        "output": {"basename": "narrow", "formats": ["json"]},
    }

    @pytest.mark.parametrize("fd_min, failed, measured", [(1e-7, 70, True), (1e-6, 98, False)])
    def test_unmeasured_vertices_fail_their_checks(self, tmp_path, capsys, fd_min, failed, measured):
        # a vertex that cannot be measured fails both oracle checks, whose
        # values are the worst measured vertex (null when none was); the
        # report is written and counts the failures by error class
        assert run(tmp_path, "verify", self.NARROW, [f"tolerances.fd_min={fd_min}"]) == 1
        report = json.loads((tmp_path / "narrow.verify.json").read_text())
        assert report == json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["diagnostic_failures"] == {"StencilOutOfDomain": failed}
        for name in ("h_ext_vs_H", "first_form"):
            check = report["checks"][name]
            assert check["pass"] is False
            assert (check["value"] is not None) is measured
        # H is measured well where it is measured: only the failures fail it
        if measured:
            assert report["checks"]["h_ext_vs_H"]["value"] < report["checks"]["h_ext_vs_H"]["tol"]


class TestExport:
    def test_minimal_two_by_two_obj(self, tmp_path):
        assert run(tmp_path, "export", HELICOID) == 0
        lines = (tmp_path / "heli.obj").read_text().splitlines()
        vs = [l for l in lines if l.startswith("v ")]
        fs = [l for l in lines if l.startswith("f ")]
        assert len(vs) == 4 and len(fs) == 2

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        assert run(tmp_path, "export", HELICOID) == 0
        rows = (tmp_path / "heli.csv").read_text().strip().splitlines()
        header, data = rows[0], rows[1:]
        assert header == "u,t,x,y,z,H_ext,K,cmc_residual"
        for row in data:
            vals = [float(tok) for tok in row.split(",")]
            rewritten = ",".join(f"{v:.16e}" for v in vals)
            assert rewritten == row

    def test_writers_match_per_value_format(self, tmp_path):
        # a 2 x 3 mesh holding the values whose text is easiest to get wrong;
        # the OBJ leaves out its NaN vertex (number 2) and the second quad
        specials = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324]
        vertices = np.array(
            [[1.5, -0.0, 1e-300], [math.inf, -math.inf, 2.0], [math.nan, 1.0, 1.0],
             [3.0, 4.0, 5.0], [0.25, 5e-324, -7.0], [-1e300, 0.0, 1.0 / 3.0]]
        )
        mesh = MeshGrid(
            nu=2, nt=3, us=np.array([-0.0, 1e-300]), ts=np.array([math.nan, 0.5, -math.inf]),
            vertices=vertices, h_ext=np.array(specials),
        )
        # K per row, written nan where h_ext is NaN (vertex 0)
        gauss = [5e-324, -math.inf]
        resid = [math.inf, -0.0]
        cli.write_mesh_csv(str(tmp_path / "m.csv"), mesh, gauss, resid)
        cli.write_obj(str(tmp_path / "m.obj"), mesh)

        fmt = lambda values: [f"{float(v):.16e}" for v in values]
        csv = ["u,t,x,y,z,H_ext,K,cmc_residual"]
        for i in range(2):
            for j in range(3):
                k = 3 * i + j
                K = math.nan if math.isnan(mesh.h_ext[k]) else gauss[i]
                row = (mesh.us[i], mesh.ts[j], *vertices[k], mesh.h_ext[k], K)
                csv.append(",".join(fmt(row + (resid[i],))))
        assert (tmp_path / "m.csv").read_bytes() == ("\n".join(csv) + "\n").encode()
        obj = ["v " + " ".join(fmt(vertices[k])) for k in (0, 1, 3, 4, 5)]
        obj += ["f 1 3 4", "f 1 4 2"]  # the quad (0, 3, 4, 1) in OBJ numbering
        assert (tmp_path / "m.obj").read_bytes() == ("\n".join(obj) + "\n").encode()

    # a 7 x 3 frame: row 3 dropped (NaN vertices), rows 0 and 6 unmeasured
    # edge rows and one unmeasured interior vertex (NaN h_ext, so K is nan
    # there), and in the repeated columns -0.0, +-inf, subnormals and the
    # %.16e ties 2**50 + 0.25 and + 0.75
    TIE, TIE2 = 2.0**50 + 0.25, 2.0**50 + 0.75
    FRAME = dict(
        us=[-0.0, 5e-324, TIE, -math.inf, math.inf, 1.0, -2.5e-310],
        ts=[math.inf, -0.0, TIE2],
        gauss=[1.0, 2.5e-310, TIE, 3.0, -0.0, -math.inf, 2.0],
        resid=[-math.inf, -0.0, 5e-324, TIE2, math.inf, TIE, 1e-300],
    )

    def _frame(self):
        f = self.FRAME
        nu, nt = len(f["us"]), len(f["ts"])
        vertices = np.random.default_rng(16).standard_normal((nu * nt, 3)) * 10.0 ** np.arange(-1, 2)
        vertices[4] = [-0.0, self.TIE, 5e-324]
        vertices[3 * nt : 4 * nt] = math.nan
        h_ext = np.linspace(-1.0, 1.0, nu * nt)
        h_ext[:nt] = h_ext[-nt:] = h_ext[3 * nt : 4 * nt] = math.nan
        h_ext[[7, 13]] = math.nan, -0.0
        return MeshGrid(
            nu=nu, nt=nt, us=np.array(f["us"]), ts=np.array(f["ts"]), vertices=vertices,
            h_ext=h_ext, dropped_rows=[3],
        )

    @staticmethod
    def _reference(mesh, gauss, resid):
        """The frame's CSV and OBJ text, "%.16e" per value."""
        fmt = lambda values: [f"{float(v):.16e}" for v in values]
        csv = ["u,t,x,y,z,H_ext,K,cmc_residual"]
        for i in range(mesh.nu):
            for j in range(mesh.nt):
                k = mesh.nt * i + j
                K = math.nan if math.isnan(mesh.h_ext[k]) else gauss[i]
                row = (mesh.us[i], mesh.ts[j], *mesh.vertices[k], mesh.h_ext[k], K, resid[i])
                csv.append(",".join(fmt(row)))
        kept = [k for k in range(mesh.nu * mesh.nt) if not np.isnan(mesh.vertices[k]).any()]
        number = {k: n + 1 for n, k in enumerate(kept)}
        obj = ["v " + " ".join(fmt(mesh.vertices[k])) for k in kept]
        for i in range(mesh.nu - 1):
            for j in range(mesh.nt - 1):
                quad = [mesh.nt * i + j, mesh.nt * (i + 1) + j, mesh.nt * (i + 1) + j + 1, mesh.nt * i + j + 1]
                if all(c in number for c in quad):
                    a, b, c, d = (number[c] for c in quad)
                    obj += [f"f {a} {b} {c}", f"f {a} {c} {d}"]
        return "\n".join(csv) + "\n", "\n".join(obj) + "\n"

    @pytest.mark.parametrize("formats", [["csv", "obj"], ["csv"], ["obj"]])
    def test_frame_files_match_per_value_format(self, tmp_path, monkeypatch, formats):
        # the frame export formats each distinct number once, and the OBJ and
        # the CSV share the vertex fields: each file is the per-value text
        mesh = self._frame()
        f = self.FRAME
        monkeypatch.setattr(cli, "sample_mesh", lambda *args, **kwargs: mesh)
        monkeypatch.setattr(cli, "_surface", lambda job, chart: None)
        monkeypatch.setattr(cli, "gauss_intrinsic", lambda U, us: np.array(f["gauss"]))
        monkeypatch.setattr(cli, "cmc_residual", lambda *args: np.array(f["resid"]))
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["output"] = {"basename": "frame", "formats": formats}
        job = cli.parse_config(cfg, "export")
        chart = type("Chart", (), {"U": None, "seed": None})()
        _, files = cli._export_mesh(job, chart, str(tmp_path))
        csv, obj = self._reference(mesh, f["gauss"], f["resid"])
        assert [os.path.basename(p) for p in files] == [f"frame.{x}" for x in ("obj", "csv") if x in formats]
        for name, text in (("csv", csv), ("obj", obj)):
            assert (tmp_path / f"frame.{name}").exists() == (name in formats)
            if name in formats:
                assert (tmp_path / f"frame.{name}").read_bytes() == text.encode()
        # the OBJ keeps 6 of the 7 rows and the quads of rows 0-2 and 4-6
        assert obj.count("v ") == 18 and obj.count("f ") == 16
        # K reaches the text on the measured rows only, and every residual
        for value in (*(f["gauss"][i] for i in (1, 2, 4, 5)), *f["resid"]):
            assert f",{value:.16e}" in csv
        assert all(f",{f['gauss'][i]:.16e}," not in csv for i in (0, 3, 6))

    def test_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        out1.mkdir(), out2.mkdir()
        assert run(tmp_path, "export", NIL_MINIMAL, out=out1) == 0
        assert run(tmp_path, "export", NIL_MINIMAL, out=out2) == 0
        for name in ("nilcat.obj", "nilcat.csv", "nilcat.export.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_raw_theta_vertices(self, tmp_path):
        # output.raw_theta sweeps the profile with theta = t (theta0 = 0,
        # m = 1): each vertex is (xi1 cos t, xi1 sin t, xi2 + a t) of the chart
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["output"] = {"basename": "raw", "formats": ["csv"], "raw_theta": True}
        assert run(tmp_path, "export", cfg) == 0
        job = cli.parse_config(cfg, "export")
        chart = cli.make_chart(job, *cli.resolve_profile(job))[0]
        data = np.loadtxt(tmp_path / "raw.csv", delimiter=",", skiprows=1)
        data = data[~np.isnan(data[:, 2])]
        assert len(data) >= (job.nu - 2) * job.nt
        xi1 = np.array([chart.xi1(u) for u in data[:, 0]])
        xi2 = np.array([chart.xi2(u) for u in data[:, 0]])
        t = data[:, 1]
        expected = np.stack([xi1 * np.cos(t), xi1 * np.sin(t), xi2 + job.a * t], axis=-1)
        assert np.max(np.abs(data[:, 2:5] - expected)) <= 1e-14
        theta0 = np.array([chart.theta0(u) for u in data[:, 0]])
        assert np.max(np.abs(theta0)) > 0.1  # the natural chart would differ

    def test_raw_theta_K_is_the_natural_K(self, tmp_path):
        # K is the construction's -U''/U of the row, written where H_ext was
        # measured: the raw chart's column is the natural chart's, row for
        # row, wherever both measured the vertex
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["output"] = {"basename": "nat", "formats": ["csv"]}
        assert run(tmp_path, "export", cfg) == 0
        cfg["output"] = {"basename": "raw", "formats": ["csv"], "raw_theta": True}
        assert run(tmp_path, "export", cfg) == 0
        nat, raw = (np.loadtxt(tmp_path / f"{name}.csv", delimiter=",", skiprows=1) for name in ("nat", "raw"))
        assert np.array_equal(nat[:, :2], raw[:, :2])
        for data in (nat, raw):
            assert np.array_equal(np.isnan(data[:, 6]), np.isnan(data[:, 5]))
        both = ~np.isnan(nat[:, 5]) & ~np.isnan(raw[:, 5])
        assert both.sum() >= len(nat) // 2
        assert np.array_equal(nat[both, 6], raw[both, 6])
        job = cli.parse_config(cfg, "export")
        chart = cli.make_chart(job, *cli.resolve_profile(job))[0]
        assert all(k == gauss_intrinsic(chart.U, u) for u, k in nat[both][:, [0, 6]].tolist())


def _per_value(table, sep, prefix=""):
    return "".join(prefix + sep.join("%.16e" % v for v in row) + "\n" for row in table.tolist())


def _from_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


class TestE16Rows:
    """The writers' table kernel gives the bytes of "%.16e" % v per value."""

    def assert_per_value(self, values, cols=1, sep=",", prefix=""):
        table = np.asarray(values, dtype=float).reshape(-1, cols)
        got, expected = cli._e16_rows(table, sep, prefix), _per_value(table, sep, prefix)
        if got != expected:
            bad = [(g, e) for g, e in zip(got.splitlines(), expected.splitlines()) if g != e]
            pytest.fail(f"{len(bad)} of {len(table)} rows differ, e.g. {bad[:3]}")

    def test_random_bit_patterns(self):
        # every class of double: NaN payloads, infinities, subnormals, zeros
        bits = np.random.default_rng(14).integers(0, 2**64, 200_000, dtype=np.uint64)
        extra = _from_bits(0x7FF0000000000001, 0xFFF8000000000123, 0x1, 0x800FFFFFFFFFFFFF)
        self.assert_per_value(np.concatenate([bits.view(np.float64), extra]), cols=4)

    def test_powers_of_ten_and_neighbours(self):
        # 10**k, rounded, with 8 ulps on each side: where the unrounded
        # scaled value leaves [1e16, 1e17) and the exponent must move
        powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
        values = [powers]
        for direction in (-np.inf, np.inf):
            near = powers
            for _ in range(8):
                near = np.nextafter(near, direction)
                values.append(near)
        values = np.concatenate(values)
        self.assert_per_value(np.concatenate([values, -values]))

    def test_exact_ties(self):
        # 2**50 + 0.25 j: the 17th digit is the tenths, so .25 and .75 are ties
        self.assert_per_value(2.0**50 + 0.25 * np.arange(40_000), cols=8)

    def test_fast_path_edges_and_specials(self):
        edges = [2.0**900, 2.0**-900]
        edges += [np.nextafter(x, d) for x in edges for d in (0.0, np.inf)]
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 9.9999999999999997e-305]
        self.assert_per_value([*edges, *(-x for x in edges), *specials])

    def test_separators_and_prefix(self):
        rng = np.random.default_rng(15)
        table = rng.standard_normal(300) * 10.0 ** rng.integers(-200, 200, 300)
        self.assert_per_value(table, cols=5, sep=",")
        self.assert_per_value(table, cols=3, sep=" ", prefix="v ")

    def test_empty_table(self, tmp_path):
        assert cli._e16_rows(np.empty((0, 3)), " ", "v ") == ""
        # a mesh with no kept vertex still writes one newline
        mesh = MeshGrid(
            nu=2, nt=2, us=np.array([0.0, 1.0]), ts=np.array([0.0, 1.0]),
            vertices=np.full((4, 3), math.nan), h_ext=np.full(4, math.nan),
        )
        cli.write_obj(str(tmp_path / "m.obj"), mesh)
        assert (tmp_path / "m.obj").read_bytes() == b"\n"

class TestIntRows:
    """The OBJ writer's face kernel gives the bytes of "%d" per value."""

    def test_values_of_every_width(self):
        rng = np.random.default_rng(17)
        edges = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10_000, 99_999, 100_000, 10**8, 10**16 - 1]
        values = np.concatenate([edges, rng.integers(0, 10 ** rng.integers(1, 17, 3000))])
        for cols, prefix in ((3, "f "), (2, ""), (1, "index ")):
            table = values[: len(values) // cols * cols].reshape(-1, cols)
            expected = "".join(prefix + " ".join("%d" % v for v in row) + "\n" for row in table.tolist())
            assert cli._int_rows(table, prefix) == expected
        assert cli._int_rows(np.empty((0, 3), dtype=np.int64), "f ") == ""

    def test_obj_faces_with_nan_rows(self, tmp_path):
        # 101,905 kept vertices, so the face indices have 1 to 6 digits; the NaN
        # rows and vertex drop their faces and renumber the rest
        nu, nt = 410, 251
        vertices = np.random.default_rng(18).standard_normal((nu * nt, 3))
        for i in (0, 7, 8, nu - 1):
            vertices[i * nt : (i + 1) * nt] = math.nan
        vertices[200 * nt + 100, 1] = math.nan
        mesh = MeshGrid(
            nu=nu, nt=nt, us=np.linspace(0.0, 1.0, nu), ts=np.linspace(0.0, 1.0, nt),
            vertices=vertices, h_ext=np.zeros(nu * nt),
        )
        cli.write_obj(str(tmp_path / "m.obj"), mesh)
        number, kept = {}, 0
        for k, vertex in enumerate(vertices.tolist()):
            if not any(map(math.isnan, vertex)):
                kept += 1
                number[k] = kept
        faces = []
        for i in range(nu - 1):
            for j in range(nt - 1):
                quad = (i * nt + j, (i + 1) * nt + j, (i + 1) * nt + j + 1, i * nt + j + 1)
                if all(k in number for k in quad):
                    a, b, c, d = (number[k] for k in quad)
                    faces.append("f %d %d %d\nf %d %d %d\n" % (a, b, c, a, c, d))
        text = (tmp_path / "m.obj").read_text()
        assert text.count("v ") == kept > 100_000
        assert text[text.index("f ") :] == "".join(faces)


class TestDiagnosticFailures:
    def test_counts_every_nan_h_ext_outside_dropped_rows(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "euclidean_cmc.json").read_text())
        cfg["output"]["formats"] = ["csv", "json"]
        assert run(tmp_path, "export", cfg) == 0
        report = json.loads((tmp_path / "unduloid.export.json").read_text())
        rows = (tmp_path / "unduloid.csv").read_text().strip().splitlines()[1:]
        nt = cfg["grid"]["nt"]
        nan_h = sum(
            1
            for k, row in enumerate(rows)
            if k // nt not in report["dropped_rows"] and math.isnan(float(row.split(",")[5]))
        )
        assert nan_h > 0
        assert sum(report["diagnostic_failures"].values()) == nan_h


    def test_stencil_below_the_chart_rounding_is_no_derivative(self, tmp_path):
        # at the validity edges the u-stencil halves down to fd_min; below
        # 1e-12 the chart reads u + s at u itself, and that offset must not
        # pass as a derivative: fd_min=1e-300 fails the same 82 vertices
        cfg = json.loads((CONFIG_DIR / "heisenberg_minimal.json").read_text())
        cfg["output"]["formats"] = ["json"]
        reports = []
        for fd_min in (None, 1e-300):
            if fd_min is not None:
                cfg["tolerances"] = {"fd_min": fd_min}
            assert run(tmp_path, "export", cfg) == 0
            reports.append(json.loads((tmp_path / "nilcat.export.json").read_text()))
        for report in reports:
            assert report["diagnostic_failures"] == {"StencilOutOfDomain": 82}
        assert reports[1]["max_abs_h_ext"] == reports[0]["max_abs_h_ext"] < 1e-8

    def test_export_without_csv_measures_the_diagnostics(self, tmp_path):
        # unlike a deform frame, an export measures H/K for its report even
        # when it writes no mesh CSV
        cfg = json.loads((CONFIG_DIR / "heisenberg_minimal.json").read_text())
        reports = []
        for formats in (["obj", "json"], ["csv", "obj", "json"]):
            cfg["output"]["formats"] = formats
            assert run(tmp_path, "export", cfg) == 0
            reports.append(json.loads((tmp_path / "nilcat.export.json").read_text()))
        assert reports[0]["diagnostic_failures"] == {"StencilOutOfDomain": 82}
        assert reports[0]["files"] == ["nilcat.obj"]
        reports[1]["files"] = reports[0]["files"]
        assert reports[0] == reports[1]


class TestDeform:
    def test_three_frame_sweep(self, tmp_path):
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.0},
            "seed": {"family": "explicit", "m": 1.0, "a": 0.0, "u_range": [-1.6, 1.6],
                      "U": "sqrt(u*u + 1)", "dU": "u / sqrt(u*u + 1)"},
            "sweep": {"parameter": "a", "values": [0.0, 0.5, 0.9]},
            "grid": {"nu": 9, "nt": 7, "t_range": [-2.0, 2.0]},
            "output": {"basename": "cat2heli", "formats": ["obj", "json"]},
        }
        assert run(tmp_path, "deform", cfg) == 0
        report = json.loads((tmp_path / "cat2heli.deform.json").read_text())
        assert len(report["frames"]) == 3
        assert report["max_isometry_deviation"] < 1e-6
        for value in (0.0, 0.5, 0.9):
            assert (tmp_path / f"cat2heli_a={value:g}.obj").exists()

    def test_heisenberg_catenoid_unwinding(self, tmp_path):
        # the helicoidal catenoid deformed into a rotation surface
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.5},
            "seed": {"family": "explicit", "m": 1.0, "a": 0.5, "u_range": [-1.8, 1.8],
                      "U": "(u*u + 2)/2", "dU": "u"},
            "sweep": {"parameter": "a", "values": [0.5, 0.25, 0.125, 0.0]},
            "grid": {"nu": 9, "nt": 7, "t_range": [-2.0, 2.0]},
            "output": {"basename": "unwind", "formats": ["obj", "json"]},
        }
        assert run(tmp_path, "deform", cfg) == 0
        report = json.loads((tmp_path / "unwind.deform.json").read_text())
        assert len(report["frames"]) == 4 and not report["frame_errors"]
        assert report["max_isometry_deviation"] < 1e-6

    def test_family_seed_sweep_fixes_profile(self, tmp_path):
        # with a family seed the sweep must vary only the chart pitch: the
        # frames share one metric profile and stay mutually isometric
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.5},
            "seed": {"family": "minimal-case", "m": 1.0, "a": 0.5, "c": 1.0,
                      "u_range": [-1.8, 1.8]},
            "sweep": {"parameter": "a", "values": [0.5, 0.25, 0.0]},
            "grid": {"nu": 9, "nt": 7, "t_range": [-2.0, 2.0]},
            "output": {"basename": "famsweep", "formats": ["json"]},
        }
        assert run(tmp_path, "deform", cfg) == 0
        report = json.loads((tmp_path / "famsweep.deform.json").read_text())
        assert not report["frame_errors"]
        assert report["max_isometry_deviation"] < 1e-6

    def test_profile_resolved_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        real = cli.minimal_U

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "minimal_U", counted)
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.5},
            "seed": {"family": "minimal-case", "m": 1.0, "a": 0.5, "c": 1.0,
                      "u_range": [-1.5, 1.5]},
            "sweep": {"values": [0.5, 0.25, 0.0]},
            "grid": {"nu": 6, "nt": 5, "t_range": [-1.0, 1.0]},
            "output": {"basename": "once", "formats": ["json"]},
        }
        assert run(tmp_path, "deform", cfg) == 0
        assert len(calls) == 1

    def test_matrix_matches_pairwise_isometry_deviation(self, tmp_path):
        # the per-frame grids are shared between pairs; every entry must still
        # be the deviation of its own pair of frames
        from bcvhelix import SurfaceChart, isometry_deviation

        cfg = {
            "space": {"kappa": 0.0, "tau": 0.5},
            "seed": {"family": "minimal-case", "m": 1.0, "a": 0.5, "c": 1.0,
                      "u_range": [-1.5, 1.5]},
            "sweep": {"values": [0.5, 0.25, 0.0]},
            "grid": {"nu": 5, "nt": 5, "t_range": [-1.0, 1.0]},
            "output": {"basename": "pairs", "formats": ["json"]},
        }
        assert run(tmp_path, "deform", cfg) == 0
        matrix = json.loads((tmp_path / "pairs.deform.json").read_text())["isometry_deviation"]
        job = cli.parse_config(cfg, "deform")
        U, meta = cli.resolve_profile(job)
        surfaces = [
            SurfaceChart.from_natural(cli.make_chart(job, U, meta, a=v)[0], t_range=job.t_range)
            for v in job.sweep_values
        ]
        for i in range(3):
            for j in range(3):
                expected = 0.0 if i == j else isometry_deviation(
                    job.space, surfaces[i], surfaces[j], tol=job.tol
                )
                assert matrix[i][j] == expected

    def test_bad_profile_expression_is_config_error(self, tmp_path, capsys):
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.0},
            "seed": {"family": "explicit", "m": 1.0, "a": 0.0, "u_range": [-1.6, 1.6],
                      "U": "sqrt(u*u + 1) + foo"},
            "sweep": {"parameter": "a", "values": [0.0, 0.5]},
            "output": {"basename": "bad", "formats": ["json"]},
        }
        assert run(tmp_path, "deform", cfg) == 2
        assert "config error" in capsys.readouterr().err

    def test_single_value_sweep(self, tmp_path):
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.5},
            "seed": {"family": "minimal-case", "m": 1.0, "a": 0.5, "c": 1.0,
                      "u_range": [-1.5, 1.5]},
            "sweep": {"values": [0.5]},
            "grid": {"nu": 6, "nt": 5, "t_range": [-1.0, 1.0]},
            "output": {"basename": "single", "formats": ["json"]},
        }
        assert run(tmp_path, "deform", cfg) == 0
        report = json.loads((tmp_path / "single.deform.json").read_text())
        assert report["isometry_deviation"] == [[0.0]]
        assert "pair_errors" not in report

    def test_pair_without_shared_rectangle_is_reported(self, tmp_path, capsys):
        # the second frame's validity is +-2.6e-7, narrower than shared_grid's
        # two 1e-6 margins: the pair holds null and its error, the report is
        # written and the sweep fails
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.0},
            "seed": {"family": "explicit", "m": 1.0, "a": 0.0, "u_range": [-1, 1],
                     "U": "2 - u*u", "dU": "-2*u"},
            "sweep": {"parameter": "a", "values": [0.0, 1.9999999999999]},
            "grid": {"nu": 9, "nt": 7, "t_range": [-2.0, 2.0]},
            "output": {"basename": "narrow", "formats": ["json"]},
        }
        assert run(tmp_path, "deform", cfg) == 1
        report = json.loads((tmp_path / "narrow.deform.json").read_text())
        assert report == json.loads(capsys.readouterr().out)
        assert report["frame_errors"] == {} and len(report["frames"]) == 2
        assert report["isometry_deviation"] == [[0.0, None], [None, 0.0]]
        assert report["pair_errors"] == {
            "0,2": "EmptyDomain: charts share no (u, t) parameter rectangle 1e-06 inside their u-ranges"
        }
        assert report["pass"] is False

    def test_pair_whose_grid_cannot_be_measured_is_reported(self, tmp_path):
        # the helicoid member (a = 1) of the shipped catenoid profile meets
        # the axis on the shared grid's row u = 0, where xi1 = |u| and E = 0:
        # every pair with it holds null and the degenerate vertex's error,
        # and the frames' meshes and the report are written
        cfg = json.loads((CONFIG_DIR / "catenoid_to_helicoid.json").read_text())
        assert run(tmp_path, "deform", cfg, overrides=["sweep.values=[0.9, 1.0]"]) == 1
        name = cfg["output"]["basename"]
        report = json.loads((tmp_path / f"{name}.deform.json").read_text())
        values = [0.9, 1.0]
        n = len(values)
        assert report["isometry_deviation"] == [[0.0 if i == j else None for j in range(n)] for i in range(n)]
        assert sorted(report["pair_errors"]) == sorted(
            f"{values[i]:g},{values[j]:g}" for i in range(n) for j in range(i + 1, n)
        )
        assert set(report["pair_errors"].values()) == {
            "DegenerateImmersion: EG - F^2 = 0.000000e+00 <= 0 at (u=0.0, t=-3.1416)"
        }
        assert report["frame_errors"] == {} and report["pass"] is False
        assert all((tmp_path / f"{name}_a={v:g}.obj").exists() for v in values)

    @pytest.mark.parametrize("fd_min", [1e-6, 1e-5])
    def test_shared_grid_margin_follows_fd_min(self, tmp_path, fd_min):
        # the shared grid's end rows sit at least the smallest u-step above
        # fd_min inside the validity ends, so every pair of the shipped sweep
        # is measured and isometric
        cfg = json.loads((CONFIG_DIR / "catenoid_to_helicoid.json").read_text())
        cfg["output"]["formats"] = ["json"]
        assert run(tmp_path, "deform", cfg, overrides=[f"tolerances.fd_min={fd_min}"]) == 0
        report = json.loads((tmp_path / f"{cfg['output']['basename']}.deform.json").read_text())
        assert "pair_errors" not in report and report["pass"] is True
        assert all(dev is not None for row in report["isometry_deviation"] for dev in row)
        assert report["max_isometry_deviation"] < 1e-8

    @pytest.mark.parametrize("name, grids", [("heisenberg_minimal", 4), ("catenoid_to_helicoid", 5)])
    def test_shipped_sweep_measures_each_frame_once_per_grid(self, tmp_path, monkeypatch, name, grids):
        # the pair kernel measures a frame's first form once per distinct
        # shared grid: one per frame where all frames share one u-range,
        # all of a frame's grids in one call
        calls = []
        real = cli.first_forms
        monkeypatch.setattr(cli, "first_forms", lambda *args: calls.append(args[1:3]) or real(*args))
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        cfg["output"]["formats"] = ["json"]
        assert run(tmp_path, "deform", cfg) == 0
        assert len(calls) == len({id(chart) for chart, _ in calls}) == grids
        assert [len(frame_grids) for _, frame_grids in calls] == [1] * grids

    def test_failed_first_form_measured_once_per_grid(self, tmp_path, monkeypatch):
        # the a = 1 frame's first form degenerates on the grid all frames
        # share: it is measured once, and its error is every pair's
        calls = []
        real = cli.first_forms
        monkeypatch.setattr(cli, "first_forms", lambda *args: calls.append(args[1:3]) or real(*args))
        cfg = json.loads((CONFIG_DIR / "catenoid_to_helicoid.json").read_text())
        cfg["sweep"]["values"] = [0, 0.25, 0.5, 0.75, 1.0]
        cfg["output"]["formats"] = ["json"]
        assert run(tmp_path, "deform", cfg) == 1
        assert len(calls) == len({id(chart) for chart, _ in calls}) == 5
        assert [len(frame_grids) for _, frame_grids in calls] == [1] * 5
        report = json.loads((tmp_path / "cat2heli.deform.json").read_text())
        assert report["frame_errors"] == {}
        assert list(report["pair_errors"]) == ["0,1", "0.25,1", "0.5,1", "0.75,1"]
        assert len(set(report["pair_errors"].values())) == 1
        assert report["pair_errors"]["0,1"].startswith("DegenerateImmersion: EG - F^2")

    def test_signed_zero_pitches_are_two_frames(self, tmp_path, monkeypatch):
        # -0 and 0 are distinct frame tags but equal floats: each is its own
        # frame with its own chart, and their pair is measured
        charts = []
        real = cli.first_forms
        monkeypatch.setattr(cli, "first_forms", lambda *args: charts.append(args[1]) or real(*args))
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["sweep"] = {"values": [-0.0, 0.0]}
        cfg["output"]["formats"] = ["json"]
        assert run(tmp_path, "deform", cfg) == 0
        report = json.loads((tmp_path / "nilcat.deform.json").read_text())
        assert [frame["a"] for frame in report["frames"]] == [-0.0, 0.0]
        assert len({id(chart) for chart in charts}) == 2
        assert report["isometry_deviation"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_failed_frame_holds_null_row_and_column(self, tmp_path):
        # a frame in frame_errors holds null in its row and column, its
        # diagonal included; the measured frames keep their pair values
        cfg = json.loads(json.dumps(TestDeformMeasuresWhatItWrites.SWEEP))
        cfg["output"]["formats"] = ["json"]
        assert run(tmp_path, "deform", cfg) == 1
        report = json.loads((tmp_path / "sw.deform.json").read_text())
        matrix = report["isometry_deviation"]
        assert list(report["frame_errors"]) == ["1.2"] and "pair_errors" not in report
        assert matrix[3] == [None] * 4 and [row[3] for row in matrix] == [None] * 4
        assert all(matrix[i][i] == 0.0 for i in range(3))
        assert all(0.0 < matrix[i][j] == matrix[j][i] < 1e-6 for i in range(3) for j in range(3) if i != j)


class TestDeformMeasuresWhatItWrites:
    """A deform frame measures H/K only for the mesh CSV, the one file that
    reads them, and samples no mesh when it writes none; its verdict reads
    only the charts and first forms, so the report is the same either way."""

    # the catenoid-to-helicoid sweep with a frame that fails: at a = 1.2 the
    # chart is invalid at its anchor (U(0) = 1 < a)
    SWEEP = {
        "space": {"kappa": 0.0, "tau": 0.0},
        "seed": {"family": "explicit", "m": 1.0, "a": 0.0, "u_range": [-1.6, 1.6],
                  "U": "sqrt(u*u + 1)", "dU": "u / sqrt(u*u + 1)"},
        "sweep": {"parameter": "a", "values": [0.0, 0.5, 0.9, 1.2]},
        "grid": {"nu": 9, "nt": 7, "t_range": [-2.0, 2.0]},
        "output": {"basename": "sw"},
    }

    def _deform(self, tmp_path, monkeypatch, formats):
        """The sweep's output directory, report and the oracle calls it made."""
        from bcvhelix import oracle

        calls = {"_curvature": 0, "sample_mesh": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(oracle, "_curvature")  # the curvature rows' measurement
        counted(cli, "sample_mesh")
        cfg = json.loads(json.dumps(self.SWEEP))
        cfg["output"]["formats"] = formats
        out = tmp_path / "-".join(formats)
        out.mkdir()
        assert run(tmp_path, "deform", cfg, out=out) == 1  # the a = 1.2 frame fails
        monkeypatch.undo()
        report = json.loads((out / "sw.deform.json").read_text())
        return out, report, calls

    def test_curvature_measured_only_for_the_csv(self, tmp_path, monkeypatch):
        _, _, calls = self._deform(tmp_path, monkeypatch, ["obj", "json"])
        assert calls == {"_curvature": 0, "sample_mesh": 3}
        _, _, calls = self._deform(tmp_path, monkeypatch, ["csv", "obj", "json"])
        assert calls == {"_curvature": 3, "sample_mesh": 3}

    def test_obj_and_report_same_with_or_without_csv(self, tmp_path, monkeypatch):
        plain, report, _ = self._deform(tmp_path, monkeypatch, ["obj", "json"])
        full, full_report, _ = self._deform(tmp_path, monkeypatch, ["csv", "obj", "json"])
        objs = sorted(p.name for p in plain.glob("*.obj"))
        assert objs == ["sw_a=0.5.obj", "sw_a=0.9.obj", "sw_a=0.obj"]
        for name in objs:
            assert (plain / name).read_bytes() == (full / name).read_bytes()
        assert len(report["frame_errors"]) == 1 and report["frame_errors"] == full_report["frame_errors"]
        for frame in full_report["frames"]:
            frame["files"] = [f for f in frame["files"] if not f.endswith(".csv")]
        assert report == full_report

    def test_no_mesh_without_obj_or_csv(self, tmp_path, monkeypatch):
        out, report, calls = self._deform(tmp_path, monkeypatch, ["json"])
        assert calls == {"_curvature": 0, "sample_mesh": 0}
        assert sorted(p.name for p in out.iterdir()) == ["sw.deform.json"]
        _, meshed, _ = self._deform(tmp_path, monkeypatch, ["obj", "json"])
        assert [f["validity"] for f in report["frames"]] == [f["validity"] for f in meshed["frames"]]
        assert all(f["files"] == [] for f in report["frames"])
        for key in ("sweep", "frame_errors", "isometry_deviation", "max_isometry_deviation", "pass"):
            assert report[key] == meshed[key]


class TestConfigValidation:
    def test_zero_m_rejected(self, tmp_path):
        cfg = dict(NIL_MINIMAL)
        cfg = json.loads(json.dumps(cfg))
        cfg["seed"]["m"] = 0.0
        assert run(tmp_path, "verify", cfg) == 2

    def test_bad_format_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["output"]["formats"] = ["obj", "stl"]
        assert run(tmp_path, "verify", cfg) == 2

    def test_empty_u_range_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["seed"]["u_range"] = [2.0, 2.0]
        assert run(tmp_path, "verify", cfg) == 2

    def test_mode_mismatch_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["mode"] = "export"
        assert run(tmp_path, "verify", cfg) == 2

    @pytest.mark.parametrize("key", ["quad_rel", "typo"])
    def test_unknown_tolerance_rejected(self, tmp_path, capsys, key):
        # a tolerance no kernel reads must not be accepted and silently ignored
        assert run(tmp_path, "verify", NIL_MINIMAL, overrides=[f"tolerances.{key}=0.5"]) == 2
        assert f"tolerances.{key}: unknown tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, overrides, path",
        [
            ({"grd": {"nu": 5}}, [], "grd"),
            ({"tolerance": {"fd_first": -1}}, [], "tolerance"),
            ({"output": {"basename": "nilcat", "format": ["csv"]}}, [], "output.format"),
            ({}, ["grid.nuu=5"], "grid.nuu"),
        ],
        ids=["top-level", "top-level-tolerances", "in-section", "override"],
    )
    def test_unknown_field_rejected(self, tmp_path, capsys, edit, overrides, path):
        # a field no command reads must not be accepted and silently ignored,
        # at the top level, in a section or set by --override
        cfg = {**json.loads(json.dumps(NIL_MINIMAL)), **edit}
        assert run(tmp_path, "chart", cfg, overrides=overrides) == 2
        assert capsys.readouterr().err == f"config error: {path}: unknown field\n"
        assert not list(tmp_path.glob("nilcat.*"))

    def test_unknown_command_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "render", NIL_MINIMAL)
        assert exc.value.code == 2
        assert "invalid choice: 'render'" in capsys.readouterr().err

    @pytest.mark.parametrize("root", [[], 3, "text", None])
    def test_non_object_root_with_override_exits_2(self, tmp_path, capsys, root):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(root))
        assert main(["verify", "--config", str(path), "--override", "a=1"]) == 2
        assert "config root must be a JSON object" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2

    def test_one_parser_keeps_no_state_between_calls(self, tmp_path, monkeypatch, capsys):
        # main parses every call with one parser per process: an override of
        # one call is not seen by the next (the append default is not shared),
        # and a bad command or a missing --config still exits 2
        seen = []
        apply = cli.apply_overrides

        def recording(cfg, items):
            seen.append(list(items))
            return apply(cfg, items)

        monkeypatch.setattr(cli, "apply_overrides", recording)
        assert run(tmp_path, "chart", NIL_MINIMAL, overrides=["grid.nuu=5"]) == 2
        assert capsys.readouterr().err == "config error: grid.nuu: unknown field\n"
        assert run(tmp_path, "chart", NIL_MINIMAL) == 0
        assert seen == [["grid.nuu=5"], []]
        assert cli._PARSER.get_default("override") == []
        for argv in (["render", "--config", str(tmp_path / "job.json")], ["verify"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert run(tmp_path, "chart", NIL_MINIMAL) == 0
        assert seen[-1] == []

    @pytest.mark.parametrize(
        "expr",
        [
            "abs(().__class__.__base__.__subclasses__().__len__()) * 0 + u",
            "sqrt(u*u+1) + foo",
            5,
        ],
        ids=["attribute-escape", "unknown-name", "not-a-string"],
    )
    def test_expression_outside_grammar_rejected(self, tmp_path, capsys, expr):
        # a config file must not run code, and an unknown name is a config mistake
        cfg = json.loads(json.dumps(HELICOID))
        cfg["seed"]["U"] = expr
        assert run(tmp_path, "chart", cfg) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            'grid.nu="abc"',
            "grid.nt=[3]",
            "grid.nu=2.7",
            'grid.t_range=["a","b"]',
            'seed.u_range=["x","y"]',
            'seed.u_range=[0,"y"]',
            "sweep.values=0.5",
            'output.raw_theta="false"',
            "seed.a=NaN",
            "space.kappa=-Infinity",
            'seed.u_range=[-2,"inf"]',
            "seed.u_range=[-1e308,1e308]",
            "grid.t_range=[-1e308,1e308]",
            "seed.c=true",
            'output.formats=[["csv"]]',
            'output.formats=[{"a":1}]',
        ],
    )
    def test_malformed_field_is_config_error(self, tmp_path, capsys, override):
        # a field of the wrong type exits 2 with a message, never 1 with a
        # traceback, and a fractional grid size is not truncated; a number
        # must be finite, and true is no number; a range's width must be
        # finite too
        assert run(tmp_path, "verify", NIL_MINIMAL, overrides=[override]) == 2
        assert f"config error: {override.split('=')[0]}:" in capsys.readouterr().err

    def test_nan_tolerance_is_config_error(self):
        # a NaN difference step would never stop the stencil's halving
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["tolerances"] = {"fd_first": "nan"}
        with pytest.raises(ConfigError, match="tolerances.fd_first"):
            cli.parse_config(cfg, "verify")

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("bisect", 0, "> 0"),
            ("fd_min", 0, "> 0"),
            ("fd_min", -1, "> 0"),
            ("fd_first", 0.0, "> 0"),
            ("fd_second", -3e-3, "> 0"),
            ("brioschi_step", 0, "> 0"),
            ("radicand_clamp", -1, ">= 0"),
            ("quad_abs", -1e-10, ">= 0"),
            ("h_ext", -1e-4, ">= 0"),
        ],
    )
    def test_tolerance_sign_is_config_error(self, tmp_path, capsys, key, value, rule):
        # a zero step never fits a stencil, a zero bisection width never
        # ends, and no tolerance is negative: each exits 2 at once
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["tolerances"] = {key: value}
        with pytest.raises(ConfigError, match=f"tolerances.{key}: must be {rule}, got {value!r}"):
            cli.parse_config(cfg, "verify")
        assert run(tmp_path, "verify", cfg) == 2
        assert f"config error: tolerances.{key}: must be {rule}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["radicand_clamp", "domain_margin", "quad_abs", "isometry"])
    def test_zero_tolerance_accepted(self, key):
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["tolerances"] = {key: 0}
        job = cli.parse_config(cfg, "verify")
        assert (job.check_tol[key] if key in job.check_tol else getattr(job.tol, key)) == 0.0

    def test_power_of_integer_literals_cannot_hang(self, tmp_path):
        # ** is a float power: 9**9**9 overflows at once instead of starting
        # an exact integer power, so the chart has no validity interval
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.0},
            "seed": {"family": "explicit", "m": 1.0, "a": 0.0, "u_range": [-2.0, 2.0],
                     "U": "2 + u*u + 0*9**9**9"},
        }
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run(
            [sys.executable, "-m", "bcvhelix.cli", "chart", "--config", str(cfg_path),
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 1
        assert "no validity interval" in done.stderr

    def test_power_is_float_power_on_both_paths(self):
        fn = cli._compile_expr("u ** 2 + 2 ** 0.5 * u ** -1 + 3 ** 2", "seed.U")
        us = np.array([0.5, 1.3, -2.25])
        want = [u ** 2 + 2.0 ** 0.5 * u ** -1.0 + 9.0 for u in us.tolist()]
        assert fn(us).tolist() == want == [fn(u) for u in us.tolist()]
        assert math.isnan(cli._compile_expr("u ** 0.5", "seed.U")(np.array([-1.0]))[0])
        with pytest.raises(BcvHelixError, match="evaluation failed at u=-1.0"):
            cli._compile_expr("u ** 0.5", "seed.U")(-1.0)

    def test_power_leaving_the_reals_fails_only_its_element(self):
        # a power that leaves the reals raises ValueError, a mathematical
        # error: only that element is NaN, and the float path says why
        fn = cli._compile_expr("u ** 0.5", "seed.U")
        assert fn(np.array([-1.0, 4.0])).tolist()[1] == 2.0
        assert math.isnan(fn(np.array([-1.0, 4.0]))[0])
        with pytest.raises(ValueError, match="not a real number"):
            cli._pow(-1.0, 0.5)
        with pytest.raises(BcvHelixError, match="-1.0 \\*\\* 0.5 is not a real number"):
            fn(-1.0)

    @pytest.mark.parametrize("basename", ["../escaped", "sub/name", "", ".", "..", 7, "a\u0000b"])
    def test_basename_must_be_a_file_name(self, tmp_path, capsys, basename):
        # every file goes to <out>/<basename>...: a path would write
        # elsewhere, and no file name holds a NUL
        out = tmp_path / "out"
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["output"]["basename"] = basename
        assert run(tmp_path, "verify", cfg, out=out) == 2
        assert "config error: output.basename:" in capsys.readouterr().err
        outside = [
            p for p in tmp_path.rglob("*")
            if p.name != "job.json" and p != out and out not in p.parents
        ]
        assert outside == []

    @pytest.mark.parametrize(
        "values", [[0.1234567, 0.1234568], [0.5, 0.25, 0.5]], ids=["close", "repeated"]
    )
    def test_sweep_values_sharing_a_frame_tag_rejected(self, tmp_path, capsys, values):
        # frames are named by the %g tag of their value: a shared tag would
        # overwrite one frame's files with the other's
        overrides = [f"sweep.values={json.dumps(values)}"]
        assert run(tmp_path, "deform", NIL_MINIMAL, overrides=overrides) == 2
        err = capsys.readouterr().err
        assert f"config error: sweep.values: {values[0]!r} and {values[-1]!r}" in err
        assert f"a={values[0]:g}" in err
        assert not list(tmp_path.glob("nilcat_a=*"))

    def test_override_changes_grid(self, tmp_path, capsys):
        assert run(tmp_path, "classify", NIL_MINIMAL, overrides=["space.kappa=1.0"]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "Sphere"


class TestOutputErrors:
    """An output directory or file the system refuses exits 2 with a message
    on stderr, as the module's exit status promises for I/O errors."""

    @pytest.mark.parametrize(
        "out, message", [("file/sub", "Not a directory"), ("file", "File exists")], ids=["below", "at"]
    )
    def test_out_at_or_below_a_regular_file(self, tmp_path, capsys, out, message):
        (tmp_path / "file").write_text("")
        assert run(tmp_path, "classify", NIL_MINIMAL, out=tmp_path / out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_writer_that_cannot_replace_its_file(self, tmp_path, capsys):
        # a directory where the report goes: the writer's rename fails, and
        # its temporary file is removed
        (tmp_path / "nilcat.classify.json").mkdir()
        assert run(tmp_path, "classify", NIL_MINIMAL) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "nilcat.classify.json"]


class TestChartAndCmcModes:
    def test_explicit_chart_profile(self, tmp_path):
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.0},
            "seed": {"family": "explicit", "m": 1.0, "a": 0.0,
                      "u_range": [-2.0, 2.0], "U": "sqrt(u*u + 1)",
                      "dU": "u / sqrt(u*u + 1)"},
            "grid": {"nu": 11, "nt": 5, "t_range": [-1.0, 1.0]},
            "output": {"basename": "cat", "formats": ["csv", "json"]},
        }
        assert run(tmp_path, "chart", cfg) == 0
        rows = (tmp_path / "cat.profile.csv").read_text().strip().splitlines()
        for row in rows[1:]:
            u, xi1, xi2, th0, U = map(float, row.split(","))
            assert abs(xi1 - math.sqrt(u * u + 1)) < 1e-10
            assert abs(xi2 - math.asinh(u)) < 1e-8
            assert th0 == 0.0

    def test_fd_steps_reach_explicit_seed_without_dU(self, tmp_path):
        # with no dU, U' is a difference of U with the job's fd_first step
        cfg = {
            "space": {"kappa": 0.0, "tau": 0.0},
            "seed": {"family": "explicit", "m": 1.0, "a": 0.3,
                     "u_range": [-2.0, 2.0], "U": "sqrt(u*u + 1)"},
            "grid": {"nu": 21},
            "output": {"basename": "cat", "formats": ["csv"]},
        }
        profiles = {}
        for step in (None, 3e-4, 1e-2):
            out = tmp_path / str(step)
            overrides = () if step is None else (f"tolerances.fd_first={step}",)
            assert run(tmp_path, "chart", cfg, overrides, out=out) == 0
            profiles[step] = (out / "cat.profile.csv").read_bytes()
        assert profiles[None] == profiles[3e-4]  # the default step
        assert profiles[1e-2] != profiles[None]

    @pytest.mark.parametrize("command", ["chart", "verify", "export", "deform"])
    def test_one_point_family_domain_is_an_error(self, tmp_path, capsys, command):
        # the Nil3 minimal family at a = 1.5 admits only u = -1 of the
        # window [-1, 1]: one error line and exit 1, not a traceback
        cfg = json.loads(json.dumps(NIL_MINIMAL))
        cfg["seed"].update(a=1.5, u_range=[-1.0, 1.0])
        cfg["sweep"] = {"parameter": "a", "values": [1.5, 0.5]}
        assert run(tmp_path, command, cfg) == 1
        assert capsys.readouterr().err == "error: U^2 admits only u=-1.0 in the window [-1.0, 1.0]\n"

    def test_catenoid_profile_has_no_negative_zero(self, tmp_path):
        # theta0 of the catenoid (a = 0) is exactly zero on both sides of u0
        cfg = json.loads(json.dumps(HELICOID))
        cfg["seed"].update(a=0.0, u_range=[-2.0, 2.0])
        cfg["grid"] = {"nu": 200}
        cfg["output"] = {"basename": "cat", "formats": ["csv"]}
        assert run(tmp_path, "chart", cfg) == 0
        rows = (tmp_path / "cat.profile.csv").read_text().strip().splitlines()
        assert [row.split(",")[3] for row in rows[1:]] == ["0.0000000000000000e+00"] * 200
        assert not any(cell.startswith("-0.0000000000000000e+00")
                       for row in rows[1:] for cell in row.split(","))

    def test_cmc_mode_reports_case(self, tmp_path, capsys):
        cfg = {
            "space": {"kappa": -4.0, "tau": 0.0},
            "seed": {"family": "cmc-case", "m": 1.0, "a": 0.5, "H": 1.0,
                      "c": 1.0, "u_range": [-2.0, 2.0]},
            "grid": {"nu": 9, "nt": 5, "t_range": [-1.0, 1.0]},
            "output": {"basename": "hyp", "formats": ["json"]},
        }
        assert run(tmp_path, "cmc", cfg) == 0
        report = json.loads((tmp_path / "hyp.cmc.json").read_text())
        assert report["seed"]["case"] == "HyperbolicCosh"


class TestShippedConfigs:
    CONFIG_DIR = __file__.rsplit("/", 2)[0] + "/configs"

    def test_all_shipped_configs_verify_or_deform(self, tmp_path):
        import pathlib

        for path in sorted(pathlib.Path(self.CONFIG_DIR).glob("*.json")):
            cfg = json.loads(path.read_text())
            cfg["grid"] = {"nu": 7, "nt": 5, "t_range": [-1.0, 1.0]}  # keep it quick
            command = "deform" if cfg.get("sweep") else "verify"
            assert run(tmp_path, command, cfg) == 0, path.name


class TestWithoutScipy:
    # the package needs numpy only; scipy serves the tests

    def python(self, code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )

    def test_verify_runs_with_scipy_blocked(self, tmp_path):
        # None in sys.modules makes every import of scipy raise ImportError
        config = str(CONFIG_DIR / "heisenberg_minimal.json")
        done = self.python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from bcvhelix.cli import main\n"
            f"sys.exit(main(['verify', '--config', {config!r}, '--out', {str(tmp_path)!r}]))\n"
        )
        assert done.returncode == 0, done.stderr

    def test_import_loads_no_scipy(self):
        done = self.python(
            "import sys\n"
            "import bcvhelix.cli\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


def count_chart_reads(monkeypatch, sizes=None):
    """The charts of the top-level ``oracle._fit_rows`` calls from now on:
    one chart query each, the splits of a refused batch not counted;
    ``sizes``, if given, gains each query's number of abscissae."""
    from bcvhelix import oracle

    reads, depth = [], [0]
    real = oracle._fit_rows

    def counted(chart, xs, starts):
        if not depth[0]:
            reads.append(chart)
            if sizes is not None:
                sizes.append(xs.size)
        depth[0] += 1
        try:
            return real(chart, xs, starts)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(oracle, "_fit_rows", counted)
    return reads


class TestOneChartReadPerFrame:
    """Each deform frame and each export reads its chart once: its mesh
    vertices, curvature rows, orientation probe and shared first-form grids
    are one query."""

    @pytest.mark.parametrize("name, frames", [("heisenberg_minimal", 4), ("catenoid_to_helicoid", 5)])
    @pytest.mark.parametrize("formats", [None, ["json"]])
    def test_shipped_deform_reads_each_frame_once(self, tmp_path, monkeypatch, name, frames, formats):
        reads = count_chart_reads(monkeypatch)
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        if formats is not None:
            cfg["output"]["formats"] = formats
        assert run(tmp_path, "deform", cfg) == 0
        assert len(reads) == len({id(chart) for chart in reads}) == frames

    @pytest.mark.parametrize("name", ["heisenberg_minimal", "catenoid_to_helicoid", "euclidean_cmc"])
    def test_export_reads_its_chart_once(self, tmp_path, monkeypatch, name):
        reads = count_chart_reads(monkeypatch)
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        cfg.pop("sweep", None)
        assert run(tmp_path, "export", cfg) == 0
        assert len(reads) == 1

    # explicit seeds whose chart refuses every mesh row but the middle one,
    # at u0, where xi1 = 0 (m U = a at u = 0): the values of the parent, with
    # its separate queries for the vertices, the curvature rows and each grid
    REFUSING = [
        pytest.param({"kappa": 0.0, "tau": 0.0}, "2 - u*u", "-2*u", [1.0, 0.5], id="R3-a1"),
        pytest.param({"kappa": 1.0, "tau": 0.0}, "1 + 0.5*cos(3*u)", "-1.5*sin(3*u)", [0.75, 0.375], id="S2xR-a0.75"),
    ]

    @pytest.mark.parametrize("space, U, dU, pitches", REFUSING)
    def test_refused_rows_as_with_separate_queries(self, tmp_path, space, U, dU, pitches):
        cfg = {
            "space": space,
            "seed": {"family": "explicit", "U": U, "dU": dU, "m": 0.5, "a": pitches[0], "u_range": [-1.0, 1.0]},
            "sweep": {"parameter": "a", "values": pitches},
            "grid": {"nu": 17, "nt": 9},
            "output": {"basename": "s", "formats": ["csv", "json"]},
        }
        assert run(tmp_path, "export", cfg) == 0
        report = json.loads((tmp_path / "s.export.json").read_text())
        assert report["dropped_rows"] == [i for i in range(17) if i != 8]
        assert report["diagnostic_failures"] == {"DegenerateRadius": 9}
        assert report["max_abs_h_ext"] is None
        cfg["grid"]["nu"] = 9
        assert run(tmp_path, "deform", cfg) == 1
        report = json.loads((tmp_path / "s.deform.json").read_text())
        tags = ",".join(f"{a:g}" for a in pitches)
        assert report["pair_errors"] == {
            tags: "EmptyDomain: charts share no (u, t) parameter rectangle 1e-06 inside their u-ranges"
        }

    def test_pair_error_from_a_frames_grid(self, tmp_path):
        # the S3 minimal family at m 0.5: the a = 0.5 frame's chart refuses
        # a stencil abscissa of the grid it shares with the a = 0.25 frame
        cfg = {
            "space": {"kappa": 1.0, "tau": 0.5},
            "seed": {"family": "minimal-case", "m": 0.5, "a": 0.5, "c": 0.0, "u_range": [-2.0, 2.0]},
            "sweep": {"parameter": "a", "values": [0.5, 0.25]},
            "grid": {"nu": 9, "nt": 9},
            "output": {"basename": "s", "formats": ["csv", "json"]},
        }
        assert run(tmp_path, "deform", cfg) == 1
        report = json.loads((tmp_path / "s.deform.json").read_text())
        assert report["pair_errors"] == {
            "0.5,0.25": "NegativeRadicand: xi2 radicand = -1.421085e-12 < 0 at u=1.2253736645524618"
        }
        assert [frame["validity"] for frame in report["frames"]] == [[-2.0, 1.23046672338387], [-2.0, 2.0]]


class TestObjFacesOncePerCommand:
    def test_deform_formats_the_faces_once(self, tmp_path, monkeypatch):
        # two frames keep every vertex: their faces are one table, formatted
        # once, and each OBJ is the one an export of its pitch writes
        cfg = json.loads((CONFIG_DIR / "catenoid_to_helicoid.json").read_text())
        cfg["sweep"]["values"] = [0.0, 0.5]
        calls = []
        real = cli._int_rows
        monkeypatch.setattr(cli, "_int_rows", lambda *args: calls.append(args) or real(*args))
        assert run(tmp_path, "deform", cfg) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        for value in (0.0, 0.5):
            one = tmp_path / f"export-{value:g}"
            one.mkdir()
            cfg = json.loads((CONFIG_DIR / "catenoid_to_helicoid.json").read_text())
            del cfg["sweep"]
            cfg["seed"]["a"] = value
            assert run(one, "export", cfg, out=one) == 0
            assert (one / "cat2heli.obj").read_bytes() == (tmp_path / f"cat2heli_a={value:g}.obj").read_bytes()


class TestExplicitSqrt:
    """sqrt in an explicit U or dU is numpy's on arrays: correctly rounded
    under IEEE 754, so math.sqrt's bits, and NaN where math.sqrt raises."""

    VALUES = [
        -0.0, 0.0, 5e-324, 1.5e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
        math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0, 1e-300, 1e300,
        sys.float_info.max, math.inf, math.nan, -5e-324, -1.0, -sys.float_info.max, -math.inf,
    ]

    def test_array_is_math_sqrt_bit_for_bit(self):
        fn = cli._compile_expr("sqrt(u)", "seed.U")
        got = fn(np.array(self.VALUES))
        for u, value in zip(self.VALUES, got.tolist()):
            if u < 0.0 or math.isnan(u):  # math.sqrt raises, or gives NaN
                assert math.isnan(value), u
            else:
                assert np.float64(value).view(np.uint64) == np.float64(math.sqrt(u)).view(np.uint64), u

    def test_negative_elements_fail(self):
        # NaN ** 0 is 1.0: only the failure record keeps a negative
        # element's NaN, as the float path raises there
        fn = cli._compile_expr("sqrt(u) ** 0", "seed.U")
        assert np.isnan(fn(np.array([-1.0, -5e-324, -math.inf]))).all()
        assert fn(np.array([-0.0, 4.0, math.inf])).tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(BcvHelixError, match="math domain error"):
            fn(-1.0)

    def test_float_path_is_math_sqrt(self):
        fn = cli._compile_expr("sqrt(u)", "seed.U")
        for u in self.VALUES:
            if u < 0.0:
                with pytest.raises(BcvHelixError):
                    fn(u)
            elif not math.isnan(u):
                assert np.float64(fn(u)).view(np.uint64) == np.float64(math.sqrt(u)).view(np.uint64)

    def test_composite_expression_is_the_float_path(self):
        fn = cli._compile_expr("sqrt(u*u + 1) - u / sqrt(u*u + 1)", "seed.U")
        us = np.linspace(-3.0, 3.0, 61)
        assert fn(us).view(np.uint64).tolist() == np.array([fn(u) for u in us.tolist()]).view(np.uint64).tolist()


def _verify_configs():
    """(name, config) of the benchmark's 12 verify families and the three
    shipped configs."""
    jobs = [(job.name, job.config) for job in inputs._fixed_jobs("verify")]
    for name in ("heisenberg_minimal", "catenoid_to_helicoid", "euclidean_cmc"):
        jobs.append((name, json.loads((CONFIG_DIR / f"{name}.json").read_text())))
    return jobs


VERIFY_CONFIGS = _verify_configs()


class TestOrientOnlyForSignedH:
    """Only a mesh CSV writes a signed H_ext: ``verify`` and an ``export``
    without "csv" give their chart a fixed sign and run no orientation
    probe, while ``export`` and ``deform`` with a CSV still probe."""

    @staticmethod
    def count_probes(monkeypatch):
        from bcvhelix import oracle

        signs = []
        real = oracle._orientation

        def counted(*args):
            signs.append(real(*args))
            return signs[-1]

        monkeypatch.setattr(oracle, "_orientation", counted)
        return signs

    @pytest.mark.parametrize("name, cfg", VERIFY_CONFIGS, ids=[name for name, _ in VERIFY_CONFIGS])
    def test_verify_same_with_or_without_the_probe(self, tmp_path, monkeypatch, capsys, name, cfg):
        signs = self.count_probes(monkeypatch)
        fixed, probed = tmp_path / "fixed", tmp_path / "probed"
        code = run(tmp_path, "verify", cfg, out=fixed)
        out = capsys.readouterr().out
        assert signs == []

        class Unsigned(SurfaceChart):  # the chart as a library caller builds it
            def __init__(self, *args, orient=None, **kwargs):
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "SurfaceChart", Unsigned)
        assert run(tmp_path, "verify", cfg, out=probed) == code
        assert capsys.readouterr().out == out
        # every family probes to -1: the fixed sign +1 flips each H
        assert signs == [-1.0]
        assert sorted(p.name for p in probed.iterdir()) == sorted(p.name for p in fixed.iterdir())
        for path in fixed.iterdir():
            assert (probed / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name, cfg", VERIFY_CONFIGS[:12], ids=[name for name, _ in VERIFY_CONFIGS[:12]])
    def test_verify_reads_no_probe_rows(self, tmp_path, monkeypatch, name, cfg):
        # one chart query: the 14 check rows x 9 stencil abscissae at the
        # default grid, without the probe's 7 x 9
        signs, sizes = self.count_probes(monkeypatch), []
        count_chart_reads(monkeypatch, sizes)
        run(tmp_path, "verify", cfg)
        assert sizes == [126] and signs == []

    @pytest.mark.parametrize("name", ["heisenberg_minimal", "catenoid_to_helicoid", "euclidean_cmc"])
    def test_export_probes_only_for_the_csv(self, tmp_path, monkeypatch, name):
        signs = self.count_probes(monkeypatch)
        reports = {}
        for formats in (["csv", "json"], ["obj", "json"], ["json"]):
            cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
            cfg.pop("sweep", None)
            cfg["output"]["formats"] = formats
            out = tmp_path / "-".join(formats)
            signs.clear()
            assert run(tmp_path, "export", cfg, out=out) == 0
            assert len(signs) == ("csv" in formats)
            report = json.loads((out / f"{cfg['output']['basename']}.export.json").read_text())
            del report["files"]
            reports["-".join(formats)] = report
        assert reports["csv-json"] == reports["obj-json"] == reports["json"]

    def test_deform_with_a_csv_probes_each_frame(self, tmp_path, monkeypatch):
        signs = self.count_probes(monkeypatch)
        cfg = json.loads((CONFIG_DIR / "heisenberg_minimal.json").read_text())
        assert "csv" in cfg["output"]["formats"]
        assert run(tmp_path, "deform", cfg) == 0
        assert len(signs) == len(cfg["sweep"]["values"]) == 4
