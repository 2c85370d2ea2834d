"""Command-line interface: exit codes, outputs, determinism, schemas."""

import argparse
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import chargedbh as cb
from chargedbh.cli import _build_parser, main


def run(args):
    return main(args)


class TestRntReport:
    def test_schwarzschild(self, tmp_path, schema_validator):
        out = tmp_path / "r.json"
        assert run(["rnt-report", "--n", "3", "--m", "1", "--q", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        schema_validator(doc, "rnt_report.schema.json")
        assert doc["r_plus"] == 2.0
        penrose = [c for c in doc["certificates"] if c["name"] == "penrose"][0]
        assert abs(penrose["slack"]) < 1e-12

    def test_charged_penrose_slack_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["rnt-report", "--n", "3", "--m", "1", "--q", "0.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        penrose = [c for c in doc["certificates"] if c["name"] == "penrose"][0]
        assert abs(penrose["slack"]) < 1e-12

    def test_naked_singularity_exit_2(self, capsys):
        assert run(["rnt-report", "--n", "3", "--m", "1", "--q", "2"]) == 2
        assert "naked singularity regime" in capsys.readouterr().err

    def test_extremal_embedding_marked(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["rnt-report", "--n", "3", "--m", "1", "--q", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["extremal"] is True
        assert doc["embedding"] == []
        assert doc["embedding_note"].startswith("n/a")


class TestImcfRun:
    def test_sphere_run(self, tmp_path, schema_validator):
        csv = tmp_path / "f.csv"
        out = tmp_path / "f.json"
        rc = run([
            "imcf-run", "--n", "3", "--resolution", "32", "--shape", "sphere",
            "--radius", "1", "--t-end", "0.2", "--dt", "0.002", "--sample-every", "20",
            "--charge", "0.5", "--csv", str(csv), "--json", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        schema_validator(doc, "imcf_summary.schema.json")
        assert doc["completed"] and doc["monotonicity"]["decay_non_increasing"]
        assert doc["chain"]["ordered"]
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,area,intH,roundness,M,I0,I1,I2"
        assert len(lines) >= 3

    def test_sphere_decay_column_constant(self, tmp_path):
        csv = tmp_path / "f.csv"
        run([
            "imcf-run", "--n", "3", "--resolution", "32", "--shape", "sphere",
            "--t-end", "0.3", "--dt", "0.003", "--sample-every", "10",
            "--csv", str(csv), "--json", str(tmp_path / "f.json"),
        ])
        rows = np.loadtxt(csv, delimiter=",", skiprows=1)
        m_col = rows[:, 4]
        assert np.abs(m_col - m_col[0]).max() < 1e-10

    def test_spheroid_decay_non_increasing(self, tmp_path):
        csv = tmp_path / "f.csv"
        rc = run([
            "imcf-run", "--n", "4", "--resolution", "32", "--shape", "spheroid",
            "--a", "1", "--c", "1.6", "--t-end", "0.5", "--dt", "0.005",
            "--sample-every", "5", "--csv", str(csv), "--json", str(tmp_path / "f.json"),
        ])
        assert rc == 0
        rows = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.diff(rows[:, 4]).max() <= 1e-8

    def test_breakdown_exit_3_partial_csv(self, tmp_path, schema_validator):
        csv = tmp_path / "f.csv"
        out = tmp_path / "f.json"
        rc = run([
            "imcf-run", "--n", "3", "--mode", "full", "--resolution", "16",
            "--shape", "spheroid", "--a", "1", "--c", "0.4", "--t-end", "2",
            "--dt", "0.5", "--safety-factor", "1e9",
            "--csv", str(csv), "--json", str(out),
        ])
        assert rc == 3
        doc = json.loads(out.read_text())
        schema_validator(doc, "imcf_summary.schema.json")
        assert not doc["completed"] and doc["breakdown"] is not None
        assert len(csv.read_text().splitlines()) >= 2

    def test_bad_surface_file_exit_2(self, tmp_path):
        bad = tmp_path / "s.txt"
        bad.write_text("# nonsense\n1 2 3\n")
        rc = run(["imcf-run", "--surface", str(bad), "--json", str(tmp_path / "o.json")])
        assert rc == 2

    def test_surface_file_input(self, tmp_path):
        grid = cb.axisymmetric_grid(3, 32)
        cb.save_surface(cb.make_spheroid(grid, 1.0, 1.3), tmp_path / "s.txt")
        rc = run([
            "imcf-run", "--n", "3", "--surface", str(tmp_path / "s.txt"),
            "--t-end", "0.1", "--dt", "0.002", "--json", str(tmp_path / "o.json"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("mode", ["axisymmetric", "full"])
    def test_surface_file_reports_its_resolution(self, tmp_path, mode):
        grid = cb.axisymmetric_grid(3, 32) if mode == "axisymmetric" else cb.full_grid(32, 64)
        cb.save_surface(cb.make_spheroid(grid, 1.0, 1.3), tmp_path / "s.txt")
        out = tmp_path / "o.json"
        rc = run([
            "imcf-run", "--n", "3", "--surface", str(tmp_path / "s.txt"),
            "--t-end", "0.01", "--dt", "0.01", "--json", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert (doc["grid_mode"], doc["resolution"]) == (mode, 32)


class TestVerify:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_text(text)
        return str(path)

    def test_exact_family_all_pass(self, tmp_path, schema_validator):
        data = self._write(tmp_path, "n = 4\nprofile = rnt\nm = 2\nq = 1\n")
        out = tmp_path / "v.json"
        assert run(["verify", "--data", data, "--resolution", "48", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        schema_validator(doc, "verify_bundle.schema.json")
        assert doc["mass"]["total"] == pytest.approx(2.0, abs=1e-6)
        assert doc["adm_mass_limit"] == pytest.approx(2.0, abs=1e-4)
        assert all(c["verdict"] == "pass" for c in doc["certificates"])

    def test_undercharged_field_passes_with_slack(self, tmp_path):
        data = self._write(
            tmp_path, "n = 3\nprofile = rnt\nm = 1\nq = 0.5\ncharge_scale = 0.9\n"
        )
        out = tmp_path / "v.json"
        assert run(["verify", "--data", data, "--resolution", "48", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        penrose = [c for c in doc["certificates"] if c["name"] == "penrose"][0]
        assert penrose["verdict"] == "pass" and penrose["slack"] > 1e-3

    def test_overcharged_field_exit_4(self, tmp_path, schema_validator):
        data = self._write(
            tmp_path, "n = 3\nprofile = rnt\nm = 1\nq = 0.5\ncharge_scale = 1.1\n"
        )
        out = tmp_path / "v.json"
        assert run(["verify", "--data", data, "--resolution", "48", "--out", str(out)]) == 4
        doc = json.loads(out.read_text())
        schema_validator(doc, "verify_bundle.schema.json")
        assert not doc["energy_condition"]["ok"]
        assert len(doc["energy_condition"]["residual_profile"]) > 0

    def test_table_reports_tail_uncertainty_without_raw_warning(self, tmp_path, schema_validator):
        # a fresh interpreter with default warning filters, as from a shell
        r = np.geomspace(1.0, 1e4, 200)
        np.savetxt(tmp_path / "profile.tsv", np.column_stack([r, np.sqrt(2.0 / r)]))
        data = self._write(tmp_path, "n = 3\nprofile = table\ntable = profile.tsv\n")
        out = tmp_path / "v.json"
        script = (
            "import sys; from chargedbh.cli import main; "
            f"sys.exit(main(['verify', '--data', {data!r}, '--resolution', '16', "
            f"'--out', {str(out)!r}]))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cb.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "TruncationWarning" not in proc.stderr
        doc = json.loads(out.read_text())
        schema_validator(doc, "verify_bundle.schema.json")
        assert doc["mass"]["tail_uncertainty"] > 1e-6

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["verify", "--data", str(tmp_path / "absent.txt")]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n = 3\nprofile = rnt\nq = 0.5\n", "missing required key 'm'"),
            ("n = 3\nprofile = rnt\nm = 1\n", "missing required key 'q'"),
            ("n = 3\nprofile = rnt\nm = 1\nq = 0.5\nfield = nonsense\n", "field must be"),
            ("n = 3\nprofile = rnt\nm = 1\nq = 0.5\ncharg = 2\n", "unknown key(s)"),
        ],
    )
    def test_bad_data_file_exit_2(self, tmp_path, capsys, text, message):
        data = self._write(tmp_path, text)
        assert run(["verify", "--data", data]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err


class TestSweep:
    def test_grid_rows_and_zero_slack(self, tmp_path):
        csv = tmp_path / "s.csv"
        rc = run([
            "sweep", "--n-list", "3,4,5", "--m-list", "1", "--q-list", "0,0.5,0.99",
            "--q-rel", "--csv", str(csv),
        ])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 10  # header + 9 rows
        header = lines[0].split(",")
        i_slack = header.index("penrose_slack")
        for line in lines[1:]:
            assert abs(float(line.split(",")[i_slack])) < 1e-10

    def test_extremal_row_flagged(self, tmp_path):
        csv = tmp_path / "s.csv"
        run(["sweep", "--n-list", "3", "--m-list", "1", "--q-list", "1", "--csv", str(csv)])
        lines = csv.read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        assert row[header.index("extremal")] == "yes"
        assert row[header.index("u_at_2rplus")] == "n/a"
        assert row[header.index("r_plus")] == "1"

    def test_invalid_point_carries_error_column(self, tmp_path):
        csv = tmp_path / "s.csv"
        rc = run(["sweep", "--n-list", "3", "--m-list", "1", "--q-list", "0,2", "--csv", str(csv)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 3
        assert "naked singularity" in lines[2]

    def test_overflowing_point_carries_error_column(self, tmp_path):
        csv = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["sweep", "--n-list", "3,1000", "--m-list", "1,1e300", "--q-list", "0.5",
                      "--csv", str(csv)])
        assert rc == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [row[-1] for row in rows] == [
            "",
            "outer horizon radius overflows for m = 1e+300",
            "unit sphere area overflows in dimension n = 1000",
            "outer horizon radius overflows for m = 1e+300",
        ]
        assert not re.search(r"\b(nan|inf)\b", csv.read_text())

    def test_empty_grid_exit_2(self, tmp_path):
        assert run(["sweep", "--n-list", "", "--m-list", "1", "--q-list", "0"]) == 2

    def test_jobs_preserve_order(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--n-list", "3,4,5,6", "--m-list", "1,2", "--q-list",
                "0,0.3,0.9", "--q-rel"]
        run(args + ["--csv", str(a), "--jobs", "1"])
        run(args + ["--csv", str(b), "--jobs", "4"])
        assert a.read_bytes() == b.read_bytes()


def test_commands_never_import_scipy(tmp_path):
    # scipy is a test-only dependency; a fresh interpreter running one of
    # each command must not load it
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import chargedbh
        from chargedbh.cli import main

        r = np.geomspace(1.0, 1e4, 200)
        np.savetxt("profile.tsv", np.column_stack([r, np.sqrt(2.0 / r)]))
        with open("table.txt", "w") as handle:
            handle.write("n = 3\\nprofile = table\\ntable = profile.tsv\\n")
        codes = [
            main(["imcf-run", "--n", "4", "--resolution", "16", "--shape", "spheroid",
                  "--t-end", "0.05", "--dt", "0.005", "--json", "f.json", "--csv", "f.csv"]),
            main(["verify", "--data", "table.txt", "--resolution", "16", "--out", "v.json"]),
            main(["sweep", "--n-list", "3,4", "--m-list", "1", "--q-list", "0,0.5",
                  "--csv", "s.csv"]),
            main(["rnt-report", "--n", "3", "--m", "1", "--q", "0.5", "--out", "r.json"]),
        ]
        print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cb.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0, 0] []"


def test_python_m_chargedbh_runs_from_a_checkout(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cb.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "chargedbh", "rnt-report", "--n", "3", "--m", "1", "--q", "0.5"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["r_plus"] == pytest.approx(1.0 + 0.75**0.5)


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        outs = []
        for k in (1, 2):
            out = tmp_path / f"r{k}.json"
            run(["rnt-report", "--n", "4", "--m", "1.5", "--q", "0.7", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_flow_byte_identical(self, tmp_path):
        blobs = []
        for k in (1, 2):
            csv = tmp_path / f"f{k}.csv"
            out = tmp_path / f"f{k}.json"
            run([
                "imcf-run", "--n", "3", "--resolution", "24", "--shape", "spheroid",
                "--a", "1", "--c", "1.4", "--t-end", "0.2", "--dt", "0.004",
                "--sample-every", "10", "--charge", "0.3",
                "--csv", str(csv), "--json", str(out),
            ])
            blobs.append(csv.read_bytes() + out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_full_precision(self, tmp_path):
        csv = tmp_path / "s.csv"
        run(["sweep", "--n-list", "3", "--m-list", "1", "--q-list", "0.5", "--csv", str(csv)])
        row = csv.read_text().splitlines()[1].split(",")
        # r_minus = 1 - sqrt(0.75) carries full double precision
        assert row[4] == f"{1 - 0.75**0.5:.17g}"


def _surface_text(tmp_path, mode):
    grid = cb.axisymmetric_grid(3, 8) if mode == "axisymmetric" else cb.full_grid(8, 16)
    path = tmp_path / "good_surface.txt"
    cb.save_surface(cb.make_sphere(grid, 1.0), path)
    return path.read_text()


def _drop_line(prefix):
    return lambda text: "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith(prefix)
    )


def _keep_columns(k):
    return lambda text: "".join(
        line if line.startswith("#") else " ".join(line.split()[:k]) + "\n"
        for line in text.splitlines(keepends=True)
    )


def _full_rows_at(theta, phi):
    return lambda text: "".join(
        line if line.startswith("#") else f"{theta} {phi} 1.0\n"
        for line in text.splitlines(keepends=True)
    )


_FLOW = ["imcf-run", "--n", "3", "--resolution", "16", "--t-end", "0.02", "--dt", "0.01",
         "--json", "out.json", "--csv", "out.csv"]
_VERIFY = ["verify", "--data", "data.txt", "--out", "out.json"]
_SURFACE_FLOW = ["imcf-run", "--n", "3", "--surface", "surface.txt", "--t-end", "0.02",
                 "--dt", "0.01", "--json", "out.json", "--csv", "out.csv"]
_RNT = "n = 3\nprofile = rnt\nm = 1\nq = 0.5\n"
_PERTURBED = "n = 3\nprofile = rnt-perturbed\nm = 1\nq = 0.5\n"
_TABLE = "n = 3\nprofile = table\ntable = profile.tsv\n"

# (argv, data file text, surface table (mode, edit), fragment of the message)
_REJECTED = {
    "dt-inf": (_FLOW + ["--dt", "inf"], None, None, "dt must be finite"),
    "t-end-inf": (_FLOW + ["--t-end", "inf"], None, None, "t_end must be finite"),
    "dt-nan": (_FLOW + ["--dt", "nan"], None, None, "dt must be finite"),
    "dt-underflow": (_FLOW + ["--dt", "1e-320"], None, None, "t_end / dt"),
    "safety-factor-0": (_FLOW + ["--safety-factor", "0"], None, None, "safety_factor"),
    "safety-factor-negative": (_FLOW + ["--safety-factor", "-1"], None, None, "safety_factor"),
    "safety-factor-nan": (_FLOW + ["--safety-factor", "nan"], None, None, "safety_factor"),
    "t-end-overflow": (_FLOW + ["--t-end", "1e300"], None, None, "t_end = 1e+300"),
    "t-end-above-bound-n3": (_FLOW + ["--t-end", "354.9"], None, None, "t_end = 354.9"),
    "t-end-above-bound-n5": (_FLOW + ["--n", "5", "--t-end", "567.9"], None, None,
                             "t_end = 567.9"),
    "charge-nan": (_FLOW + ["--charge", "nan"], None, None, "charge must be finite"),
    "sample-every-0": (_FLOW + ["--sample-every", "0"], None, None, "sample_every"),
    "flow-resolution-4": (_FLOW + ["--resolution", "4"], None, None, "at least 8"),
    "flow-resolution-0": (_FLOW + ["--resolution", "0"], None, None, "at least 8"),
    "verify-resolution-4": (_VERIFY + ["--resolution", "4"], "n = 3\nprofile = flat\n", None,
                            "resolution must be >= 8"),
    "sweep-jobs-0": (["sweep", "--n-list", "3", "--m-list", "1", "--q-list", "0", "--jobs", "0",
                      "--csv", "out.csv"], None, None, "jobs must be >= 1"),
    "table-charge-nan": (_VERIFY, _TABLE + "charge = nan\n", None, "charge must be finite"),
    "charge-scale-nan": (_VERIFY, _RNT + "charge_scale = nan\n", None, "charge_scale"),
    "eps-nan": (_VERIFY, _PERTURBED + "eps = nan\n", None, "eps must be finite"),
    "width-0": (_VERIFY, _PERTURBED + "width = 0\n", None, "width must be positive"),
    "full-without-nlat": (_SURFACE_FLOW, None, ("full", _drop_line("# nlat")), "'nlat'"),
    "full-without-nlon": (_SURFACE_FLOW, None, ("full", _drop_line("# nlon")), "'nlon'"),
    "axisymmetric-without-nodes": (_SURFACE_FLOW, None, ("axisymmetric", _drop_line("# nodes")),
                                   "'nodes'"),
    "full-two-columns": (_SURFACE_FLOW, None, ("full", _keep_columns(2)), "columns"),
    "axisymmetric-one-column": (_SURFACE_FLOW, None, ("axisymmetric", _keep_columns(1)),
                                "columns"),
    "full-wrong-angles": (_SURFACE_FLOW, None, ("full", _full_rows_at(9, 9)), "node angles"),
    "surface-resolution-4": (_SURFACE_FLOW + ["--resolution", "4"], None,
                             ("axisymmetric", lambda text: text), "resolution must be >= 8"),
    "rnt-n-overflow": (["rnt-report", "--n", "1000", "--m", "1", "--q", "0.5", "--out",
                        "out.json"], None, None, "n = 1000"),
    "rnt-m-overflow": (["rnt-report", "--n", "3", "--m", "1e300", "--q", "0", "--out",
                        "out.json"], None, None, "m = 1e+300"),
    "rnt-area-overflow": (["rnt-report", "--n", "3", "--m", "1e154", "--q", "0", "--out",
                           "out.json"], None, None, "m = 1e+154"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_rejected_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys, case):
    argv, data_text, surface, fragment = _REJECTED[case]
    monkeypatch.chdir(tmp_path)
    r = np.geomspace(1.0, 1e4, 50)
    np.savetxt("profile.tsv", np.column_stack([r, np.sqrt(2.0 / r)]))
    if data_text is not None:
        (tmp_path / "data.txt").write_text(data_text)
    if surface is not None:
        mode, edit = surface
        (tmp_path / "surface.txt").write_text(edit(_surface_text(tmp_path, mode)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        assert run(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and fragment in err, err
    assert "Traceback" not in err
    written = [p.read_text() for p in tmp_path.glob("out.*")] + [out]
    assert not any(re.search(r"\b(nan|NaN|inf|Infinity)\b", text) for text in written)


def test_default_resolution_ignores_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CPL_DEFAULT_RES", "16")
    out = tmp_path / "f.json"
    assert run(["imcf-run", "--t-end", "0.01", "--dt", "0.01", "--json", str(out)]) == 0
    assert '"resolution": 128' in out.read_text()


def test_every_option_has_help():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        f"{name} {action.option_strings[-1]}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.option_strings and not action.help
    ]
    assert missing == []
