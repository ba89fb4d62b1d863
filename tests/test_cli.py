import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ngfreg import cli
from ngfreg.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from ngfreg.fileio import read_deformation, read_volume, write_deformation, write_volume
from ngfreg.geometry import Grid3, Image3, identity_field_array, make_identity
from ngfreg.synthetic import gaussian_bump_mapping, make_registration_pair, smooth_random_volume


@pytest.fixture()
def pair(tmp_path):
    g = Grid3((16, 16, 16), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=8.0, amplitude_mm=(1.5, -1.0, 0.5)))
    rp, tp = str(tmp_path / "R.mha"), str(tmp_path / "T.mha")
    write_volume(R, rp)
    write_volume(T, tp)
    return g, rp, tp


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["register"]) == EXIT_USAGE
    assert main(["register", "--reference", "a"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


@pytest.mark.parametrize("flag", [["--max-iter", "0"], ["--max-iter", "-3"], ["--alpha", "0"],
                                  ["--threads", "0"], ["--threads", "-2"], ["--levels", "abc"],
                                  ["--levels", "0"], ["--grid-ratio", "0"], ["--tau", "0"]])
def test_register_bad_config_is_usage_error_before_reading(tmp_path, capsys, flag):
    # the inputs do not exist: a usage error shows the config was checked first
    assert main(["register", "--reference", str(tmp_path / "no.mha"),
                 "--template", str(tmp_path / "no2.mha"),
                 "--out-deformation", str(tmp_path / "y.mha")] + flag) == EXIT_USAGE
    assert f"argument {flag[0]}:" in capsys.readouterr().err


def test_missing_input_is_io_error(tmp_path):
    out = str(tmp_path / "y.mha")
    assert main(["register", "--reference", str(tmp_path / "no.mha"),
                 "--template", str(tmp_path / "no2.mha"),
                 "--out-deformation", out]) == EXIT_IO


def test_rotated_volume_is_io_error(pair, tmp_path, capsys):
    g, rp, tp = pair
    rotated = str(tmp_path / "rot.mha")
    data = open(tp, "rb").read()
    open(rotated, "wb").write(
        data.replace(b"ElementType", b"TransformMatrix = 0 1 0 -1 0 0 0 0 1\nElementType", 1))
    rc = main(["register", "--reference", rp, "--template", rotated,
               "--out-deformation", str(tmp_path / "y.mha")])
    assert rc == EXIT_IO
    assert "TransformMatrix" in capsys.readouterr().err


def test_bad_volume_file_is_io_error_naming_it(pair, tmp_path, capsys):
    # a non-positive spacing or a NaN or infinite voxel is a malformed file
    g, rp, tp = pair
    ypath = str(tmp_path / "id.mha")
    write_deformation(make_identity(g), ypath)
    data = open(tp, "rb").read()
    bad = str(tmp_path / "bad.mha")
    for content in (data.replace(b"ElementSpacing = 2.0", b"ElementSpacing = -2.0", 1),
                    data[:-8] + np.float64(np.nan).tobytes(),
                    data[:-8] + np.float64(np.inf).tobytes()):
        open(bad, "wb").write(content)
        for argv in (["register", "--reference", rp, "--template", bad,
                      "--out-deformation", str(tmp_path / "y.mha")],
                     ["warp", "--template", bad, "--deformation", ypath,
                      "--out", str(tmp_path / "w.mha")],
                     ["resample", "--input", bad, "--like", rp, "--out", str(tmp_path / "r.mha")]):
            assert main(argv) == EXIT_IO
            assert f"error: {bad}: " in capsys.readouterr().err


def test_register_warp_evaluate_roundtrip(pair, tmp_path, capsys):
    g, rp, tp = pair
    ypath = str(tmp_path / "y.mha")
    wpath = str(tmp_path / "warped.mha")
    report = str(tmp_path / "report.txt")
    rc = main(["register", "--reference", rp, "--template", tp,
               "--out-deformation", ypath, "--out-warped", wpath,
               "--levels", "2", "--max-iter", "25", "--report", report])
    assert rc == EXIT_OK
    y = read_deformation(ypath)
    assert y.grid.same_extent(g)
    warped = read_volume(wpath)
    assert warped.grid == g
    rep_text = open(report).read()
    assert "[level 0]" in rep_text and "iterations" in rep_text
    # each level's evaluation count is the start point plus its ls_evals column
    for block in rep_text.split("[level ")[1:]:
        lines = block.splitlines()
        evals = int(next(ln for ln in lines if ln.startswith("evaluations = ")).split()[-1])
        head = lines.index("iter\tJ\tD\tS\tgrad_inf\tstep\tls_evals")
        rows = [ln.split("\t") for ln in lines[head + 1:] if ln]
        assert rows and evals == 1 + sum(int(r[6]) for r in rows)
        assert float(next(ln for ln in lines if ln.startswith("min_det = ")).split()[-1]) > 0
        seconds = {k: float(next(ln for ln in lines if ln.startswith(f"seconds_{k} = ")).split()[-1])
                   for k in ("optimize", "distance", "curvature")}
        assert 0 < seconds["distance"] <= seconds["optimize"]
        assert 0 < seconds["curvature"] <= seconds["optimize"]

    # warp again via the CLI and compare against the register output
    w2 = str(tmp_path / "warped2.mha")
    diff = str(tmp_path / "diff.mha")
    rc = main(["warp", "--template", tp, "--deformation", ypath,
               "--out", w2, "--reference", rp, "--out-difference", diff])
    assert rc == EXIT_OK
    assert np.array_equal(read_volume(w2).values, warped.values)
    d = read_volume(diff)
    assert np.allclose(d.values, read_volume(w2).values - read_volume(rp).values)

    # landmark evaluation with world-frame landmarks
    lm = str(tmp_path / "lm.txt")
    with open(lm, "w") as fh:
        fh.write("10 10 10\n16 12 20\n")
    per = str(tmp_path / "per.txt")
    rc = main(["evaluate", "--deformation", ypath,
               "--landmarks-ref", lm, "--landmarks-template", lm,
               "--image-grid-from", rp, "--frame", "world",
               "--out-per-landmark", per])
    assert rc == EXIT_OK
    vals = [float(v) for v in open(per).read().split()]
    assert len(vals) == 2
    outtxt = capsys.readouterr().out
    assert "landmark error" in outtxt


def test_warp_out_difference_requires_reference(pair, tmp_path):
    g, rp, tp = pair
    ypath = str(tmp_path / "id.mha")
    write_deformation(make_identity(g), ypath)
    rc = main(["warp", "--template", tp, "--deformation", ypath,
               "--out", str(tmp_path / "w.mha"),
               "--out-difference", str(tmp_path / "d.mha")])
    assert rc == EXIT_USAGE
    # inputs that do not exist: a usage error shows the options were checked first
    rc = main(["warp", "--template", str(tmp_path / "no.mha"),
               "--deformation", str(tmp_path / "no2.mha"),
               "--out", str(tmp_path / "w.mha"), "--out-difference", str(tmp_path / "d.mha")])
    assert rc == EXIT_USAGE


def test_warp_bad_reference_writes_no_output(pair, tmp_path):
    # --reference is read and checked before --out is written: a missing one
    # is an I/O error, one on another grid a numeric error, and neither
    # leaves a file behind
    g, rp, tp = pair
    ypath = str(tmp_path / "id.mha")
    write_deformation(make_identity(g), ypath)
    other = str(tmp_path / "other.mha")
    write_volume(smooth_random_volume(Grid3((8, 8, 8), (4.0, 4.0, 4.0), (0.0, 0.0, 0.0)),
                                      seed=1), other)
    before = sorted(tmp_path.iterdir())
    for reference, code in ((str(tmp_path / "no.mha"), EXIT_IO), (other, EXIT_NUMERIC)):
        rc = main(["warp", "--template", tp, "--deformation", ypath,
                   "--out", str(tmp_path / "w.mha"), "--reference", reference,
                   "--out-difference", str(tmp_path / "d.mha")])
        assert rc == code
        assert sorted(tmp_path.iterdir()) == before


def test_register_grid_mismatch_is_numeric_error_with_hint(tmp_path, capsys):
    g1 = Grid3((8, 8, 8), (1, 1, 1), (0, 0, 0))
    g2 = Grid3((8, 8, 8), (1.5, 1, 1), (0, 0, 0))
    write_volume(smooth_random_volume(g1, seed=1), str(tmp_path / "a.mha"))
    write_volume(smooth_random_volume(g2, seed=2), str(tmp_path / "b.mha"))
    rc = main(["register", "--reference", str(tmp_path / "a.mha"),
               "--template", str(tmp_path / "b.mha"),
               "--out-deformation", str(tmp_path / "y.mha")])
    assert rc == EXIT_NUMERIC
    assert "resample" in capsys.readouterr().err


def test_resample_bridges_grid_mismatch(tmp_path):
    g1 = Grid3((8, 8, 8), (2, 2, 2), (0, 0, 0))
    g2 = Grid3((10, 10, 10), (1.6, 1.6, 1.6), (0.2, 0.2, 0.2))

    def trilinear_exact(x, y, z):  # reproduced exactly by trilinear interpolation
        return 2.0 * x - 3.0 * y + 0.5 * z + 0.25 * x * y * z + 1.0

    write_volume(smooth_random_volume(g1, seed=3), str(tmp_path / "a.mha"))
    centers = identity_field_array(g2)
    write_volume(Image3(g2, trilinear_exact(*centers)), str(tmp_path / "b.mha"))
    rc = main(["resample", "--input", str(tmp_path / "b.mha"),
               "--like", str(tmp_path / "a.mha"),
               "--out", str(tmp_path / "b_on_a.mha")])
    assert rc == EXIT_OK
    out = read_volume(str(tmp_path / "b_on_a.mha"))
    assert out.grid == g1
    # centres of g1 outside the hull of g2 take the value at the nearest hull point
    pos = identity_field_array(g1)
    lo, hi = g2.origin[0], g2.origin[0] + 9 * g2.spacing[0]
    assert (pos < lo).any()
    expected = trilinear_exact(*np.clip(pos, lo, hi))
    assert np.abs(out.values - expected).max() <= 1e-13 * np.abs(expected).max()


def test_evaluate_compare_deformation(pair, tmp_path, capsys):
    g, rp, tp = pair
    from ngfreg.multilevel import deformation_grid_for

    dg = deformation_grid_for(g, 4)
    y1 = str(tmp_path / "y1.mha")
    y2 = str(tmp_path / "y2.mha")
    write_deformation(make_identity(dg), y1)
    field = make_identity(dg).field.copy()
    field += 0.5
    from ngfreg.geometry import DeformationField

    write_deformation(DeformationField(dg, field), y2)
    lm = str(tmp_path / "lm.txt")
    with open(lm, "w") as fh:
        fh.write("8 8 8\n")
    rc = main(["evaluate", "--deformation", y1,
               "--landmarks-ref", lm, "--landmarks-template", lm,
               "--image-grid-from", rp, "--frame", "world",
               "--compare-deformation", y2])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "field difference" in out
    # constant 0.5mm shift per component -> magnitude sqrt(3)/2 everywhere
    assert f"{np.sqrt(0.75):.6e}" in out


def test_evaluate_bad_landmarks_is_io_error(pair, tmp_path, capsys):
    g, rp, tp = pair
    ypath = str(tmp_path / "id.mha")
    from ngfreg.multilevel import deformation_grid_for

    write_deformation(make_identity(deformation_grid_for(g, 4)), ypath)
    lm = str(tmp_path / "lm.txt")
    for content, line in (("1 2\n", 1), ("1 2 3\n1 nan 3\n", 2)):
        with open(lm, "w") as fh:
            fh.write(content)
        rc = main(["evaluate", "--deformation", ypath,
                   "--landmarks-ref", lm, "--landmarks-template", lm,
                   "--image-grid-from", rp, "--frame", "index1"])
        assert rc == EXIT_IO
        assert f"error: {lm}:{line}: " in capsys.readouterr().err


def test_benchmark_smoke(tmp_path, capsys):
    out = str(tmp_path / "bench.tsv")
    rc = main(["benchmark", "--dims", "12,12,12", "--threads", "1",
               "--precision", "f64", "--pt-variant", "gather", "--reps", "3",
               "--out", out])
    assert rc == EXIT_OK
    text = open(out).read()
    assert "\t" in text and "gather" in text


def test_benchmark_bad_dims_is_usage_error():
    assert main(["benchmark", "--dims", "12,12"]) == EXIT_USAGE


def test_benchmark_unknown_variant_is_usage_error(tmp_path, capsys):
    out = tmp_path / "bench.tsv"
    rc = main(["benchmark", "--dims", "8,8,8", "--pt-variant", "gather,bogus",
               "--reps", "3", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--reps", "2"], ["--threads", "0"], ["--threads", "x"],
                                  ["--precision", "f16"], ["--dims", "a,b,c"],
                                  ["--dims", "0,8,8"]])
def test_benchmark_bad_option_is_usage_error_before_work(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "run_benchmark", lambda **_: pytest.fail("the benchmark ran"))
    out = tmp_path / "bench.tsv"
    rc = main(["benchmark", "--dims", "8,8,8", "--out", str(out)] + flag)
    assert rc == EXIT_USAGE
    assert f"argument {flag[0]}:" in capsys.readouterr().err
    assert not out.exists()


_CLI_SCRIPT = """
import os, sys
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
print("before register")  # in stdout's buffer when the children fork
from ngfreg.cli import main
rc = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(str(len(forks)))
sys.exit(rc)
"""


def test_two_worker_register_writes_the_stdout_of_one_worker(tmp_path):
    # 40^3: the finest level's sweep has two slabs, so two workers fork a child;
    # a child that wrote or flushed stdio would add to the output
    g = Grid3((40, 40, 40), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    center = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    R, T = make_registration_pair(
        g, gaussian_bump_mapping(center, sigma_mm=10.0, amplitude_mm=(1.5, -1.0, 0.5)))
    rp, tp = str(tmp_path / "R.mha"), str(tmp_path / "T.mha")
    write_volume(R, rp)
    write_volume(T, tp)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout keeps "before register" in its buffer
    outs, forks = [], []
    for threads in (1, 2):
        count = tmp_path / f"forks{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_SCRIPT, str(count), "register", "--reference", rp,
             "--template", tp, "--out-deformation", str(tmp_path / f"y{threads}.mha"),
             "--threads", str(threads), "--max-iter", "5"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        outs.append(re.sub(r"\d+\.\d+ s,", "<seconds> s,", proc.stdout))
        forks.append(int(count.read_text()))
    assert forks == [0, 1]
    assert outs[0].startswith("before register\nregistered ")
    assert outs[1] == outs[0]
