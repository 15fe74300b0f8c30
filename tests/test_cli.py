import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import spinscreen as ss
from spinscreen import cli, exact, exports, geometry, verify


def run_cli(*args):
    """The finished command; a command still running after 300 s fails the
    test with subprocess.TimeoutExpired instead of stalling the suite."""
    cmd = [sys.executable, "-m", "spinscreen", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


REF_ARGS = ("--two-a", "60", "--two-b", "90", "--two-c", "120", "--two-d", "110")
SMALL = ("--two-a", "6", "--two-b", "8", "--two-c", "10", "--two-d", "8")


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "compute" in cp.stdout and "verify" in cp.stdout


def test_compute_screen_csv(tmp_path):
    cp = run_cli("compute", *REF_ARGS, "--method", "eigensolve",
                 "--output", "screen", "--format", "csv",
                 "--outdir", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    assert "61x61" in cp.stdout
    files = list(tmp_path.glob("*_screen.csv"))
    assert len(files) == 1
    lines = files[0].read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")
            and not l.startswith("two_x")]
    assert len(data) == 61 * 61
    assert any(l.startswith("# method=eigensolve") for l in lines)


def test_compute_method_agreement(tmp_path):
    screens = {}
    for method in ss.SCREEN_METHODS:
        cp = run_cli("compute", *SMALL, "--method", method,
                     "--output", "screen", "--outdir", str(tmp_path))
        assert cp.returncode == 0, cp.stderr
        path = next(tmp_path.glob("*_%s_screen.csv" % method))
        screens[method] = exports.read_screen(path)
    for method, screen in screens.items():
        assert screen.method == method
        assert np.max(np.abs(screen.values - screens["oracle"].values)) <= 1e-8


def test_compute_curves(tmp_path):
    cp = run_cli("compute", *REF_ARGS, "--output",
                 "caustics,ridges,cos-theta3,potentials",
                 "--outdir", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    caustics = json.loads(next(tmp_path.glob("*_caustics.json")).read_text())
    assert caustics["metadata"]["coordinates"] == "shifted"
    assert len(caustics["caustic_lower"]) == 61
    ridges = json.loads(next(tmp_path.glob("*_ridges.json")).read_text())
    assert "ridge_y_of_x" in ridges and "ridge_x_of_y" in ridges
    cos_csv = next(tmp_path.glob("*_cos_theta3.csv")).read_text()
    assert "two_x,two_y,cos_theta3" in cos_csv
    pots = json.loads(next(tmp_path.glob("*_potentials.json")).read_text())
    assert "w_plus_geometric" in pots and "w_minus_arithmetic" in pots


def test_compute_cos_theta3_json(tmp_path):
    cp = run_cli("compute", *SMALL, "--output", "cos-theta3",
                 "--format", "json", "--outdir", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    written = next(tmp_path.glob("*_cos_theta3.json"))
    payload = json.loads(written.read_text())
    assert "cos_theta3" in payload
    p = ss.screen_ranges(6, 8, 10, 8)
    assert len(payload["cos_theta3"]) == p.side
    ref = tmp_path / "reference.json"
    exports.write_field_json(p, ss.cos_theta3_grid(p), "cos_theta3",
                             ref)
    assert written.read_bytes() == ref.read_bytes()


def test_compute_pr_compare(tmp_path):
    cp = run_cli("compute", *SMALL, "--output", "pr-compare",
                 "--outdir", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    text = next(tmp_path.glob("*_pr_compare.csv")).read_text()
    assert "pr_estimate" in text


def test_compute_invalid_output(tmp_path):
    cp = run_cli("compute", *SMALL, "--output", "nonsense",
                 "--outdir", str(tmp_path))
    assert cp.returncode == 2


@pytest.mark.parametrize("output", ["", ","], ids=["empty", "comma"])
def test_compute_without_an_output_is_a_usage_error(tmp_path, capsys, output):
    code = cli.main(["compute", *SMALL, "--output", output,
                     "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "(choose from %s)" % ", ".join(cli._OUTPUTS) in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_compute_invalid_params(tmp_path):
    cp = run_cli("compute", "--two-a", "2", "--two-b", "2", "--two-c", "10",
                 "--two-d", "2", "--outdir", str(tmp_path))
    assert cp.returncode == 2


def test_compute_oracle_cap(tmp_path):
    cp = run_cli("compute", "--two-a", "600", "--two-b", "900",
                 "--two-c", "1200", "--two-d", "1100", "--method", "oracle",
                 "--outdir", str(tmp_path))
    assert cp.returncode == 2
    assert "kappa2" in cp.stderr


def test_compute_oracle_cap_covers_pr_compare(monkeypatch, tmp_path, capsys):
    # pr-compare builds the oracle screen as its reference
    def must_not_build(params):
        raise ss.ConvergenceFailure("the oracle screen was built")

    monkeypatch.setitem(ss.SCREEN_METHODS, "oracle", must_not_build)
    code = cli.main(["compute", "--two-a", "202", "--two-b", "302",
                     "--two-c", "404", "--two-d", "368", "--method", "oracle",
                     "--output", "pr-compare", "--outdir", str(tmp_path)])
    assert code == 2
    assert "kappa2" in capsys.readouterr().err


def test_compute_rejects_a_screen_over_the_defect_bound(monkeypatch, tmp_path,
                                                        capsys):
    build = ss.SCREEN_METHODS["eigensolve"]

    def skewed(params):
        screen = build(params)
        screen.values[:, 3] *= 1 + 1e-6
        screen.diagnostics["orthonormality_defect"] = \
            screen.orthonormality_defect()
        return screen

    monkeypatch.setitem(ss.SCREEN_METHODS, "eigensolve", skewed)
    code = cli.main(["compute", *SMALL, "--output", "screen,caustics,pr-compare",
                     "--outdir", str(tmp_path / "out")])
    assert code == 3
    assert "orthonormality_defect" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the oracle and recur2d builders record their own defect: a column
# skewed inside the builder, before the defect is taken, must reach the gate
@pytest.mark.parametrize("method, module", [("oracle", ss.exact),
                                            ("recur2d", ss.recursion)])
def test_compute_gates_the_defect_of_every_builder(monkeypatch, tmp_path,
                                                   capsys, method, module):
    def skewed_screen(values, **fields):
        values[:, 3] *= 1 + 1e-6
        return ss.Screen(values=values, **fields)

    monkeypatch.setattr(module, "Screen", skewed_screen)
    code = cli.main(["compute", *SMALL, "--method", method, "--output",
                     "screen", "--outdir", str(tmp_path / "out")])
    assert code == 3
    assert "orthonormality_defect" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compute_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        cp = run_cli("compute", *SMALL, "--output", "screen,caustics",
                     "--outdir", str(out))
        assert cp.returncode == 0, cp.stderr
    for f1 in sorted(out1.iterdir()):
        f2 = out2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


# sha256 of the exact-seeded screen exports: oracle and recur2d screens are
# kept byte-identical across changes
EXACT_SEEDED_SCREENS = {
    "spinscreen_a60_b90_c120_d110_oracle_screen.csv":
        "7fb69285bb451b36e164c99d64aa6055ff6e0a665a417ca4b40fb683fde987a3",
    "spinscreen_a60_b90_c120_d110_oracle_screen.json":
        "bf15256b0f7d4a527857b89753276ea542ddde73183f2c1ae12c617ba61fbcf6",
    "spinscreen_a60_b90_c120_d110_recur2d_screen.csv":
        "bae4763f777678c0a6508ce5f796565db000911b663b7753c6e6148166163642",
    "spinscreen_a60_b90_c120_d110_recur2d_screen.json":
        "c10f5f646c4c081bf43f888566402cd6a7cf3911a2739e0a6ca06f61a4c5b4f5",
    "spinscreen_a8_b10_c12_d10_oracle_screen.csv":
        "2bc77389ca73e79f8e3c74ba1c82e7e3f1b088cf113ef53682fbb9992dc31ac7",
    "spinscreen_a8_b10_c12_d10_oracle_screen.json":
        "206c344a57ce0c7fab3c397665bb73bc1024eb8f1aa06c4707283219b499f1b6",
    "spinscreen_a8_b10_c12_d10_recur2d_screen.csv":
        "6ca0d6e470030ce3fac66d663d46c6c8d71112c244e9fc87658207ff3237e7c8",
    "spinscreen_a8_b10_c12_d10_recur2d_screen.json":
        "613620660f1c54b44dd2b9220cc9ca5e6159536e83221e473541172a154809e6",
}


def test_exact_seeded_screen_exports_are_pinned(tmp_path, capsys):
    for quad in ((60, 90, 120, 110), (8, 10, 12, 10)):
        params = [arg for k, t in zip("abcd", quad)
                  for arg in ("--two-" + k, str(t))]
        for method in ("oracle", "recur2d"):
            for fmt in ("csv", "json"):
                code = cli.main(["compute", *params, "--method", method,
                                 "--output", "screen", "--format", fmt,
                                 "--outdir", str(tmp_path)])
                assert code == 0, capsys.readouterr().err
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == EXACT_SEEDED_SCREENS


def test_screen_roundtrip_csv(tmp_path):
    p = ss.screen_ranges(6, 8, 10, 8)
    screen = ss.screen_by_eigensolve(p)
    path = tmp_path / "screen.csv"
    exports.write_screen_csv(screen, path)
    back = exports.read_screen(path)
    assert back.params == p
    assert np.array_equal(back.values, screen.values)
    assert back.method == "eigensolve"


def test_screen_roundtrip_json(tmp_path):
    p = ss.screen_ranges(6, 8, 10, 8)
    screen = ss.screen_by_eigensolve(p)
    path = tmp_path / "screen.json"
    exports.write_screen_json(screen, path)
    back = exports.read_screen(path)
    assert np.array_equal(back.values, screen.values)


def test_verify_single_check(tmp_path):
    report = tmp_path / "report.json"
    cp = run_cli("verify", *REF_ARGS, "--check", "regge-invariance",
                 "--report", str(report))
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 1
    assert payload["checks"][0]["name"] == "regge-invariance"


def test_verify_report_is_the_exports_json_text(tmp_path):
    # reports are written as the exports JSON files are: one-space indent,
    # sorted keys and a final newline
    report = tmp_path / "report.json"
    cp = run_cli("verify", *SMALL, "--check", "unit", "--report", str(report))
    assert cp.returncode == 0, cp.stderr
    text = report.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
    assert text.startswith('{\n "checks": [\n  {\n   "detail": ')


def test_verify_report_carries_each_checks_seconds(tmp_path, capsys):
    # stdout keeps one PASS/FAIL line per result; the report adds the wall
    # time of the check that gave each result, shared by all of them
    report = tmp_path / "report.json"
    code = cli.main(["verify", *SMALL, "--check", "geometry", "--check",
                     "golden", "--random", "20", "--report", str(report)])
    assert code == 0
    checks = json.loads(report.read_text())["checks"]
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "  PASS  " in line or "  FAIL  " in line]
    assert len(lines) == len(checks) == 5
    seconds = {c["name"]: c["seconds"] for c in checks}
    assert all(isinstance(t, float) and t >= 0.0 for t in seconds.values())
    geometry = {t for name, t in seconds.items() if name.startswith("geometry")}
    assert len(geometry) == 1 and seconds["golden"] not in geometry


def _geometry_failures(seed):
    return [(r.name, r.value) for r in verify.run_checks(
        names=["geometry"], n_random=200, seed=seed) if not r.passed]


def test_verify_geometry_passes_every_seed():
    # nearly flat random triangles and tetrahedra lose digits in both
    # routes alike; held over their condition numbers, every draw passes
    assert {seed: _geometry_failures(seed) for seed in range(60)} \
        == {seed: [] for seed in range(60)}


def _gram_det(C2, D2, Y2, X2, B2, A2):
    g12, g13, g23 = (C2 + D2 - X2) / 2, (C2 + Y2 - B2) / 2, (D2 + Y2 - A2) / 2
    return (C2 * (D2 * Y2 - g23 * g23) - g12 * (g12 * Y2 - g23 * g13)
            + g13 * (g12 * g23 - D2 * g13)) / 36


def _exact_sensitivity(poly, squares):
    """sum of |d poly / d e2| e2 over the squares, each derivative a central
    difference in Fractions: exact for a quadratic, off by h^2 for a
    cubic."""
    h, total = Fraction(1, 10 ** 40), 0
    for i, e2 in enumerate(squares):
        up, down = list(squares), list(squares)
        up[i] += h
        down[i] -= h
        total += abs(poly(*up) - poly(*down)) / (2 * h) * e2
    return total


def test_verify_geometry_sensitivities_are_the_exact_derivatives():
    rng = random.Random(5)
    for _ in range(20):
        t = ss.Tetrahedron(*(rng.uniform(1, 2) for _ in range(6)))
        squares = [Fraction(v) ** 2 for v in (t.C, t.D, t.Y, t.X, t.B, t.A)]
        assert verify._volume_sq_sensitivity(t) == pytest.approx(
            float(_exact_sensitivity(_gram_det, squares)), rel=1e-12)
        a, b, g = t.A, t.B, rng.uniform(abs(t.A - t.B), t.A + t.B)
        assert verify._lambda_quartic_sensitivity(a, b, g) == pytest.approx(
            float(_exact_sensitivity(
                lambda a2, b2, g2: (a2 - b2) ** 2 - 2 * g2 * (a2 + b2) + g2 * g2,
                [Fraction(v) ** 2 for v in (a, b, g)])), rel=1e-12)


@pytest.mark.parametrize("route, name", [
    ("volume_sq_gram", "geometry-cm-gram"),
    ("lambda_quartic", "geometry-lambda-heron")])
def test_verify_geometry_still_sees_a_route_off_by_1e_8(monkeypatch, route,
                                                       name):
    exact_route = getattr(geometry, route)
    monkeypatch.setattr(geometry, route,
                        lambda *args: exact_route(*args) * (1 + 1e-8))
    assert name in [n for n, _ in _geometry_failures(1234)]


def test_verify_unit_sixj_dispatches_every_family(monkeypatch):
    calls = dict.fromkeys(exact._FAMILIES, 0)
    for key, family in exact._FAMILIES.items():
        def counted(*args, key=key, family=family):
            calls[key] += 1
            return family(*args)
        monkeypatch.setitem(exact._FAMILIES, key, counted)
    (result,) = verify.run_checks(names=["unit-sixj"])
    assert result.passed
    assert all(calls.values()), calls


def test_verify_exact_symmetries_walks_the_whole_orbit(monkeypatch):
    # sixj_exact is wrong only on the Regge image with b and d (and x and y)
    # exchanged, which no single classical exchange, Regge or x <-> y
    # reaches from the drawn arguments
    params = ss.ScreenParams(4, 10, 16, 12)
    ra, rb, rc, rd = ss.regge_conjugate(*params.as_tuple())
    sixj_exact = exact.sixj_exact

    def wrong_on_one_image(a, b, x, c, d, y):
        if (a, b, c, d) == (ra, rd, rc, rb):
            return exact.SqrtRational(2)  # no 6j symbol exceeds 1
        return sixj_exact(a, b, x, c, d, y)

    monkeypatch.setattr(verify, "random_screen_params",
                        lambda rng, two_j_max: params)
    monkeypatch.setattr(exact, "sixj_exact", wrong_on_one_image)
    (result,) = verify.run_checks(names=["exact-symmetries"], n_random=50)
    assert not result.passed
    assert result.value == 50


def test_verify_unknown_check():
    cp = run_cli("verify", *REF_ARGS, "--check", "no-such-check")
    assert cp.returncode == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_random_below_one_is_a_usage_error(count):
    # unit-sixj would otherwise pass on no sample at all
    cp = run_cli("verify", *SMALL, "--random", count, "--check", "unit")
    assert cp.returncode == 2
    assert "argument --random: must be at least 1" in cp.stderr
    assert "PASS" not in cp.stdout


def test_verify_corrupted_golden(tmp_path, monkeypatch, capsys):
    payload = json.loads(verify.GOLDEN.read_text())
    payload["points"][0]["u"] = "0.5"
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(payload))
    monkeypatch.setattr(verify, "GOLDEN", bad)
    assert cli.main(["verify", *REF_ARGS, "--check", "golden"]) == 1
    out = capsys.readouterr().out
    assert "golden" in out and "FAIL" in out


def test_random_screen_params_skips_only_empty_screens(monkeypatch):
    # a fault in ScreenParams reaches the caller: drawn past, it would
    # be hidden by the second draw, which succeeds
    calls = []

    def faulty(*quad):
        calls.append(quad)
        if len(calls) == 1:
            raise ValueError("fault")
        return quad

    monkeypatch.setattr(verify, "ScreenParams", faulty)
    with pytest.raises(ValueError, match="fault"):
        verify.random_screen_params(random.Random(0))


def test_random_screen_params_draws_past_empty_screens():
    rng, draws = random.Random(1), []
    while True:
        quad = tuple(rng.randint(0, 40) for _ in range(4))
        if sum(quad) % 2:
            continue
        draws.append(quad)
        try:
            expected = ss.ScreenParams(*quad)
            break
        except ss.EmptyScreen:
            pass
    assert len(draws) > 1
    assert verify.random_screen_params(random.Random(1)) == expected


def test_ninej_check_default():
    cp = run_cli("ninej-check", "--count", "20", "--two-j-max", "8")
    assert cp.returncode == 0, cp.stderr
    assert "ninej-residual" in cp.stdout


def test_ninej_check_reduce():
    cp = run_cli("ninej-check", "--count", "10", "--two-h", "0", "--reduce",
                 "--two-a", "8", "--two-b", "10", "--two-c", "12",
                 "--two-d", "10")
    assert cp.returncode == 0, cp.stderr
    assert "ninej-reduction" in cp.stdout


# README's example and its h = 1 sibling: fixed-h stencils reach c = 0
# and d = 0, where both exited 1 with residuals of 0.93 and 0.875
@pytest.mark.parametrize("args", [("--two-h", "0", "--reduce"),
                                  ("--two-h", "2")])
def test_ninej_check_fixed_h(args):
    cp = run_cli("ninej-check", *args)
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "ninej-residual" in cp.stdout


def test_ninej_check_reduce_without_interior_fails():
    # side 2: no interior point, so no stencil can be checked
    cp = run_cli("ninej-check", "--count", "5", "--reduce", "--two-a", "1",
                 "--two-b", "1", "--two-c", "2", "--two-d", "2")
    assert cp.returncode == 1, cp.stderr
    line = next(l for l in cp.stdout.splitlines() if "ninej-reduction" in l)
    assert "FAIL" in line and "0 stencils checked" in line


@pytest.mark.parametrize("quad", [(-2, 90, 120, 110), (1, 2, 2, 2),
                                  (60, 2, 2, 2)])
def test_ninej_check_reduce_invalid_params(quad):
    args = [str(t) for t in quad]
    cp = run_cli("ninej-check", "--count", "5", "--reduce", "--two-a", args[0],
                 "--two-b", args[1], "--two-c", args[2], "--two-d", args[3])
    assert cp.returncode == 2, cp.stderr
    assert "invalid parameters" in cp.stderr


# with every entry 1 no stencil is admissible, and 0 leaves nothing to draw
@pytest.mark.parametrize("two_j_max", ["1", "0"])
def test_ninej_check_without_admissible_stencils(two_j_max):
    cp = run_cli("ninej-check", "--two-j-max", two_j_max)
    assert cp.returncode == 2, cp.stderr
    assert "no admissible stencils" in cp.stderr


@pytest.mark.parametrize("count", ["0", "-3"])
def test_ninej_check_count_below_one_is_a_usage_error(count):
    cp = run_cli("ninej-check", "--count", count)
    assert cp.returncode == 2
    assert "argument --count: must be at least 1" in cp.stderr
    assert "no admissible stencils" not in cp.stderr


def test_ninej_check_empty_filter():
    cp = run_cli("ninej-check", "--count", "5", "--two-j-max", "0",
                 "--two-h", "4")
    assert cp.returncode == 2
    assert "no admissible stencils" in cp.stderr
