"""The benchmark's output checks pass on correct outputs and report a failed
operation for a sign-flipped row, a corrupted exported value and a displaced
caustic point.  Also keeps BENCHMARK.json and the tracer in step with the
code that reports the metrics."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import judge  # noqa: E402
import spans  # noqa: E402

ss = pytest.importorskip("spinscreen")
pytest.importorskip("spinscreen.cli")     # also loads exports and verify

QUAD = (60, 90, 120, 110)


def _library_record(path, kind, arg, values):
    path = str(path)
    np.save(path, values)
    spec = {"id": kind, "kind": kind, "quad": QUAD, "arg": arg, "argv": None}
    return {"spec": spec, "latency_s": [0.1, 0.1], "error": [None, None],
            "digest": ["d", "d"], "file": path}


def _cli_record(outdir, files):
    os.makedirs(outdir)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(outdir, "_stdout.txt"), "w") as fh:
        fh.write("")
    with open(os.path.join(outdir, "_code.txt"), "w") as fh:
        fh.write("0\n")
    spec = {"id": "compute", "kind": "compute", "quad": QUAD,
            "arg": "eigensolve-csv", "argv": ["compute"]}
    return {"spec": spec, "latency_s": [1.0], "error": [None], "digest": ["d"],
            "file": outdir}


def _failed(records):
    attempted, failed, _, _, _ = judge.judge({"ops": records})
    return attempted, failed


@pytest.fixture(scope="module")
def screen():
    return ss.recursion.screen_by_eigensolve(ss.screen_ranges(*QUAD))


def _exported(tmp_path, screen):
    params = screen.params
    base = str(tmp_path / "export")
    ss.exports.write_screen_csv(screen, base + "_screen.csv")
    ss.exports.write_caustics_json(ss.geometry.ridges_and_caustics(params),
                                   base + "_caustics.json")
    files = {}
    for suffix in ("_screen.csv", "_caustics.json"):
        with open(base + suffix) as fh:
            files["spinscreen" + suffix] = fh.read()
    return files


def test_row_passes_and_sign_flipped_row_fails(tmp_path, screen):
    iy = 40
    good = _library_record(tmp_path / "good.npy", "row", iy, screen.values[:, iy])
    flipped = _library_record(tmp_path / "flipped.npy", "row", iy,
                              -screen.values[:, iy])
    assert _failed([good]) == (2, 0)
    assert _failed([flipped]) == (2, 2)
    assert checks.check_columns(QUAD, -screen.values[:, [iy]], [iy])


def test_screen_with_one_flipped_column_fails(screen):
    values = screen.values.copy()
    values[:, 7] *= -1
    assert checks.check_columns(QUAD, screen.values) == []
    assert any("sign" in p for p in checks.check_columns(QUAD, values))


def test_exported_screen_passes_and_corrupted_value_fails(tmp_path, screen):
    files = _exported(tmp_path, screen)
    ok = _cli_record(str(tmp_path / "ok"), files)
    assert _failed([ok]) == (1, 0)
    lines = files["spinscreen_screen.csv"].splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith("%d,%d," % (
        screen.params.two_x_min + 40, screen.params.two_y_min + 60)))
    tx, ty, u = lines[k].strip().split(",")
    lines[k] = "%s,%s,%.17g\n" % (tx, ty, float(u) * (1 + 1e-6))
    bad = _cli_record(str(tmp_path / "bad"),
                      dict(files, **{"spinscreen_screen.csv": "".join(lines)}))
    assert _failed([bad]) == (1, 1)


def test_displaced_caustic_point_fails(tmp_path, screen):
    files = _exported(tmp_path, screen)
    payload = json.loads(files["spinscreen_caustics.json"])
    lower = payload["caustic_lower"]
    assert checks.check_caustic_points(QUAD, lower) == []
    k = next(i for i, (_, y) in enumerate(lower) if y != "nan")
    lower[k] = [lower[k][0], repr(float(lower[k][1]) + 0.01)]
    assert checks.check_caustic_points(QUAD, lower)
    moved = dict(files, **{"spinscreen_caustics.json": json.dumps(payload)})
    bad = _cli_record(str(tmp_path / "moved"), moved)
    assert _failed([bad]) == (1, 1)


def test_exact_values_match_the_program():
    exact = checks.ExactU()
    params = ss.screen_ranges(*QUAD)
    for tx, ty in ((90, 110), (30, 50), (150, 70)):
        assert ss.u_exact(tx, ty, params).signed_square() == \
            exact.signed_square(QUAD, tx, ty)
    ref = checks.exact_screen((8, 10, 12, 10), exact)
    values = ss.exact.screen_oracle(ss.screen_ranges(8, 10, 12, 10)).values
    assert checks.check_exact_screen((8, 10, 12, 10), values, ref) == []
    values[1, 2] = np.nextafter(values[1, 2], 2.0) + 1e-12
    assert checks.check_exact_screen((8, 10, 12, 10), values, ref)


def test_tracer_patches_every_reference_and_restores_them():
    params = ss.screen_ranges(8, 10, 12, 10)
    builder = ss.cli._SCREEN_BUILDERS["eigensolve"]
    tracer = spans.Tracer()
    tracer.install(ss)
    try:
        ss.cli._SCREEN_BUILDERS["eigensolve"](params)
        ss.cli._SCREEN_BUILDERS["oracle"](params)
        ss.ninej.ninej_exact(4, 4, 6, 2, 4, 4, 6, 4, 4)
    finally:
        tracer.uninstall()
    names = {name for _, _, name, _, _ in tracer.spans}
    assert {"recursion.screen_by_eigensolve", "recursion.eigh_tridiagonal",
            "screen.orthonormality_defect", "exact.screen_oracle",
            "exact.u_exact", "exact.sixj_exact", "ninej.ninej_exact"} <= names
    assert ss.cli._SCREEN_BUILDERS["eigensolve"] is builder
    assert ss.recursion.screen_by_eigensolve is builder
    metrics = tracer.layer_metrics(1, {"cli.import_s": 0.0})
    assert metrics["recursion.screen_by_eigensolve.calls"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(spans.METRICS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "goodput_values_per_s", "req_p50_s", "peak_rss_mb"}
