"""Checks every output a worker wrote and counts the values it delivered.

Each distinct output is checked once against the references in checks.py;
a repeat of the same operation must be bit-identical to it (or, for the
command line, byte-identical files).  Only operations of the threeterm
fault are expected to fail; any other failure makes the run incorrect.
"""

import json
import os
from fractions import Fraction

import numpy as np

import checks

SPOTS_PER_SCREEN = 2
SPOTS_LARGE = 1            # sympy needs seconds per point at side 2001
LARGE_SIDE = 1500
U_EXACT_SPOT_EVERY = 8     # one sympy point per this many u_exact operations


def expected_fault(spec):
    """Operations of the threeterm fault, kept in the workloads on purpose."""
    return spec["kind"] == "row" or (spec["kind"] == "compute"
                                     and spec["arg"] == "threeterm")


def spot_points(values, count):
    """(ix, iy) at the largest entry of evenly spread columns."""
    n = values.shape[1]
    cols = [n * (k + 1) // (count + 1) for k in range(count)]
    return [(int(np.argmax(np.abs(values[:, iy]))), iy) for iy in cols]


class Judge:
    def __init__(self):
        self.exact = checks.ExactU()
        self._exact_screens = {}

    def exact_screen(self, quad):
        if quad not in self._exact_screens:
            self._exact_screens[quad] = checks.exact_screen(quad, self.exact)
        return self._exact_screens[quad]

    # --- library outputs -------------------------------------------------

    def screen(self, quad, values, exact=False, recur2d=False, spots=True):
        problems = checks.check_columns(quad, values)
        if exact or (recur2d and checks.side(quad) <= 61):
            ref = self.exact_screen(quad)
            if recur2d:
                problems += checks.check_exact_screen(
                    quad, values, ref, tol_ulps=0, abs_tol=checks.RECUR2D_TOL)
            else:
                problems += checks.check_exact_screen(quad, values, ref)
        if spots and not problems:
            count = SPOTS_LARGE if values.shape[0] > LARGE_SIDE else SPOTS_PER_SCREEN
            problems += checks.check_spots(quad, values, spot_points(values, count))
        return problems

    def library(self, spec, path, index):
        quad = tuple(spec["quad"])
        kind = spec["kind"]
        if kind == "u_exact":
            with open(path) as fh:
                q, p = json.load(fh)
            got = Fraction(q) ** 2 * int(p) * (1 if Fraction(q) >= 0 else -1)
            tx, ty = spec["arg"]
            problems = []
            if got != self.exact.signed_square(quad, tx, ty):
                problems.append("u_exact%s differs from the Racah sum" % ((tx, ty),))
            elif index % U_EXACT_SPOT_EVERY == 0:
                problems += checks.check_spot(quad, tx, ty,
                                              checks.exact_to_float(got))
            return problems, 1
        values = np.load(path)
        if kind == "row":
            return (checks.check_columns(quad, values[:, None], [spec["arg"]]),
                    values.size)
        if kind == "eigensolve":
            return self.screen(quad, values), values.size
        if kind == "oracle":
            return self.screen(quad, values, exact=True), values.size
        if kind == "recur2d":
            return self.screen(quad, values, recur2d=True), values.size
        raise ValueError("unknown operation kind %r" % kind)

    # --- command-line outputs -------------------------------------------

    def command(self, spec, outdir, code):
        with open(os.path.join(outdir, "_stdout.txt")) as fh:
            stdout = fh.read()
        if spec["kind"] in ("verify", "ninej-check"):
            lines = [ln for ln in stdout.splitlines() if ln.strip()]
            bad = [ln for ln in lines if "  PASS  " not in ln]
            problems = ["exit code %d" % code] if code != 0 else []
            problems += ["not PASS: %s" % ln for ln in bad]
            if not lines:
                problems.append("no check lines printed")
            return problems, len(lines)
        if code != 0:
            return ["exit code %d" % code], 0
        quad = tuple(spec["quad"])
        values = 0
        problems = []
        screen = pr_compare = None
        for name in sorted(os.listdir(outdir)):
            if name.startswith("_"):
                continue
            with open(os.path.join(outdir, name)) as fh:
                text = fh.read()
            if name.endswith(".json"):
                payload = json.loads(text)
                meta, count = payload["metadata"], checks.count_json_numbers(payload)
            else:
                meta, header, table = checks.parse_csv(text)
                payload, count = None, table.size
            values += count
            file_quad = tuple(int(meta[k]) for k in
                              ("two_a", "two_b", "two_c", "two_d"))
            if file_quad != quad:
                problems.append("%s: parameters %r" % (name, file_quad))
                continue
            if name.endswith("_pr_compare.csv"):
                pr_compare = (meta, header, table)   # needs the screen first
                continue
            found = self.exported_file(name, payload, text, spec, quad)
            problems += ["%s: %s" % (name, p) for p in found[0]]
            if found[1] is not None:
                screen = found[1]
        if screen is None:
            problems.append("no screen file written")
        elif pr_compare is not None:
            problems += checks.check_pr_compare(quad, *pr_compare, screen)
        return problems, values

    def exported_file(self, name, payload, text, spec, quad):
        """(problems, screen values or None) of one exported file."""
        if name.endswith("_screen.csv") or name.endswith("_screen.json"):
            _, values = (checks.screen_from_csv(text) if payload is None
                         else checks.screen_from_json(text))
            method = spec["arg"]
            return self.screen(quad, values, exact=method == "oracle",
                               recur2d=method == "recur2d",
                               spots=method.startswith("eigensolve")), values
        if name.endswith("_caustics.json"):
            return (checks.check_caustic_points(quad, payload["caustic_lower"])
                    + checks.check_caustic_points(quad, payload["caustic_upper"]),
                    None)
        if name.endswith("_ridges.json"):
            return checks.check_ridges(quad, payload), None
        if name.endswith("_potentials.json"):
            return checks.check_potentials(quad, payload), None
        if "_cos_theta3." in name:
            grid = (checks.grid_from_csv(text, "cos_theta3") if payload is None
                    else np.array(payload["cos_theta3"], dtype=float).T)
            return checks.check_cos_theta3(quad, grid), None
        return ["unexpected file"], None


def _shared_file_problems(records):
    """Every file name written by more than one eigensolve run of the same
    screen (the repeated CSV run, and the files that do not depend on
    --format) must hold the same bytes in each."""
    problems = {}
    by_quad = {}
    for k, rec in enumerate(records):
        spec = rec["spec"]
        if spec["kind"] == "compute" and str(spec["arg"]).startswith("eigensolve") \
                and rec["file"]:
            by_quad.setdefault(tuple(spec["quad"]), []).append(k)
    for idx in by_quad.values():
        contents = {}
        for k in idx:
            outdir = records[k]["file"]
            for name in os.listdir(outdir):
                if not name.startswith("_"):
                    with open(os.path.join(outdir, name), "rb") as fh:
                        contents.setdefault(name, {})[k] = fh.read()
        for name, per_op in contents.items():
            first = next(iter(per_op.values()))
            for k, data in per_op.items():
                if data != first:
                    problems.setdefault(k, []).append(
                        "%s differs between runs of the same screen" % name)
    return problems


def judge(result):
    """Verdicts for every attempted operation of a worker's run.

    Returns (attempted, failed, passed values, unexpected failures, notes).
    """
    records = result["ops"]
    judge_ = Judge()
    cross = _shared_file_problems(records)
    attempted = failed = values = 0
    unexpected = []
    failed_by_kind = {}
    exact_index = 0
    for k, rec in enumerate(records):
        spec = rec["spec"]
        problems = []
        count = 0
        if rec["file"] is not None:
            if spec["argv"] is not None:
                code = _exit_code(rec)
                problems, count = judge_.command(spec, rec["file"], code)
            else:
                problems, count = judge_.library(spec, rec["file"], exact_index)
            problems += cross.get(k, [])
        if spec["kind"] == "u_exact":
            exact_index += 1
        first = next((d for d in rec["digest"] if d is not None), None)
        for error, fingerprint in zip(rec["error"], rec["digest"]):
            attempted += 1
            why = error or (problems[0] if problems else None)
            if why is None and fingerprint != first:
                why = "output differs from the first run of this operation"
            if why is None:
                values += count
                continue
            failed += 1
            failed_by_kind[spec["kind"]] = failed_by_kind.get(spec["kind"], 0) + 1
            if not expected_fault(spec):
                unexpected.append("%s: %s" % (spec["id"], why))
    return attempted, failed, values, unexpected, failed_by_kind


def _exit_code(rec):
    with open(os.path.join(rec["file"], "_code.txt")) as fh:
        return int(fh.read())
