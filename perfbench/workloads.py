"""The three workloads as seeded operation lists.

One caller runs each list in a closed loop, one operation at a time, in whole
rounds.  Everything that can fail is fixed here and does not depend on the
seed: the seed draws the random large-kappa quadruples, the exact-value
points and the order of each round.
"""

import random

from checks import ranges, side

WORKLOADS = ("large-kappa", "exact-small", "cli-pipeline")

# large-kappa: whole screens by eigensolve, single rows by threeterm
LK_SCREENS = ((600, 900, 1200, 1100), (2000, 3000, 4000, 3666),
              (1000, 1000, 1000, 1000), (960, 430, 1070, 500))
LK_SEEDED_SCREENS = 2
LK_SEEDED_SIDE = 601
# rows per screen; the side-2001 rows are the middle of the latency order,
# so req_p50_s is the median of one kind of row rather than a group boundary
LK_ROWS = {(600, 900, 1200, 1100): 8, (2000, 3000, 4000, 3666): 32,
           (1000, 1000, 1000, 1000): 8, (960, 430, 1070, 500): 8}

# exact-small: exact screens, exact points, Decimal cross recursion
ES_ORACLE = ((60, 90, 120, 110), (40, 60, 80, 74), (20, 30, 40, 36))
# one seeded point in each of strata x strata blocks; the side-201 points
# are the middle of the latency order
ES_POINTS = {(200, 300, 400, 366): 10, (120, 180, 240, 220): 4,
             (60, 90, 120, 110): 4}
ES_RECUR2D = ((60, 90, 120, 110), (120, 180, 240, 220), (200, 300, 400, 366))

# cli-pipeline: one subprocess per operation
CLI_SIDES = {61: (60, 90, 120, 110), 201: (200, 300, 400, 366),
             601: (600, 900, 1200, 1100)}
CLI_OUTPUTS = "screen,caustics,ridges,potentials,cos-theta3,pr-compare"
# identical side-61 CSV runs after the first: their files must equal its
# bytes, and with them the small start-up-bound invocations are the middle
# of the latency order, so req_p50_s follows start-up and import
CLI_REPEATS = 7


class Op:
    """One operation: a kind, its inputs, and a stable identifier."""

    def __init__(self, kind, quad=None, arg=None, argv=None):
        self.kind = kind
        self.quad = tuple(quad) if quad else None
        self.arg = arg
        self.argv = argv
        parts = [kind] + (["%d,%d,%d,%d" % self.quad] if quad else [])
        if arg is not None:
            parts.append(str(arg))
        self.id = ":".join(parts)

    def spec(self):
        return {"id": self.id, "kind": self.kind, "quad": self.quad,
                "arg": self.arg, "argv": self.argv}


def quad_with_side(rng, n, lo=200, hi=2400):
    """A random integer-spin quadruple whose screen has exactly n points a side."""
    for _ in range(1000000):
        quad = tuple(rng.randrange(lo, hi, 2) for _ in range(4))
        x0, x1, y0, y1 = ranges(quad)
        if x1 >= x0 and y1 >= y0 and (x1 - x0) // 2 + 1 == n:
            return quad
    raise RuntimeError("no quadruple of side %d found" % n)


def even_rows(quad, count):
    n = side(quad)
    return sorted({round(k * (n - 1) / (count - 1)) for k in range(count)})


def stratified_points(rng, quad, strata):
    """One random lattice point (two_x, two_y) in each of strata^2 blocks."""
    x0, _, y0, _ = ranges(quad)
    n = side(quad)
    edges = [round(i * n / strata) for i in range(strata + 1)]
    points = []
    for i in range(strata):
        for j in range(strata):
            ix = rng.randrange(edges[i], edges[i + 1])
            iy = rng.randrange(edges[j], edges[j + 1])
            points.append((x0 + 2 * ix, y0 + 2 * iy))
    return points


def _cli_params(quad):
    return ["--two-a", str(quad[0]), "--two-b", str(quad[1]),
            "--two-c", str(quad[2]), "--two-d", str(quad[3])]


def cli_ops():
    ops = []
    for n, quad in sorted(CLI_SIDES.items()):
        for fmt in ("csv", "json"):
            ops.append(Op("compute", quad, "eigensolve-" + fmt,
                          ["compute"] + _cli_params(quad) + [
                              "--output", CLI_OUTPUTS, "--format", fmt]))
    q61, q201, q601 = CLI_SIDES[61], CLI_SIDES[201], CLI_SIDES[601]
    for k in range(CLI_REPEATS):
        ops.append(Op("compute", q61, "eigensolve-csv-repeat%d" % k,
                      ["compute"] + _cli_params(q61) + [
                          "--output", CLI_OUTPUTS, "--format", "csv"]))
    for method in ("oracle", "recur2d"):
        ops.append(Op("compute", q61, method,
                      ["compute"] + _cli_params(q61) + ["--method", method]))
    ops.append(Op("verify", q61, None, ["verify"] + _cli_params(q61)))
    ops.append(Op("ninej-check", None, "count-100-reduce",
                  ["ninej-check", "--count", "100", "--reduce"]))
    # the threeterm fault: wrong rows at side 201, exit 3 at side 601
    for quad in (q201, q601):
        ops.append(Op("compute", quad, "threeterm",
                      ["compute"] + _cli_params(quad) + ["--method", "threeterm"]))
    return ops


def build(workload, seed):
    """The operations of one round, in the seeded order."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "large-kappa":
        seeded = [quad_with_side(rng, LK_SEEDED_SIDE)
                  for _ in range(LK_SEEDED_SCREENS)]
        ops = [Op("eigensolve", q) for q in LK_SCREENS + tuple(seeded)]
        ops += [Op("row", q, iy) for q, count in LK_ROWS.items()
                for iy in even_rows(q, count)]
    elif workload == "exact-small":
        ops = [Op("oracle", q) for q in ES_ORACLE]
        ops += [Op("recur2d", q) for q in ES_RECUR2D]
        ops += [Op("u_exact", q, pt) for q, strata in ES_POINTS.items()
                for pt in stratified_points(rng, q, strata)]
    elif workload == "cli-pipeline":
        ops = cli_ops()
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(ops)
    return ops


def warmup_ops(workload):
    """Small untimed calls that load every code path before timing."""
    q = (60, 90, 120, 110)
    if workload == "large-kappa":
        return [Op("eigensolve", q), Op("row", q, 30)]
    if workload == "exact-small":
        return [Op("oracle", (8, 10, 12, 10)), Op("recur2d", (8, 10, 12, 10)),
                Op("u_exact", q, (90, 110))]
    return [Op("compute", q, "warmup",
               ["compute"] + _cli_params(q) + ["--output", "screen"])]
