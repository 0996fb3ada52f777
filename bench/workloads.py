"""Seeded command streams for the three benchmark workloads.

A workload is an endless sequence of rounds; a round is a list of argv lists
for ``astheno.cli.main``.  Round r depends only on (workload, seed, r), so a
seed always gives the same commands, and the engine never sees the seed.

Every round of a workload has the same mix of command classes, and each class
draws its sizes from a narrow band picked so that the classes that run the
``Omega^k`` power loop cost about the same on the seed engine.  That keeps the
round cost, the median and the tail nearly independent of the seed: a seed
changes which geometries, kinds, pins and formats run, not how much work a
round is.

Every command comes from a fixed pool that does not depend on the seed; the
seed only picks from the pools and orders them.  So ``pool_commands`` lists
every command any seed can run, and the golden file covers all of them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("scan-grid", "high-dim", "audit-tables")

KINDS = ("sasakian", "kenmotsu", "cosymplectic", "trans-sasakian")
CONVENTIONS = ("graded", "ungraded")

# (condition, convention, square grid, lopsided grid of about the same area).
# Astheno under the graded rule computes the power loop twice (direct and
# expansion guard), so it gets the smallest grids; skt has no power loop and
# gets the largest.
SCAN_CLASSES = (
    ("astheno", "graded", (7, 7), (5, 10)),
    ("astheno", "ungraded", (8, 9), (6, 12)),
    ("gauduchon", "graded", (10, 10), (7, 14)),
    ("gauduchon", "ungraded", (10, 10), (7, 14)),
    ("skt", "graded", (11, 12), (8, 16)),
    ("skt", "ungraded", (11, 12), (8, 16)),
)

# (condition, convention, target m1 * m2) for ``check``; the power-loop
# classes cost roughly 0.2 s each on the seed engine.  skt has no power
# loop, so its geometries range freely over the tens to low hundreds.
HIGH_DIM_CLASSES = (
    ("astheno", "graded", 2600),
    ("astheno", "ungraded", 4400),
    ("gauduchon", "graded", 5200),
    ("gauduchon", "ungraded", 5200),
    ("skt", "graded", None),
    ("skt", "ungraded", None),
)

# check commands per high-dim class: every geometry of astheno graded's band,
# so no tensor repeats before an engine runs that many rounds in one run
HIGH_DIM_POOL = 384

AUDIT_VERIFIES = 2
# pool sizes of audit-tables: verify seeds, and variants of each eval command
VERIFY_SEEDS = 64
EVAL_VARIANTS = 16
BIG_EXPONENT_EXPRS = (
    "Phi1^{n}",
    "Phi2^{n}",
    "a1^{n}",
    "b2^{n}",
    "a2^{n}*Phi1^{k}",
    "b1^{n}*eta1/\\Phi2^{k}",
)


def fixture_expressions(root: Path) -> tuple:
    """The 90 verbatim table rows and 5 displays, in file order."""
    path = root / "src" / "astheno" / "data" / "reference_tables.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    rows = [row["expr"] for table in raw["tables"] for row in table["rows"]]
    displays = [entry["expr"] for entry in raw["equations"].values()]
    return tuple(rows + displays)


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (workload, seed) + parts))


def _pool_rng(workload: str, *parts) -> random.Random:
    """The same for every seed: draws the pools the seeds pick from."""
    return random.Random("/".join(str(p) for p in (workload, "pool") + parts))


def _geometry_pool(target: int | None, rng: random.Random) -> list:
    """Distinct (m1, m2), m1 != m2, shuffled; within 8% of the target product."""
    if target is None:
        pool = [(a, b) for a in range(10, 151) for b in range(10, 151) if a != b]
    else:
        lo, hi = target * 0.92, target * 1.08
        pool = [
            (a, b)
            for a in range(10, math.isqrt(target * 3))
            for b in range(max(10, math.ceil(lo / a)), math.floor(hi / a) + 1)
            if a != b and max(a, b) <= 2.5 * min(a, b)
        ]
    rng.shuffle(pool)
    return pool


def _rational(rng: random.Random, nonzero: bool) -> str:
    while True:
        num, den = rng.randint(-5, 5), rng.randint(1, 4)
        if num or not nonzero:
            return str(num) if den == 1 or not num else f"{num}/{den}"


def _factor_args(rng: random.Random, idx: int) -> list:
    kind = rng.choice(KINDS)
    args = [f"--factor{idx}", kind]
    pin_alpha = kind in ("sasakian", "trans-sasakian") and rng.random() < 0.5
    pin_beta = kind in ("kenmotsu", "trans-sasakian") and rng.random() < 0.5
    # the = form keeps a negative pin from reading as an option
    if pin_alpha:
        args.append(f"--alpha{idx}={_rational(rng, nonzero=kind == 'sasakian')}")
    if pin_beta:
        args.append(f"--beta{idx}={_rational(rng, nonzero=kind == 'kenmotsu')}")
    return args


def _scan_argv(condition: str, convention: str, n1: int, n2: int) -> list:
    return ["scan", "--max-m1", str(n1), "--max-m2", str(n2),
            "--condition", condition, "--convention", convention, "--format", "json"]


def _scan_commands() -> list:
    """Both orientations of every scan class's two grids."""
    cmds = []
    for condition, convention, square, lopsided in SCAN_CLASSES:
        for n1, n2 in (square, square[::-1], lopsided, lopsided[::-1]):
            cmd = _scan_argv(condition, convention, n1, n2)
            if cmd not in cmds:
                cmds.append(cmd)
    return cmds


def _scan_round(seed: int, r: int) -> list:
    rng = _rng("scan-grid", seed, r)
    cmds = []
    for condition, convention, square, lopsided in SCAN_CLASSES:
        for shape in (square, lopsided):
            n1, n2 = shape if rng.random() < 0.5 else shape[::-1]
            cmds.append(_scan_argv(condition, convention, n1, n2))
    rng.shuffle(cmds)
    return cmds


def _high_dim_pools() -> list:
    """Per class, HIGH_DIM_POOL check commands at distinct geometries."""
    pools = []
    for cls, (condition, convention, target) in enumerate(HIGH_DIM_CLASSES):
        rng = _pool_rng("high-dim", cls)
        pool = []
        for m1, m2 in _geometry_pool(target, rng)[:HIGH_DIM_POOL]:
            fmt = rng.choice(("text", "json", "json", "text", "latex"))
            pool.append(
                ["check", "--m1", str(m1), "--m2", str(m2)]
                + _factor_args(rng, 1)
                + _factor_args(rng, 2)
                + ["--condition", condition, "--convention", convention,
                   "--format", fmt]
            )
        pools.append(pool)
    return pools


def _high_dim_rounds(seed: int):
    pools = _high_dim_pools()
    orders = []
    for cls, pool in enumerate(pools):
        order = list(range(len(pool)))
        _rng("high-dim", seed, "order", cls).shuffle(order)
        orders.append(order)
    r = 0
    while True:
        # a class repeats its geometries only after HIGH_DIM_POOL rounds;
        # properties() reports the repeat share of the commands a run ran
        cmds = [list(pool[order[r % len(pool)]]) for pool, order in zip(pools, orders)]
        _rng("high-dim", seed, r).shuffle(cmds)
        yield cmds
        r += 1


def _eval_command(expr: str, rng: random.Random) -> list:
    cmd = ["eval", f"--expr={expr}"]
    for _ in range(rng.randint(0, 3)):
        cmd += ["--apply", rng.choice(("d", "dc", "j"))]
    cmd += ["--convention", rng.choice(CONVENTIONS),
            "--format", rng.choice(("text", "latex", "json"))]
    if rng.random() < 0.5:
        m1 = rng.randint(1, 4)
        cmd += ["--m1", str(m1), "--m2", str(rng.randint(1, 5 - m1))]
    return cmd


def _big_exponent_command(template: str, rng: random.Random) -> list:
    expr = template.format(n=rng.randint(1000, 4000), k=rng.randint(1000, 2000))
    cmd = ["eval", f"--expr={expr}", "--apply", rng.choice(("d", "dc"))]
    if rng.random() < 0.5:
        cmd += ["--m1", str(rng.randint(1, 3)), "--m2", str(rng.randint(1, 2))]
    return cmd + ["--format", rng.choice(("text", "json"))]


def _audit_pools(exprs: tuple) -> tuple:
    """verify commands, table commands, and the variants of each eval."""
    rng = _pool_rng("audit-tables", "verify")
    verifies = [["verify", "--seed", str(rng.randrange(10**6)), "--format", "json"]
                for _ in range(VERIFY_SEEDS)]
    tables = [
        ["table", "--id", str(table_id), "--convention", convention, "--format", fmt]
        for table_id in range(1, 11)
        for convention in CONVENTIONS
        for fmt in ("text", "json")
    ]
    evals = [
        [_eval_command(expr, _pool_rng("audit-tables", "eval", i, k))
         for k in range(EVAL_VARIANTS)]
        for i, expr in enumerate(exprs)
    ]
    evals += [
        [_big_exponent_command(template, _pool_rng("audit-tables", "big", i, k))
         for k in range(EVAL_VARIANTS)]
        for i, template in enumerate(BIG_EXPONENT_EXPRS)
    ]
    return verifies, tables, evals


def _audit_round(seed: int, r: int, pools: tuple) -> list:
    verifies, tables, evals = pools
    rng = _rng("audit-tables", seed, r)
    cmds = rng.sample(verifies, AUDIT_VERIFIES) + tables
    cmds += [rng.choice(variants) for variants in evals]
    cmds = [list(cmd) for cmd in cmds]
    rng.shuffle(cmds)
    return cmds


def pool_commands(workload: str, root: Path) -> list:
    """Every command that a round of the workload can hold, for any seed."""
    if workload == "scan-grid":
        return _scan_commands()
    if workload == "high-dim":
        return [cmd for pool in _high_dim_pools() for cmd in pool]
    if workload == "audit-tables":
        verifies, tables, evals = _audit_pools(fixture_expressions(root))
        return verifies + tables + [cmd for variants in evals for cmd in variants]
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seed: int, root: Path):
    """Endless generator of rounds (lists of argv) for one workload and seed."""
    if workload == "scan-grid":
        r = 0
        while True:
            yield _scan_round(seed, r)
            r += 1
    elif workload == "high-dim":
        yield from _high_dim_rounds(seed)
    elif workload == "audit-tables":
        pools = _audit_pools(fixture_expressions(root))
        r = 0
        while True:
            yield _audit_round(seed, r, pools)
            r += 1
    else:
        raise ValueError(f"unknown workload {workload!r}")


def properties(commands: list) -> dict:
    """Input properties of the commands a run executed.

    ``tensor_repeat_share_argv`` is the share of the (m1, m2, condition,
    convention) tensors asked for by ``check`` and ``scan`` commands that an
    earlier command of the run already asked for (None when the run has
    neither); the traced run counts the engine's own tensor calls instead.
    """
    max_m = 0
    expr_bytes = 0
    tensors = repeats = 0
    seen = set()
    for argv in commands:
        opts = dict(zip(argv, argv[1:]))
        if argv[0] == "scan":
            n1, n2 = int(opts["--max-m1"]), int(opts["--max-m2"])
            max_m = max(max_m, n1 + n2 + 1)
            keys = [(a, b) for a in range(1, n1 + 1) for b in range(1, n2 + 1)]
        elif argv[0] == "check":
            keys = [(int(opts["--m1"]), int(opts["--m2"]))]
        else:
            keys = []
        for key in keys:
            key += (opts["--condition"], opts["--convention"])
            tensors += 1
            repeats += key in seen
            seen.add(key)
        if "--m1" in opts:
            max_m = max(max_m, int(opts["--m1"]) + int(opts["--m2"]) + 1)
        for arg in argv:
            if arg.startswith("--expr="):
                expr_bytes += len(arg[len("--expr="):].encode("utf-8"))
    return {"commands": len(commands), "max_m": max_m, "expr_bytes": expr_bytes,
            "tensor_repeat_share_argv": repeats / tensors if tensors else None}
