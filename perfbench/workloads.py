"""Seeded job streams of the gzcount benchmark and the checks on their answers.

``make_jobs(workload, seed, pass_index)`` turns a seed into job lists.  A job is
a plain tuple, so two job lists are equal exactly when they hold the same
jobs in the same order.  Sizes are drawn in bands (the i-th of n draws
falls in the i-th of n equal slices of its range), so seeds change the
inputs but hardly the total work, and run-to-run spread stays small.

Every job is checked against a route that shares no code with the one
being timed.  ``run_job`` returns None for a checked answer and a short
reason for a wrong one; an exception counts as a failed job.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from gzcount import counting, genfun, oracle
from gzcount.polyseries import format_rational

WORKLOADS = ("count-cold", "oracle-xcheck", "series-verify", "cli-cache")

# Default seed and a held-out seed kept for later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

ORACLE_LIMIT_DIM = 15  # ambient dimension of n = 6


def make_jobs(workload: str, seed: int, pass_index: int = 0) -> list[tuple]:
    """Job list of one pass; each pass of a run draws its own list from the seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}/{pass_index}"))


def _banded(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n draws from [lo, hi], the i-th from the i-th of n equal slices."""
    width = (hi - lo + 1) / n
    draws = []
    for i in range(n):
        first = lo + int(i * width)
        draws.append(rng.randint(first, max(first, lo + int((i + 1) * width) - 1)))
    return draws


def _composition(rng: random.Random, total: int, parts: int, max_part: int | None = None) -> tuple:
    """Random composition of ``total`` into ``parts`` positive parts."""
    if max_part is None:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        bounds = [0] + cuts + [total]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))
    mults = [1] * parts
    for _ in range(total - parts):
        mults[rng.choice([i for i, v in enumerate(mults) if v < max_part])] += 1
    return tuple(mults)


# ------------------------------------------------------------ count-cold

# Wide vectors: distinct values k -> jobs per pass; parts 1..3 and at most
# WIDE_MAX_BOXES boxes.  Children fan out as 2^(k-1).  At 12 boxes one
# k = 10 vector takes 0.3-1.0 s, which makes a pass's total depend on the
# seed; 11 boxes keeps it to ~0.3 s.
WIDE = {4: 12, 5: 10, 6: 8, 7: 6, 8: 4, 9: 3, 10: 3}
WIDE_MAX_BOXES = 11
# Deep vectors: (distinct values, fewest boxes, most boxes, smallest and
# largest product of the multiplicities, jobs per pass).  Four values stop
# at 24 boxes: a_infinity((12,12,12,9)) alone takes ~4.5 s.  The cost of a
# deep vector follows the product of its multiplicities far more closely
# than their sum (log-log correlation 0.94 against 0.72 for three values),
# so the products are drawn in bands of their logarithm; drawn freely, the
# number of costly deep vectors in a pass moved with the seed.
DEEP = ((2, 20, 45, 20, 400, 20), (3, 20, 45, 50, 2000, 12), (4, 12, 24, 20, 600, 10))
# Skewed (k, 1, 1): one draw in each band of 100 up to k = 1200.
SKEWED_BANDS = 12


def _count_cold_jobs(rng: random.Random) -> list[tuple]:
    jobs = []
    for k, n in WIDE.items():
        for total in _banded(rng, k, min(3 * k, WIDE_MAX_BOXES), n):
            jobs.append(("count", _composition(rng, total, k, max_part=3)))
    for k, lo, hi, low_product, high_product, n in DEEP:
        step = math.log(high_product / low_product) / n
        for i in range(n):
            jobs.append(("count", _deep_vector(rng, k, lo, hi, low_product * math.exp(i * step),
                                               low_product * math.exp((i + 1) * step))))
    for k in _banded(rng, 1, 100 * SKEWED_BANDS, SKEWED_BANDS):
        jobs.append(("count", (k, 1, 1)))
    rng.shuffle(jobs)
    return jobs


def _deep_vector(rng: random.Random, k: int, lo: int, hi: int, low: float, high: float) -> tuple:
    """Random composition of lo..hi boxes into k parts with product in [low, high)."""
    while True:
        mults = _composition(rng, rng.randint(lo, hi), k)
        if low <= math.prod(mults) < high:
            return mults


def _run_count(mults: tuple) -> str | None:
    """Library equivalent of ``gzcount count --method all`` without the oracle.

    Every route starts cold: a fresh CountCache, a fresh fiber memo and
    an empty recurrence memo, as in a fresh ``gzcount`` process.
    """
    answers = {
        "a-infinity": counting.a_infinity(mults, counting.CountCache()),
        "fiber": counting.count_by_fiber_recursion(mults, {}),
    }
    if len(mults) == 3:
        answers["formula"] = counting.binomial_formula_V(*mults)
    if len(mults) <= 3:
        counting._REC3_MEMO.clear()
        answers["recurrence"] = counting.recurrence_V3(*(mults + (0,) * (3 - len(mults))))
    if len(set(answers.values())) != 1:
        return f"routes disagree on {mults}: {answers}"
    return None


# --------------------------------------------------------- oracle-xcheck

# Free dimension d -> jobs per pass.  The oracle's cost follows d, not n:
# d = 6 takes ~30 ms, d = 8 ~0.3 s, d = 9 ~1 s and d = 10 ~2 s on one
# 2-core VM.  Counts are whole cycles through the patterns of each d from
# 5 up (d = 9 has eight, from n = 5 and n = 6), so the seed moves the
# values of lambda but not the pass's total work.  Sorted by cost, the
# d = 6 jobs form two groups: (1, 1, 1, 1) at about half the cost of
# (2, 3) and (3, 2).  The median job falls in the middle of the twenty
# (2, 3) and (3, 2) jobs, with as many cheaper jobs below them as dearer
# ones above, so a few noisy timings cannot move it into a neighbouring
# group, and the 90th percentile falls among the d = 9 jobs.  A pass has
# few jobs of d < 6, because more jobs below the median group would have
# to be balanced by more jobs above it, pushing the 90th percentile down
# out of the d = 9 group.  A run needs two passes for ten jobs beyond
# the 90th percentile (run.MIN_PASSES).
ORACLE_SCHEDULE = {0: 2, 1: 1, 2: 2, 3: 3, 4: 3, 5: 5, 6: 30, 7: 12, 8: 5, 9: 8, 10: 1}
ORACLE_MAX_N = 6


def free_dimension(mults: tuple) -> int:
    """Coordinates of the pattern not pinned by repeated values of lambda."""
    lam = [i for i, m in enumerate(mults) for _ in range(m)]
    n = len(lam)
    return sum(1 for i in range(1, n) for j in range(1, n - i + 1) if lam[j - 1] != lam[i + j - 1])


def _patterns_by_free_dimension() -> dict[int, list[tuple]]:
    out: dict[int, list[tuple]] = {}
    for n in range(1, ORACLE_MAX_N + 1):
        for cut_count in range(n):
            for cuts in combinations(range(1, n), cut_count):
                bounds = (0,) + cuts + (n,)
                mults = tuple(b - a for a, b in zip(bounds, bounds[1:]))
                out.setdefault(free_dimension(mults), []).append(mults)
    return out


def _oracle_jobs(rng: random.Random) -> list[tuple]:
    patterns = _patterns_by_free_dimension()
    jobs = []
    for d, n in ORACLE_SCHEDULE.items():
        cycle = rng.sample(patterns[d], len(patterns[d]))
        for i in range(n):
            mults = cycle[i % len(cycle)]
            value = rng.randint(-20, 20)
            lam = []
            for m in mults:
                lam.extend([value] * m)
                value += rng.randint(1, 9)
            jobs.append(("oracle", tuple(lam)))
    rng.shuffle(jobs)
    return jobs


def _run_oracle(lam: tuple) -> str | None:
    got = oracle.oracle_count(oracle.GZShape(lam), limit_dim=ORACLE_LIMIT_DIM)
    mults = counting.MultiplicityVector.from_partition(lam).mults
    want = counting.count_by_fiber_recursion(mults, {})
    return None if got == want else f"oracle {got} != fiber {want} on {lam}"


# --------------------------------------------------------- series-verify

# Kind -> (jobs per pass, size range).  pde/dde take (k, cap) ranges per k.
SERIES_MIX = {
    "pde": {1: (4, 2, 22), 2: (4, 2, 20), 3: (4, 3, 15), 4: (4, 4, 12), 5: (4, 5, 11)},
    "dde": {1: (4, 2, 22), 2: (4, 2, 20), 3: (4, 3, 15), 4: (4, 4, 12), 5: (4, 5, 11)},
    "g3": (12, 2, 24),
    "e2": (8, 2, 24),
    "h": (12, 2, 18),
    "g3closed": (12, 2, 24),
    "coeff": (14, 1, 12),
    "tri": (14, 1, 40),
    "g4": (6, 4, 20),
}


def _up_to(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """``hi`` once and n - 1 banded draws below it.

    The shared memo tables make a kind's cost follow its largest size, so
    every pass reaches the top of each range exactly once.
    """
    return _banded(rng, lo, hi - 1, n - 1) + [hi]


def _series_jobs(rng: random.Random) -> list[tuple]:
    jobs = []
    for kind in ("pde", "dde"):
        for k, (n, lo, hi) in SERIES_MIX[kind].items():
            jobs.extend((kind, k, cap) for cap in _up_to(rng, lo, hi, n))
    for kind in ("g3", "e2", "h", "g3closed", "g4"):
        n, lo, hi = SERIES_MIX[kind]
        jobs.extend((kind, cap) for cap in _up_to(rng, lo, hi, n))
    n, lo, hi = SERIES_MIX["coeff"]
    for total in _banded(rng, 3 * lo, 3 * hi, n):
        jobs.append(("coeff",) + _composition(rng, total, 3, max_part=hi))
    n, lo, hi = SERIES_MIX["tri"]
    for s in _up_to(rng, lo, hi, n):
        jobs.append(("tri", s, rng.choice(("plain", "skew"))))
    rng.shuffle(jobs)
    return jobs


def _report(report) -> str | None:
    return None if report.ok else f"nonzero residual: {report.summary()}"


def _run_series(job: tuple) -> str | None:
    kind = job[0]
    if kind == "pde":
        return _report(genfun.verify_pde_E(job[1], job[2]))
    if kind == "dde":
        return _report(genfun.verify_dde_G(job[1], job[2]))
    if kind == "g3":
        return _report(genfun.verify_g3(job[1]))
    if kind == "e2":
        return _report(genfun.verify_e2(job[1]))
    if kind == "h":
        return _report(genfun.verify_h(job[1]))
    if kind == "g3closed":
        cap = job[1]
        if genfun.closed_form_G3(cap) != genfun.build_G(3, cap):
            return f"closed form of G3 differs from the counts at cap {cap}"
        return None
    if kind == "coeff":
        got, want = counting.coeff_theorem_V(*job[1:]), counting.binomial_formula_V(*job[1:])
        return None if got == want else f"coeff_theorem_V{job[1:]} = {got} != {want}"
    if kind == "tri":
        s, variant = job[1], job[2]
        table = counting.tri_table(s, variant)
        poly = counting.g_polynomial(s) if variant == "plain" else counting.h_polynomial(s)
        expected = {(m.exponent(1), m.exponent(2)): c for m, c in poly.items()}
        got = {cell: v for cell, v in table.entries.items() if v}
        return None if got == expected else f"{variant} table {s} differs from its polynomial"
    if kind == "g4":
        for mults, count in genfun.g4_explore(job[1]):
            if count != counting.count_by_fiber_recursion(mults):
                return f"g4_explore count {count} for {mults} differs from the fiber route"
        return None
    raise ValueError(f"unknown series job {job!r}")


def run_job(job: tuple) -> str | None:
    """Run one in-process job; None when its answer checks out."""
    if job[0] == "count":
        return _run_count(job[1])
    if job[0] == "oracle":
        return _run_oracle(job[1])
    return _run_series(job)


# -------------------------------------------------------------- cli-cache

# Jobs per pass of each kind; writers add cache entries, readers do not.
# The series writers are twice as many as the g4 writers after the first.
CLI_MIX = {"count-new": 24, "series": 6, "g4": 4, "count-cached": 36,
           "stats": 10, "table": 12, "verify": 8}


def _partition_text(rng: random.Random, mults: tuple) -> str:
    value = rng.randint(-9, 9)
    tokens = []
    for m in mults:
        tokens.append(f"{value}^{m}" if m > 1 else str(value))
        value += rng.randint(1, 5)
    return " ".join(tokens)


def _cli_jobs(rng: random.Random) -> list[tuple]:
    """A sequence of gzcount argument vectors sharing one cache file.

    The first job writes every four-value count up to total 6, so the
    later ``verify all --cap <= 6`` readers find all their entries.  The
    last g4-explore writer has cap 20, so the file ends at ~6k entries.
    The series and g4-explore writers, which grow the file most, start
    evenly spaced stretches of shuffled jobs, so the file grows alike in
    every pass and the seed hardly moves what the jobs load and save.
    """
    g4_caps = sorted(_banded(rng, 6, 19, CLI_MIX["g4"] - 1)) + [20]
    series = sorted(zip([2, 2, 2, 3, 3, 3], _banded(rng, 10, 20, 3) + _banded(rng, 8, 18, 3)),
                    key=lambda kc: kc[1])
    others = ["count-new"] * (CLI_MIX["count-new"] - 1) + ["count-cached"] * CLI_MIX["count-cached"]
    for kind in ("stats", "table", "verify"):
        others += [kind] * CLI_MIX[kind]
    rng.shuffle(others)
    writers = ["series", "series", "g4"] * (CLI_MIX["g4"] - 1)
    stretch = len(others) / len(writers)
    kinds = ["g4", "count-new"]
    for i, writer in enumerate(writers):
        kinds += [writer] + others[round(i * stretch):round((i + 1) * stretch)]
    written: list[str] = []
    jobs = []
    for kind in kinds:
        if kind == "g4":
            jobs.append(("g4-explore", "--cap", str(g4_caps.pop(0))))
        elif kind == "series":
            k, cap = series.pop(0)
            jobs.append(("series", "G", "--k", str(k), "--cap", str(cap)))
        elif kind == "count-new":
            k = rng.randint(3, 6)
            text = _partition_text(rng, _composition(rng, rng.randint(k, 12), k, max_part=4))
            written.append(text)
            jobs.append(("count", text))
        elif kind == "count-cached":
            jobs.append(("count", rng.choice(written)))
        elif kind == "stats":
            jobs.append(("cache", "stats"))
        elif kind == "table":
            variant = rng.choice(("plain", "skew"))
            jobs.append(("table", str(rng.randint(1, 30)), "--variant", variant))
        else:
            jobs.append(("verify", "all", "--cap", str(rng.randint(4, 6))))
    return jobs


def cli_expected(jobs: list[tuple]) -> list[str]:
    """Stdout each CLI job must print, computed through the library.

    A mirror CountCache follows the entries every job adds to the shared
    cache file, so ``cache stats`` has an exact expected answer.
    """
    from gzcount.cli import parse_partition

    mirror = counting.CountCache()
    out = []
    for argv in jobs:
        cmd = argv[0]
        if cmd == "count":
            values = parse_partition(argv[1])
            mults = counting.MultiplicityVector.from_partition(values).mults
            out.append(f"{counting.a_infinity(mults, mirror)}\n")
        elif cmd == "series":
            k, cap = int(argv[3]), int(argv[5])
            names = ["x", "y", "z"] if k == 3 else [f"y{i}" for i in range(1, k + 1)]
            lines = [",".join(names + ["coefficient"])]
            for e, c in genfun.build_G(k, cap, mirror).terms_sorted():
                lines.append(",".join([str(v) for v in e] + [format_rational(c)]))
            out.append("\n".join(lines) + "\n")
        elif cmd == "g4-explore":
            lines = ["i1,i2,i3,i4,count"]
            for e, c in genfun.g4_explore(int(argv[2]), mirror):
                lines.append(",".join(str(v) for v in e) + f",{c}")
            out.append("\n".join(lines) + "\n")
        elif cmd == "cache":
            stats = mirror.stats()
            out.append(f"entries {stats['entries']}\nmax-total-degree {stats['max_total']}\n")
        elif cmd == "table":
            table = counting.tri_table(int(argv[1]), argv[3])
            rows = []
            for m in range(table.s, -1, -1):
                cells = [table.entries.get((k, m)) for k in range(table.s + 1)]
                rows.append(",".join("" if c is None else str(c) for c in cells))
            out.append("\n".join(rows) + "\n")
        elif cmd == "verify":
            cap = int(argv[3])
            reports = [genfun.verify_pde_E(k, cap, mirror) for k in range(1, 5)]
            reports += [genfun.verify_dde_G(k, cap, mirror) for k in range(1, 5)]
            reports += [genfun.verify_g3(cap, mirror), genfun.verify_e2(cap, mirror),
                        genfun.verify_h(cap)]
            ok = all(r.ok for r in reports)
            lines = [r.summary() for r in reports]
            lines.append("all identities verified" if ok else "verification FAILED")
            out.append("\n".join(lines) + "\n")
        else:
            raise ValueError(f"unknown cli job {argv!r}")
    return out


_GENERATORS = {
    "count-cold": _count_cold_jobs,
    "oracle-xcheck": _oracle_jobs,
    "series-verify": _series_jobs,
    "cli-cache": _cli_jobs,
}

