"""Seeded inputs of the benchmark's workloads.

The `figures` program receives only the command lines and request lines
made here.  The seed picks rank windows, stages, policies, flag order and
request order; the amount of work is the same for every seed (fixed range
lengths, fixed class shares per round), so the spread between seeds
measures the program rather than the draw.
"""

import random

PAPER_MACHINES = ("icx-8360y", "spr-8470-sncon", "spr-8470-sncoff", "spr-8480plus")
STAGES = ("original", "speci2m-off", "optimized")
REPLACEMENTS = ("lru", "plru", "srrip", "random")
WRITE_POLICIES = ("allocate", "no-allocate", "non-temporal")
AGGRESSORS = ("stream", "stream-heavy", "thrash")
# The serve store covers ranks 1..MAX_RANKS of every paper machine.
MAX_RANKS = 36
# Four cores and a 2 MiB LLC: a co-run there costs about 20 ms, so co-run
# requests can be a steady share of a serve stream.
SMALL_MACHINE = "cva6-nowa"
SMALL_MACHINE_CORES = 4

# corun: each pass runs one `figures interfere` and CORUN_SWEEPS sweeps of
# CORUN_RANKS ranks over two paper machines, every stage and every cache
# policy, with and without a `stream` aggressor.  Consecutive sweeps are
# shifted by CORUN_SHIFT ranks, so their union (and so the store) has the
# same size on every seed.
CORUN_MACHINES = ("icx-8360y", "spr-8470-sncon")
CORUN_SWEEPS = 3
CORUN_RANKS = 16
CORUN_SHIFT = 4

# serve: a round of ROUND requests holds MISS distinct analytic sweeps
# drawn in turn from a pool of MISS_POOL (more than the daemon's 128-entry
# response cache, so each pool entry is evicted before it comes back),
# HIT repeats of HOT hot requests (answered from the response cache) and
# CORUN_PER_AGGRESSOR co-run sweeps per aggressor on the small machine,
# drawn in turn from CORUN_POOL per aggressor.
ROUND = 200
MISS = 150
HIT = 44
CORUN_PER_AGGRESSOR = 2
MISS_POOL = 300
HOT = 4
MISS_RANKS = 16
CORUN_INTERLEAVES = (16, 32, 64, 128)
CORUN_POOL = 2 * len(CORUN_INTERLEAVES)
assert MISS + HIT + CORUN_PER_AGGRESSOR * len(AGGRESSORS) == ROUND


def store_sweeps():
    """Sweep argument lists that prepare the serve store: every analytic
    point the serve stream can ask for."""
    every_policy = ["--stage", "all", "--replacement", "all", "--write-policy", "all"]
    paper = [w for m in PAPER_MACHINES for w in ("--machine", m)]
    return [
        paper + ["--ranks", f"1..{MAX_RANKS}"] + every_policy,
        ["--machine", SMALL_MACHINE, "--ranks", f"1..{SMALL_MACHINE_CORES}"] + every_policy,
    ]


def corun_sweeps(seed, jobs):
    """The `figures sweep` argument lists of one corun pass (without
    `--store`)."""
    rng = random.Random(f"corun:{seed}")
    first = rng.randint(1, MAX_RANKS - CORUN_RANKS + 1 - CORUN_SHIFT * (CORUN_SWEEPS - 1))
    sweeps = []
    for i in range(CORUN_SWEEPS):
        start = first + CORUN_SHIFT * i
        machines = rng.sample(CORUN_MACHINES, len(CORUN_MACHINES))
        aggressors = rng.sample(("none", "stream"), 2)
        args = [w for m in machines for w in ("--machine", m)]
        args += ["--ranks", f"{start}..{start + CORUN_RANKS - 1}"]
        args += ["--stage", "all", "--replacement", "all", "--write-policy", "all"]
        args += [w for a in aggressors for w in ("--aggressor", a)]
        args += ["--jobs", str(jobs)]
        sweeps.append(args)
    rng.shuffle(sweeps)
    return sweeps


class ServeStream:
    """The seeded request stream of the serve workload, in whole rounds."""

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"serve:{seed}")
        seen = set()
        lines = []
        while len(lines) < MISS_POOL + HOT:
            key = (
                rng.choice(PAPER_MACHINES),
                rng.randint(1, MAX_RANKS - MISS_RANKS + 1),
                tuple(rng.sample(STAGES, 2)),
                rng.choice(REPLACEMENTS),
                rng.choice(WRITE_POLICIES),
                rng.random() < 0.5,
            )
            if key in seen:
                continue
            seen.add(key)
            machine, start, stages, replacement, write_policy, json = key
            line = (
                f"sweep --machine {machine} --ranks {start}..{start + MISS_RANKS - 1}"
                f" --stage {stages[0]} --stage {stages[1]}"
                f" --replacement {replacement} --write-policy {write_policy} --jobs 1"
            )
            lines.append(line + (" --json" if json else ""))
        self.miss = lines[:MISS_POOL]
        self.hot = lines[MISS_POOL:]
        self.corun = {}
        for aggressor in AGGRESSORS:
            # The pool walks every interleave in CSV, then in JSON, so every
            # two rounds from an even one ask for each co-run key once, on
            # every seed.
            interleaves = rng.sample(CORUN_INTERLEAVES, len(CORUN_INTERLEAVES))
            pool = []
            for json in (False, True):
                for interleave in interleaves:
                    start = rng.randint(1, SMALL_MACHINE_CORES - 1)
                    line = (
                        f"sweep --machine {SMALL_MACHINE} --ranks {start}..{start + 1}"
                        f" --aggressor none --aggressor {aggressor}"
                        f" --interleave {interleave} --jobs 1"
                    )
                    pool.append(line + (" --json" if json else ""))
            self.corun[aggressor] = pool

    def round(self, k):
        """Round `k`: ROUND (class, request line) pairs in seeded order."""
        items = [("miss", self.miss[(k * MISS + i) % MISS_POOL]) for i in range(MISS)]
        items += [("hit", self.hot[i % HOT]) for i in range(HIT)]
        for aggressor in AGGRESSORS:
            pool = self.corun[aggressor]
            for j in range(CORUN_PER_AGGRESSOR):
                items.append(("corun", pool[(k * CORUN_PER_AGGRESSOR + j) % CORUN_POOL]))
        random.Random(f"serve:{self.seed}:{k}").shuffle(items)
        return items
