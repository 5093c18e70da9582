"""Job pools of the three workloads and the output checks.

Every workload is a pool of jobs made from ``--seed``; the load loops run
the pool in order and wrap around. The seed rotates the pool and renames
the Datalog constants; in paper-core it also deals the step budgets to the
slots. Job sizes follow a golden-ratio sequence per kind (an evenly spaced
set in paper-core), so any run of consecutive jobs covers the size range
evenly and two seeds measure the same mix.

A job is a dict: ``id``, ``path`` (program file), ``variant`` (``core``,
``restricted`` or ``auto``), ``max_steps``, ``measures``, ``robust``,
``expect`` and, for a program that twgen makes, ``twgen`` (label, seed).
The pool functions write the Python-made programs and compute their
expected answers; :func:`make_inputs` and :func:`check_inputs` are the
part of set-up that runs the shipped binaries. An outcome -- parsed from
twchase_cli's stdout, from the daemon's result JSON or from the replay
harness -- is a dict with ``variant``, ``verdict``, ``stop``, ``steps``,
``result_size``, ``queries`` and, with --measures, ``tw_uniform``.
:func:`check` compares the two without running the engine under test.
"""

import os
import random
import re
import subprocess

import datalog

GOLDEN = 0.6180339887498949

# Verdicts the --variant=auto preflight may legally give a twgen program of
# each label (the label taxonomy is not the verdict lattice: a guarded
# program may also be proven fes).
ALLOWED_VERDICTS = {
    "fes": ["fes"],
    "bts": ["fes", "bts"],
    "core-bts": ["bts", "core-bts", "unknown"],
    "non-terminating": ["bts", "core-bts", "unknown"],
}

# Labels whose core chase has no finite universal model: no chase variant
# terminates, so every run must exhaust its step budget.
NEVER_TERMINATES = ("core-bts", "non-terminating")

# The paper's bound on the treewidth of every staircase core-chase step.
STAIRCASE_TW = 2

WORKLOADS = ("datalog-batch", "paper-core", "daemon-mixed")


def _slots(seed, count):
    """Pool slots in run order: a seeded rotation of 0..count-1."""
    shift = random.Random(seed).randrange(count)
    return [(shift + i) % count for i in range(count)]


def _size(k):
    """Relative size of the k-th job of a kind: a golden-ratio sequence, so
    any run of consecutive jobs covers [0, 1) evenly."""
    return (0.5 + k * GOLDEN) % 1.0


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def _job(jid, path, variant, max_steps, expect, measures=False,
         robust=False):
    return {"id": jid, "path": path, "variant": variant,
            "max_steps": max_steps, "measures": measures, "robust": robust,
            "expect": expect}


def _datalog_job(workdir, jid, family, size, slot, seed, variant):
    # The structure depends on the pool slot only and the run seed renames
    # the constants, so every seed does the same work up to isomorphism.
    label_seed = seed * 100003 + slot
    if size is None:
        text, expect = datalog.make_large(family, slot, label_seed)
    else:
        text, expect = datalog.make(family, size, slot, label_seed)
    path = os.path.join(workdir, jid + ".twc")
    _write(path, text)
    # Far above any fixpoint the families reach: the run ends at fixpoint.
    return _job(jid, path, variant, 10 ** 8, expect)


def _paper_job(data_dir, jid, name, budget, measures):
    expect = {"stop": "step-budget"}
    if name == "staircase" and measures:
        expect["tw_max"] = STAIRCASE_TW
    return _job(jid, os.path.join(data_dir, name + ".twc"), "core", budget,
                expect, measures=measures, robust=measures)


def _twgen_job(workdir, jid, label, seed, variant, budget, measures):
    expect = {}
    if variant == "auto":
        expect["verdicts"] = ALLOWED_VERDICTS[label]
    if label in NEVER_TERMINATES:
        expect["stop"] = "step-budget"
    job = _job(jid, os.path.join(workdir, jid + ".twc"), variant, budget,
               expect, measures=measures, robust=measures)
    job["twgen"] = (label, seed)
    return job


# The last slot of every cycle of this many datalog-batch jobs holds a
# program near the memory cap (see datalog.make_large): a large triangle
# closure in the first cycle of the pool, a large join in the second.
DATALOG_CYCLE = 48
DATALOG_POOL = 2 * DATALOG_CYCLE


def datalog_batch(workdir, data_dir, seed, pool=DATALOG_POOL):
    jobs = []
    for j in _slots(seed, pool):
        if j % DATALOG_CYCLE == DATALOG_CYCLE - 1:
            family = ("tri", "join")[j // DATALOG_CYCLE]
            jobs.append(_datalog_job(workdir, "d%02d-%s-large" % (j, family),
                                     family, None, j, seed, "core"))
            continue
        family = datalog.FAMILIES[j % 3]
        variant = "core" if (j // 3) % 2 == 0 else "restricted"
        jobs.append(_datalog_job(workdir, "d%02d-%s" % (j, family), family,
                                 _size(j // 3), j, seed, variant))
    return jobs


# paper-core runs whole passes over its pool of this many jobs. Each kind's
# step budgets are the same evenly spaced set on every seed, dealt to the
# slots in a seeded order: the elevator's cost grows steeply with its
# budget, so a seeded draw of budgets (or a run that covered part of the
# pool twice) would change the mix's cost by 10-20% from seed to seed. The
# twgen programs are fixed per slot for the same reason: at one budget the
# cost of a core-bts program varies by 30% from one twgen seed to another.
PAPER_POOL = 48


def paper_core(workdir, data_dir, seed, pool=PAPER_POOL):
    per_kind = pool // 3
    rng = random.Random(seed)
    levels = []
    for _ in range(3):
        spaced = [(k + 0.5) / per_kind for k in range(per_kind)]
        rng.shuffle(spaced)
        levels.append(spaced)
    jobs = []
    for j in _slots(seed, pool):
        u = levels[j % 3][j // 3]
        if j % 3 == 0:
            jobs.append(_paper_job(data_dir, "p%02d-staircase" % j,
                                   "staircase", int(40 + 180 * u), True))
        elif j % 3 == 1:
            jobs.append(_paper_job(data_dir, "p%02d-elevator" % j,
                                   "elevator", int(25 + 40 * u), True))
        else:
            jobs.append(_twgen_job(workdir, "p%02d-core-bts" % j,
                                   "core-bts", 1000 + j, "core",
                                   int(40 + 160 * u), True))
    return jobs


# One cycle of the daemon mix: mostly auto-variant twgen programs of all
# four labels, plus the paper's KBs and small Datalog jobs. A non-terminating
# program, and a guarded bts one the preflight cannot prove fes, costs the
# preflight its 2 s probe deadline. Five non-terminating jobs and one of
# the two bts jobs put 6 of the 32 behind that deadline, so the p90 lies on
# this slow-preflight group and moves when the preflight gets faster. One
# long staircase chase per cycle outlives the 2 s preemption slice, so the
# scheduler preempts it and resumes it from its checkpoint.
DAEMON_CYCLE = (
    "fes", "datalog", "non-terminating", "core-bts", "staircase", "datalog",
    "fes", "non-terminating", "datalog", "bts", "core-bts", "elevator",
    "datalog", "non-terminating", "staircase", "fes", "datalog", "core-bts",
    "non-terminating", "staircase", "fes", "datalog", "bts", "elevator",
    "datalog", "non-terminating", "core-bts", "fes", "datalog", "staircase",
    "fes", "staircase-long")


def daemon_mixed(workdir, data_dir, seed, pool=len(DAEMON_CYCLE)):
    # A bts-labelled twgen program is either proven fes at once or costs
    # the preflight its full probe deadline, so the twgen programs are
    # fixed per pool slot. The pool is one cycle: a run holds several
    # whole cycles, so every seed carries the same share of slow
    # preflights and heavy chases. The seed rotates the pool and renames
    # the Datalog constants.
    jobs = []
    for j in _slots(seed, pool):
        kind = DAEMON_CYCLE[j % len(DAEMON_CYCLE)]
        jid = "m%02d-%s" % (j, kind)
        u = _size(j)
        if kind == "datalog":
            family = datalog.FAMILIES[(j // 4) % 3]
            jobs.append(_datalog_job(workdir, jid, family, 0.3 * u, j, seed,
                                     "core"))
        elif kind == "staircase":
            jobs.append(_paper_job(data_dir, jid, kind, int(60 + 240 * u),
                                   False))
        elif kind == "staircase-long":
            jobs.append(_paper_job(data_dir, jid, "staircase",
                                   int(450 + 100 * u), False))
        elif kind == "elevator":
            jobs.append(_paper_job(data_dir, jid, kind, int(30 + 40 * u),
                                   False))
        else:
            budget = int(40 + 60 * u) if kind == "non-terminating" else int(
                100 + 200 * u)
            jobs.append(_twgen_job(workdir, jid, kind, 1000 + j, "auto",
                                   budget, False))
    return jobs


POOLS = {"datalog-batch": datalog_batch, "paper-core": paper_core,
         "daemon-mixed": daemon_mixed}

# Jobs per cycle of each CLI workload's closed loop: a run ends on a whole
# pass over the pool, so every run holds the same mix of jobs.
CYCLES = {"datalog-batch": DATALOG_POOL, "paper-core": PAPER_POOL}


def make_inputs(bins, jobs):
    """Runs twgen for every job whose program it makes."""
    for job in jobs:
        if "twgen" in job:
            label, seed = job["twgen"]
            subprocess.run([bins["twgen"], "--class=" + label,
                            "--seed=%d" % seed, "--out=" + job["path"]],
                           check=True, stdout=subprocess.DEVNULL)


def check_inputs(cli, jobs):
    """Parses every input once with twchase_cli at --max-steps=0, so a bad
    input fails set-up rather than the measurement."""
    for path in sorted({job["path"] for job in jobs}):
        proc = subprocess.run([cli, "--max-steps=0", path],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise RuntimeError("%s: twchase_cli exit %d: %s" % (
                path, proc.returncode, proc.stderr.decode(errors="replace")))


def check(job, out):
    """Mismatches between ``out`` and what ``job`` must produce."""
    if out.get("error"):
        return ["error: %s" % out["error"]]
    bad = []
    expect = job["expect"]

    def differs(key, want):
        if out.get(key) != want:
            bad.append("%s: got %r, expected %r" % (key, out.get(key), want))

    if out.get("stop") not in ("fixpoint", "step-budget"):
        bad.append("stop: got %r" % out.get("stop"))
    elif out["stop"] == "step-budget":
        differs("steps", job["max_steps"])
    if job["variant"] != "auto":
        differs("variant", job["variant"])
    for key in ("stop", "steps", "result_size", "queries"):
        if key in expect:
            differs(key, expect[key])
    if "verdicts" in expect and out.get("verdict") not in expect["verdicts"]:
        bad.append("verdict: got %r, allowed %r" % (out.get("verdict"),
                                                    expect["verdicts"]))
    if "tw_max" in expect and not (
            isinstance(out.get("tw_uniform"), int)
            and out["tw_uniform"] <= expect["tw_max"]):
        bad.append("tw_uniform: got %r, bound %d" % (out.get("tw_uniform"),
                                                     expect["tw_max"]))
    return bad


_CHASE_LINE = re.compile(
    r"^(\S+) chase: (\d+) steps in (\d+) rounds, [0-9.]+s, stop: ([a-z-]+); "
    r"\|result\| = (\d+)$")
_QUERY_LINE = re.compile(
    r"^query \d+: .* -> (entailed|not entailed|(\d+) certain answer\(s\))")


def parse_cli_output(text):
    """Outcome of one twchase_cli run (also the daemon's result text)."""
    out = {"queries": []}
    for line in text.splitlines():
        m = _CHASE_LINE.match(line)
        if m:
            out.update(variant=m.group(1), steps=int(m.group(2)),
                       rounds=int(m.group(3)), stop=m.group(4),
                       result_size=int(m.group(5)))
            continue
        m = _QUERY_LINE.match(line)
        if m:
            out["queries"].append(int(m.group(2)) if m.group(2) is not None
                                  else m.group(1))
            continue
        if line.startswith("preflight: "):
            out["verdict"] = line.split()[1]
        elif line.startswith("treewidth: uniform bound "):
            out["tw_uniform"] = int(line.split()[3].rstrip(","))
    if "stop" not in out:
        out["error"] = "no chase line in output"
    return out
