"""The benchmark's workloads: teacher -> distilled student -> dropout-TS rounds.

The library has no training loop or simulator yet, so this module is the
thinnest pipeline over its public calls (``data``, ``rng``, ``network``,
``losses``, ``optim``, ``metrics``).  One *pass* is a whole experiment:

set-up
    ``generate_synthetic`` -> the benchmark writes the native files ->
    ``load_coat``/``load_yahoo`` -> ``split_uniform`` ->
    ``partition_batches`` -> ``UnobservedSampler`` -> ``init_network`` ->
    ``make_optimizer``.
pipeline
    teacher fit on uniform-train -> teacher scoring of a pool of
    unobserved pairs -> student fit on biased + uniform-train with
    distillation -> rounds (stochastic scoring, top-k per user, labels
    drawn from the world's true probabilities, append as BIASED, rebuild
    log, sampler and batches, retrain) -> ``evaluate`` on uniform-test.

A run repeats whole passes with the same seed until its time is up, so
every pass must give the same digest and the same counts.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from distilrec import data as D
from distilrec import losses as L
from distilrec import metrics as M
from distilrec import network as N
from distilrec import optim as O
from distilrec.rng import RngStream

import checks as C
from tracing import Tracer, install_wrappers

EMBEDDING_DIM = 64
HIDDEN_SIZES = (64, 32)
DROPOUT = 0.1
LATENT_DIM = 4
WORLD_BIAS = -3.0
EXPOSURE_SKEW = 4.0
UNIFORM_TRAIN_FRACTION = 0.2
GAMMA_REG = 1.0
L2_COEFF = 1e-6
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str                    # native files written and loaded: "coat" or "yahoo"
    n_users: int
    n_items: int
    n_biased: int
    n_uniform: int
    optimizer: str
    learning_rate: float
    teacher_epochs: int
    student_steps: int          # below two epochs of the log, student quality is not checked
    rounds: int
    round_users: int | None     # users scored per round; None = every user
    k: int
    round_steps: int | None     # retraining batches per round; None = one whole epoch
    batch: int = 1024


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("coat-rounds", "coat", 290, 300, 6960, 4640, "adam", 3e-3,
                 teacher_epochs=20, student_steps=160,
                 rounds=4, round_users=None, k=5, round_steps=None),
        Workload("yahoo-fit", "yahoo", 15400, 1000, 311704, 54000, "adam", 1e-3,
                 teacher_epochs=2, student_steps=60,
                 rounds=0, round_users=None, k=0, round_steps=None),
        Workload("yahoo-rounds", "yahoo", 15400, 1000, 311704, 54000, "sgd", 0.5,
                 teacher_epochs=2, student_steps=20,
                 rounds=2, round_users=60, k=10, round_steps=6),
    )
}

# Library calls whose time is set-up time.
SETUP_CALLS = ("data.generate", "data.load", "data.split", "data.partition",
               "data.sampler_build", "network.init", "optim.make")


@dataclass
class Counts:
    steps: int = 0
    train_pairs: int = 0
    score_calls: int = 0
    score_pairs: int = 0
    rounds: int = 0
    rows_appended: int = 0


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


@dataclass
class Pass:
    counts: Counts = field(default_factory=Counts)
    digest: str = ""
    memory: bool = False            # tracemalloc watches set-up and every step
    setup_peak_mb: float = 0.0
    step_peaks_mb: list[float] = field(default_factory=list)


def n_batches(n: int, batch: int) -> int:
    return max(1, -(-n // batch))


# ---------------------------------------------------------------------------
# Native files: the benchmark's own writer and what the loader must return
# ---------------------------------------------------------------------------

def dataset_rows(ds: D.Dataset) -> tuple[np.ndarray, ...]:
    inters = ds.interactions
    n = len(inters)
    users = np.fromiter((x.user for x in inters), np.int64, n)
    items = np.fromiter((x.item for x in inters), np.int64, n)
    ratings = np.fromiter((x.rating for x in inters), np.int64, n)
    sources = np.fromiter((x.source is D.Source.UNIFORM for x in inters), np.int64, n)
    return users, items, ratings, sources


def write_native(fmt: str, rows, n_users: int, n_items: int, workdir: Path) -> tuple[Path, Path]:
    """Biased and uniform logs in the native format; returns the two paths."""
    users, items, ratings, sources = rows
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for source, stem in ((0, "biased"), (1, "uniform")):
        sel = sources == source
        path = workdir / f"{fmt}-{stem}.txt"
        if fmt == "coat":
            matrix = np.zeros((n_users, n_items), dtype=np.int64)
            matrix[users[sel], items[sel]] = ratings[sel]
            np.savetxt(path, matrix, fmt="%d")
        else:
            lines = zip((users[sel] + 1).tolist(), (items[sel] + 1).tolist(), ratings[sel].tolist())
            path.write_text("".join(f"{u}\t{i}\t{r}\n" for u, i, r in lines))
        paths.append(path)
    return paths[0], paths[1]


def loaded_ids(fmt: str, rows, n_users: int, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """World ids of the loaded log's users and items, indexed by loaded id.

    Coat keeps matrix coordinates.  Yahoo! remaps the ids to ranks among
    the ids present in either file, so a user or item without a single
    row drops out.
    """
    if fmt == "coat":
        return np.arange(n_users), np.arange(n_items)
    return np.unique(rows[0]), np.unique(rows[1])


def expected_loaded_keys(rows, user_ids: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
    """Row keys the loader must return for the rows the benchmark wrote."""
    users, items, ratings, sources = rows
    return C.row_keys(np.searchsorted(user_ids, users), np.searchsorted(item_ids, items),
                      ratings, sources, item_ids.size)


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

def fit(tr: Tracer, run: Pass, net, opt, batches, n_steps: int, rng: RngStream,
        pool=None, targets=None) -> list[float]:
    """n_steps training steps cycling through batches; returns per-step objective.

    With a pool, step j also takes the j-th of n_steps equal slices of
    unobserved pairs and their teacher targets for the distillation term.
    """
    counts = run.counts
    per_step = 0 if pool is None else len(pool) // n_steps
    losses = []
    for j in range(n_steps):
        batch = batches[j % len(batches)]
        if run.memory:
            tracemalloc.start()
        tr.step = counts.steps
        with tr.span("bench.step"):
            with tr.span("data.pack"):
                users, items, labels = D.pack(batch)
            observed = L.ObservedBatch(users, items, labels)
            unobserved = None
            if pool is not None:
                lo, hi = j * per_step, (j + 1) * per_step
                unobserved = L.UnobservedBatch(pool[lo:hi, 0], pool[lo:hi, 1], targets[lo:hi])
            breakdown, grads = tr.call(
                "losses.loss_and_grads", L.loss_and_grads, net, observed, unobserved,
                gamma_reg=GAMMA_REG if pool is not None else 0.0,
                reg_kind=L.RegLossKind.KL, l2_coeff=L2_COEFF,
                mode=N.ForwardMode.TRAIN_DROPOUT, rng=rng)
            tr.call("optim.apply_update", O.apply_update, opt, net, grads)
        tr.step = -1
        if run.memory:
            run.step_peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        losses.append(breakdown.total)
        counts.steps += 1
        counts.train_pairs += len(batch) + (0 if unobserved is None else unobserved.users.size)
    return losses


def score(tr: Tracer, counts: Counts, net, pairs, mode=N.ForwardMode.DETERMINISTIC, rng=None):
    counts.score_calls += 1
    counts.score_pairs += len(pairs)
    return tr.call("network.score", N.forward_batch, net, pairs, mode, rng)


def run_pass(wl: Workload, seed: int, tr: Tracer, checks: Checks, workdir: Path,
             memory: bool = False) -> Pass:
    """One whole experiment; with ``memory``, tracemalloc watches set-up and steps."""
    root = RngStream(seed)
    result = Pass(memory=memory)
    counts = result.counts
    b = wl.batch

    if memory:
        tracemalloc.start()
    with tr.span("bench.setup"):
        world, generated = tr.call(
            "data.generate", D.generate_synthetic, wl.n_users, wl.n_items, LATENT_DIM,
            EXPOSURE_SKEW, wl.n_biased, wl.n_uniform, seed, bias=WORLD_BIAS)
        rows = dataset_rows(generated)
        paths = write_native(wl.fmt, rows, wl.n_users, wl.n_items, workdir)
        loader = D.load_coat if wl.fmt == "coat" else D.load_yahoo
        log = tr.call("data.load", loader, *paths)
        user_ids, item_ids = loaded_ids(wl.fmt, rows, wl.n_users, wl.n_items)
        log_rows = dataset_rows(log)
        checks.expect("loader returns the written rows",
                      (log.n_users, log.n_items) == (user_ids.size, item_ids.size)
                      and C.same_rows(expected_loaded_keys(rows, user_ids, item_ids),
                                      C.row_keys(*log_rows, item_ids.size)))
        with tr.span("data.split"):
            u_train, _, u_test = D.split_uniform(
                log.by_source(D.Source.UNIFORM), D.SplitSpec(UNIFORM_TRAIN_FRACTION, seed))
            biased = log.by_source(D.Source.BIASED)
        teacher_batches = tr.call("data.partition", D.partition_batches, u_train,
                                  n_batches(len(u_train), b), root.split("teacher-batches"))
        student_batches = tr.call("data.partition", D.partition_batches, biased + u_train,
                                  n_batches(len(biased) + len(u_train), b),
                                  root.split("student-batches"))
        sampler = tr.call("data.sampler_build", D.UnobservedSampler.from_dataset, log,
                          root.split("sampler"))
        config = N.NetworkConfig(log.n_users, log.n_items, EMBEDDING_DIM, HIDDEN_SIZES, DROPOUT)
        teacher = tr.call("network.init", N.init_network, config, root.split("teacher"))
        student = tr.call("network.init", N.init_network, config, root.split("student"))
        teacher_opt = tr.call("optim.make", O.make_optimizer, teacher, wl.optimizer, wl.learning_rate)
        student_opt = tr.call("optim.make", O.make_optimizer, student, wl.optimizer, wl.learning_rate)
    if memory:
        result.setup_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    # True probabilities in the loaded log's id space.
    prob = world.prob
    if (user_ids.size, item_ids.size) != prob.shape:
        prob = prob[np.ix_(user_ids, item_ids)]
    observed = np.zeros((log.n_users, log.n_items), dtype=bool)
    observed[log_rows[0], log_rows[1]] = True
    digest = hashlib.sha256()

    with tr.span("bench.pipeline"):
        teacher_loss = fit(tr, result, teacher, teacher_opt, teacher_batches,
                           wl.teacher_epochs * len(teacher_batches),
                           root.split("teacher-dropout"))
        checks.expect("teacher loss falls from first to last epoch",
                      C.loss_falls(teacher_loss, len(teacher_batches)))

        pool = tr.call("data.sampler_draw", sampler.sample, wl.student_steps * b)
        checks.expect("sampler draws are unobserved", C.none_observed(pool, observed))
        targets = score(tr, counts, teacher, pool)
        student_loss = fit(tr, result, student, student_opt, student_batches, wl.student_steps,
                           root.split("student-dropout"), pool, targets)
        two_epochs = wl.student_steps >= 2 * len(student_batches)
        if two_epochs:
            checks.expect("student objective falls from first to last epoch",
                          C.loss_falls(student_loss, len(student_batches)))

        for r in range(wl.rounds):
            with tr.span("bench.round"):
                users = np.arange(log.n_users)
                if wl.round_users is not None:
                    users = np.sort(root.split(f"round-users-{r}").choice(
                        log.n_users, wl.round_users, replace=False))
                rows_idx, cand_items = np.nonzero(~observed[users])
                probs = score(tr, counts, student, np.column_stack([users[rows_idx], cand_items]),
                              N.ForwardMode.STOCHASTIC_INFERENCE, root.split(f"ts-{r}"))
                grid = np.full((users.size, log.n_items), -np.inf)
                grid[rows_idx, cand_items] = probs
                picks = np.argpartition(-grid, wl.k - 1, axis=1)[:, :wl.k]
                checks.expect("picks: k distinct unobserved items per user",
                              C.picks_valid(picks, users, observed, wl.k))
                checks.expect("regret against the true top-k is >= 0",
                              C.regret(picks, users, prob, observed) >= 0.0)

                pick_users = np.repeat(users, wl.k)
                pick_items = picks.reshape(-1)
                p_true = prob[pick_users, pick_items]
                label_rng = root.split(f"labels-{r}").generator
                labels = label_rng.random(p_true.size) < p_true
                ratings = np.where(labels, 5, label_rng.integers(1, 5, size=p_true.size))
                checks.expect("drawn labels within 5 sigma of the true mean",
                              C.labels_in_band(labels, p_true))
                new_rows = [D.Interaction(u, i, rt, int(rt == 5), D.Source.BIASED)
                            for u, i, rt in zip(pick_users.tolist(), pick_items.tolist(),
                                                ratings.tolist())]
                n_before = len(log.interactions)
                with tr.span("data.rebuild"):
                    log = D.Dataset(log.interactions + new_rows, log.n_users, log.n_items)
                    biased = log.by_source(D.Source.BIASED)
                checks.expect("log grows by exactly the picks",
                              len(log.interactions) == n_before + pick_users.size)
                observed[pick_users, pick_items] = True
                counts.rounds += 1
                counts.rows_appended += len(new_rows)
                digest.update(picks.astype(np.int64).tobytes())

                sampler = tr.call("data.sampler_build", D.UnobservedSampler.from_dataset, log,
                                  root.split(f"sampler-{r}"))
                batches = tr.call("data.partition", D.partition_batches, biased + u_train,
                                  n_batches(len(biased) + len(u_train), b),
                                  root.split(f"round-batches-{r}"))
                steps = wl.round_steps or len(batches)
                pool = tr.call("data.sampler_draw", sampler.sample, steps * b)
                checks.expect("sampler draws after the rebuild are unobserved",
                              C.none_observed(pool, observed))
                targets = score(tr, counts, teacher, pool)
                fit(tr, result, student, student_opt, batches, steps,
                    root.split(f"round-dropout-{r}"), pool, targets)

        counts.score_calls += 1
        counts.score_pairs += len(u_test)
        evaluation = tr.call("metrics.evaluate", M.evaluate, student, u_test)

    with tr.span("bench.check"):
        test_users, test_items, test_labels = D.pack(u_test)
        scores = N.forward_batch(student, np.column_stack([test_users, test_items]))
        checks.expect("evaluate AUC equals the Mann-Whitney count",
                      C.auc_matches(evaluation.auc, scores, test_labels.astype(np.int64)))
        if two_epochs:
            checks.expect("student AUC against the true probabilities > 0.5",
                          C.truth_auc(scores, prob[test_users, test_items]) > 0.5)
        for arr in student.param_arrays():
            digest.update(arr.tobytes())
    result.digest = digest.hexdigest()
    return result


# ---------------------------------------------------------------------------
# A run: whole passes until the time is up, then the metrics
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    digest: str
    counts: Counts
    failures: list[str]
    timing: dict


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, workroot: Path,
                 min_passes: int = MIN_PASSES, trace_path: Path | None = None) -> RunResult:
    """Passes until ``seconds`` have elapsed and at least ``min_passes`` ran.

    Input files go to a directory under ``workroot`` that is removed at
    the end.  In the traced run the first pass measures memory with
    tracemalloc and is left out of the time medians; its spans are
    written to ``trace_path`` when given.
    """
    tr = Tracer()
    checks = Checks()
    restore = install_wrappers(tr) if trace else None
    workdir = workroot / f"{wl.name}-{seed}-{os.getpid()}"
    passes: list[Pass] = []
    start = perf_counter()
    try:
        while len(passes) < min_passes or perf_counter() - start < seconds:
            tr.pass_no = len(passes)
            with tr.span("bench.pass"):
                p = run_pass(wl, seed, tr, checks, workdir, memory=trace and not passes)
            if passes:
                checks.expect("same seed gives the same digest and counts",
                              p.digest == passes[0].digest and p.counts == passes[0].counts)
            passes.append(p)
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if trace_path is not None:
        tr.write_chrome_trace(trace_path)
    first = 1 if trace else 0
    timing = time_metrics(tr, passes, first)
    if trace:
        metrics = layer_metrics(tr, passes)
        metrics.update({f"time.{k}": v for k, v in timing.items()})
    else:
        metrics = {
            "setup_s": _metric(np.median(_per_pass(tr, is_setup_call, 0)), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    attempted = checks.attempted + sum(p.counts.steps + p.counts.score_calls + p.counts.rounds
                                       for p in passes)
    return RunResult(correct=not checks.failures, attempted=attempted,
                     failed=len(checks.failures), metrics=metrics, digest=passes[0].digest,
                     counts=passes[0].counts, failures=checks.failures, timing=timing)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def is_setup_call(rec) -> bool:
    return rec[4] == "bench.setup" and rec[0] in SETUP_CALLS


def _per_pass(tr: Tracer, select, first: int) -> list[float]:
    totals: dict[int, float] = {}
    for rec in tr.records:
        if rec[6] >= first and select(rec):
            totals[rec[6]] = totals.get(rec[6], 0.0) + rec[2]
    return [totals[k] for k in sorted(totals)]


def time_metrics(tr: Tracer, passes: list[Pass], first: int) -> dict:
    """Wall-time figures over passes ``first`` onward.

    Host speed drifts too much between runs for these to carry a bound
    (see README), so they are reported but not gated.
    """
    recs = [r for r in tr.records if r[6] >= first]
    steps = np.array([r[2] for r in recs if r[0] == "bench.step"])
    score_time = sum(r[2] for r in recs
                     if r[0] == "metrics.evaluate"
                     or (r[0] == "network.score" and r[4] != "metrics.evaluate"))
    timed = passes[first:]
    return {
        "run_s": _metric(np.median(_per_pass(tr, lambda r: r[0] == "bench.pipeline", first)), "s"),
        "train_pairs_per_s": _metric(sum(p.counts.train_pairs for p in timed) / steps.sum(),
                                     "pairs/s"),
        "step_ms_p50": _metric(1e3 * np.percentile(steps, 50), "ms"),
        "step_ms_p90": _metric(1e3 * np.percentile(steps, 90), "ms"),
        "score_pairs_per_s": _metric(sum(p.counts.score_pairs for p in timed) / score_time,
                                     "pairs/s"),
    }


PASS_LAYERS = ("data.generate", "data.load", "data.split", "data.partition",
               "data.sampler_build", "data.rebuild", "data.sampler_draw",
               "network.score", "rng.score", "metrics.evaluate", "bench.self")
STEP_LAYERS = ("data.pack", "rng.random", "network.forward", "network.backprop",
               "losses.self", "losses.l2_reg", "optim.apply_update")


def layer_key(name: str, parent: str) -> str:
    """The per-layer metric a span's self time counts toward."""
    if name == "rng.random":
        return "rng.random" if parent == "network.forward" else "rng.score"
    if name == "losses.loss_and_grads":
        return "losses.self"
    if name.startswith("bench."):
        return "bench.self"
    return name


def layer_metrics(tr: Tracer, passes: list[Pass]) -> dict:
    """Self time per pass (``_s``) and per training step (``_ms``), as medians.

    Pass 0 ran under tracemalloc and only gives the memory figures.
    """
    per_pass: dict[str, dict[int, float]] = {k: {} for k in PASS_LAYERS}
    per_step: dict[str, dict[tuple, float]] = {k: {} for k in STEP_LAYERS}
    timed_passes = range(1, len(passes))
    step_ids = set()
    for name, _, _, self_t, parent, step, pass_no in tr.records:
        if pass_no < 1:
            continue
        key = layer_key(name, parent)
        if key in per_pass:
            per_pass[key][pass_no] = per_pass[key].get(pass_no, 0.0) + self_t
        if step >= 0:
            step_ids.add((pass_no, step))
            if key in per_step:
                col = per_step[key]
                col[(pass_no, step)] = col.get((pass_no, step), 0.0) + self_t
    out = {}
    for key, by_pass in per_pass.items():
        out[f"{key}_s"] = _metric(np.median([by_pass.get(p, 0.0) for p in timed_passes]), "s")
    for key, by_step in per_step.items():
        out[f"{key}_ms"] = _metric(1e3 * np.median([by_step.get(s, 0.0) for s in step_ids]), "ms")
    out["mem.setup_peak_mb"] = _metric(passes[0].setup_peak_mb, "MB")
    out["mem.step_peak_mb"] = _metric(max(passes[0].step_peaks_mb), "MB")
    c = passes[0].counts
    for name in ("steps", "train_pairs", "score_pairs", "rounds", "rows_appended"):
        out[f"count.{name}"] = _metric(getattr(c, name), "count")
    return out
