"""End-to-end and per-layer benchmark of the spinal-codes pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spinal_awgn --seed 1 --seconds 30 --trace 0

Each run builds its operating points from ``--seed`` (see
``perfbench/workloads.py``) and feeds them, one closed-loop point at a
time, to one inline orchestrator worker
(``repro.experiments.run_experiment(..., n_workers=1)``) with a fresh
temporary result store.  Points come in rounds of fixed composition; round
``r`` of a seed is always the same list of points.

``--trace 0`` runs whole rounds until about ``--seconds`` have passed and
reports the end-to-end metrics: ``msgs_per_s`` (packets on the link
workload), ``point_s_p50``, ``setup_s`` and ``peak_rss_mb``.
``msgs_per_s`` is the messages of one round over the sum of the median
times of its slots (a slot is a position in the round, timed once per
round), so that a few points slowed by a busy host do not move it.  The
three times are scaled to a reference host speed measured between points
(``perfbench/hostspeed.py``); the table prints the unscaled figures too.
``--trace 1`` runs a fixed number of rounds (half of ``--seconds`` by
``workloads.ROUND_SECONDS``, so that counts repeat exactly) untraced, then
replays the same points with every layer wrapped in timing spans
(``perfbench/tracer.py``), requires byte-identical point records from the
two passes, and reports the per-layer metrics.

Outputs are checked outside the timed region: each point record is
compared with the digest stored for it in ``perfbench/digests.json``;
points without a stored digest are checked by re-running a sampled subset
of their messages through the scheme's one-message ``run_message`` path
(for link points, the whole job through ``repro.link.runner.run_job``).
A point that raised or differs counts as failed; ``failed_frac`` is
``failed / attempted``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# Strider's np.linalg.solve must not spawn BLAS threads that compete with
# the measured single-threaded load; this has to precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Iterable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 2          # set-up samples taken in subprocesses (plus this one)
SAMPLED_MESSAGES = 2      # messages re-run when a point has no stored digest

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


@dataclass
class PointRun:
    point: object              # repro.experiments.PointSpec
    record: dict | None        # None when the point raised
    wall_s: float
    outcomes: list | None      # per-message (bits, symbols), measure points


class OutcomeCapture:
    """Keeps the per-message outcomes of the point that just ran.

    The store record of a measure point pools its messages; the sampled
    check needs them one by one.  ``run_messages`` is called once per
    point, so the capture costs one Python call per point.
    """

    def __init__(self) -> None:
        self.outcomes: list | None = None

    def install(self) -> None:
        from repro.simulation import sweep
        inner = sweep.run_messages

        def capturing(*args, **kwargs):
            self.outcomes = inner(*args, **kwargs)
            return self.outcomes

        sweep.run_messages = capturing

    def take(self) -> list | None:
        outcomes, self.outcomes = self.outcomes, None
        return outcomes


def setup(workload: str, small: bool) -> None:
    """Imports, scheme construction and a first-call warm-up."""
    import repro.fountain  # noqa: F401
    import repro.ldpc  # noqa: F401
    import repro.link.runner  # noqa: F401
    import repro.strider  # noqa: F401
    from repro.experiments import make_scheme, run_point
    from workloads import WORKLOADS

    for point in WORKLOADS[workload](0, 0, small):
        if point.scheme is not None:
            make_scheme(point.scheme)
    for point in WORKLOADS[workload](0, 0, True):
        run_point(point)


def own_setup(raw_s: float) -> tuple[float, float]:
    """This process's set-up time and the host speed factor right after."""
    from hostspeed import HostSpeed
    speed = HostSpeed()
    speed.sample(10)
    return raw_s, speed.factor()


def setup_samples(workload: str, small: bool,
                  own: tuple[float, float]) -> list[tuple[float, float]]:
    """(set-up time, host speed factor) of this process and of fresh
    subprocesses."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload] + (["--small"] if small else [])
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        raw_s, factor = done.stdout.split()[-2:]
        samples.append((float(raw_s), float(factor)))
    return samples


def new_store(store_root: str):
    from repro.experiments import ResultStore
    return ResultStore(tempfile.mkdtemp(dir=store_root))


def run_points(points: Iterable, store, capture: OutcomeCapture,
               speed=None) -> list[PointRun]:
    """Each point through the orchestrator, closed loop, one at a time;
    ``speed`` (a ``HostSpeed``) samples the host before each point."""
    from repro.experiments import ExperimentSpec, point_hash
    from repro.experiments import orchestrator

    runs = []
    for point in points:
        spec = ExperimentSpec(experiment_id="perfbench", title=point.series,
                              profile="quick", points=(point,))
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        try:
            result = orchestrator.run_experiment(spec, store=store,
                                                 n_workers=1)
            record = result.results[point_hash(point)]
        except Exception:  # a failing point is counted, not fatal
            traceback.print_exc()
            record = None
        wall = time.perf_counter() - t0
        runs.append(PointRun(point, record, wall, capture.take()))
    return runs


def run_for(workload: str, seed: int, seconds: float, small: bool, store,
            capture: OutcomeCapture, speed) -> list[PointRun]:
    """Whole rounds until about ``seconds`` have passed (at least one).

    Another round starts while its expected midpoint, by the mean round
    time so far, falls inside ``seconds``.
    """
    from workloads import WORKLOADS

    runs: list[PointRun] = []
    t0 = time.perf_counter()
    n_rounds = 0
    while True:
        runs += run_points(WORKLOADS[workload](seed, n_rounds, small), store,
                           capture, speed)
        n_rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / n_rounds >= seconds:
            return runs


def median_round_rate(runs: list[PointRun], round_len: int) -> float:
    """Messages of a round over the sum of its slots' median times."""
    from workloads import messages_in

    slots = [runs[i::round_len] for i in range(round_len)]
    return (sum(messages_in(slot[0].point) for slot in slots)
            / sum(statistics.median(r.wall_s for r in slot) for slot in slots))


def record_digest(record: dict) -> str:
    from repro.utils.results import canonical_json
    return hashlib.sha256(canonical_json(record).encode()).hexdigest()[:16]


def load_digests(workload: str) -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def rerun_message(point, index: int) -> tuple[int, int]:
    """Message ``index`` of a measure point through ``run_message``.

    Mirrors the per-message seeding contract of
    ``repro.simulation.sweep.run_messages``: message i's generator is seeded
    by the i-th draw of the point's master generator.
    """
    import numpy as np
    from repro.channels.registry import channel_factory
    from repro.experiments import make_scheme

    master = np.random.default_rng(point.seed)
    draws = [master.integers(0, 2**63) for _ in range(index + 1)]
    rng = np.random.default_rng(draws[index])
    factory = channel_factory(point.channel.kind, point.x,
                              point.channel.options)
    scheme = make_scheme(point.scheme)
    bits, symbols = scheme.run_message(factory(rng), rng)
    return int(bits), int(symbols)


def rerun_link(point) -> dict:
    """A link point's job straight through the link runner."""
    from repro.link.runner import job_from_options, run_job
    job = job_from_options(
        job_id=str(point.options.get("job_id", point.series)),
        seed=point.seed, snr_db=point.x, channel=point.channel.kind,
        channel_options=point.channel.options, options=point.options)
    record = run_job(job)
    record["series"] = point.series
    record["x"] = float(point.x)
    return record


def check(workload: str, runs: list[PointRun], seed: int) -> set[int]:
    """Indices of failed points: raised, or differs from the reference."""
    import numpy as np
    from repro.experiments import point_hash
    from repro.utils.results import canonical_json

    digests = load_digests(workload)
    failed = {i for i, run in enumerate(runs) if run.record is None}
    unchecked: list[int] = []
    for i, run in enumerate(runs):
        if i in failed:
            continue
        expected = digests.get(point_hash(run.point))
        if expected is None:
            unchecked.append(i)
        elif expected != record_digest(run.record):
            failed.add(i)
    if not unchecked:
        return failed

    rng = np.random.default_rng(seed)
    link = [i for i in unchecked if runs[i].point.kind == "link"]
    if link:
        i = link[rng.integers(len(link))]
        if canonical_json(rerun_link(runs[i].point)) != canonical_json(
                runs[i].record):
            failed.add(i)
    messages = [(i, m) for i in unchecked if runs[i].outcomes is not None
                for m in range(len(runs[i].outcomes))]
    picks = rng.choice(len(messages), min(SAMPLED_MESSAGES, len(messages)),
                       replace=False) if messages else []
    for pick in picks:
        i, m = messages[int(pick)]
        if rerun_message(runs[i].point, m) != tuple(runs[i].outcomes[m]):
            failed.add(i)
    return failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def delivered_in(record: dict) -> int:
    return int(record.get("n_success", record.get("n_delivered", 0)))


def link_totals(runs: list[PointRun]) -> dict[str, int]:
    keys = ("symbols", "wasted_symbols", "retransmissions")
    return {k: sum(int(r.record[k]) for r in runs
                   if r.point.kind == "link" and r.record) for k in keys}


def print_table(metrics: dict[str, tuple[float, str]],
                notes: dict[str, str]) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:>16.6g} {unit}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny points (the benchmark's self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        from workloads import ROUND_SECONDS, WORKLOADS, messages_in
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    setup(args.workload, args.small)
    own = own_setup(time.perf_counter() - _T_START)
    if args.setup_probe:
        print(*own)
        return 0

    from hostspeed import HostSpeed
    from tracer import Tracer, install, layer_metrics

    capture = OutcomeCapture()
    capture.install()
    if not args.trace:
        setups = setup_samples(args.workload, args.small, own)
        setup_s = statistics.median(raw / f for raw, f in setups)
        raw_setup_s = statistics.median(raw for raw, _ in setups)
    speed = HostSpeed()

    round_len = len(WORKLOADS[args.workload](args.seed, 0, args.small))
    store_root = tempfile.mkdtemp(prefix=".store-", dir=HERE)
    try:
        t0 = time.perf_counter()
        if args.trace:
            # A fixed number of rounds, sized to last half of --seconds on
            # the reference box (the traced replay takes the other half),
            # so that a seed's per-layer counts repeat on any machine.
            n_rounds = max(1, round(args.seconds / 2
                                    / ROUND_SECONDS[args.workload]))
            points = [point for rnd in range(n_rounds)
                      for point in WORKLOADS[args.workload](
                          args.seed, rnd, args.small)]
            runs = run_points(points, new_store(store_root), capture)
        else:
            runs = run_for(args.workload, args.seed, args.seconds,
                           args.small, new_store(store_root), capture, speed)
        wall = time.perf_counter() - t0
        rss = peak_rss_mb()
        # checked before tracing starts, so that re-runs stay out of it
        failed = check(args.workload, runs, args.seed)

        traced: list[PointRun] = []
        if args.trace:
            tracer = Tracer()
            install(tracer)
            t1 = time.perf_counter()
            traced = run_points([r.point for r in runs],
                                new_store(store_root), capture)
            traced_wall = time.perf_counter() - t1
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    # tracing is out of band: the replay must reproduce every record
    failed |= {i for i, (a, b) in enumerate(zip(runs, traced))
               if a.record != b.record}

    notes = {}
    if args.trace:
        metrics = layer_metrics(
            tracer, traced_wall, wall,
            delivered=sum(delivered_in(r.record) for r in traced if r.record),
            link_totals=link_totals(traced))
        notes["trace.unattributed_s"] = (
            f"of {traced_wall:.3f} s traced wall time")
    else:
        n_messages = sum(messages_in(r.point) for r in runs)
        point_times = [r.wall_s for r in runs]
        rate = median_round_rate(runs, round_len)
        p50 = statistics.median(point_times)
        factor = speed.factor()
        metrics = {
            "msgs_per_s": (rate * factor, "msgs/s"),
            "point_s_p50": (p50 / factor, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        notes["msgs_per_s"] = (
            f"median round, {rate:.4g} unscaled; host speed factor "
            f"{factor:.3f}; {n_messages} messages in "
            f"{len(runs) // round_len} rounds")
        notes["point_s_p50"] = (
            f"n={len(point_times)} points, {p50:.4g} unscaled")
        notes["setup_s"] = f"{raw_setup_s:.4g} unscaled"
    # failed_frac is printed but not declared: declared metrics are never 0
    notes["failed_frac"] = f"{len(failed)} of {len(runs)} points failed"
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}:")
    print_table({**metrics, "failed_frac": (len(failed) / len(runs), "frac")},
                notes)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
