"""formred benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload accept-both --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run.  `--workload all` runs every workload in its own fresh
process.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 when every output
checked out, 1 when an output is wrong, 2 when formred cannot be measured
from this checkout.  See README.md for the workloads and the metrics.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORKLOADS = ("accept-both", "exact-centroid", "hard-scramble")

# corpus size per second of --seconds: on the sizing machine one pass of a 50 s
# run took 27 to 43 s, so today every run makes exactly one pass
FORMS_PER_SECOND = {"accept-both": 20, "exact-centroid": 33, "hard-scramble": 3}
SETUP_RUNS = 9

END_TO_END = {
    "reduced_per_s": "1/s",
    "form_ms_p50": "ms",
    "form_ms_p90": "ms",
    "reduced_frac": "1",
    "log2_height_drop": "bits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# setup_s is reported at the speed where BASELINE_CODE, a bare interpreter
# importing formred's one dependency, takes REF_BASELINE_S seconds
BASELINE_CODE = "import numpy"
REF_BASELINE_S = 0.2
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import formred, formred.cli
report = formred.reduce_form(formred.BinaryForm(tuple(json.loads(sys.argv[2]))))
print(json.dumps([str(c) for c in report.reduced.coeffs]))
"""


class Unmeasurable(Exception):
    """formred cannot be measured from this checkout."""


def import_formred():
    """Import formred from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import formred
        import formred.cli  # noqa: F401
    except ImportError as exc:
        raise Unmeasurable(f"cannot import formred from {SRC}: {exc}") from exc
    path = Path(formred.__file__).resolve()
    print(f"formred: {path}")
    if SRC.resolve() not in path.parents:
        raise Unmeasurable(f"formred was imported from {path}, outside {SRC}")


def corpus_size(workload, seconds):
    return max(6, round(seconds * FORMS_PER_SECOND[workload]))


def _spawn(code, *args):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc


def measure_setup(workloads):
    """Median setup time over SETUP_RUNS fresh interpreters, at reference speed.

    Each run is divided by the time of a bare interpreter importing numpy,
    started just before it, and scaled to REF_BASELINE_S.  Interpreter start-up
    and imports drift with the machine about twice as much as the in-process
    reference kernel does, so they get a reference of their own kind.
    """
    expected = [str(c) for c in workloads.SEXTIC_REDUCED]
    samples, raw = [], []
    for _ in range(SETUP_RUNS):
        baseline, base_proc = _spawn(BASELINE_CODE)
        elapsed, proc = _spawn(SETUP_CODE, str(SRC), json.dumps(workloads.SEXTIC))
        if (base_proc.returncode != 0 or proc.returncode != 0
                or json.loads(proc.stdout.splitlines()[-1]) != expected):
            raise workloads.CheckError(
                f"setup run failed: {(base_proc.stderr + proc.stderr).strip()[-300:]}")
        samples.append(elapsed / baseline * REF_BASELINE_S)
        raw.append((elapsed, baseline))
    return statistics.median(samples), raw


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def failure_counts(outcomes):
    return dict(sorted(Counter(o.failure for o in outcomes if o.failure is not None).items()))


def warm_up(workloads, workload, entry):
    outcome = workloads.call(entry, workloads.SEXTIC)
    workloads.check_outcome(workload, workloads.SEXTIC, outcome)
    for _ in range(20):
        workloads.time_reference()


def end_to_end(workload, corpus, seconds):
    import workloads

    entry = workloads.ENTRIES[workload]
    setup_s, setup_samples = measure_setup(workloads)
    warm_up(workloads, workload, entry)
    gc.collect()
    passes, wall = workloads.run_timed(entry, corpus, seconds)

    first = passes[0].outcomes
    drops = [-workloads.check_outcome(workload, coeffs, outcome)
             for coeffs, outcome in zip(corpus, first)]
    scaled, raw, factors = [], [], []
    for p in passes:
        f = workloads.speed_factors(p.ref_seconds)
        factors += f
        raw += p.seconds
        scaled += [t * k for t, k in zip(p.seconds, f)]
    calls = len(scaled)
    reduced = sum(o.failure is None for p in passes for o in p.outcomes)
    failures = failure_counts(first)
    ordered = sorted(scaled)
    raw_sorted = sorted(raw)
    metrics = {
        "reduced_per_s": reduced / sum(scaled),
        "form_ms_p50": nearest_rank(ordered, 50) * 1e3,
        "form_ms_p90": nearest_rank(ordered, 90) * 1e3,
        "reduced_frac": (len(first) - sum(failures.values())) / len(first),
        "log2_height_drop": sum(drops) / len(drops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    print(f"passes {len(passes)}, calls {calls}, loop wall {wall:.2f} s, "
          f"speed factor median {statistics.median(factors):.3f} "
          f"(reference kernel {workloads.REF_MS / statistics.median(factors):.3f} ms)")
    print(f"as measured: reduced_per_s {reduced / sum(raw):.4f}, "
          f"form_ms_p50 {nearest_rank(raw_sorted, 50) * 1e3:.3f}, "
          f"form_ms_p90 {nearest_rank(raw_sorted, 90) * 1e3:.3f}, "
          f"setup s / baseline s {', '.join(f'{s:.3f}/{b:.3f}' for s, b in setup_samples)}")
    print(f"failures {failures or 'none'}; fail_frac {sum(failures.values()) / len(first):.6f}; "
          f"log2_height_ratio {-metrics['log2_height_drop']:.6f}")
    print(f"reports sha256 {workloads.digest(first)}")
    for name, unit in END_TO_END.items():
        extra = f"  (n={calls})" if name.startswith("form_ms") else ""
        print(f"{name:<20} {metrics[name]:.6g} {unit}{extra}")
    failed = sum(o.failure is not None for p in passes for o in p.outcomes)
    return calls, failed, {name: {"value": metrics[name], "unit": unit}
                           for name, unit in END_TO_END.items()}


def traced(workload, corpus, seconds, seed):
    """Traced run: each form once untraced and once traced, in alternating order."""
    import spans
    import workloads

    entry = workloads.ENTRIES[workload]
    tracer = spans.Tracer()
    root = tracer.span(spans.ROOT, entry)
    warm_up(workloads, workload, entry)
    gc.collect()
    plain_s = traced_s = 0.0
    outcomes, refs = [], []
    deadline = time.perf_counter() + seconds
    for i, coeffs in enumerate(corpus):
        if i and time.perf_counter() > deadline:
            break
        tracer.form = i
        for traced_call in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_call:
                tracer.install()
            start = time.perf_counter()
            outcome = workloads.call(root if traced_call else entry, coeffs)
            elapsed = time.perf_counter() - start
            if traced_call:
                tracer.uninstall()
                traced_s += elapsed
                outcomes.append(outcome)
            else:
                plain_s += elapsed
                plain = outcome
        refs.append(workloads.time_reference())
        if workloads.outcome_line(plain) != workloads.outcome_line(outcomes[-1]):
            raise workloads.CheckError(f"tracing changed the answer for form {i}")
    forms = len(outcomes)
    for coeffs, outcome in zip(corpus, outcomes):
        workloads.check_outcome(workload, coeffs, outcome)
    scale = workloads.speed_factors(refs)
    metrics = spans.layer_metrics(tracer.spans, scale, forms, tracer.absent,
                                  traced_s / plain_s - 1)
    by_name, by_layer, total = spans.self_time_table(tracer.spans, scale, forms)
    print(f"traced forms {forms}; absent wrap targets: {', '.join(tracer.absent) or 'none'}")
    print("self ms/form by span: " + ", ".join(f"{k} {v:.4f}" for k, v in sorted(by_name.items())))
    print("self ms/form by layer: " + ", ".join(f"{k} {v:.4f}" for k, v in sorted(by_layer.items())))
    print(f"sum of layer self times {sum(by_layer.values()):.6f} ms/form; "
          f"traced total {total:.6f} ms/form")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans written to {spans_path}")
    for name, m in metrics.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
        print(f"{name:<42} {shown}")
    return forms, sum(o.failure is not None for o in outcomes), metrics


def run_one(workload, seed, seconds, trace_on):
    import corpora
    import workloads

    corpus = corpora.generate(workload, seed, corpus_size(workload, seconds))
    print(f"workload {workload} seed {seed}: {len(corpus)} forms, "
          f"corpus sha256 {corpora.corpus_hash(corpus)}")
    try:
        if trace_on:
            attempted, failed, metrics = traced(workload, corpus, seconds, seed)
        else:
            attempted, failed, metrics = end_to_end(workload, corpus, seconds)
    except workloads.CheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed, seconds, trace_on):
    """Every workload in its own fresh process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_on)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        import_formred()
    except Unmeasurable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
