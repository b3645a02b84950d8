#!/usr/bin/env python3
"""Runs one workload of the end-to-end pipeline benchmark.

    python3 pipebench/run.py --workload portal_batch --seed 7 \
        --seconds 10 --trace 0

Run from the root of a strudel checkout. The script builds the library,
the CLI and the benchmark's own binary from source (into
$CARGO_TARGET_DIR/pipebench, default .bench_build/pipebench), trains the
benchmark model once per build, generates the workload's inputs from the
seed, runs the workload in a fresh process and checks its outputs.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The line before it is the full record:
host, configuration, input sizes, validity checks and every metric. The
record and the traced run's spans are also kept under the build
directory (results/, work/<workload>/spans.json).

Exits non-zero without a result when the benchmark cannot run at all
(no sources to build, build or generation failure, missing metric).
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Training uses `strudel train`'s own settings (50 + 50 trees).
TRAIN_THREADS = max(1, min(4, len(os.sched_getaffinity(0))))


class BenchError(Exception):
    pass


def log(message):
    print(f"pipebench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log_file:
        log_file.write(f"$ {' '.join(cmd)}\n")
        log_file.flush()
        proc = subprocess.run(cmd, stdout=log_file, stderr=subprocess.STDOUT,
                              timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        with open(log_path) as log_file:
            tail = log_file.read()[-3000:]
        raise BenchError(f"command failed ({proc.returncode}): "
                         f"{' '.join(cmd)}\n{tail}")


def sha256_files(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no strudel sources next to the benchmark")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], log_path, 600)
    run_logged(["cmake", "--build", build_dir, "-j", jobs,
                "--target", "pipebench_tool"], log_path, 840)
    tool = os.path.join(build_dir, "pipebench_tool")
    cli = os.path.join(build_dir, "strudel", "tools", "strudel")
    for path in (tool, cli):
        if not os.path.isfile(path):
            raise BenchError(f"build produced no {path}")
    return tool, cli


def ensure_model(build_dir, tool, cli):
    """Trains the benchmark model once per build of the binaries.

    The training corpus is a constant of the benchmark (it depends on no
    run seed), so the model is keyed by the binaries that generate and
    train it and is reused by every run of the same build.
    """
    model_dir = os.path.join(build_dir, "model")
    model = os.path.join(model_dir, "bench.model")
    stamp_path = os.path.join(model_dir, "stamp")
    hashes_path = os.path.join(model_dir, "train_hashes.json")
    stamp = sha256_files([tool, cli])
    if (os.path.isfile(model) and os.path.isfile(hashes_path)
            and os.path.isfile(stamp_path)
            and open(stamp_path).read() == stamp):
        return model, set(json.load(open(hashes_path))), stamp
    corpus = os.path.join(model_dir, "corpus")
    subprocess.run(["rm", "-rf", model_dir], check=True)
    os.makedirs(model_dir)
    log_path = os.path.join(model_dir, "train.log")
    run_logged([tool, "gen-train", corpus], log_path, 300)
    run_logged([cli, "--threads", str(TRAIN_THREADS), "train", corpus, model],
               log_path, 600)
    hashes = sorted(sha256_files([os.path.join(corpus, name)])
                    for name in os.listdir(corpus) if name.endswith(".csv"))
    with open(hashes_path, "w") as f:
        json.dump(hashes, f)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return model, set(hashes), stamp


def run_workload(cmd, timeout):
    """Runs the workload process in its own process group.

    The serve workload spawns `strudel serve`, which forks workers. However
    the run ends, everything left in the group is killed and waited for,
    so no process outlives the run.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return proc.returncode, stdout, stderr


def check_digest(build_dir, stamp, workload, seed, digest):
    """Outputs of one seed must repeat across runs of one build.

    Digests are kept per build of the binaries, so a program change that
    changes outputs on purpose starts a fresh record.
    """
    path = os.path.join(build_dir, "digests", stamp[:16], f"{workload}-{seed}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.isfile(path):
        return open(path).read().strip() == digest
    with open(path, "w") as f:
        f.write(digest)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "pipebench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        tool, cli = build(build_dir)
        model, train_hashes, stamp = ensure_model(build_dir, tool, cli)

        work = os.path.join(build_dir, "work", args.workload)
        subprocess.run(["rm", "-rf", work], check=True)
        run_logged([tool, "gen", args.workload, str(args.seed), work],
                   os.path.join(build_dir, "gen.log"), 120)
        input_hashes = set()
        for inputs in (os.path.join(work, "inputs"),
                       os.path.join(work, "accuracy", "inputs")):
            input_hashes |= {sha256_files([os.path.join(inputs, name)])
                             for name in os.listdir(inputs)}
        overlap = len(input_hashes & train_hashes)

        remaining = max(30.0, 175.0 - (time.monotonic() - start))
        returncode, stdout, stderr = run_workload(
            [tool, "run", args.workload, str(args.seed), f"{args.seconds:g}",
             str(args.trace), work, model, cli], remaining)
        if returncode != 0 or not stdout.strip():
            raise BenchError(f"workload run failed ({returncode}):\n"
                             f"{stderr[-3000:]}")
        record = json.loads(stdout.strip().splitlines()[-1])

        problems = list(record.get("problems", []))
        failed = int(record["failed"])
        attempted = int(record["attempted"])
        if overlap:
            problems.append(f"{overlap} inputs also in the training corpus")
        if not check_digest(build_dir, stamp, args.workload, args.seed,
                            record["digest"]):
            problems.append("output digest differs from an earlier run of "
                            "this seed")
            failed += 1
        record["problems"] = problems
        record["correct"] = record["valid"] and failed == 0 and not problems

        metrics = {}
        for metric in wanted:
            got = record["metrics"].get(metric["name"])
            if got is None:
                raise BenchError(f"workload printed no {metric['name']}")
            if got["unit"] != metric["unit"]:
                raise BenchError(f"{metric['name']} is in {got['unit']}, "
                                 f"BENCHMARK.json says {metric['unit']}")
            if got["value"] is None:
                raise BenchError(f"{metric['name']} has no value")
            metrics[metric["name"]] = got

        results = os.path.join(build_dir, "results")
        os.makedirs(results, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(results, name), "w") as f:
            json.dump(record, f, indent=1)
        print(json.dumps(record))
        print(json.dumps({"correct": record["correct"],
                          "attempted": max(1, attempted),
                          "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as error:
        log(str(error))
        sys.exit(1)
