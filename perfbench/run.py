#!/usr/bin/env python3
"""End-to-end benchmark of the Grad-Prune reproduction.

Builds the repository's libraries and the bdbench program from source (into
.bench_build/, or $CARGO_TARGET_DIR when set), runs one workload and prints,
as its last stdout line, one JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload cell-1t --seed 1 --seconds 25 --trace 0

Workloads are listed in BENCHMARK.json; perfbench/README.md explains them.
Exit status is 0 when a result was printed, non-zero otherwise (bad
arguments, missing sources, failed build, crashed or timed-out run).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# One run must end within 180 s; the first run of a checkout also builds
# and may take 900 s.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def clean_env():
    """The environment bdbench runs in: no BDPROTO_* knob leaks in, so
    the repository's own tracing, metrics and fault injection stay off and
    the scale is the default quick mode."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BDPROTO_")}
    env["BDPROTO_LOG"] = "warn"
    return env


def run_logged(cmd, log, cwd=ROOT):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode


def build(bdir):
    """Configures (once) and builds the libraries, then bdbench. Returns
    the binary path and whether anything had to be configured."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("repository sources (CMakeLists.txt, src/) not found next to "
             "perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    repo_build = os.path.join(bdir, "repo")
    bench_build = os.path.join(bdir, "bdbench")
    fresh = not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt"))
    steps = []
    if not os.path.isfile(os.path.join(repo_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", repo_build, *gen,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON",
                      "-DBD_BUILD_TESTS=OFF", "-DBD_BUILD_BENCH=OFF",
                      "-DBD_BUILD_EXAMPLES=OFF", "-DBD_BUILD_TOOLS=OFF"])
    steps.append(["cmake", "--build", repo_build, "-j", jobs])
    if fresh:
        steps.append(["cmake", "-S", HERE, "-B", bench_build, *gen,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DBD_REPO_BUILD=" + repo_build])
    steps.append(["cmake", "--build", bench_build, "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail("build failed (log: %s)" % log, code=3)
    return os.path.join(bench_build, "bdbench"), fresh


def build_info(bdir):
    """Compiler, build type and flags of the measured libraries, and the
    source revision."""
    repo_build = os.path.join(bdir, "repo")
    info = {"build_type": None, "compiler": None, "flags": None}
    cache = os.path.join(repo_build, "CMakeCache.txt")
    compiler = None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                info["build_type"] = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=20).stdout
            info["compiler"] = out.splitlines()[0] if out else compiler
        except (OSError, subprocess.TimeoutExpired):
            info["compiler"] = compiler
    try:
        with open(os.path.join(repo_build, "compile_commands.json")) as f:
            commands = json.load(f)
        entry = next(c for c in commands if "/src/tensor/" in c["file"])
        args = entry.get("command", "").split()[1:]
        keep, skip = [], False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c", "-MT", "-MF"):
                skip = True
                continue
            if a.startswith("-I") or a == "-MD" or a.endswith(".cpp"):
                continue
            keep.append(a)
        info["flags"] = " ".join(keep)
    except (OSError, ValueError, StopIteration, KeyError):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
        info["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        info["git_sha"] = None
    if not info["git_sha"]:
        info["git_sha"] = "unavailable (not a git checkout)"
    # A content hash identifies the measured sources either way.
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    info["src_sha256"] = h.hexdigest()[:16]
    return info


def run(binary, args, work, limit):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--profile", args.profile, "--work-dir", work,
           "--build-info", json.dumps(build_info(build_dir()), sort_keys=True)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % limit, code=4)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("bdbench exited with %d" % proc.returncode, code=4)
    return out


def check_result(text, spec, trace):
    """Parses the result line and checks it names exactly the
    metrics BENCHMARK.json declares for this kind of run."""
    result = json.loads(text)
    if tuple(sorted(result)) != tuple(sorted(RESULT_KEYS)):
        fail("result keys %s" % sorted(result), code=5)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
             % (missing, extra, units), code=5)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", default="paper", choices=("paper", "tiny"),
                        help="tiny: seconds-long self-test scale (no implant)")
    parser.add_argument("--spans-out", default=None,
                        help="copy the traced run's span file into this directory")
    args = parser.parse_args()

    # A terminated run.py still stops its build or bdbench child (the
    # handlers below kill the child's process group on any exit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    bdir = build_dir()
    binary, fresh = build(bdir)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(names)))

    work = os.path.join(bdir, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        limit = (FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S) - (time.monotonic() - start)
        out = run(binary, args, work, max(limit, 10))
        lines = out.rstrip("\n").split("\n")
        result = check_result(lines[-1], spec, args.trace)
        if args.spans_out:
            os.makedirs(args.spans_out, exist_ok=True)
            for name in os.listdir(work):
                if name.startswith("spans-"):
                    shutil.copy(os.path.join(work, name), args.spans_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({k: result[k] for k in RESULT_KEYS}), flush=True)


if __name__ == "__main__":
    main()
