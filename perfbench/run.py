#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload tune-suite --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark with sbt on first use (or when a source
changed), then runs the benchmark JVM. The JVM prints a report and, as the
last line, one JSON object; this script checks that object against
BENCHMARK.json before it passes it on. Everything it writes stays inside the
checkout: sbt's target directories and perfbench/out/.
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")
CLASSPATH_FILE = os.path.join(BENCH_DIR, "target", "runtime-classpath.txt")
STAMP_FILE = os.path.join(BENCH_DIR, "target", "build-inputs.sha256")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17: the module opens spark-submit would add.
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_inputs():
    """Every file whose change calls for a rebuild, in a stable order."""
    files = []
    for base, dirs in ((ROOT, ("src/main", "project")), (BENCH_DIR, ("src/main", "project"))):
        for d in dirs:
            top = os.path.join(base, d)
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames[:] = sorted(n for n in dirnames if n != "target")
                files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        files.append(os.path.join(base, "build.sbt"))
    return files


def inputs_digest():
    h = hashlib.sha256()
    for f in build_inputs():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def read_classpath():
    with open(CLASSPATH_FILE) as fh:
        return fh.read().strip()


def build():
    """Compiles with sbt unless the last build saw the same sources."""
    digest = inputs_digest()
    if os.path.exists(STAMP_FILE) and os.path.exists(CLASSPATH_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == digest and all(
                    os.path.exists(p) for p in read_classpath().split(os.pathsep)):
                return read_classpath()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.supershell=false", "writeClasspath"]
    print(f"perfbench: building ({' '.join(cmd)})", file=sys.stderr)
    code = run_child(cmd, BENCH_DIR, env, BUILD_TIMEOUT_S, stdout=sys.stderr)[0]
    if code != 0:
        fail(f"build failed with exit code {code}")
    with open(STAMP_FILE, "w") as fh:
        fh.write(digest + "\n")
    return read_classpath()


def run_child(cmd, cwd, env, timeout_s, stdout=subprocess.PIPE):
    """Runs `cmd` in its own process group; kills the group on timeout or
    interruption and always waits for it. Returns (exit code, stdout text)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        return proc.returncode, out or ""
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def expected_metrics(trace):
    return [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """The JSON line must hold exactly the keys and metrics BENCHMARK.json names."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    want = expected_metrics(trace)
    if sorted(res["metrics"]) != sorted(want):
        raise ValueError(f"metrics {sorted(res['metrics'])} != BENCHMARK.json {sorted(want)}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError(f"attempted {res['attempted']}")


def main():
    # Turn SIGTERM into an exception, so run_child stops the JVM or sbt first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for need in ("build.sbt", os.path.join("src", "main", "scala"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a checkout of the whole repository")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark_spec()["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    classpath = build()

    work = os.path.join(OUT, f"work-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in env else "java"
    cmd = ([java, "-Xmx2g", "-XX:+UseG1GC", f"-Djava.io.tmpdir={tmp}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
           + ["-cp", classpath, "repro.perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--launched-ns", str(time.time_ns()), "--out", OUT])
    try:
        code, out = run_child(cmd, work, env, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with code {code}")
    try:
        check_result(out.rstrip("\n").split("\n")[-1], a.trace)
    except (ValueError, KeyError) as e:
        sys.stderr.write(out)
        fail(f"malformed result line: {e}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
