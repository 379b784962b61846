#!/usr/bin/env python3
"""Run one MultiEM benchmark workload and print its result as one JSON line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload geo-exact --seed 1 --seconds 1 --trace 0

The first call builds the program and the benchmark with sbt (offline) and
caches the runtime classpath under .bench_build/; later calls reuse it while
the sources are unchanged. Each call runs the workload in a fresh JVM. The
last line of standard output is the result object; the JVM's log goes to
.bench_build/perfbench/logs/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("geo-exact", "music20-eer")
JVM_TIMEOUT_S = 170
HEAP = "3g"

# Opens that Spark needs on Java 17 (the list Spark's own launcher passes).
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    inputs = ["build.sbt", "project/build.properties", "src/main", "jobs",
              "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/main"]
    for rel in inputs:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile the program and the benchmark; return the runtime classpath."""
    digest = source_digest()
    cp_file = os.path.join(BUILD_DIR, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            cached_digest, cp = fh.read().split("\n", 1)
        if cached_digest == digest:
            return cp.strip()
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             "compile", "export Runtime/fullClasspath"],
            cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE, stderr=log, text=True, timeout=800)
        log.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or ":" not in lines[-1]:
        fail(f"build failed (exit {proc.returncode}); see {log_path}")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(digest + "\n" + cp)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=None,
                    help="dataset size as a fraction of the paper-scale size (default: the workload's own)")
    args = ap.parse_args()

    for needed in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of a checkout of the program")
    cp = build()

    run_dir = os.path.join(BUILD_DIR, "runs")
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(os.path.join(BUILD_DIR, "logs"), exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = os.path.join(run_dir, tag + ".json")
    cmd = ["java", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.local.dir={os.path.join(tmp, 'spark')}"] + JAVA_OPENS + [
        "-cp", cp, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--record", record]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    log_path = os.path.join(BUILD_DIR, "logs", tag + ".log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"timed out after {JVM_TIMEOUT_S} s; see {log_path}")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}; see {log_path}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line; see {log_path}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
