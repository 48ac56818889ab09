#!/usr/bin/env python3
"""Full-graph inference benchmark: builds the program from source, then runs
one measured JVM.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload gat-mag --seed 1 --seconds 15 --trace 0

The first run compiles the repository and this benchmark with sbt (offline,
from the local dependency cache) and records the runtime classpath; later
runs reuse it while neither a source file nor a compiled class on it has
changed. The benchmark JVM prints a
table of metrics and, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Everything it writes stays under
`.bench_build/` in the repository.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSPATH = os.path.join(BENCH, "target", "runtime-classpath.txt")
STAMP = os.path.join(BUILD, "source-stamp.txt")
BUILD_TIMEOUT_S = 700  # plus one run, within the 900 s a first run may take
RUN_TIMEOUT_S = 170

# Module opens that spark-submit passes; the repo's build.sbt forks with the same.
JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def files_under(path):
    if os.path.isfile(path):
        return [path]
    out = []
    for d, subdirs, fs in os.walk(path):
        subdirs[:] = sorted(s for s in subdirs if s != "target")
        out += [os.path.join(d, f) for f in sorted(fs)]
    return out


def build_stamp():
    """Hash of every file that goes into the build, and of the name, size and
    mtime of every class file on the recorded classpath, so classes that
    another build of the same directories left behind force a rebuild."""
    h = hashlib.sha256()
    for top in ("build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
                "perfbench/project/build.properties", "perfbench/src/main"):
        for f in files_under(os.path.join(ROOT, top)):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    if os.path.exists(CLASSPATH):
        with open(CLASSPATH) as fh:
            entries = fh.read().strip().split(os.pathsep)
        for entry in entries:
            for d, subdirs, fs in os.walk(entry):
                subdirs.sort()
                for f in sorted(fs):
                    st = os.stat(os.path.join(d, f))
                    h.update(f"{os.path.join(d, f)} {st.st_size} {st.st_mtime_ns}".encode())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout or
    on SIGTERM, and always waits for it. Returns the exit code, or None on
    timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, stdin=subprocess.DEVNULL, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP) and open(STAMP).read() == build_stamp():
        return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "writeClasspath"]
    code = run_group(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail("build timed out" if code is None else f"build failed (sbt exit {code})", 1)
    with open(STAMP, "w") as fh:
        fh.write(build_stamp())


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through run_group's kill
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    for need in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} in {ROOT}: the program's sources are not here")
    os.makedirs(BUILD, exist_ok=True)
    build()

    work = os.path.join(BUILD, f"run-{a.workload}-{a.seed}-{a.trace}")
    shutil.rmtree(work, ignore_errors=True)
    scratch = [os.path.join(work, d) for d in ("spark-local", "tmp", "warehouse")]
    for d in scratch:
        os.makedirs(d)
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ, SPARK_MASTER=f"local[{cores}]", SPARK_LOCAL_DIRS=scratch[0])
    for var in ("SPARK_SHUFFLE_PARTITIONS", "SPARK_EXECUTOR_DIRS"):
        env.pop(var, None)  # the program keeps its default partitions
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in env else "java"
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    cmd = [java, "-Xms3g", "-Xmx3g", *JVM_OPENS,
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           f"-Djava.io.tmpdir={scratch[1]}",
           f"-Dspark.sql.warehouse.dir={scratch[2]}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work-dir", work]
    sys.stdout.flush()
    try:
        code = run_group(cmd, RUN_TIMEOUT_S, cwd=work, env=env)
    finally:
        for d in scratch + [os.path.join(work, "spill")]:
            shutil.rmtree(d, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
