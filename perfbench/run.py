#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>]

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the perfbench program) into
.bench_build/perfbench; later calls only rebuild what changed. Records and
Chrome traces go to .bench_build/out/. Build output goes to stderr, so the
last line of stdout is the program's result object. Malformed arguments exit
2 before anything is built; a failed build exits 1 without a result.
"""
import hashlib
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("gravit-functional", "fig12-timed-1t", "fig10-sweep-2t")
USAGE_EXIT = 2
BUILD_TIMEOUT_S = 850
# A run may take --seconds plus this. The program ends its measured phase at
# most 100 s after --seconds (main.cpp, kOverrunSeconds), even short of its
# minimum operation count; set-up and the closing Fig. 10 sweep fit in the
# rest. The self-test gets the margin alone.
RUN_MARGIN_S = 140

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"


def usage(why):
    sys.stderr.write(
        f"run.py: {why}\n"
        f"usage: run.py --workload <{'|'.join(WORKLOADS)}> --seed <n> "
        "--seconds <1-600> --trace <0|1>\n"
        "       run.py --self-test [--seed <n>]\n")
    sys.exit(USAGE_EXIT)


def parse(argv):
    """Strict flag parsing: every value is a whole decimal token in range."""
    if "--self-test" in argv:
        rest = [a for a in argv if a != "--self-test"]
        if rest and (len(rest) != 2 or rest[0] != "--seed"):
            usage("--self-test takes only --seed")
        args = {"--seed": rest[1]} if rest else {}
        check_uint(args.get("--seed", "1"), "--seed", 0, 2**64 - 1)
        return True, args
    if len(argv) % 2 != 0:
        usage("flags take one value each")
    args = dict(zip(argv[0::2], argv[1::2]))
    required = ("--workload", "--seed", "--seconds", "--trace")
    if sorted(args) != sorted(required) or len(args) * 2 != len(argv):
        usage("expected exactly " + ", ".join(required))
    if args["--workload"] not in WORKLOADS:
        usage(f"unknown workload '{args['--workload']}'")
    check_uint(args["--seed"], "--seed", 0, 2**64 - 1)
    check_uint(args["--seconds"], "--seconds", 1, 600)
    check_uint(args["--trace"], "--trace", 0, 1)
    return False, args


def check_uint(value, what, lo, hi):
    if not re.fullmatch(r"[0-9]+", value) or not lo <= int(value) <= hi:
        usage(f"invalid {what} '{value}' (expected integer in [{lo}, {hi}])")


def run_child(cmd, timeout, stdout=None, env=None):
    """Runs cmd in its own process group and returns its exit code; on a
    timeout the whole group (build tools included) is killed and reaped."""
    try:
        proc = subprocess.Popen(cmd, stdout=stdout, env=env, start_new_session=True)
    except OSError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(f"run.py: {cmd[0]} stopped (timeout or interrupt)\n")
        return 1


def run_step(cmd):
    """A build step: output on stderr, temporaries inside the build tree."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    return run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env) == 0


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_step(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *gen]):
            shutil.rmtree(BUILD, ignore_errors=True)  # retry the configure next time
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_step(["cmake", "--build", str(BUILD), "--target", "perfbench",
                     "-j", jobs])


def source_id():
    """The git commit when the checkout is a repository, plus a digest of
    the sources the benchmark compiles, so a record names the code it ran."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".inc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"git:{commit} sources:{digest.hexdigest()[:16]}"


def main(argv):
    self_test, args = parse(argv)
    if not build():
        sys.stderr.write("run.py: build failed\n")
        return 1
    cmd = [str(BUILD / "perfbench")]
    timeout = RUN_MARGIN_S
    if self_test:
        cmd += ["--self-test", "--seed", args.get("--seed", "1")]
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        for flag in ("--workload", "--seed", "--seconds", "--trace"):
            cmd += [flag, args[flag]]
        cmd += ["--out", str(OUT), "--source", source_id()]
        timeout += int(args["--seconds"])
    return run_child(cmd, timeout)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
