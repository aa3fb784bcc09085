#!/usr/bin/env python3
"""Runs one workload of the signing benchmark.

    python3 signbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds the harness and the
repository's libraries from source into .bench_build/signbench, makes the
workload's keys and moduli from the seed, runs the harness, checks a sample
of its outputs with Python's own arithmetic, and prints the harness's JSON
result as its last stdout line.  Exit status: 0 on a correct run, 1 when an
output was wrong or a conservation law broke, 2 when the run could not be
made (no sources, build failure, harness error).
"""

import argparse
import fcntl
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "signbench"
WORKLOADS = ("sign-saturate", "sign-serial", "exp-microjobs")
RUN_LIMIT_S = 170

# DER prefix of the SHA-256 DigestInfo (RFC 8017 §9.2, note 1).
SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


def fail(message, code=2):
    print(f"signbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/ to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "signbench",
                      "-j", "4"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(step))
    return BUILD / "signbench"


# --- seeded inputs ---------------------------------------------------------

SMALL_PRIMES = [p for p in range(3, 2000)
                if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def is_probable_prime(n, rng):
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for _ in range(32):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits, e, rng):
    while True:
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if (candidate - 1) % e and is_probable_prime(candidate, rng):
            return candidate


def rsa_key(bits, rng):
    """A CRT key whose modulus has exactly `bits` bits (top two bits of
    each prime set), e = 65537."""
    e = 65537
    p = random_prime(bits // 2, e, rng)
    q = p
    while q == p:
        q = random_prime(bits // 2, e, rng)
    phi = (p - 1) * (q - 1)
    return {"n": p * q, "e": e, "d": pow(e, -1, phi), "p": p, "q": q}


def make_inputs(seed, path):
    """Every key and modulus of every workload, from the seed alone."""
    rng = random.Random(f"signbench-{seed}")
    lines = []
    for kind, bits, count in (("rsa512", 512, 4), ("rsa1024", 1024, 1)):
        for _ in range(count):
            k = rsa_key(bits, rng)
            lines.append(" ".join([kind] + [format(k[f], "x") for f in "nedpq"]))
    moduli = set()
    while len(moduli) < 4:
        moduli.add(rng.getrandbits(64) | (1 << 63) | 1)
    lines += [f"mod64 {m:x}" for m in sorted(moduli)]
    path.write_text("\n".join(lines) + "\n")


# --- independent output check ----------------------------------------------

def emsa_pkcs1_v15(message, k):
    t = SHA256_DIGEST_INFO + hashlib.sha256(message).digest()
    return int.from_bytes(b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t,
                          "big")


def check_samples(path):
    lines = path.read_text().split("\n") if path.is_file() else []
    checked = 0
    for line in filter(None, lines):
        kind, *fields = line.split()
        if kind == "sig":
            n, e = int(fields[0], 16), int(fields[1], 16)
            message, signature = bytes.fromhex(fields[2]), int(fields[3], 16)
            ok = pow(signature, e, n) == emsa_pkcs1_v15(message, (n.bit_length() + 7) // 8)
        else:
            m, b, x, r = (int(f, 16) for f in fields)
            ok = pow(b, x, m) == r
        if not ok:
            print(f"signbench: sampled output is wrong: {line}", file=sys.stderr)
            return False
        checked += 1
    if checked == 0:
        print("signbench: no sampled outputs to check", file=sys.stderr)
    return checked > 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    start = time.monotonic()  # a first build may take longer than a run
    run_dir = BUILD / f"run-{os.getpid()}"
    run_dir.mkdir(exist_ok=True)
    try:
        inputs, samples = run_dir / "inputs.txt", run_dir / "samples.txt"
        make_inputs(args.seed, inputs)
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--inputs", str(inputs),
                   "--samples", str(samples)]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - start)))
        except subprocess.TimeoutExpired:
            fail("harness timed out")
        out_lines = done.stdout.strip().split("\n")
        if done.returncode not in (0, 1) or not out_lines[-1].startswith("{"):
            fail(f"harness exited {done.returncode} without a result")
        sys.stderr.write("".join(line + "\n" for line in out_lines[:-1]))
        result = json.loads(out_lines[-1])
        if not check_samples(samples):
            result["correct"] = False
    finally:
        for f in run_dir.iterdir():
            f.unlink()
        run_dir.rmdir()

    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
