#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload mm2-thrash --seed 1 --seconds 15 --trace 0

The Go toolchain's caches and temporary files, the binary and the
results all go under .bench_build/ in the checkout. The build needs the
repository's own module (the parent directory of perfbench/), so run
from a full checkout: without it the build fails and nothing is
printed on standard output.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout, and never
    # reach for the network: the benchmark builds from the tree alone.
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/.config"), ("XDG_CACHE_HOME", "home/.cache")):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOWORK="off",
               GOFLAGS="-mod=readonly", GOTELEMETRY="off", CGO_ENABLED="0")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    os.chdir(root)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
