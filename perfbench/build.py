"""Build file of the RStore benchmark.

Compiles the repository's main sources (``src/main/scala``) together with the
benchmark's own sources (``perfbench/src``) with the Scala compiler that ships
in Spark's ``jars`` directory, into ``.bench_build/perfbench/classes-<hash>``
under the repository root. The hash covers every source file, so an edited
source tree gets a fresh build and an unchanged one is reused.

Run from the repository root:  python3 perfbench/build.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "perfbench"
SOURCE_DIRS = (Path("src") / "main" / "scala", Path("perfbench") / "src")
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def spark_home() -> Path:
    """Spark installation: $SPARK_HOME, else the one holding spark-submit."""
    env = os.environ.get("SPARK_HOME")
    if env and (Path(env) / "jars").is_dir():
        return Path(env)
    submit = shutil.which("spark-submit")
    if submit:
        home = Path(submit).resolve().parent.parent
        if (home / "jars").is_dir():
            return home
    raise BuildError("no Spark installation found: set SPARK_HOME")


def java_bin() -> str:
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java on PATH: set JAVA_HOME")
    return found


def sources(root: Path) -> list:
    main = root / SOURCE_DIRS[0]
    if not main.is_dir():
        raise BuildError(f"{SOURCE_DIRS[0]} not found under {root}: "
                         "run from the root of an RStore checkout")
    files = []
    for d in SOURCE_DIRS:
        files += sorted(p for p in (root / d).rglob("*.scala") if p.is_file())
    if not any(p.is_relative_to(root / SOURCE_DIRS[1]) for p in files):
        raise BuildError(f"no benchmark sources under {SOURCE_DIRS[1]}")
    return files


def build(root: Path) -> Path:
    """Compile if needed; returns the classes directory."""
    files = sources(root)
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    out = root / BUILD_DIR / f"classes-{digest.hexdigest()[:16]}"
    if (out / "rstorebench" / "Main.class").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = tmp.with_name(tmp.name + ".args")
    argfile.write_text("\n".join(str(p) for p in files) + "\n")
    cmd = [java_bin(), "-Xss8m", "-Xmx2g", "-cp", str(spark_home() / "jars" / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(tmp), f"@{argfile}"]
    print(f"perfbench: compiling {len(files)} sources into {out.relative_to(root)}",
          file=sys.stderr, flush=True)
    try:
        res = subprocess.run(cmd, cwd=root, timeout=COMPILE_TIMEOUT_S)
    finally:
        argfile.unlink(missing_ok=True)
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac exited with {res.returncode}")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


if __name__ == "__main__":
    try:
        print(build(Path.cwd()))
    except BuildError as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(2)
