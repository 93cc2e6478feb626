"""Mutation check: tier-1 must kill a wrong statement of each engine rule.

Each mutant below replaces one piece of text in one file of
``src/cola_forge`` (the text must occur there exactly once) and names the
rule it breaks. The script copies the repository into a temporary directory
once, then for each mutant writes the mutated file, runs tier-1 there with
``-x`` and restores the file. A mutant is killed when tier-1 fails. The
script prints one line per mutant and exits 1 when a mutant survives that is
not marked equivalent (with the reason why no test can tell it apart), or 2
when a mutant's text is no longer in its file.

The script is not a test (pytest collects only ``test_*.py``). Run it from
the repository root, naming mutants to run only those::

    python tests/mutants.py [name ...]

Each run takes from a few seconds (killed early) to a whole tier-1 run.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/cola_forge
    old: str
    new: str
    equivalent: str | None = None  # why no test can kill it


MUTANTS = [
    Mutant("run sum skips a member", "adapter.py",
           "for member in pool[lo + 1:hi]:", "for member in pool[lo + 2:hi]:"),
    Mutant("eval mean scales by the drawing pool", "adapter.py",
           "return *whole, 1.0 / draw[0]", "return *whole, 1.0 / draw[1]"),
    Mutant("scale-1 skip removed", "adapter.py",
           "for s in (scale, ws.config.scale) if s != 1.0]",
           "for s in (scale, ws.config.scale)]"),
    Mutant("pairing entry equal to the pool size accepted", "adapter.py",
           "max(pairing.map) >= limit", "max(pairing.map) > limit"),
    Mutant("MAC model's reverse term counts the down side", "adapter.py",
           'parts["reverse"] = up_apps * n * r', 'parts["reverse"] = down_apps * r * m'),
    Mutant("Adam without its eps", "training.py", "(np.add, (t, eps, t)), ", ""),
    Mutant("write-back divisor off by one", "training.py",
           "(start - end) / (hi - lo)", "(start - end) / (hi - lo + 1)"),
    Mutant("loss readout divisor off by one", "training.py",
           "float(np.add.reduce(sq, None)) / batch",
           "float(np.add.reduce(sq, None)) / (batch + 1)"),
    Mutant("finite-difference denominator floor 1e-3", "training.py",
           "abs(numeric), 1e-12)", "abs(numeric), 1e-3)"),
    Mutant("step block one step shorter", "training.py",
           "min(64, task.x_train.shape[1] // batch)",
           "min(64, task.x_train.shape[1] // batch - 1)",
           equivalent="a block's draws equal one-by-one draws: Generator.integers "
                      "takes the same bits in order however the draws are split"),
    Mutant("_check_count refuses its bound", "linalg.py",
           "if low is not None and value < low:", "if low is not None and value <= low:"),
    Mutant("_is_integer takes a bool", "linalg.py",
           "return isinstance(value, (int, np.integer)) and not isinstance(value, bool)",
           "return isinstance(value, (int, np.integer))"),
    Mutant("_check_shape compares only the leading dimension", "linalg.py",
           "zip(array.shape, shape)", "zip(array.shape[:1], shape[:1])"),
    Mutant("_check_shape lets a None entry match a missing axis", "linalg.py",
           "if array.ndim != len(shape) or any(",
           "if array.ndim > len(shape) or array.ndim < len(shape) - "
           "shape[array.ndim:].count(None) or any("),
    Mutant("_as_real takes bool entries", "linalg.py",
           'if a.dtype.kind not in "iuf":', 'if a.dtype.kind not in "biuf":'),
    Mutant("_check_count's upper bound exclusive", "linalg.py",
           "if high is not None and value > high:", "if high is not None and value >= high:"),
    Mutant("heuristic M <= N rule refuses M == N", "adapter.py",
           "return strategy is Strategy.HEURISTIC and a_count > b_count",
           "return strategy is Strategy.HEURISTIC and a_count >= b_count"),
    Mutant("_check_positive takes inf", "linalg.py",
           '    if not math.isfinite(value):\n        raise error(f"{name} must be finite, '
           'got {value!r}")\n', ""),
    Mutant("Optimizer takes any learning rate", "training.py",
           '        _check_positive("learning rate", self.lr)\n', ""),
    Mutant("svd's sign pivot is the largest signed entry", "linalg.py",
           "u[np.argmax(np.abs(u), axis=0)", "u[np.argmax(u, axis=0)"),
    Mutant("svd keeps roundoff-level singular values", "linalg.py",
           "s[s <= max(a.shape) * np.finfo(np.float64).eps * s[0]] = 0.0",
           "s[s <= 0.0] = 0.0"),
    Mutant("pissa_extended divides B by M", "initializers.py",
           "up / config.b_count for", "up / config.a_count for"),
    Mutant("pissa_extended's residual drops its first tail direction", "initializers.py",
           "w0 = (fac.u[:, r:] * fac.s[r:]) @ fac.v[:, r:].T",
           "w0 = (fac.u[:, r + 1:] * fac.s[r + 1:]) @ fac.v[:, r + 1:].T"),
    Mutant("Adam without its second-moment bias correction", "training.py",
           "root = math.sqrt((1.0 - b2 ** state.step) / k2)", "root = math.sqrt(1.0 / k2)"),
    Mutant("Adam without its first-moment bias correction", "training.py",
           "s[()] = k1 / (1.0 - b1 ** state.step) * root", "s[()] = k1 * root"),
    Mutant("A side trains at lr, not lr times its run length", "training.py",
           "np.repeat(a_len, r * cfg.in_dim)", "np.repeat(1, len(a_len) * r * cfg.in_dim)"),
    Mutant("softmax without its max shift", "training.py",
           "(np.maximum.reduce, (y, 0, None, peak, True))",
           "(np.multiply, (y[:1], 0.0, peak))"),
    Mutant("cross-entropy without its log floor", "training.py",
           "np.log(np.maximum(g[targets, cols], 1e-300))", "np.log(g[targets, cols])"),
    Mutant("sample_pairing never draws the last partner", "adapter.py",
           "rng.integers(0, draw[0], size=draw[1])",
           "rng.integers(0, draw[0] - 1, size=draw[1])"),
    Mutant("a resampling step draws partners from the drawing pool", "training.py",
           "[draw[0]] * draw[1]", "[draw[1]] * draw[1]"),
    Mutant("eval ignores a frozen pairing", "adapter.py",
           "frozen = pairing is not None and pairing.frozen", "frozen = False"),
    Mutant("as_matrix takes NaN", "linalg.py",
           "if not np.all(np.isfinite(a)):", "if np.any(np.isinf(a)):"),
    Mutant("_check_range ignores its upper bound", "linalg.py",
           "low <= value <= high and", "low <= value and"),
    Mutant("_as_batch takes any number of axes", "linalg.py",
           "(dim,) if a.ndim == 1 else (dim, None)",
           "(dim,) if a.ndim == 1 else (dim,) + (None,) * (a.ndim - 1)"),
    Mutant("_check_rng refuses only None", "linalg.py",
           "if not isinstance(rng, np.random.Generator):", "if rng is None:"),
    Mutant("final loss divergence unchecked", "training.py",
           "if not math.isfinite(final_loss):", "if False:"),
]


def first_failure(output: str) -> str:
    """The first FAILED or ERROR line of pytest's summary, or its last line."""
    found = re.search(r"^(FAILED|ERROR) \S+", output, re.MULTILINE)
    lines = output.strip().splitlines()
    return found.group(0) if found else (lines[-1] if lines else "")


def run(mutant: Mutant, copy: Path) -> tuple[bool, str]:
    """(killed, what killed it) for one mutant applied in ``copy``."""
    target = copy / "src" / "cola_forge" / mutant.path
    source = target.read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: its text occurs {source.count(mutant.old)} "
                          f"times in {mutant.path}, not once")
    target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    finally:
        target.write_text(source, encoding="utf-8")
    return done.returncode != 0, first_failure(done.stdout)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="cola-forge-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench-tmp-*",
            ".benchmarks"))
        for mutant in chosen:
            start = time.perf_counter()
            try:
                killed, by = run(mutant, copy)
            except LookupError as exc:
                print(exc, file=sys.stderr)
                return 2
            seconds = time.perf_counter() - start
            if killed:
                verdict = f"killed by {by}"
            elif mutant.equivalent:
                verdict = f"survived, equivalent: {mutant.equivalent}"
            else:
                verdict, survivors = "SURVIVED", survivors + 1
            print(f"{mutant.name} ({mutant.path}, {seconds:.1f} s): {verdict}", flush=True)
    print(f"{len(chosen)} mutants, {survivors} surviving that are not equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
