"""Re-record the golden artifacts of committed configs.

    PYTHONPATH=src python tests/record_goldens.py

Runs each config named in GOLDEN through ``cli.main`` and writes its
artifacts, all but ``manifest.json``, to ``tests/golden/<config name>/``.
``test_goldens.py`` reruns the same configs and compares against these
files.  A change that moves a number re-records them and lists the moves in
CHANGES.md.
"""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN = ("centers", "evolve", "reconstruct", "tube", "validate_foliation")


def run_config(name, out):
    """Run configs/<name>.json under ``out``; {artifact name: text}, no manifest."""
    from instantform import cli

    config = ROOT / "configs" / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):  # the run directory
        code = cli.main([name.replace("_", "-"), "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{config} exited {code}")
    (run_dir,) = Path(out).iterdir()
    return {p.name: p.read_bytes().decode("utf-8") for p in sorted(run_dir.iterdir())
            if p.name != "manifest.json"}


def main():
    for name in GOLDEN:
        with tempfile.TemporaryDirectory() as tmp:
            texts = run_config(name, tmp)
        target = GOLDEN_DIR / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for artifact, text in texts.items():
            (target / artifact).write_bytes(text.encode("utf-8"))
        print(f"{target}: {', '.join(texts)}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
