#!/usr/bin/env python
"""Show that two trees' reports differ only in named keys.

Runs each report recipe on two source trees, drops every JSON object key
named in ``KEYS`` (at any depth) from both sides, and compares what is
left.  A recipe is either a ``tests.golden.REPORTS`` name (the
``REPORT_GOLDEN`` pins) or one of the long CLI runs below.  Each side
runs in a fresh interpreter with the tree's ``src`` on ``PYTHONPATH`` and
the tree as working directory, so the two trees never share a module.
Make the old tree with ``git clone`` (or ``git archive``) of the commit
to compare against, then::

    python scripts/report_key_diff.py OLD_TREE NEW_TREE
    python scripts/report_key_diff.py OLD_TREE NEW_TREE --long

Prints one ``same`` / ``DIFFERS`` line per recipe, with the removed keys
it saw on each side, and exits 1 if any recipe differs in anything else.
"""

import argparse
import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys

#: Keys the storage-group retirement removed from reports, plus the one
#: it added.
KEYS = frozenset(
    ("replication", "disk_losses", "disk_readmissions", "witness_capacity")
)

#: ``tests.golden.REPORTS`` names (the pinned recipes).
GOLDEN = (
    "check-budget16",
    "check-budget16-shards2",
    "run-faults-degrade-check",
    "slo-shards2-restart",
    "soak-0.25h",
    "soak-0.25h-quiet",
)

#: CLI runs CI makes (minutes each): name -> ``repro`` argv.
LONG = {
    "check-budget200": ["check", "--budget", "200", "--seed", "0", "--json"],
    "check-shards2-budget100": [
        "check", "--shards", "2", "--budget", "100", "--seed", "0", "--json",
    ],
    "soak-2h": ["soak", "--hours", "2", "--seed", "0", "--json"],
}


def run_recipe(tree: pathlib.Path, name: str) -> str:
    if name in LONG:
        argv = [sys.executable, "-m", "repro.cli", *LONG[name]]
    else:
        argv = [
            sys.executable, "-c",
            "import sys; from tests.golden import REPORTS; "
            f"sys.stdout.write(REPORTS[{name!r}]())",
        ]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        argv, cwd=tree, env=env, capture_output=True, text=True
    )
    if name in LONG:
        return f"exit {done.returncode}\n{done.stdout}"
    if done.returncode != 0:
        raise RuntimeError(f"{name} failed in {tree}:\n{done.stderr}")
    return done.stdout


def parse(text: str) -> list:
    """A report as a list of JSON values: a leading ``exit N`` line as
    text, then the rest if it is one document, else one value per line
    (raw text for non-JSON lines)."""
    out = []
    if text.startswith("exit "):
        head, _, text = text.partition("\n")
        out.append(head)
    try:
        return out + [json.loads(text)]
    except ValueError:
        pass
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            out.append(line)
    return out


def strip(value, keys, seen):
    """``value`` without the object keys in ``keys``; collects the
    dropped ``key=value`` pairs in ``seen``."""
    if isinstance(value, dict):
        kept = {}
        for key, item in value.items():
            if key in keys:
                seen.add(f"{key}={json.dumps(item)}")
            else:
                kept[key] = strip(item, keys, seen)
        return kept
    if isinstance(value, list):
        return [strip(item, keys, seen) for item in value]
    return value


def compare(old: str, new: str) -> tuple:
    old_seen, new_seen = set(), set()
    same = strip(parse(old), KEYS, old_seen) == strip(
        parse(new), KEYS, new_seen
    )
    return same, sorted(old_seen), sorted(new_seen)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument(
        "--long", action="store_true",
        help="run the long CLI recipes instead of the pinned ones",
    )
    args = parser.parse_args(argv)
    names = list(LONG) if args.long else list(GOLDEN)
    trees = (args.old.resolve(), args.new.resolve())
    # Two recipes at a time: each is one single-threaded interpreter.
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        futures = {
            (name, side): pool.submit(run_recipe, trees[side], name)
            for name in names
            for side in (0, 1)
        }
        failed = 0
        for name in names:
            same, old_seen, new_seen = compare(
                futures[name, 0].result(), futures[name, 1].result()
            )
            failed += not same
            print(
                f"{'same' if same else 'DIFFERS'} {name}: old dropped "
                f"{old_seen or 'nothing'}, new dropped "
                f"{new_seen or 'nothing'}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
