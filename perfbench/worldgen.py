"""Seeded input generation: the served store, the users and the commit deltas.

The synthetic world -- schema, version chain and user population -- is
always the canonical one of :data:`WORLD_SEED`.  The traffic seed
(``--seed``) fixes the order in which users are read, the Zipf draws and
the instance deltas the writer commits.  The same seed gives byte-identical
inputs on any machine, which :func:`World.digest` lets two machines confirm.

The generator's output files depend on set iteration order, so
:func:`generate_in_subprocess` runs it under a fixed ``PYTHONHASHSEED``::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/worldgen.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
INSTANCE_NS = "http://synthetic.repro.org/onto#"
DELTA_TRIPLES = 10
#: The served world is always the canonical one; ``--seed`` draws the
#: traffic over it.  Worlds of other seeds differ in engine cost by more
#: than any bound a run-to-run comparison could use: across five world
#: seeds on a 2-core Xeon the interquartile spread was 14-17% of the
#: median in read rate and 48-57% in fresh-read latency.
WORLD_SEED = 4242


@dataclass(frozen=True)
class Scale:
    """World and traffic sizes (full benchmark or the quick self-test)."""

    classes: int = 120
    properties: int = 80
    versions: int = 3
    changes_per_version: int = 150
    users: int = 4096
    working_set: int = 256


FULL = Scale()
QUICK = Scale(classes=30, properties=20, changes_per_version=40, users=300, working_set=32)


@dataclass
class World:
    """One generated world on disk plus what the load generator needs."""

    seed: int  # traffic seed
    tenant: str
    kb_dir: Path
    users_path: Path
    user_order: List[str]  # seeded permutation of the population
    classes: List[str]  # class IRIs of the head version, sorted

    def digest(self) -> str:
        """SHA-256 over the store files and the users file, in a fixed order."""
        sha = hashlib.sha256()
        for path in sorted(self.kb_dir.iterdir()) + [self.users_path]:
            sha.update(path.name.encode("utf-8"))
            sha.update(path.read_bytes())
        return sha.hexdigest()

    def delta(self, index: int) -> str:
        """The N-Triples body of commit ``index``: ``DELTA_TRIPLES`` new
        instances typed with consecutive head classes (the shape of the
        ``cold_first_evaluation`` substrate benchmark's delta)."""
        lines = []
        for i in range(DELTA_TRIPLES):
            cls = self.classes[(index * DELTA_TRIPLES + i) % len(self.classes)]
            lines.append(
                f"<{INSTANCE_NS}pb_s{self.seed}_c{index}_i{i}> <{RDF_TYPE}> <{cls}> ."
            )
        return "\n".join(lines) + "\n"


def generate(seed: int, scale: Scale, out_dir: Path) -> World:
    """Generate the canonical world into ``out_dir`` (binary store
    layout); ``seed`` fixes the traffic drawn over it."""
    from repro.graphtools import spread
    from repro.io import save_kb, save_users
    from repro.synthetic.config import EvolutionConfig, SchemaConfig, WorldConfig
    from repro.synthetic.world import generate_world

    config = WorldConfig(
        schema=SchemaConfig(n_classes=scale.classes, n_properties=scale.properties),
        evolution=EvolutionConfig(
            n_versions=scale.versions, changes_per_version=scale.changes_per_version
        ),
    )
    # User generation runs one BFS per focus class of every user over the
    # same class graph; memoising the (pure) BFS by source produces the
    # same users in a fraction of the time.  Set-up only: the served
    # program never sees this.
    original = spread.bfs_distances
    memo = {}

    def memo_bfs(graph, source):
        key = (id(graph), source)
        if key not in memo:
            memo[key] = (graph, original(graph, source))
        return memo[key][1]

    spread.bfs_distances = memo_bfs
    try:
        world = generate_world(seed=WORLD_SEED, config=config, n_users=scale.users)
    finally:
        spread.bfs_distances = original
    kb_dir = out_dir / "kb"
    users_path = out_dir / "users.json"
    save_kb(world.kb, kb_dir, format="binary")
    save_users(world.users, users_path)
    order = [user.user_id for user in world.users]
    random.Random(f"perfbench-users-{seed}").shuffle(order)
    return World(
        seed=seed,
        tenant=world.kb.name,
        kb_dir=kb_dir,
        users_path=users_path,
        user_order=order,
        classes=sorted(c.value for c in world.kb.latest().schema.classes()),
    )


def generate_in_subprocess(seed: int, scale: Scale, out_dir: Path, src: Path) -> World:
    """:func:`generate` in a child interpreter with ``PYTHONHASHSEED=0``."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
         "--out", str(out_dir), "--scale", json.dumps(asdict(scale))],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"world generation failed:\n{done.stderr[-2000:]}")
    fields = json.loads(done.stdout.splitlines()[-1])
    return World(
        seed=seed,
        tenant=fields["tenant"],
        kb_dir=out_dir / "kb",
        users_path=out_dir / "users.json",
        user_order=fields["user_order"],
        classes=fields["classes"],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="traffic seed")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", default=json.dumps(asdict(FULL)),
                        help="Scale fields as JSON (default: the full benchmark)")
    args = parser.parse_args()
    world = generate(args.seed, Scale(**json.loads(args.scale)), args.out)
    print(json.dumps({
        "tenant": world.tenant,
        "user_order": world.user_order,
        "classes": world.classes,
    }))


if __name__ == "__main__":
    main()
