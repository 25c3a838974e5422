#!/usr/bin/env python3
"""Writes the seeded cosm_service session that test_service_golden replays.

    python3 tests/service/make_golden_session.py > tests/service/golden_session.jsonl

The session registers eight cluster families (two with four backend
processes, one re-registered part way through) and then mixes SLA and
quantile ladders, single queries, repeats that the shared cache answers,
devices / capacity / tier_size searches, overloaded operating points,
error lines, list and stats.  The replies are recorded with

    ./build/src/service/cosm_service < tests/service/golden_session.jsonl \\
        > tests/service/golden_replies.jsonl

and re-recorded only by a change that moves a reply on purpose.
"""

import json
import random

SEED = 31
rng = random.Random(SEED)


def line(**fields):
    print(json.dumps(fields, separators=(",", ":")))


def r3(x):
    return round(x, 3)


clusters = {}
for i in range(8):
    name = f"c{i}"
    devices = rng.choice([4, 6, 8, 12, 16])
    spec = {"op": "register", "cluster": name,
            "rate": r3(devices * rng.uniform(12.0, 40.0)), "devices": devices}
    if i in (2, 5):
        spec["processes"] = 4
    if i % 3 == 1:
        spec["index_miss"] = r3(rng.uniform(0.1, 0.5))
        spec["data_miss"] = r3(rng.uniform(0.4, 0.9))
    if i % 4 == 3:
        spec["data_disk_shape"] = r3(rng.uniform(1.5, 4.0))
        spec["frontend_parse_ms"] = r3(rng.uniform(0.3, 1.5))
    clusters[name] = spec
    line(**spec)

names = sorted(clusters)


def point(name):
    """An operating point near the family's own, sometimes its own."""
    spec = clusters[name]
    fields = {}
    if rng.random() < 0.6:
        fields["rate"] = r3(spec["rate"] * rng.uniform(0.5, 1.3))
    if rng.random() < 0.3:
        fields["devices"] = max(1, spec["devices"] + rng.choice([-2, -1, 1, 2]))
    return fields


def slas(n):
    return sorted(r3(rng.uniform(0.02, 0.5)) for _ in range(n))


def ps(n):
    return sorted(round(rng.uniform(0.3, 0.995), 4) for _ in range(n))


history = []
for step in range(580):
    name = rng.choice(names)
    roll = rng.random()
    if step == 290:
        # Replace a family mid-session: later answers use the new spec.
        spec = dict(clusters["c3"], rate=r3(clusters["c3"]["rate"] * 0.8))
        clusters["c3"] = spec
        line(**spec)
        continue
    if roll < 0.05 and history:
        print(rng.choice(history))  # a repeat: served from the cache
        continue
    if roll < 0.30:
        fields = {"op": "sla", "cluster": name, **point(name)}
        if rng.random() < 0.3:
            fields["sla"] = slas(1)[0]
        else:
            ladder = slas(rng.randint(2, 8))
            if rng.random() < 0.2:
                ladder.insert(1, ladder[0])  # a repeated bound in one ladder
            fields["slas"] = ladder
    elif roll < 0.55:
        fields = {"op": "quantile", "cluster": name, **point(name)}
        if rng.random() < 0.4:
            fields["p"] = ps(1)[0]
        else:
            fields["ps"] = ps(rng.randint(2, 5))
    elif roll < 0.66:
        fields = {"op": "devices", "cluster": name, "sla": slas(1)[0],
                  "percentile": round(rng.uniform(0.5, 0.99), 3)}
        if rng.random() < 0.5:
            fields["rate"] = r3(clusters[name]["rate"] * rng.uniform(0.5, 2.0))
        if rng.random() < 0.2:
            fields["max"] = rng.choice([4, 8, 24])
    elif roll < 0.74:
        fields = {"op": "capacity", "cluster": name, "sla": slas(1)[0],
                  "percentile": round(rng.uniform(0.5, 0.99), 3)}
        if rng.random() < 0.4:
            fields["tolerance"] = rng.choice([0.25, 1.0, 2.0])
    elif roll < 0.80:
        fields = {"op": "tier_size", "cluster": name, "sla": slas(1)[0],
                  "percentile": round(rng.uniform(0.5, 0.95), 3),
                  "capacities": sorted(rng.sample(
                      [0, 256, 1024, 2048, 4096, 8192], 3)),
                  "objects": rng.choice([5000, 20000]),
                  "mem_chunks": rng.choice([512, 2048])}
    elif roll < 0.84:
        # Far past saturation: percentiles 0, no finite bound.
        op = rng.choice(["sla", "quantile"])
        fields = {"op": op, "cluster": name,
                  "rate": r3(clusters[name]["rate"] * rng.uniform(3.0, 6.0))}
        if op == "sla":
            fields["slas"] = slas(2)
        else:
            fields["ps"] = ps(2)
    elif roll < 0.90:
        fields = rng.choice([
            {"op": "sla", "cluster": "ghost", "sla": 0.1},
            {"op": "sla", "cluster": name, "sla": -0.1},
            {"op": "quantile", "cluster": name, "p": 1.5},
            {"op": "devices", "cluster": name, "sla": 0.1, "percentile": 0.9,
             "min": 5, "max": 2},
            {"op": "sla", "cluster": name, "sla": 0.1, "devices": 2.7},
            {"op": "frobnicate"},
        ])
    elif roll < 0.94:
        fields = {"op": "list"}
    else:
        fields = {"op": "stats"}
    if rng.random() < 0.2:
        fields["id"] = step
    text = json.dumps(fields, separators=(",", ":"))
    if fields["op"] in ("sla", "quantile"):
        history.append(text)
    print(text)
line(op="stats")
