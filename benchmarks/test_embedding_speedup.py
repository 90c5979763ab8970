"""Embedding-engine speedup: alias-sampled lockstep vs scalar oracle.

The paper's efficiency study (Section 5.1 / Tables 5-6) charges embedding
pre-training to DeepOD's offline cost; this bench measures the lockstep
engine directly against the scalar walks and SGNS in
``tests/oracles/embedding.py``.  Both run the full pre-training pipeline —
node2vec walks, pair harvest, SGNS — on the line graph of a grid city,
and the combined wall-time ratio must clear the floor: >= 10x at the
default ``REPRO_BENCH_SCALE`` (>= 3x when the scale is reduced, where
fixed overheads eat into the ratio).

Results land in ``BENCH_embedding.json`` at the repo root
(``repro.obs.bench`` format) so the perf trajectory is tracked across
commits.  Its check ``same_walk_count``: both engines emit the same
number of walks.
"""

import time
from pathlib import Path

import numpy as np

from repro.embedding import (
    SkipGramConfig, generate_node2vec_walks, train_skipgram,
)
from repro.obs import failed_gates, measure, new_bench, write_bench
from repro.roadnet import grid_city
from repro.roadnet.linegraph import build_line_graph
from tests.oracles.embedding import (
    generate_node2vec_walks_reference, train_skipgram_reference,
)

from .conftest import bench_scale, print_header

NUM_WALKS = 4
WALK_LENGTH = 20
P, Q = 1.0, 2.0
SG = SkipGramConfig(dim=32, window=5, negatives=5, epochs=2)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_embedding.json"


def _bench_engine(graph, walk_fn, train_fn, seed=0):
    """Time walk generation and SGNS training (which includes the pair
    harvest and noise-table build of its own engine) for one engine."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    walks = walk_fn(graph, NUM_WALKS, WALK_LENGTH, p=P, q=Q, rng=rng)
    t1 = time.perf_counter()
    emb = train_fn(walks, graph.num_nodes, SG, rng)
    t2 = time.perf_counter()
    assert emb.shape == (graph.num_nodes, SG.dim)
    assert np.isfinite(emb).all()
    return {"walks_s": t1 - t0, "sgns_s": t2 - t1,
            "total_s": t2 - t0, "num_walks": len(walks)}


def test_embedding_engine_speedup():
    scale = bench_scale()
    side = max(8, int(round(22 * np.sqrt(min(scale, 4.0)))))
    net = grid_city(side, side)
    graph = build_line_graph(net)
    csr = graph.to_csr()
    floor = 10.0 if scale >= 1.0 else 3.0

    ref = _bench_engine(graph, generate_node2vec_walks_reference,
                        train_skipgram_reference)
    vec = _bench_engine(graph, generate_node2vec_walks, train_skipgram)
    speedup = ref["total_s"] / vec["total_s"]

    print_header("Embedding engine — alias-sampled lockstep vs reference")
    print(f"line graph: {csr.num_nodes} nodes, {csr.num_edges} edges "
          f"(scale {scale:g})")
    print(f"{'stage':10s}{'reference(s)':>14}{'vectorized(s)':>15}"
          f"{'ratio':>8}")
    for stage in ("walks_s", "sgns_s", "total_s"):
        r, v = ref[stage], vec[stage]
        print(f"{stage[:-2]:10s}{r:14.3f}{v:15.3f}"
              f"{r / max(v, 1e-9):8.1f}")
    print(f"combined speedup: {speedup:.1f}x (floor {floor:.0f}x)")

    measurements = {"speedup": measure(speedup, "x", floor=floor)}
    for engine, stats in (("reference", ref), ("vectorized", vec)):
        for stage in ("walks_s", "sgns_s", "total_s"):
            measurements[f"{engine}.{stage}"] = measure(stats[stage], "s")
    doc = new_bench(
        "embedding_engine_speedup",
        {"nodes": csr.num_nodes, "edges": csr.num_edges,
         "walks": vec["num_walks"], "walks_per_node": NUM_WALKS,
         "walk_length": WALK_LENGTH, "p": P, "q": Q, "dim": SG.dim,
         "window": SG.window, "negatives": SG.negatives,
         "epochs": SG.epochs, "scale": scale},
        measurements,
        checks={"same_walk_count": ref["num_walks"] == vec["num_walks"]})
    write_bench(str(RESULTS_PATH), doc)
    assert not failed_gates(doc), failed_gates(doc)
