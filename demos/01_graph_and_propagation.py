"""Build the interaction graph and walk embeddings through it.

A recommender's raw material is a pile of (user, item) pairs. This demo
assembles a toy dataset by hand, normalizes its bipartite adjacency, and
runs the layered propagation that turns per-node embedding rows into
neighborhood-aware representations.
"""

import numpy as np

from svdgcl.interactions import (
    InteractionDataset,
    build_adjacency,
    normalize_adjacency,
)
from svdgcl.model import HyperParams, forward, init_model

print("== a seven-user, six-item toy world ==")
train = []
for u in range(7):
    for j in range(3):
        train.append((u, (u + j) % 6))
test = [(u, (u + 3) % 6) for u in range(7)]
ds = InteractionDataset(
    num_users=7,
    num_items=6,
    train=np.array(train, dtype=np.int64),
    validation=np.empty((0, 2), dtype=np.int64),
    test=np.array(test, dtype=np.int64),
    user_id_map={f"user{u}": u for u in range(7)},
    item_id_map={f"item{i}": i for i in range(6)},
)
print(ds.summary())

print()
print("== adjacency, then degree normalization ==")
raw = build_adjacency(ds)
a = normalize_adjacency(raw)
print(f"stored edges: {raw.nnz}")
print("normalized entry for (user0, item0):", a.toarray()[0, 0])
print("each entry is 1/sqrt(user_degree * item_degree), so rows of a")
print("dense power of the graph stay on a comparable scale.")

print()
print("== propagation: three rounds of neighbor mixing ==")
hp = HyperParams(embed_dim=4, layers=3, seed=1)
state = init_model(ds, hp)
trace = forward(state, a)
print("without hyperparameters nothing is dropped: the pass evaluation ranks with")
print("the SVD's global view is not computed here; only the contrast reads it")
print(f"pre-activations kept for backprop: {len(trace.pre_z_user)} (one per layer)")
print(f"adjacency each layer propagated through: {len(trace.dropped_adj)}")
print("final user representations are the sum of every running state,")
print("so deep smoothing never erases the identity carried by layer 0.")
print("final_user shape:", trace.final_user.shape)

print()
print("== scores are plain dot products ==")
scores = trace.final_user[0] @ trace.final_item.T
order = np.argsort(-scores)
print("user0 item ranking:", order.tolist())
print("user0 trained on items", sorted(i for u, i in train if u == 0))
