"""NMD001 positive fixture: a shard-indexed burst outside an owner context.

``process_items`` mutates ``W`` and every listed ``h`` row in place, so a
helper that runs it on tokens it does not hold breaks the owner-computes
rule exactly like a direct row store would.
"""

__nomad_owner_contexts__ = ("worker",)


def worker(backend, w, h, items, shard, counts, hyper):
    return backend.process_items(
        w, h, items, items, shard.ptr, shard.rows, shard.vals, counts,
        hyper.alpha, hyper.beta, hyper.lambda_,
    )


def replay_burst(backend, w, h, items, shard, counts, hyper):
    return backend.process_items(  # NMD001: caller holds no token
        w, h, items, items, shard.ptr, shard.rows, shard.vals, counts,
        hyper.alpha, hyper.beta, hyper.lambda_,
    )
