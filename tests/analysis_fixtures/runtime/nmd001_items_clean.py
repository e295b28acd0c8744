"""NMD001 negative fixture: shard-indexed bursts run only by the owner."""

__nomad_owner_contexts__ = ("worker",)


def worker(backend, w, h, mailbox, shard, counts, hyper):
    def run_burst(items):
        # Nested in the dispatch loop, so still owner-guarded.
        return backend.process_items(
            w, h, items, items, shard.ptr, shard.rows, shard.vals, counts,
            hyper.alpha, hyper.beta, hyper.lambda_,
        )

    return run_burst(mailbox.drain())


def local_ratings(shard, j):
    return shard.rows[shard.ptr[j]:shard.ptr[j + 1]]  # reads are fine
