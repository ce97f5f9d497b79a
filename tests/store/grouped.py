"""One-key shorthands over the stores' grouped surface.

Stores answer only ``get_groups``/``put_groups``; these wrap one
:class:`~repro.kernel.cache.SimKey` as a one-case group so a test can
write or read a single verdict in one line.  Batches of keys go
through :func:`repro.store.store.pair_groups` and
:func:`repro.store.store.get_many_by_groups` instead.
"""


def put(store, key, value):
    store.put_groups(
        [(key.signature, key.size, key.domain, [key.case], [value])]
    )


def get(store, key, default=None):
    (found,) = store.get_groups(
        [(key.signature, key.size, key.domain, [key.case])]
    )
    return found.get(key.case, default)
