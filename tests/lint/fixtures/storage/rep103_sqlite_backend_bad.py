"""REP103 true positive: a SqliteBackend left open when a later call raises."""

from repro.persistence import SqliteBackend


def count_objects(data_dir):
    storage = SqliteBackend(data_dir)
    snapshot = storage.load()  # finding: load() raising leaks storage
    storage.close()
    return len(snapshot.objects)


def count_objects_guarded(data_dir):
    storage = SqliteBackend(data_dir)
    try:
        return len(storage.load().objects)
    finally:
        storage.close()
