"""REP102 clean fixture: transactions, contracts, sqlite conn scope."""


class TransactionalBackend:
    def __init__(self, db):
        self._db = db

    def record_add(self, obj, invalidated):
        with self._db.transaction():
            self._db.upsert("objects", {"object_id": obj.object_id})
            for object_id in invalidated:
                self._db.delete("renderings", object_id)

    def record_cache_clear(self):
        """Drop every rendering row in one transaction of its own.

        Callers get atomicity without opening their own scope.
        """
        self._db.delete("renderings", None)


class SqliteBackend:
    def __init__(self, lock, conn):
        self._lock = lock
        self._conn = conn

    def record_remove(self, object_id, invalidated):
        # ``with self._conn`` opens a sqlite transaction scope.
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM objects WHERE object_id = ?", (object_id,)
            )


class RowCache:
    # No record_* method: not a journal, so its writes are out of scope.
    def __init__(self, db):
        self._db = db

    def put(self, obj):
        self._db.upsert("objects", {"object_id": obj.object_id})
