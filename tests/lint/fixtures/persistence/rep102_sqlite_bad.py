"""REP102 true positive: a sqlite journal write outside ``with self._conn``."""


class SqliteBackend:
    def __init__(self, lock, conn):
        self._lock = lock
        self._conn = conn

    def record_update(self, obj, invalidated):
        with self._lock:
            # finding: the lock is not a transaction; a crash between
            # the two statements tears the record.
            self._conn.execute(
                "UPDATE objects SET payload = ? WHERE object_id = ?",
                (obj.payload, obj.object_id),
            )
            with self._conn:
                self._conn.execute("DELETE FROM renderings WHERE object_id = ?",
                                   (obj.object_id,))
