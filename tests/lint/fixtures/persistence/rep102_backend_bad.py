"""REP102 true-positive fixture: journal writes outside a transaction."""


class Backend:
    def __init__(self, db):
        self._db = db

    def record_add(self, obj, invalidated):
        # finding: two mutations, no transaction — a crash between them
        # tears the journal.
        self._db.upsert("objects", {"object_id": obj.object_id})
        for object_id in invalidated:
            self._db.delete("renderings", object_id)

    def record_rendering(self, object_id, fmt, body):
        self._db.upsert("renderings", {"key": f"{object_id}:{fmt}"})  # finding
