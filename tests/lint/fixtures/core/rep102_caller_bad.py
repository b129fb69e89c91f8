"""REP102 caller-half true positive: storage calls bypassing _journal."""


class Linker:
    def __init__(self, storage):
        self.storage = storage

    def add_object(self, obj, invalidated):
        # finding: a disk failure here crashes the request instead of
        # degrading to read-only via _journal().
        self.storage.record_add(obj, invalidated)

    def add_objects(self, objects):
        # finding: the bulk load's one record bypasses _journal() too.
        self.storage.record_bulk_add(objects, ())

    def _journal(self, operation):
        operation()
