"""REP102 caller-half clean fixture: the sanctioned routes."""


class Linker:
    def __init__(self, storage):
        self.storage = storage

    def add_object(self, obj, invalidated):
        self._journal(lambda: self.storage.record_add(obj, invalidated))

    def reset_renderings(self):
        """Pre-serving cache wipe; transactional inside the backend."""
        self.storage.record_cache_clear()

    def suppressed_direct_call(self, obj):
        # Sanctioned one-off with an inline waiver.
        self.storage.record_update(obj, (), ())  # lint: disable=REP102

    def _journal(self, operation):
        operation()
