"""Tests for the rendered-entry cache."""

from repro.core.cache import RenderCache


class TestBasics:
    def test_put_get(self) -> None:
        cache = RenderCache()
        cache.put(1, "<p>x</p>")
        assert cache.get(1) == "<p>x</p>"
        assert cache.hits == 1

    def test_miss_on_absent(self) -> None:
        cache = RenderCache()
        assert cache.get(1) is None
        assert cache.misses == 1

    def test_version_increments(self) -> None:
        cache = RenderCache()
        first = cache.put(1, "a")
        second = cache.put(1, "b")
        assert first.version == 1
        assert second.version == 2

    def test_len_and_clear(self) -> None:
        cache = RenderCache()
        cache.put(1, "a")
        cache.put(2, "b")
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


class TestInvalidation:
    def test_invalidate_marks_dirty(self) -> None:
        cache = RenderCache()
        cache.put(1, "a")
        flipped = cache.invalidate([1])
        assert flipped == 1
        assert cache.get(1) is None
        assert cache.invalid_ids() == [1]
        assert not cache.is_valid(1)

    def test_invalidate_absent_id_ignored(self) -> None:
        cache = RenderCache()
        assert cache.invalidate([42]) == 0

    def test_invalidate_already_dirty_not_double_counted(self) -> None:
        cache = RenderCache()
        cache.put(1, "a")
        cache.invalidate([1])
        assert cache.invalidate([1]) == 0
        assert cache.invalidations == 1

    def test_put_revalidates(self) -> None:
        cache = RenderCache()
        cache.put(1, "a")
        cache.invalidate([1])
        cache.put(1, "b")
        assert cache.get(1) == "b"
        assert cache.invalid_ids() == []


class TestGetOrRender:
    """The linker's miss path: ``get``, render on a miss, then ``put``."""

    @staticmethod
    def serve(cache: RenderCache, render, fmt: str = "html") -> str:
        cached = cache.get(1, fmt)
        if cached is not None:
            return cached
        rendered = render(1)
        cache.put(1, rendered, fmt)
        return rendered

    def test_renders_on_miss_then_serves_cached(self) -> None:
        cache = RenderCache()
        calls: list[int] = []

        def render(object_id: int) -> str:
            calls.append(object_id)
            return f"render-{object_id}"

        assert self.serve(cache, render) == "render-1"
        assert self.serve(cache, render) == "render-1"
        assert calls == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_rerenders_after_invalidation(self) -> None:
        cache = RenderCache()
        counter = {"n": 0}

        def render(object_id: int) -> str:
            counter["n"] += 1
            return f"v{counter['n']}"

        assert self.serve(cache, render) == "v1"
        cache.invalidate([1])
        assert self.serve(cache, render) == "v2"
        assert cache.is_valid(1)

    def test_drop(self) -> None:
        cache = RenderCache()
        cache.put(1, "a")
        cache.drop(1)
        assert cache.get(1) is None
        assert len(cache) == 0


class TestFormatKeying:
    def test_formats_are_independent_slots(self) -> None:
        cache = RenderCache()
        cache.put(1, "<a>x</a>")  # DEFAULT_FORMAT == "html"
        cache.put(1, "[x]", fmt="markdown")
        assert cache.get(1) == "<a>x</a>"
        assert cache.get(1, fmt="markdown") == "[x]"
        assert len(cache) == 2
        assert cache.formats_for(1) == {"html", "markdown"}

    def test_miss_in_one_format_does_not_touch_the_other(self) -> None:
        cache = RenderCache()
        cache.put(1, "<a>x</a>")
        assert cache.get(1, fmt="annotations") is None
        assert cache.get(1) == "<a>x</a>"

    def test_versions_tracked_per_format(self) -> None:
        cache = RenderCache()
        assert cache.put(1, "a").version == 1
        assert cache.put(1, "m", fmt="markdown").version == 1
        assert cache.put(1, "b").version == 2

    def test_invalidate_dirties_every_format(self) -> None:
        cache = RenderCache()
        cache.put(1, "h")
        cache.put(1, "m", fmt="markdown")
        flipped = cache.invalidate([1])
        assert flipped == 2
        assert not cache.is_valid(1)
        assert not cache.is_valid(1, fmt="markdown")
        assert cache.invalid_ids() == [1]
        assert cache.invalid_keys() == [(1, "html"), (1, "markdown")]

    def test_drop_removes_every_format(self) -> None:
        cache = RenderCache()
        cache.put(1, "h")
        cache.put(1, "m", fmt="markdown")
        cache.drop(1)
        assert len(cache) == 0
        assert cache.formats_for(1) == frozenset()

    def test_get_or_render_caches_non_html(self) -> None:
        cache = RenderCache()
        calls: list[str] = []

        def render(object_id: int) -> str:
            calls.append("render")
            return "md"

        serve = TestGetOrRender.serve
        assert serve(cache, render, fmt="markdown") == "md"
        assert serve(cache, render, fmt="markdown") == "md"
        assert calls == ["render"]
        assert cache.get(1) is None

    def test_counter_snapshot(self) -> None:
        cache = RenderCache()
        cache.put(1, "h")
        cache.get(1)
        cache.get(2)
        cache.invalidate([1])
        snapshot = cache.counter_snapshot()
        assert snapshot == {"hits": 1, "misses": 1, "invalidations": 1, "entries": 1}
