"""The index-backend registry and the facade's selection path.

Covers the PR's API-surface contract: typed unknown-index errors that
enumerate what is registered, third-party registration reaching the
engine, per-backend option validation, the non-string ``index``
type check, and the capability gates that route
algorithms away from backends that cannot serve them.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.api import open_engine
from repro.core.engine import TopKDominatingEngine
from repro.index import (
    BackendSpec,
    UnknownIndexError,
    available_backends,
    get_backend,
    register_backend,
)
from repro.index.registry import _REGISTRY
from repro.mtree.tree import MTree

from .conftest import make_vector_space


class TestRegistry:
    def test_builtins_are_registered(self):
        assert available_backends() == ("mtree", "pmtree", "vptree")

    def test_unknown_name_is_typed_and_lists_backends(self):
        with pytest.raises(UnknownIndexError) as exc_info:
            get_backend("rtree")
        message = str(exc_info.value)
        assert "rtree" in message
        for name in available_backends():
            assert name in message
        # pre-registry callers caught ValueError; keep that working.
        assert isinstance(exc_info.value, ValueError)
        assert exc_info.value.name == "rtree"
        assert exc_info.value.registered == available_backends()

    def test_engine_raises_the_typed_error(self, small_space):
        with pytest.raises(UnknownIndexError, match="registered backends"):
            TopKDominatingEngine(small_space, index="rtree")

    def test_duplicate_registration_needs_replace(self):
        spec = get_backend("mtree")
        with pytest.raises(ValueError, match="already registered"):
            register_backend(spec)
        register_backend(spec, replace=True)  # no-op override is fine

    def test_names_must_be_canonical(self):
        spec = get_backend("mtree")
        for bad_name in ("MTree", "pm-tree", "pm_tree", ""):
            bad = BackendSpec(
                name=bad_name,
                description=spec.description,
                capabilities=spec.capabilities,
                builder=spec.builder,
                options=spec.options,
            )
            with pytest.raises(ValueError, match="lower-case"):
                register_backend(bad)

    def test_unknown_option_fails_fast_naming_valid_ones(self, small_space):
        with pytest.raises(TypeError, match="leaf_capacity"):
            open_engine(
                small_space,
                index="vptree",
                index_options={"node_capacity": 8},
            )

    def test_pmtree_rejects_bulk_load_with_guidance(self, small_space):
        with pytest.raises(TypeError, match="bulk_load"):
            open_engine(
                small_space,
                index="pmtree",
                index_options={"bulk_load": True},
            )


class TestThirdPartyBackend:
    def test_registered_backend_builds_through_the_facade(self):
        spec = BackendSpec(
            name="mtreealias",
            description="test-only alias of the M-tree",
            capabilities=frozenset({"insert", "delete", "skyline"}),
            builder=lambda space, buffer, rng, options: MTree.build(
                space, buffer, rng=rng
            ),
            options=(),
        )
        register_backend(spec)
        try:
            assert "mtreealias" in available_backends()
            space = make_vector_space(60, dims=2, seed=9)
            engine = open_engine(space, seed=9, index="mtreealias")
            assert engine.index_kind == "mtreealias"
            results, _ = engine.top_k_dominating([0, 7], 3)
            reference_engine = open_engine(
                make_vector_space(60, dims=2, seed=9), seed=9
            )
            reference, _ = reference_engine.top_k_dominating([0, 7], 3)
            assert [r.object_id for r in results] == [
                r.object_id for r in reference
            ]
        finally:
            _REGISTRY.pop("mtreealias", None)


class TestDeprecatedSpellings:
    # the retired spellings themselves are covered by
    # tests/test_api_facade.py::TestDeprecatedAliases.

    def test_canonical_names_do_not_warn(self):
        space = make_vector_space(60, dims=2, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in available_backends():
                engine = open_engine(space, seed=4, index=name)
                assert engine.index_kind == name

    def test_non_string_index_is_a_type_error(self, small_space):
        with pytest.raises(TypeError, match="backend name string"):
            TopKDominatingEngine(small_space, index=3)


class TestCapabilityGates:
    def test_skyline_algorithms_refused_without_capability(self):
        space = make_vector_space(60, dims=2, seed=5)
        engine = open_engine(space, seed=5, index="vptree")
        for algorithm in ("sba", "aba"):
            with pytest.raises(ValueError, match="skyline"):
                engine.top_k_dominating([0, 7], 3, algorithm=algorithm)

    def test_static_backend_refuses_inserts(self):
        space = make_vector_space(60, dims=2, seed=5)
        engine = open_engine(space, seed=5, index="vptree")
        with pytest.raises(NotImplementedError, match="static"):
            engine.insert_object((0.5, 0.5))

    def test_durability_requires_mtree(self, tmp_path):
        space = make_vector_space(60, dims=2, seed=5)
        for backend in ("pmtree", "vptree"):
            engine = open_engine(space, seed=5, index=backend)
            with pytest.raises(NotImplementedError, match="mtree"):
                from repro.recovery import enable_durability

                enable_durability(engine, str(tmp_path / backend))

    def test_insert_capable_backends_accept_writes(self):
        for backend in ("mtree", "pmtree"):
            space = make_vector_space(60, dims=2, seed=5)
            engine = open_engine(space, seed=5, index=backend)
            new_id = engine.insert_object((0.5, 0.5))
            assert new_id in engine.tree
