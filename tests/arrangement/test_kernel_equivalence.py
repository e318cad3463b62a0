"""Fast kernel vs seed kernel: output equivalence on whole corpora.

The fast geometry path of ``build_complex`` (float-filtered predicates,
sweep planarizer, indexed labeling) is only allowed to be *faster* than
the seed path, ``build_complex_reference`` — never different.  These
tests assert full `CellComplex` equality (cells, incidences,
orientation, endpoints, exterior face, and the geometric witnesses)
plus canonical-hash equality of the derived invariant, on every paper
figure and on a 50-instance generated corpus.
"""

import pytest

from repro.arrangement import build_complex, build_complex_reference
from repro.arrangement.complex import CellComplex
from repro.datasets import (
    all_figures,
    grid_instance,
    mixed_corpus,
    nested_rings,
    overlap_chain,
    petal_count_flower,
)
from repro.invariant import TopologicalInvariant, canonical_hash


def _assert_same_complex(fast: CellComplex, seed: CellComplex) -> None:
    assert fast.names == seed.names
    assert fast.cells == seed.cells
    assert fast.incidences == seed.incidences
    assert fast.orientation == seed.orientation
    assert fast.endpoints == seed.endpoints
    assert fast.exterior_face == seed.exterior_face
    assert fast.vertex_points == seed.vertex_points
    assert fast.edge_polylines == seed.edge_polylines
    assert fast.face_samples == seed.face_samples
    # Dataclass equality covers the same fields; keep it as a guard
    # against new fields silently escaping the comparison above.
    assert fast == seed
    assert canonical_hash(
        TopologicalInvariant.from_complex(fast)
    ) == canonical_hash(TopologicalInvariant.from_complex(seed))


@pytest.mark.parametrize(
    "name", sorted(all_figures().keys())
)
def test_figures_equivalent(name):
    instance = all_figures()[name]
    fast = build_complex(instance)
    seed = build_complex_reference(instance)
    _assert_same_complex(fast, seed)


def _generated_corpus():
    """50 generated instances across every workload family, including
    the degenerate ones (shared boundaries, nesting, vertex contacts)."""
    corpus = list(mixed_corpus(44, seed=1234))
    corpus.extend(
        [
            grid_instance(2),
            grid_instance(3),
            overlap_chain(5),
            nested_rings(3),
            petal_count_flower(6),
            grid_instance(4),
        ]
    )
    assert len(corpus) == 50
    return corpus


@pytest.mark.slow
def test_generated_corpus_equivalent():
    for i, instance in enumerate(_generated_corpus()):
        fast = build_complex(instance)
        seed = build_complex_reference(instance)
        try:
            _assert_same_complex(fast, seed)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(
                f"kernel divergence on generated instance #{i}"
            ) from exc
