"""Dendrogram tree built from a linkage matrix.

The paper's Figures 2-6 are dendrograms; since the reproduction is
plotting-library-free, the dendrogram itself is the artefact: a binary merge
tree with heights, from which the figure benchmarks extract the leaf order,
the merge-height series, flat cluster cuts, Newick strings and the cophenetic
distance matrix used for tree-vs-tree validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ClusteringError
from repro.cluster.linkage import LinkageMatrix
from repro.distances.pdist import CondensedDistanceMatrix, condensed_index, condensed_size

__all__ = ["DendrogramNode", "Dendrogram"]


@dataclass(slots=True)
class DendrogramNode:
    """A node of the dendrogram (leaf or internal merge node)."""

    node_id: int
    height: float
    label: str | None = None
    left: "DendrogramNode | None" = None
    right: "DendrogramNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def leaves(self) -> list["DendrogramNode"]:
        """Leaf nodes of this subtree, left-to-right."""
        if self.is_leaf:
            return [self]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()

    def leaf_labels(self) -> list[str]:
        return [leaf.label or str(leaf.node_id) for leaf in self.leaves()]

    def size(self) -> int:
        """Number of leaves under this node."""
        return len(self.leaves())

    def depth(self) -> int:
        """Height of the subtree in edges (0 for a leaf)."""
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def to_newick(self) -> str:
        """Newick representation of this subtree (without trailing semicolon)."""
        if self.is_leaf:
            label = (self.label or str(self.node_id)).replace(" ", "_").replace(",", "")
            return label
        assert self.left is not None and self.right is not None
        left_branch = max(0.0, self.height - self.left.height)
        right_branch = max(0.0, self.height - self.right.height)
        return (
            f"({self.left.to_newick()}:{left_branch:.6f},"
            f"{self.right.to_newick()}:{right_branch:.6f})"
        )


class Dendrogram:
    """A full dendrogram over labelled observations."""

    def __init__(self, linkage_matrix: LinkageMatrix) -> None:
        self.linkage = linkage_matrix
        self.labels = linkage_matrix.labels
        n = linkage_matrix.n_observations
        nodes: dict[int, DendrogramNode] = {
            i: DendrogramNode(node_id=i, height=0.0, label=label)
            for i, label in enumerate(self.labels)
        }
        for step, (left_id, right_id, height, _size) in enumerate(linkage_matrix.merges):
            left = nodes.get(int(left_id))
            right = nodes.get(int(right_id))
            if left is None or right is None:
                raise ClusteringError(
                    f"linkage row {step} references unknown cluster ids "
                    f"{int(left_id)}, {int(right_id)}"
                )
            nodes[n + step] = DendrogramNode(
                node_id=n + step, height=float(height), left=left, right=right
            )
        self.root = nodes[n + len(linkage_matrix) - 1] if len(linkage_matrix) else nodes[0]
        self._nodes = nodes

    def __eq__(self, other: object) -> bool:
        # A dendrogram is a pure function of its linkage matrix, so linkage
        # equality is tree equality (used by the serve codec round-trips).
        if not isinstance(other, Dendrogram):
            return NotImplemented
        return self.linkage == other.linkage

    # -- basic views ----------------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    def node(self, node_id: int) -> DendrogramNode:
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise ClusteringError(f"unknown dendrogram node id: {node_id}") from exc

    def leaf_order(self) -> list[str]:
        """Leaf labels in dendrogram (plotting) order."""
        return self.root.leaf_labels()

    def merge_heights(self) -> list[float]:
        """Heights of all merges in merge order (the dendrogram 'profile')."""
        return [float(h) for h in self.linkage.heights]

    def max_height(self) -> float:
        heights = self.merge_heights()
        return max(heights) if heights else 0.0

    def internal_nodes(self) -> Iterator[DendrogramNode]:
        for node_id in sorted(self._nodes):
            node = self._nodes[node_id]
            if not node.is_leaf:
                yield node

    # -- flat cluster extraction ---------------------------------------------------------

    def cut_at_height(self, height: float) -> dict[str, int]:
        """Cut the tree at *height*; returns label -> cluster id (0-based).

        Merges with height strictly greater than *height* are undone.  Cluster
        ids are assigned in order of the first leaf (dendrogram order), so the
        assignment is deterministic.
        """
        if height < 0:
            raise ClusteringError("cut height must be non-negative")
        assignments: dict[str, int] = {}
        next_cluster = 0
        roots = self._roots_below(height)
        for root in roots:
            for label in root.leaf_labels():
                assignments[label] = next_cluster
            next_cluster += 1
        return assignments

    def cut_into(self, n_clusters: int) -> dict[str, int]:
        """Cut the tree into exactly *n_clusters* flat clusters."""
        if not 1 <= n_clusters <= self.n_leaves:
            raise ClusteringError(
                f"n_clusters must be between 1 and {self.n_leaves}, got {n_clusters}"
            )
        if n_clusters == 1:
            return {label: 0 for label in self.labels}
        # Undo the (n_clusters - 1) highest merges: cutting just below the
        # (n-k+1)-th largest height yields exactly k clusters for monotone trees.
        heights = sorted(self.merge_heights(), reverse=True)
        threshold = heights[n_clusters - 2]
        epsilon = max(1e-12, abs(threshold) * 1e-9)
        assignment = self.cut_at_height(threshold - epsilon)
        # Non-strictly-monotone trees (ties in heights) can yield fewer or more
        # clusters than requested; fall back to iterative adjustment.
        actual = len(set(assignment.values()))
        if actual == n_clusters:
            return assignment
        return self._cut_exact(n_clusters)

    def _cut_exact(self, n_clusters: int) -> dict[str, int]:
        """Cut into exactly n_clusters by undoing merges from the top."""
        clusters: list[DendrogramNode] = [self.root]
        while len(clusters) < n_clusters:
            # Split the cluster whose merge height is largest.
            splittable = [c for c in clusters if not c.is_leaf]
            if not splittable:
                break
            target = max(splittable, key=lambda c: c.height)
            clusters.remove(target)
            assert target.left is not None and target.right is not None
            clusters.extend([target.left, target.right])
        assignments: dict[str, int] = {}
        for cluster_id, cluster in enumerate(clusters):
            for label in cluster.leaf_labels():
                assignments[label] = cluster_id
        return assignments

    def _roots_below(self, height: float) -> list[DendrogramNode]:
        """Maximal subtrees whose merge height does not exceed *height*."""
        roots: list[DendrogramNode] = []

        def visit(node: DendrogramNode) -> None:
            if node.is_leaf or node.height <= height + 1e-15:
                roots.append(node)
                return
            assert node.left is not None and node.right is not None
            visit(node.left)
            visit(node.right)

        visit(self.root)
        return roots

    # -- cophenetic distances ---------------------------------------------------------------

    def cophenetic_distances(self) -> CondensedDistanceMatrix:
        """Cophenetic distance (merge height of the lowest common ancestor).

        The condensed layout and label order match the original observation
        order, so the result is directly comparable to the input distances
        (cophenetic correlation) and across trees (Baker's gamma / tree
        comparison in :mod:`repro.cluster.validation`).
        """
        n = self.n_leaves
        label_index = {label: i for i, label in enumerate(self.labels)}
        distances = np.zeros(condensed_size(n), dtype=np.float64)

        def visit(node: DendrogramNode) -> list[str]:
            if node.is_leaf:
                return [node.label or str(node.node_id)]
            assert node.left is not None and node.right is not None
            left_labels = visit(node.left)
            right_labels = visit(node.right)
            for left_label in left_labels:
                for right_label in right_labels:
                    i = label_index[left_label]
                    j = label_index[right_label]
                    distances[condensed_index(n, i, j)] = node.height
            return left_labels + right_labels

        if not self.root.is_leaf:
            visit(self.root)
        return CondensedDistanceMatrix(
            labels=self.labels, distances=distances, metric="cophenetic"
        )

    # -- exports ----------------------------------------------------------------------------

    def to_newick(self) -> str:
        """Newick string of the whole tree (with trailing semicolon)."""
        return f"{self.root.to_newick()};"

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly nested representation of the tree."""

        def serialise(node: DendrogramNode) -> dict[str, object]:
            if node.is_leaf:
                return {"id": node.node_id, "label": node.label, "height": node.height}
            assert node.left is not None and node.right is not None
            return {
                "id": node.node_id,
                "height": node.height,
                "left": serialise(node.left),
                "right": serialise(node.right),
            }

        return {
            "labels": list(self.labels),
            "method": self.linkage.method,
            "metric": self.linkage.metric,
            "root": serialise(self.root),
        }

    def merge_table(self) -> list[dict[str, object]]:
        """Human-readable merge list: which label groups join at which height."""
        rows: list[dict[str, object]] = []
        for step, (left_id, right_id, height, size) in enumerate(self.linkage.merges):
            left = self.node(int(left_id))
            right = self.node(int(right_id))
            rows.append(
                {
                    "step": step,
                    "height": float(height),
                    "size": int(size),
                    "left": left.leaf_labels(),
                    "right": right.leaf_labels(),
                }
            )
        return rows
