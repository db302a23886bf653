// Slicing-tree packer: Polish expression -> concrete module placement.
//
// Bottom-up pass builds the shape curve of every node of the slicing tree
// encoded by the postfix expression; the minimum-area root realization is
// selected and a top-down pass assigns module rectangles (V-cut children
// bottom-aligned left/right; H-cut children left-aligned below/above).
#pragma once

#include "circuit/netlist.hpp"
#include "floorplan/polish.hpp"
#include "floorplan/shape.hpp"

namespace ficon {

/// Result of packing one floorplan: a Polish expression here, or a
/// sequence pair (SequencePairPacker::pack).
struct SlicingResult {
  Placement placement;  ///< chip rect at origin (0,0) + module rects
  double width = 0.0;
  double height = 0.0;
  double area = 0.0;
};

/// Packs Polish expressions for one netlist. Leaf shape curves are
/// precomputed once; pack() / pack_cached_ref() are called per annealing
/// move.
class SlicingPacker {
 public:
  /// One node of the slicing tree in postfix order (node i corresponds to
  /// token i; children indices are determined by the operand/operator kind
  /// pattern alone). Public only so pack() and pack_cached_ref() can share
  /// it.
  struct TreeNode {
    PolishToken token;
    int left = -1;  ///< node index, -1 for leaves
    int right = -1;
    ShapeCurve curve;
  };

  explicit SlicingPacker(const Netlist& netlist);

  /// Pack the expression; throws if it does not cover exactly the
  /// netlist's modules. Stateless and const — the reference evaluator.
  SlicingResult pack(const PolishExpression& expr) const;

  /// @brief Incremental pack: bit-identical to pack(), but reuses the
  /// shape curves computed for the previously packed expression.
  ///
  /// Wong-Liu moves perturb the expression locally: M1/M2 change tokens
  /// without changing the tree structure, so only the curves on the paths
  /// from the changed tokens to the root need recombining (the dominant
  /// cost of packing). The cache keys node identity on the postfix
  /// operand/operator kind pattern; when a move changes that pattern (M3)
  /// the whole tree is rebuilt, which is exactly what pack() does anyway.
  /// Curves of clean nodes are reused verbatim and dirty nodes recombine
  /// deterministic pure functions of their children, so cached and
  /// from-scratch packs are bit-identical (asserted by slicing_test).
  ///
  /// The result is assembled into an internal buffer reused across calls
  /// — the annealing inner loop's zero-allocation path.
  /// @return reference valid until the next pack_cached_ref() call on
  ///         this packer.
  const SlicingResult& pack_cached_ref(const PolishExpression& expr);

  std::size_t module_count() const { return leaf_curves_.size(); }

 private:
  void build_nodes(const std::vector<PolishToken>& tokens,
                   std::vector<TreeNode>& nodes, int& root) const;
  void assemble_into(const std::vector<TreeNode>& nodes, int root,
                     SlicingResult& result) const;
  SlicingResult assemble(const std::vector<TreeNode>& nodes, int root) const;

  std::vector<ShapeCurve> leaf_curves_;
  // pack_cached_ref() state: the previous expression's tree and curves.
  bool cache_valid_ = false;
  std::vector<TreeNode> cache_nodes_;
  int cache_root_ = -1;
  std::vector<char> dirty_;  ///< per-node scratch for the diff pass
  SlicingResult cache_result_;  ///< pack_cached_ref() output buffer
};

/// True iff no two module rects overlap with positive area and all lie
/// within the chip; used by tests and debug assertions.
bool placement_is_legal(const Placement& placement);

}  // namespace ficon
