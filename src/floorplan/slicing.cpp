#include "floorplan/slicing.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace ficon {

SlicingPacker::SlicingPacker(const Netlist& netlist) {
  leaf_curves_.reserve(netlist.module_count());
  for (const Module& m : netlist.modules()) {
    leaf_curves_.push_back(ShapeCurve::for_module(m));
  }
  FICON_REQUIRE(!leaf_curves_.empty(), "netlist has no modules");
}

void SlicingPacker::build_nodes(const std::vector<PolishToken>& tokens,
                                std::vector<TreeNode>& nodes,
                                int& root) const {
  // Bottom-up: build nodes and shape curves with an explicit stack.
  nodes.clear();
  nodes.reserve(tokens.size());
  std::vector<int> stack;
  stack.reserve(tokens.size());
  for (const PolishToken& t : tokens) {
    TreeNode node;
    node.token = t;
    if (t.is_operand()) {
      node.curve = leaf_curves_[static_cast<std::size_t>(t.value)];
    } else {
      FICON_ASSERT(stack.size() >= 2, "malformed expression");
      node.right = stack.back();
      stack.pop_back();
      node.left = stack.back();
      stack.pop_back();
      const ShapeCurve& lc =
          nodes[static_cast<std::size_t>(node.left)].curve;
      const ShapeCurve& rc =
          nodes[static_cast<std::size_t>(node.right)].curve;
      node.curve = t.value == PolishToken::kV
                       ? ShapeCurve::combine_vertical(lc, rc)
                       : ShapeCurve::combine_horizontal(lc, rc);
    }
    stack.push_back(static_cast<int>(nodes.size()));
    nodes.push_back(std::move(node));
  }
  FICON_ASSERT(stack.size() == 1, "malformed expression");
  root = stack.back();
}

SlicingResult SlicingPacker::assemble(const std::vector<TreeNode>& nodes,
                                      int root) const {
  SlicingResult result;
  assemble_into(nodes, root, result);
  return result;
}

/// Assembles into `result`, reusing its vectors' capacity. Every module
/// rect and rotation flag is assigned exactly once (the expression covers
/// every module), so stale contents of a reused result never survive.
void SlicingPacker::assemble_into(const std::vector<TreeNode>& nodes, int root,
                                  SlicingResult& result) const {
  const ShapeCurve& root_curve = nodes[static_cast<std::size_t>(root)].curve;
  const std::size_t root_choice = root_curve.min_area_index();
  result.width = root_curve[root_choice].w;
  result.height = root_curve[root_choice].h;
  result.area = result.width * result.height;
  result.placement.chip = Rect{0.0, 0.0, result.width, result.height};
  result.placement.module_rects.resize(leaf_curves_.size());
  result.placement.rotated.resize(leaf_curves_.size(), false);

  // Top-down: assign each node its chosen realization and position.
  struct Assignment {
    int node;
    std::size_t choice;
    double x, y;
  };
  std::vector<Assignment> todo;
  todo.push_back(Assignment{root, root_choice, 0.0, 0.0});
  while (!todo.empty()) {
    const Assignment a = todo.back();
    todo.pop_back();
    const TreeNode& node = nodes[static_cast<std::size_t>(a.node)];
    const ShapePoint& pt = node.curve[a.choice];
    if (node.token.is_operand()) {
      const auto m = static_cast<std::size_t>(node.token.value);
      result.placement.module_rects[m] =
          Rect::from_size(Point{a.x, a.y}, pt.w, pt.h);
      result.placement.rotated[m] = pt.a == 1;
      continue;
    }
    const auto lc = static_cast<std::size_t>(pt.a);
    const auto rc = static_cast<std::size_t>(pt.b);
    const ShapePoint& lp =
        nodes[static_cast<std::size_t>(node.left)].curve[lc];
    if (node.token.value == PolishToken::kV) {
      // Left child at (x, y), right child to its right; bottom-aligned.
      todo.push_back(Assignment{node.left, lc, a.x, a.y});
      todo.push_back(Assignment{node.right, rc, a.x + lp.w, a.y});
    } else {
      // Left child at (x, y), right child above it; left-aligned.
      todo.push_back(Assignment{node.left, lc, a.x, a.y});
      todo.push_back(Assignment{node.right, rc, a.x, a.y + lp.h});
    }
  }
}

SlicingResult SlicingPacker::pack(const PolishExpression& expr) const {
  FICON_REQUIRE(static_cast<std::size_t>(expr.module_count()) ==
                    leaf_curves_.size(),
                "expression does not match netlist module count");
  std::vector<TreeNode> nodes;
  int root = -1;
  build_nodes(expr.tokens(), nodes, root);
  return assemble(nodes, root);
}

const SlicingResult& SlicingPacker::pack_cached_ref(
    const PolishExpression& expr) {
  FICON_REQUIRE(static_cast<std::size_t>(expr.module_count()) ==
                    leaf_curves_.size(),
                "expression does not match netlist module count");
  const std::vector<PolishToken>& tokens = expr.tokens();

  // The cached tree is reusable iff the operand/operator *kind pattern*
  // is unchanged: child indices in postfix order depend on that pattern
  // alone, never on which operand or which operator sits at a position.
  bool same_structure = cache_valid_ && cache_nodes_.size() == tokens.size();
  if (same_structure) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (cache_nodes_[i].token.is_operand() != tokens[i].is_operand()) {
        same_structure = false;
        break;
      }
    }
  }

  if (!same_structure) {
    build_nodes(tokens, cache_nodes_, cache_root_);
    cache_valid_ = true;
    obs::count(obs::Counter::kPackCacheFullRebuilds);
    assemble_into(cache_nodes_, cache_root_, cache_result_);
    return cache_result_;
  }

  // Diff pass in postfix order: a node is dirty iff its own token changed
  // or either child is dirty; only dirty curves are recombined. Clean
  // curves are reused bit-for-bit and recombination is a pure function of
  // the children, so the result is identical to a full rebuild.
  obs::count(obs::Counter::kPackCacheIncremental);
  obs::count(obs::Counter::kPackCacheNodesTotal,
             static_cast<long long>(tokens.size()));
  long long recomputed = 0;
  dirty_.assign(tokens.size(), 0);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const PolishToken& t = tokens[i];
    TreeNode& node = cache_nodes_[i];
    bool d = !(node.token == t);
    if (t.is_operator()) {
      d = d || dirty_[static_cast<std::size_t>(node.left)] != 0 ||
          dirty_[static_cast<std::size_t>(node.right)] != 0;
    }
    if (d) {
      if (t.is_operand()) {
        node.curve = leaf_curves_[static_cast<std::size_t>(t.value)];
      } else {
        const ShapeCurve& lc =
            cache_nodes_[static_cast<std::size_t>(node.left)].curve;
        const ShapeCurve& rc =
            cache_nodes_[static_cast<std::size_t>(node.right)].curve;
        node.curve = t.value == PolishToken::kV
                         ? ShapeCurve::combine_vertical(lc, rc)
                         : ShapeCurve::combine_horizontal(lc, rc);
      }
      node.token = t;
      ++recomputed;
    }
    dirty_[i] = d ? 1 : 0;
  }
  obs::count(obs::Counter::kPackCacheNodesRecomputed, recomputed);
  assemble_into(cache_nodes_, cache_root_, cache_result_);
  return cache_result_;
}

bool placement_is_legal(const Placement& placement) {
  const std::size_t n = placement.module_rects.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Rect& a = placement.module_rects[i];
    if (!a.valid() || !placement.chip.contains(a)) return false;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (a.overlaps_interior(placement.module_rects[j])) return false;
    }
  }
  return true;
}

}  // namespace ficon
