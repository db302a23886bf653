// Multi-pin net decomposition and wirelength evaluation.
//
// The paper (section 5) decomposes every multi-pin net into 2-pin nets by a
// minimum spanning tree before congestion estimation, and reports total
// wirelength over the decomposed nets. The MST is built on Manhattan
// distance between pin positions under a concrete placement.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/netlist_soa.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace ficon {

/// A 2-pin net produced by decomposition: two endpoints in chip coordinates
/// plus the index of the originating multi-pin net.
struct TwoPinNet {
  Point a;
  Point b;
  int source_net = -1;

  /// Bounding box of the two pins = the net's routing range (paper sect. 2).
  Rect routing_range() const { return Rect::spanning(a, b); }

  double manhattan_length() const { return manhattan(a, b); }
};

/// Decompose one pin set into MST edges (Prim, O(k^2); net degrees are
/// small). Coincident pins yield zero-length edges, which are kept: the
/// models treat a point routing range as "passes through its cell with
/// probability 1".
std::vector<TwoPinNet> mst_edges(const std::vector<Point>& pins,
                                 int source_net);

/// Decompose every net of the netlist under the given placement.
std::vector<TwoPinNet> decompose_to_two_pin(const Netlist& netlist,
                                            const Placement& placement);

/// Total Manhattan wirelength of the MST decomposition — the "wire length"
/// column of the paper's tables.
double mst_wirelength(const Netlist& netlist, const Placement& placement);

/// Sum of Manhattan lengths over already-decomposed nets. Summation order
/// is the net order, so for nets from decompose_to_two_pin() the result is
/// bit-identical to mst_wirelength() without decomposing again.
double total_length(std::span<const TwoPinNet> nets);

/// @brief Buffer-reusing, pin-caching net decomposition for the annealing
/// inner loop.
///
/// decompose_to_two_pin() allocates the result vector, a pin buffer and
/// the Prim scratch arrays on every call — once per proposed move when
/// used inside the floorplanner objective. This class produces the exact
/// same edges in the exact same order but keeps all buffers alive across
/// calls, so steady-state decomposition allocates nothing.
///
/// It additionally remembers every net's pin positions from the previous
/// call (for the same netlist): consecutive annealing candidates differ by
/// one local move, so most modules — and therefore most nets' pins — do
/// not move between calls. A net whose pins are
/// unchanged keeps its cached edges, skipping Prim entirely. The edges
/// are a pure function of the pin positions, so the cached values are
/// bit-identical to a recomputation; every net's edge count is fixed by
/// its degree, so each net owns a stable slice of the output buffer and
/// reuse never perturbs edge order.
///
/// The per-net pass (pin diff and Prim rebuild) is one ThreadPool::run()
/// over the net order: from kSplitNets nets up, on a pool that runs in
/// parallel, in deterministic_block_count() blocks, otherwise in one. Each
/// block has its own Prim scratch and counts the nets it kept and rebuilt.
/// A net writes only its own slices of the pin cache and the output
/// buffer, so the edges do not depend on the blocking or on which thread
/// ran which block.
///
/// Not internally synchronized: one instance per thread (an EvalContext
/// owns one, mirroring its own threading contract). The pin cache is
/// keyed on the netlist's address; netlists are immutable after
/// construction, so entries cannot go stale.
class TwoPinDecomposer {
 public:
  /// Netlists with at least this many nets decompose in pool blocks when
  /// the pool runs in parallel; smaller ones, and any netlist on a pool
  /// that runs its blocks inline (ThreadPool::runs_inline()), in one. On
  /// a 4-thread pool (4 Xeon vCPUs, gcc 12 Release), over a 40-move walk
  /// of generated tiers from shelf rows, the blocks took 34-35 against 37-38 us per move at 816 nets
  /// (ami49x2), 37-39 against 41-57 us at 1,632 (ami49x4) and 250 against
  /// 576 us at 32,640 (ami49x80).
  static constexpr std::size_t kSplitNets = 1024;

  /// @brief Decompose every net of the netlist under the placement.
  /// @return view of the internal buffer; valid until the next decompose()
  ///         call and invalidated by it.
  std::span<const TwoPinNet> decompose(const Netlist& netlist,
                                       const Placement& placement);

  /// Flat connectivity view of the currently bound netlist, or nullptr
  /// before the first decompose() call. Exposed for tests and diagnostics.
  const NetlistSoA* bound_soa() const { return soa_.get(); }

 private:
  /// Prim's algorithm from pin 0 on scratch sized to the largest net
  /// degree seen so far.
  struct Prim {
    std::vector<char> in_tree;
    std::vector<double> best_dist;
    std::vector<std::size_t> best_parent;

    /// Writes the k - 1 MST edges of the k >= 2 pins to out[0 .. k-1).
    void edges(std::span<const Point> pins, int source_net, TwoPinNet* out);
  };
  /// One block's Prim scratch for the per-net pass, on its own cache
  /// line: Prim resizes its vectors per net, and neighbouring blocks run
  /// on other threads.
  struct alignas(64) Block {
    Prim prim;
  };

  std::vector<TwoPinNet> nets_;  ///< net n owns [edge_offset_[n], edge_offset_[n+1])
  std::vector<Block> blocks_;    ///< one per pool block of the per-net pass
  // Binding: the flat connectivity view (pin CSR + module->net occurrence
  // lists) rebuilt whenever the netlist changes. The pin cache shares the
  // SoA's flat pin indexing: net n's previous pin positions live at
  // cached_pins_[soa_->pin_begin(n) .. soa_->pin_end(n)).
  const Netlist* cached_netlist_ = nullptr;
  bool pins_valid_ = false;
  std::unique_ptr<NetlistSoA> soa_;
  std::vector<Point> cached_pins_;
  std::vector<std::size_t> edge_offset_;
  // Module-diff fast path: the previous placement's module geometry. A
  // module whose rect/rotation changed pushes dirt through the occurrence
  // list onto exactly the nets it touches — O(dirty modules x fanout)
  // instead of a per-net scan over every pin — and a net with no dirty
  // bit (plus an unchanged chip if it has terminal pins) keeps its cached
  // pins and edges wholesale.
  Rect cached_chip_;
  std::vector<Rect> cached_rects_;
  std::vector<char> cached_rotated_;
  std::vector<char> net_dirty_;

  friend std::vector<TwoPinNet> mst_edges(const std::vector<Point>&, int);
  /// The per-net pass over nets [begin, end): keeps a clean net's pins
  /// and edges, re-gathers a dirty net's pins and rebuilds its edges if
  /// they moved, and counts both kinds of net.
  void update_nets(std::size_t begin, std::size_t end,
                   const Placement& placement, bool chip_same, Prim& prim);
};

}  // namespace ficon
