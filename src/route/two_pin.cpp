#include "route/two_pin.hpp"

#include <limits>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ficon {

void TwoPinDecomposer::Prim::edges(std::span<const Point> pins,
                                   int source_net, TwoPinNet* out) {
  FICON_REQUIRE(pins.size() >= 2, "MST needs at least two pins");
  const std::size_t k = pins.size();

  // Prim's algorithm from pin 0, scratch arrays reused across nets.
  in_tree.assign(k, 0);
  best_dist.assign(k, std::numeric_limits<double>::infinity());
  best_parent.assign(k, 0);
  in_tree[0] = 1;
  for (std::size_t j = 1; j < k; ++j) {
    best_dist[j] = manhattan(pins[0], pins[j]);
  }
  for (std::size_t added = 1; added < k; ++added) {
    std::size_t next = k;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < k; ++j) {
      if (!in_tree[j] && best_dist[j] < best) {
        best = best_dist[j];
        next = j;
      }
    }
    FICON_ASSERT(next < k, "Prim found no next vertex");
    in_tree[next] = 1;
    *out++ = TwoPinNet{pins[best_parent[next]], pins[next], source_net};
    for (std::size_t j = 0; j < k; ++j) {
      if (!in_tree[j]) {
        const double d = manhattan(pins[next], pins[j]);
        if (d < best_dist[j]) {
          best_dist[j] = d;
          best_parent[j] = next;
        }
      }
    }
  }
}

std::vector<TwoPinNet> mst_edges(const std::vector<Point>& pins,
                                 int source_net) {
  FICON_REQUIRE(pins.size() >= 2, "MST needs at least two pins");
  std::vector<TwoPinNet> edges(pins.size() - 1);
  TwoPinDecomposer::Prim prim;
  prim.edges(pins, source_net, edges.data());
  return edges;
}

void TwoPinDecomposer::update_nets(std::size_t begin, std::size_t end,
                                   const Placement& placement,
                                   bool chip_same, Prim& prim) {
  const NetlistSoA& soa = *soa_;
  long long reused = 0;
  long long recomputed = 0;
  for (std::size_t n = begin; n < end; ++n) {
    // Fast path: no incident module moved (and the chip is unchanged if
    // the net has terminal pins) — cached pins and edges still hold.
    if (pins_valid_ && !net_dirty_[n] &&
        (chip_same || !soa.net_has_terminal(n))) {
      ++reused;
      continue;
    }
    const std::size_t first = soa.pin_begin(n);
    const std::size_t k = soa.degree(n);
    Point* cached = cached_pins_.data() + first;
    // Gather this net's pin positions, diffing against the previous call
    // in the same pass (write-through): a dirty module can still leave a
    // net's pins in place (e.g. an unrelated chip resize).
    bool same = pins_valid_;
    for (std::size_t i = 0; i < k; ++i) {
      const Point p = soa.pin_position(first + i, placement);
      if (same && (p.x != cached[i].x || p.y != cached[i].y)) same = false;
      cached[i] = p;
    }
    if (same) {  // unchanged pins: the cached edges already match
      ++reused;
      continue;
    }
    ++recomputed;
    prim.edges(std::span<const Point>(cached, k), static_cast<int>(n),
               nets_.data() + edge_offset_[n]);
  }
  obs::count(obs::Counter::kDecomposeNetsReused, reused);
  obs::count(obs::Counter::kDecomposeNetsRecomputed, recomputed);
}

std::span<const TwoPinNet> TwoPinDecomposer::decompose(
    const Netlist& netlist, const Placement& placement) {
  FICON_REQUIRE(placement.module_rects.size() == netlist.module_count(),
                "placement does not match netlist");
  if (cached_netlist_ != &netlist) {
    // (Re)bind: flatten the netlist into the SoA view (pin CSR plus
    // module->net occurrence lists) and lay out per-net edge slices. Edge
    // counts depend only on net degrees, so each net's slice of nets_ is
    // stable for the lifetime of the binding.
    soa_ = std::make_unique<NetlistSoA>(netlist);
    edge_offset_.assign(1, 0);
    edge_offset_.reserve(soa_->net_count() + 1);
    for (std::size_t n = 0; n < soa_->net_count(); ++n) {
      const std::size_t k = soa_->degree(n);
      FICON_REQUIRE(k >= 2, "decomposition needs at least two pins per net");
      edge_offset_.push_back(edge_offset_.back() + k - 1);
    }
    cached_pins_.resize(soa_->pin_count());
    nets_.resize(edge_offset_.back());
    cached_netlist_ = &netlist;
    pins_valid_ = false;
  }
  const NetlistSoA& soa = *soa_;

  // Module diff: a pin position is a pure function of its module's rect
  // and rotation (terminal pins: of the chip rect). Diff the module
  // count's worth of geometry up front and push dirt through the
  // occurrence lists onto exactly the incident nets — proportional to the
  // changed modules' fanout, not to the pin count.
  const std::size_t modules = soa.module_count();
  const std::size_t net_count = soa.net_count();
  const bool chip_same =
      pins_valid_ && placement.chip.xlo == cached_chip_.xlo &&
      placement.chip.ylo == cached_chip_.ylo &&
      placement.chip.xhi == cached_chip_.xhi &&
      placement.chip.yhi == cached_chip_.yhi;
  const bool diffable = pins_valid_ && cached_rects_.size() == modules;
  net_dirty_.assign(net_count, diffable ? 0 : 1);
  if (diffable) {
    for (std::size_t m = 0; m < modules; ++m) {
      const Rect& a = placement.module_rects[m];
      const Rect& b = cached_rects_[m];
      const char rot = placement.rotated[m] ? 1 : 0;
      if (!(a.xlo == b.xlo && a.ylo == b.ylo && a.xhi == b.xhi &&
            a.yhi == b.yhi && rot == cached_rotated_[m])) {
        for (const std::uint32_t incident : soa.nets_of_module(m)) {
          net_dirty_[incident] = 1;
        }
      }
    }
  }
  cached_chip_ = placement.chip;
  cached_rects_ = placement.module_rects;
  cached_rotated_.assign(modules, 0);
  for (std::size_t m = 0; m < modules; ++m) {
    cached_rotated_[m] = placement.rotated[m] ? 1 : 0;
  }

  // The per-net pass: each net reads the shared diff and writes only its
  // own pin-cache and edge slices, so blocks of nets run independently. A
  // small netlist, or any on a pool that would run the blocks inline, is
  // one block.
  ThreadPool& pool = ThreadPool::global();
  const int blocks = net_count >= kSplitNets && !pool.runs_inline()
                         ? deterministic_block_count(net_count)
                         : 1;
  if (blocks_.size() < static_cast<std::size_t>(blocks)) {
    blocks_.resize(static_cast<std::size_t>(blocks));
  }
  pool.run(blocks, [&](int b) {
    const BlockRange range = block_range(net_count, blocks, b);
    update_nets(range.begin, range.end, placement, chip_same,
                blocks_[static_cast<std::size_t>(b)].prim);
  });
  pins_valid_ = true;
  obs::count(obs::Counter::kDecomposeCalls);
  return nets_;
}

std::vector<TwoPinNet> decompose_to_two_pin(const Netlist& netlist,
                                            const Placement& placement) {
  TwoPinDecomposer decomposer;
  const std::span<const TwoPinNet> nets =
      decomposer.decompose(netlist, placement);
  return std::vector<TwoPinNet>(nets.begin(), nets.end());
}

double mst_wirelength(const Netlist& netlist, const Placement& placement) {
  double total = 0.0;
  for (const TwoPinNet& e : decompose_to_two_pin(netlist, placement)) {
    total += e.manhattan_length();
  }
  return total;
}

double total_length(std::span<const TwoPinNet> nets) {
  double total = 0.0;
  for (const TwoPinNet& e : nets) {
    total += e.manhattan_length();
  }
  return total;
}

}  // namespace ficon
