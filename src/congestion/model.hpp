/// \file
/// The unified congestion-model interface.
///
/// Both estimators — the paper's Irregular-Grid model (section 4) and the
/// fixed-grid ISPD'02 baseline (section 3) — score a set of decomposed
/// 2-pin nets against a chip rectangle and reduce the resulting field to
/// a scalar cost. `CongestionModel` captures that contract once, so the
/// `Floorplanner` (and any other caller) dispatches through one virtual
/// surface instead of switching on `CongestionModelKind` at every call
/// site. Concrete models keep their typed `evaluate()` returning the
/// concrete map class; `evaluate_field()` is the type-erased view.
#pragma once

#include <memory>
#include <span>

#include "congestion/field.hpp"
#include "route/two_pin.hpp"

namespace ficon {

/// Which congestion estimate drives the annealer's gamma term.
enum class CongestionModelKind {
  kNone,           ///< area + wirelength only
  kIrregularGrid,  ///< the paper's model (section 4)
  kFixedGrid,      ///< ISPD'02 fixed-grid baseline (section 3)
};

const char* to_string(CongestionModelKind kind);

struct IrregularGridParams;
struct FixedGridParams;

/// Abstract congestion estimator: field + scalar cost for one placement's
/// decomposed nets. Implementations are thread-safe for concurrent calls
/// (see the concrete models' evaluate() docs).
class CongestionModel {
 public:
  virtual ~CongestionModel() = default;

  /// Stable short name for diagnostics ("irregular_grid", "fixed_grid").
  virtual const char* name() const = 0;

  /// Scalar solution cost (each model's top-fraction reduction).
  virtual double cost(std::span<const TwoPinNet> nets,
                      const Rect& chip) const = 0;

  /// Full per-cell field, type-erased. Callers that need the concrete map
  /// (cut lines, grid spec) keep using the concrete evaluate().
  virtual std::unique_ptr<FlowField> evaluate_field(
      std::span<const TwoPinNet> nets, const Rect& chip) const = 0;
};

/// Factory behind the one remaining `CongestionModelKind` switch: builds
/// the model for `kind` from the matching parameter struct, or nullptr
/// for `kNone`.
std::unique_ptr<CongestionModel> make_congestion_model(
    CongestionModelKind kind, const IrregularGridParams& irregular,
    const FixedGridParams& fixed);

}  // namespace ficon
