// The CHECK procedure of the DIMSAT algorithm (paper Figure 6 +
// Proposition 2): decides whether a fully built subhierarchy g induces
// at least one frozen dimension, i.e. whether
//   (a) g is cycle-free and shortcut-free, and
//   (b) some c-assignment satisfies Sigma(ds, c) ∘ g.
// Shared by DIMSAT and the brute-force NaiveSat baseline.
//
// Condition (a) is always verified here rather than trusted to the
// EXPAND-time pruning: the paper's incremental Ss test misses shortcuts
// completed "at distance" when an already-expanded category gains a new
// incoming edge (DESIGN.md, deviations section).

#ifndef OLAPDC_CORE_CHECK_SUBHIERARCHY_H_
#define OLAPDC_CORE_CHECK_SUBHIERARCHY_H_

#include <cstdint>
#include <vector>

#include "core/assignment.h"
#include "core/frozen.h"
#include "core/schema.h"
#include "core/subhierarchy.h"

namespace olapdc {

struct CheckOptions {
  /// Passed through to the c-assignment search.
  AssignmentOptions assignment;
};

struct CheckOutcome {
  /// The frozen dimensions induced by g (empty if none; a single
  /// witness unless assignment.enumerate_all).
  std::vector<FrozenDimension> frozen;
  /// True when g failed the structural test (cycle or shortcut).
  bool structurally_rejected = false;
  /// c-assignment candidates explored.
  uint64_t assignments_tried = 0;
};

/// Runs CHECK(g). `relevant` is Sigma(ds, root), with its composed and
/// through atoms either kept (DIMSAT folds only the g-independent ones,
/// see dimsat.cc's PrepareRelevantConstraints) or expanded into path
/// atoms (NaiveSat); the circle operator gives both forms one value on
/// the acyclic g this admits. `g` must contain the root.
CheckOutcome CheckSubhierarchy(const std::vector<DimensionConstraint>& relevant,
                               const Subhierarchy& g,
                               const CheckOptions& options = {});

}  // namespace olapdc

#endif  // OLAPDC_CORE_CHECK_SUBHIERARCHY_H_
