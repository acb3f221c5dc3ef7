// Connected-component decomposition for DIMSAT
// (DimsatOptions::decompose). The intermediate categories of a query —
// UpSet(root) minus root and All — often fall apart into weakly
// connected regions of the hierarchy DAG that no constraint couples:
// mixed-rollup geographies, parallel fiscal/calendar shapes, and the
// generated multi-component workloads all have this form. Every model
// of such a schema is the union of one model per *present* component
// (all sharing only root and All), so DIMSAT can search each component
// over a restricted universe and compose the per-component model sets
// — the cost becomes the sum of the component searches instead of
// their product.
//
// Soundness rests on a set of static gates, any of which forces the
// caller back to the monolithic search:
//   - require_injective_names: injectivity is a *global* property of
//     an assignment; per-component searches cannot see cross-component
//     constant collisions.
//   - a direct root -> All schema edge: the "empty" expansion choice
//     at the root would let every component search emit the bare
//     root->All model, double-counting it across components.
//   - an edge u -> root with u in UpSet(root) \ {root}: a schema cycle
//     through the root lets g-paths re-enter the root and cross from
//     one component into another, so reachability no longer
//     factorizes.
//   - a relevant constraint that is literally False, or whose atoms
//     mention no intermediate category (only root/All): such a
//     constraint cannot be assigned to any single component.
//   - an equality or order atom targeting root or All: the assignment
//     search would branch on a category every component shares, so the
//     composed assignments would no longer be disjoint.
//   - a composed or through atom that reduces to root.All: the paths
//     it abbreviates run through every component, and it holds on every
//     model, whichever components are present.
//   - root == All, or fewer than two components: nothing to decompose.
//
// Every other composed or through atom lies inside one component once
// the preparation has folded the ones no subhierarchy can change
// (FoldShorthands): a schema path from the root or from an
// intermediate category runs through intermediate categories that
// hierarchy edges join. Under these gates, cycles and shortcuts are
// per-component, the circle operator of a component's constraints
// evaluates identically on the component's sub-model and on any
// composed union, and the assignment search branches only on
// component-local categories — so the composed frozen-dimension set
// equals the monolithic one (dimsat_ablation_test.cc pins this across
// the seeded corpus).

#ifndef OLAPDC_CORE_DECOMPOSE_H_
#define OLAPDC_CORE_DECOMPOSE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "core/schema.h"

namespace olapdc {

/// The deterministic component split of one (schema, root) query — a
/// pure function of its inputs. DIMSAT computes it only for an
/// enumerate-all run without a checkpoint (DimsatOptions::decompose);
/// every search of that run shares the one split.
struct ComponentSplit {
  /// False when a soundness gate tripped; the caller must fall back to
  /// the monolithic search. The remaining fields are then empty.
  bool eligible = false;
  /// Which gate tripped (diagnostics only).
  std::string ineligible_reason;
  /// Per component: its intermediate categories plus root and All —
  /// the category universe its EXPAND is restricted to. Component
  /// order is deterministic (by smallest member id).
  std::vector<DynamicBitset> universes;
  /// Per component: indices into the caller's prepared relevant-
  /// constraint vector of the constraints whose atoms mention this
  /// component's categories. Every relevant constraint lands in
  /// exactly one component (vacuous True constraints in none).
  std::vector<std::vector<size_t>> constraint_indices;
  /// Per component: true iff a model may leave this component entirely
  /// absent — every root-rooted constraint assigned to it evaluates
  /// True when all of its atoms are false (the all-absent valuation).
  /// Components with absent_valid == false must contribute a model to
  /// every composed frozen dimension.
  std::vector<bool> absent_valid;
  /// Per component: the no-good salt separating this component's
  /// signature space from the monolithic one (a component search sees
  /// fewer constraints, so its barren verdicts must not leak back).
  std::vector<uint64_t> salts;

  size_t num_components() const { return universes.size(); }
};

/// Computes the component split for (ds, root) given the prepared
/// relevant constraints (shorthand atoms folded by FoldShorthands and
/// simplified, as DIMSAT prepares them) and the no-good salt the
/// run would use monolithically. Categories are grouped by union-find
/// over (a) hierarchy edges between intermediate categories and
/// (b) per-constraint coupling: every intermediate category one
/// constraint mentions joins one group.
ComponentSplit ComputeComponentSplit(
    const DimensionSchema& ds, CategoryId root,
    const std::vector<DimensionConstraint>& relevant, uint64_t nogood_salt);

}  // namespace olapdc

#endif  // OLAPDC_CORE_DECOMPOSE_H_
