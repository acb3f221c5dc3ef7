// DIMSAT checkpoint/resume: the persistence half of crash-proof
// request lifecycles. When a budget (deadline, cancellation, memory,
// expand cap) expires mid-search, the engine serializes its live
// frontier — the stack of partially processed EXPAND nodes — instead of
// discarding the work. ResumeDimsat() continues exactly where the
// interrupted run stopped: the interrupted and resumed runs partition
// the search tree, so their combined verdict, frozen set, and stats
// equal an uninterrupted run's (checkpoint_test.cc proves this
// property over many seeded workloads).
//
// A frame stores only (subhierarchy, next subset mask, depth). The
// derived per-node state — chosen top category, allowed/into sets, the
// free-successor array — is a pure function of the subhierarchy and the
// schema, so the resume recomputes it deterministically rather than
// trusting a serialized copy. Frames are ordered deepest-first: that is
// the order the unwinding interrupted run captures them in, and
// replaying them in that order reproduces the original depth-first
// traversal order.
//
// Checkpoints deliberately carry no statistics and no collected frozen
// dimensions: those already left with the interrupted run's
// DimsatResult (budget-errors-are-data), and a resumed run reports only
// the fresh work it performs — callers accumulate.

#ifndef OLAPDC_CORE_CHECKPOINT_H_
#define OLAPDC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/memory_budget.h"
#include "common/result.h"
#include "core/subhierarchy.h"

namespace olapdc {

/// One partially processed EXPAND node of the interrupted search.
struct DimsatCheckpointFrame {
  /// The subhierarchy as it was when this node's EXPAND ran.
  Subhierarchy g;
  /// First unprocessed subset of the node's free-successor choices
  /// (0 = the node was not processed at all and is redone in full).
  uint32_t next_mask = 0;
  /// Recursion depth of the node (drives split-depth decisions and
  /// undo-log accounting on resume).
  int depth = 0;
};

struct DimsatCheckpoint {
  CategoryId root = 0;
  int num_categories = 0;
  /// Deepest-first: index 0 is the innermost interrupted node.
  std::vector<DimsatCheckpointFrame> frames;
  /// What Deserialize() reserved for the frames against the caller's
  /// MemoryBudget, released when the last copy of this checkpoint dies;
  /// null for a checkpoint the engine captured or one read without a
  /// budget.
  std::shared_ptr<MemoryReservation> charge;

  bool empty() const { return frames.empty(); }

  /// Line-oriented text form, stable across runs:
  ///   dimsat-checkpoint v1
  ///   root <r> categories <n> frames <k>
  ///   frame <next_mask> <depth> <edges> <u1> <v1> ... <ue> <ve>
  std::string Serialize() const;

  /// Inverse of Serialize() for a schema of `num_categories`
  /// categories. Rejects malformed input, any version but v1, a token
  /// without frames (no run writes one: an interrupted search leaves at
  /// least the node it stopped at), and frames whose edges do not form
  /// a root-reachable partial subhierarchy (kParseError /
  /// kInvalidArgument). A token naming any other category count is
  /// kInvalidArgument before a frame is built: each frame's
  /// Subhierarchy takes O(n²) bits for the token's n. With a non-null
  /// `memory`, each frame is reserved (FrameBytes) before it is built,
  /// and a token that does not fit is kResourceExhausted. The text
  /// names no schema, so whether each edge is a schema edge is
  /// ResumeDimsat()'s check.
  static Result<DimsatCheckpoint> Deserialize(std::string_view text,
                                              int num_categories,
                                              MemoryBudget* memory = nullptr);

  /// Bytes one frame over `num_categories` categories occupies.
  static uint64_t FrameBytes(int num_categories);
};

}  // namespace olapdc

#endif  // OLAPDC_CORE_CHECKPOINT_H_
