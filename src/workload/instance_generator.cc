#include "workload/instance_generator.h"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/dimsat.h"

namespace olapdc {

namespace {

/// Longest-path-to-All depth of every category within a frozen
/// structure (acyclic; absent categories get -1).
std::vector<int> StructureDepths(const FrozenDimension& f, int num_categories,
                                 CategoryId all) {
  std::vector<int> depth(num_categories, -1);
  // Repeated relaxation over the edges (structures are tiny).
  depth[all] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [c, p] : f.edges) {
      if (c != all && depth[p] >= 0 && depth[p] + 1 > depth[c]) {
        depth[c] = depth[p] + 1;
        changed = true;
      }
    }
  }
  return depth;
}

int64_t IntPow(int64_t base, int exponent) {
  int64_t out = 1;
  for (int i = 0; i < exponent; ++i) out *= base;
  return out;
}

}  // namespace

Result<DimensionInstance> GenerateInstanceFromFrozen(
    const DimensionSchema& ds, const InstanceGenOptions& options) {
  const HierarchySchema& schema = ds.hierarchy();
  DimensionInstanceBuilder builder(ds.hierarchy_ptr());
  builder.set_auto_all(true).set_auto_link_to_all(false);
  builder.set_skip_validation(options.skip_validation);

  bool any_member = false;
  for (CategoryId bottom : schema.bottom_categories()) {
    if (bottom == schema.all()) continue;
    DimsatOptions dimsat_options;
    dimsat_options.enumerate_all = true;
    dimsat_options.max_frozen = options.max_structures;
    DimsatResult frozen = RunDimsat(ds, bottom, dimsat_options);
    OLAPDC_RETURN_NOT_OK(frozen.status);

    for (size_t s = 0; s < frozen.frozen.size(); ++s) {
      const FrozenDimension& f = frozen.frozen[s];
      std::vector<int> depth =
          StructureDepths(f, schema.num_categories(), schema.all());
      for (int copy = 0; copy < options.copies; ++copy) {
        const std::string prefix = "b" + std::to_string(bottom) + "s" +
                                   std::to_string(s) + "c" +
                                   std::to_string(copy) + ":";
        auto member_key = [&](CategoryId c, int64_t i) {
          return prefix + schema.CategoryName(c) + "#" + std::to_string(i);
        };
        auto capped_depth = [&](CategoryId c) {
          return std::min(depth[c], options.depth_cap);
        };

        // Members.
        for (CategoryId c : f.Categories()) {
          if (c == schema.all()) continue;
          const int64_t count = IntPow(options.branching, capped_depth(c));
          const bool has_constant =
              c < static_cast<int>(f.names.size()) && f.names[c].has_value();
          for (int64_t i = 0; i < count; ++i) {
            const std::string key = member_key(c, i);
            builder.AddMember(key, schema.CategoryName(c),
                              has_constant ? *f.names[c] : key);
            any_member = true;
          }
        }

        // Edges, divisibility-consistent.
        for (const auto& [c, p] : f.edges) {
          const int64_t count = IntPow(options.branching, capped_depth(c));
          const int64_t ratio =
              IntPow(options.branching, capped_depth(c) - capped_depth(p));
          for (int64_t i = 0; i < count; ++i) {
            if (p == schema.all()) {
              builder.AddChildParent(member_key(c, i), "all");
            } else {
              builder.AddChildParent(member_key(c, i),
                                     member_key(p, i / ratio));
            }
          }
        }
      }
    }
  }
  if (!any_member) {
    return Status::InvalidArgument(
        "no bottom category of the schema is satisfiable; instance would "
        "be empty");
  }
  return builder.Build();
}

FactTable GenerateFacts(const DimensionInstance& d,
                        const FactGenOptions& options) {
  std::mt19937_64 rng(options.seed);
  std::uniform_int_distribution<int> measure(1, options.max_measure);
  FactTable facts;
  for (CategoryId bottom : d.hierarchy().bottom_categories()) {
    for (MemberId m : d.MembersOf(bottom)) {
      for (int i = 0; i < options.facts_per_base_member; ++i) {
        facts.Add(m, static_cast<double>(measure(rng)));
      }
    }
  }
  return facts;
}

}  // namespace olapdc
