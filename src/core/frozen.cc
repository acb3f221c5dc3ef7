#include "core/frozen.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/string_util.h"
#include "graph/dot.h"

namespace olapdc {

bool FrozenDimension::HasEdge(CategoryId child, CategoryId parent) const {
  return std::binary_search(edges.begin(), edges.end(),
                            std::make_pair(child, parent));
}

bool FrozenDimension::Contains(CategoryId c) const {
  if (c == root) return true;
  for (const auto& [u, v] : edges) {
    if (u == c || v == c) return true;
  }
  return false;
}

std::vector<CategoryId> FrozenDimension::Categories() const {
  std::vector<CategoryId> cats;
  cats.reserve(2 * edges.size() + 1);
  cats.push_back(root);
  for (const auto& [u, v] : edges) {
    cats.push_back(u);
    cats.push_back(v);
  }
  std::sort(cats.begin(), cats.end());
  cats.erase(std::unique(cats.begin(), cats.end()), cats.end());
  return cats;
}

Digraph FrozenDimension::ToDigraph(int num_categories) const {
  Digraph d(num_categories);
  for (const auto& [u, v] : edges) d.AddEdge(u, v);
  return d;
}

std::string FrozenDimension::ToString(const HierarchySchema& schema) const {
  std::string out = "{";
  out += JoinMapped(edges, ", ", [&](const std::pair<int, int>& e) {
    return schema.CategoryName(e.first) + "->" +
           schema.CategoryName(e.second);
  });
  out += "}";
  std::vector<std::string> bindings;
  for (size_t c = 0; c < names.size(); ++c) {
    if (names[c].has_value() && Contains(static_cast<CategoryId>(c))) {
      bindings.push_back(schema.CategoryName(static_cast<CategoryId>(c)) +
                         "=" + *names[c]);
    }
  }
  if (!bindings.empty()) out += " with " + Join(bindings, ", ");
  return out;
}

std::string FrozenDimension::ToDot(const HierarchySchema& schema,
                                   const std::string& graph_name) const {
  DotOptions options;
  options.name = graph_name;
  Digraph d = ToDigraph(schema.num_categories());
  return olapdc::ToDot(
      d,
      [&](int c) -> std::string {
        if (!Contains(c)) return "";
        std::string label = schema.CategoryName(c);
        if (c < static_cast<int>(names.size()) && names[c].has_value()) {
          label += "\\n" + *names[c];
        }
        return label;
      },
      options);
}

Result<DimensionInstance> FrozenDimension::ToInstance(
    const DimensionSchema& ds, const std::string& nk_prefix) const {
  const HierarchySchema& schema = ds.hierarchy();
  DimensionInstanceBuilder builder(ds.hierarchy_ptr());
  builder.set_auto_all(true).set_auto_link_to_all(false);

  for (CategoryId c : Categories()) {
    const std::string& key = schema.CategoryName(c);
    std::string name = (c < static_cast<int>(names.size()) &&
                        names[c].has_value())
                           ? *names[c]
                           : nk_prefix + key;
    if (c == schema.all()) {
      name = "all";
    }
    builder.AddMember(key, key /* category name == key */, name);
  }
  for (const auto& [u, v] : edges) {
    builder.AddChildParent(schema.CategoryName(u), schema.CategoryName(v));
  }
  return builder.Build();
}

bool FrozenEquals(const FrozenDimension& a, const FrozenDimension& b) {
  return a.root == b.root && a.edges == b.edges && a.names == b.names;
}

void MergeDisjointInto(const FrozenDimension& from, FrozenDimension* into) {
  OLAPDC_DCHECK(from.root == into->root);
  std::vector<std::pair<CategoryId, CategoryId>> edges;
  edges.reserve(into->edges.size() + from.edges.size());
  std::merge(into->edges.begin(), into->edges.end(), from.edges.begin(),
             from.edges.end(), std::back_inserter(edges));
  OLAPDC_DCHECK(std::adjacent_find(edges.begin(), edges.end()) ==
                edges.end());
  into->edges = std::move(edges);
  for (size_t c = 0; c < from.names.size(); ++c) {
    if (from.names[c].has_value()) {
      OLAPDC_DCHECK(!into->names[c].has_value() ||
                    *into->names[c] == *from.names[c]);
      into->names[c] = from.names[c];
    }
  }
}

uint64_t FrozenDimensionBytes(const FrozenDimension& f) {
  uint64_t bytes = sizeof(FrozenDimension) +
                   f.edges.capacity() * sizeof(f.edges[0]) +
                   f.names.capacity() * sizeof(f.names[0]);
  const size_t inline_capacity = std::string().capacity();
  for (const std::optional<std::string>& name : f.names) {
    if (name.has_value() && name->capacity() > inline_capacity) {
      bytes += name->capacity() + 1;
    }
  }
  return bytes;
}

uint64_t FrozenDimensionBytes(const std::vector<FrozenDimension>& models) {
  uint64_t bytes = 0;
  for (const FrozenDimension& f : models) bytes += FrozenDimensionBytes(f);
  return bytes;
}

}  // namespace olapdc
