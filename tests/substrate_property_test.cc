// Differential property tests for the substrate against naive
// reference models: DynamicBitset vs std::set, graph reachability /
// transitive closure / shortcut detection vs Floyd-Warshall-style
// references, and Subhierarchy's In* sets vs the graph algorithms, on
// randomized inputs with deterministic seeds.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "core/subhierarchy.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

class BitsetDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BitsetDifferentialTest, MatchesStdSetUnderRandomOps) {
  std::mt19937_64 rng(GetParam() * 1009 + 5);
  const int universe = 150;
  DynamicBitset a(universe), b(universe);
  std::set<int> ra, rb;
  std::uniform_int_distribution<int> value(0, universe - 1);
  std::uniform_int_distribution<int> op(0, 5);

  for (int step = 0; step < 300; ++step) {
    int v = value(rng);
    switch (op(rng)) {
      case 0:
        a.set(v);
        ra.insert(v);
        break;
      case 1:
        a.reset(v);
        ra.erase(v);
        break;
      case 2:
        b.set(v);
        rb.insert(v);
        break;
      case 3: {
        a |= b;
        for (int x : rb) ra.insert(x);
        break;
      }
      case 4: {
        DynamicBitset inter = a & b;
        std::set<int> rinter;
        for (int x : ra) {
          if (rb.count(x)) rinter.insert(x);
        }
        EXPECT_EQ(inter.ToVector(),
                  std::vector<int>(rinter.begin(), rinter.end()));
        break;
      }
      default: {
        DynamicBitset diff = a - b;
        std::set<int> rdiff;
        for (int x : ra) {
          if (!rb.count(x)) rdiff.insert(x);
        }
        EXPECT_EQ(diff.ToVector(),
                  std::vector<int>(rdiff.begin(), rdiff.end()));
        break;
      }
    }
    ASSERT_EQ(a.ToVector(), std::vector<int>(ra.begin(), ra.end()));
    ASSERT_EQ(a.count(), static_cast<int>(ra.size()));
    ASSERT_EQ(a.none(), ra.empty());
    ASSERT_EQ(a.Intersects(b), [&] {
      for (int x : ra) {
        if (rb.count(x)) return true;
      }
      return false;
    }());
    ASSERT_EQ(a.IsSubsetOf(b), [&] {
      for (int x : ra) {
        if (!rb.count(x)) return false;
      }
      return true;
    }());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetDifferentialTest,
                         ::testing::Range(0, 8));

/// Reference closure by repeated relaxation.
std::vector<std::vector<bool>> ReferenceClosure(const Digraph& g) {
  const int n = g.num_nodes();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (int u = 0; u < n; ++u) reach[u][u] = true;
  for (const auto& [u, v] : g.Edges()) reach[u][v] = true;
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (int j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }
  return reach;
}

Digraph RandomGraph(std::mt19937_64& rng, int n, double p) {
  Digraph g(n);
  std::uniform_real_distribution<double> coin(0, 1);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && coin(rng) < p) g.AddEdge(u, v);
    }
  }
  return g;
}

class GraphDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphDifferentialTest, ClosureAndReachabilityMatchReference) {
  std::mt19937_64 rng(GetParam() * 37 + 2);
  for (double density : {0.05, 0.15, 0.35}) {
    Digraph g = RandomGraph(rng, 14, density);
    auto reference = ReferenceClosure(g);
    auto closure = TransitiveClosure(g);
    for (int u = 0; u < g.num_nodes(); ++u) {
      DynamicBitset forward = ReachableFrom(g, u);
      for (int v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(closure[u].test(v), reference[u][v])
            << u << "->" << v << " density " << density;
        ASSERT_EQ(forward.test(v), reference[u][v]);
        ASSERT_EQ(ReachesTo(g, v).test(u), reference[u][v]);
      }
    }
    // Topological sort succeeds iff the reference closure is acyclic.
    bool reference_cyclic = false;
    for (int u = 0; u < g.num_nodes(); ++u) {
      for (int v : g.OutNeighbors(u)) {
        reference_cyclic |= reference[v][u];
      }
    }
    EXPECT_EQ(HasCycle(g), reference_cyclic);
  }
}

TEST_P(GraphDifferentialTest, ShortcutsMatchPathEnumerationOnDags) {
  std::mt19937_64 rng(GetParam() * 53 + 9);
  // Random DAG: edges only from lower to higher ids.
  const int n = 10;
  Digraph g(n);
  std::uniform_real_distribution<double> coin(0, 1);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (coin(rng) < 0.3) g.AddEdge(u, v);
    }
  }
  // Reference: edge (u,v) is a shortcut iff >= 1 simple path u..v of
  // length >= 2 exists (enumerate them all).
  for (const auto& [u, v] : g.Edges()) {
    auto paths = EnumerateSimplePaths(g, u, v);
    ASSERT_TRUE(paths.ok());
    bool reference = false;
    for (const auto& path : *paths) reference |= path.size() > 2;
    EXPECT_EQ(HasSimplePathThroughThirdNode(g, u, v), reference)
        << u << "->" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphDifferentialTest,
                         ::testing::Range(0, 10));

/// Checks every reachability reading of g against the graph algorithms
/// on g.ToDigraph(), and checks that rebuilding g from its edges yields
/// the same In* sets.
void ExpectExactReachability(const Subhierarchy& g, CategoryId all,
                             const std::string& where) {
  const int n = g.num_categories();
  const Digraph d = g.ToDigraph();
  const std::vector<DynamicBitset> closure = TransitiveClosure(d);
  for (int v = 0; v < n; ++v) {
    // Below(v) is the closure over nonempty paths: u -> w ->* v.
    DynamicBitset below(n);
    for (int u = 0; u < n; ++u) {
      for (int w : d.OutNeighbors(u)) {
        if (closure[w].test(v)) below.set(u);
      }
      ASSERT_EQ(g.Reaches(u, v), g.Contains(u) && closure[u].test(v))
          << where << ": Reaches(" << u << ", " << v << ")";
    }
    ASSERT_EQ(g.Below(v).ToVector(), below.ToVector())
        << where << ": Below(" << v << ")";
  }
  const bool cyclic = HasCycle(d);
  ASSERT_EQ(g.HasCycleIn(), cyclic) << where;
  if (!cyclic) {
    ASSERT_EQ(g.HasShortcut(), !FindShortcuts(d).empty()) << where;
  }

  const auto partial = Subhierarchy::FromPartialEdges(n, g.root(), g.Edges());
  ASSERT_TRUE(partial.has_value()) << where;
  for (int v = 0; v < n; ++v) {
    ASSERT_EQ(partial->Below(v).ToVector(), g.Below(v).ToVector())
        << where << ": FromPartialEdges Below(" << v << ")";
  }
  if (g.top().count() == 1 && g.top().test(all)) {
    const auto complete = Subhierarchy::FromEdges(n, g.root(), all, g.Edges());
    ASSERT_TRUE(complete.has_value()) << where;
    for (int v = 0; v < n; ++v) {
      ASSERT_EQ(complete->Below(v).ToVector(), g.Below(v).ToVector())
          << where << ": FromEdges Below(" << v << ")";
    }
  }
}

class SubhierarchyReachabilityTest : public ::testing::TestWithParam<int> {};

// Random walks of unpruned EXPAND steps over a random schema whose
// categories may point at each other in both directions, so the walks
// build cycles and shortcuts. Each step is an ExpandLogged, a Rollback,
// or a copy-Expand of a branch the walk then abandons.
TEST_P(SubhierarchyReachabilityTest, InStarIsExactOnEveryPath) {
  std::mt19937_64 rng(GetParam() * 71 + 13);
  std::uniform_real_distribution<double> coin(0, 1);
  const int n = 7;
  const CategoryId root = 0;
  const CategoryId all = n - 1;
  std::vector<DynamicBitset> schema(n, DynamicBitset(n));
  for (int u = 0; u < all; ++u) {
    for (int v = 1; v < n; ++v) {
      if (u != v && coin(rng) < (v == all ? 0.5 : 0.35)) schema[u].set(v);
    }
    if (schema[u].none()) schema[u].set(all);
  }
  // A random nonempty R among ctop's schema successors.
  auto random_r = [&](CategoryId ctop) {
    DynamicBitset r(n);
    while (r.none()) {
      schema[ctop].ForEach([&](int v) {
        if (coin(rng) < 0.5) r.set(v);
      });
    }
    return r;
  };

  Subhierarchy g(n, root);
  SubhierarchyUndoLog log;
  ASSERT_NO_FATAL_FAILURE(ExpectExactReachability(g, all, "initial"));
  for (int step = 0; step < 200; ++step) {
    std::vector<CategoryId> expandable;
    g.top().ForEach([&](int c) {
      if (c != all) expandable.push_back(c);
    });
    const std::string where = "seed " + std::to_string(GetParam()) +
                              " step " + std::to_string(step);
    if (expandable.empty() || (!log.empty() && coin(rng) < 0.3)) {
      if (log.empty()) break;
      g.Rollback(&log);
      ASSERT_NO_FATAL_FAILURE(
          ExpectExactReachability(g, all, where + " rollback"));
      continue;
    }
    const CategoryId ctop = expandable[rng() % expandable.size()];
    if (coin(rng) < 0.25) {
      Subhierarchy copy = g;
      copy.Expand(ctop, random_r(ctop));
      ASSERT_NO_FATAL_FAILURE(
          ExpectExactReachability(copy, all, where + " copy-expand"));
      continue;
    }
    g.ExpandLogged(ctop, random_r(ctop), &log);
    ASSERT_NO_FATAL_FAILURE(
        ExpectExactReachability(g, all, where + " expand"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubhierarchyReachabilityTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace olapdc
