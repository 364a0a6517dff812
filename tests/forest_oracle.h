#ifndef TRAJKIT_TESTS_FOREST_ORACLE_H_
#define TRAJKIT_TESTS_FOREST_ORACLE_H_

// The pointer walk over a fitted RandomForest's trees: the reference the
// compiled flat form (ml/flat_forest.h) must match byte for byte. Per row
// it visits the trees in order and reads each one's leaf through
// DecisionTree::LeafDistribution; labels are the argmax of the raw
// distribution sums, probabilities the sums of dist * (1 / num_trees).

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "ml/decision_tree.h"
#include "ml/matrix.h"
#include "ml/random_forest.h"

namespace trajkit::ml::testing {

inline std::vector<int> PointerWalkPredict(const RandomForest& forest,
                                           const Matrix& features) {
  TRAJKIT_CHECK(forest.fitted());
  std::vector<int> out(features.rows());
  // Rows are independent; each writes only its own output slot.
  const Status status = ParallelFor(0, features.rows(), 16, [&](size_t r) {
    std::vector<double> acc(static_cast<size_t>(forest.num_classes()), 0.0);
    const std::span<const double> row = features.Row(r);
    for (const DecisionTree& tree : forest.trees()) {
      const std::span<const double> dist = tree.LeafDistribution(row);
      for (size_t c = 0; c < acc.size(); ++c) acc[c] += dist[c];
    }
    out[r] = static_cast<int>(std::max_element(acc.begin(), acc.end()) -
                              acc.begin());
  });
  TRAJKIT_CHECK(status.ok()) << status.ToString();
  return out;
}

inline Matrix PointerWalkProba(const RandomForest& forest,
                               const Matrix& features) {
  TRAJKIT_CHECK(forest.fitted());
  Matrix probs(features.rows(), static_cast<size_t>(forest.num_classes()));
  const double inv = 1.0 / static_cast<double>(forest.trees().size());
  const Status status = ParallelFor(0, features.rows(), 16, [&](size_t r) {
    const std::span<const double> row = features.Row(r);
    for (const DecisionTree& tree : forest.trees()) {
      const std::span<const double> dist = tree.LeafDistribution(row);
      for (size_t c = 0; c < dist.size(); ++c) probs(r, c) += dist[c] * inv;
    }
  });
  TRAJKIT_CHECK(status.ok()) << status.ToString();
  return probs;
}

}  // namespace trajkit::ml::testing

#endif  // TRAJKIT_TESTS_FOREST_ORACLE_H_
