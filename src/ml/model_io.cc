#include "ml/model_io.h"

#include <algorithm>
#include <limits>

#include "common/csv.h"
#include "common/strings.h"

// Serialization member functions of DecisionTree and RandomForest live
// here next to the file helpers so the wire format has a single home.
//
// Format (line-based text):
//   trajkit_random_forest v1
//   params <n_estimators> <criterion> <max_depth> <min_split> <min_leaf>
//          <max_features> <bootstrap> <balanced> <seed>
//   classes <k>
//   trees <t>
//   <t tree blocks>
// Tree block:
//   tree <num_classes> <depth>
//   nodes <n>
//   <feature> <threshold> <left> <right> <distribution>   (n lines)
//   distributions <m> <k>
//   <k probabilities>                                      (m lines)
//   importances <f>
//   <f values on one line>

#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace trajkit::ml {

namespace {

Result<std::vector<double>> ParseDoubles(std::string_view line,
                                         size_t expected) {
  std::vector<double> out;
  for (std::string_view field : SplitString(line, ' ')) {
    if (StripWhitespace(field).empty()) continue;
    TRAJKIT_ASSIGN_OR_RETURN(double v, ParseDouble(field));
    out.push_back(v);
  }
  if (out.size() != expected) {
    return Status::ParseError(StrPrintf(
        "expected %zu numeric fields, got %zu", expected, out.size()));
  }
  return out;
}

/// ParseInt64 narrowed to int: a value outside int's range is a
/// ParseError, not a silent wrap into a valid-looking index.
Result<int> ParseInt32(std::string_view field) {
  TRAJKIT_ASSIGN_OR_RETURN(long long v, ParseInt64(field));
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return Status::ParseError(StrPrintf("integer %lld out of range", v));
  }
  return static_cast<int>(v);
}

Result<std::string_view> NextLine(const std::vector<std::string_view>& lines,
                                  size_t& cursor) {
  if (cursor >= lines.size()) {
    return Status::ParseError("unexpected end of model file");
  }
  return lines[cursor++];
}

}  // namespace

void DecisionTree::AppendSerialized(std::string& out) const {
  TRAJKIT_CHECK(fitted());
  out += StrPrintf("tree %d %d\n", num_classes_, depth_);
  out += StrPrintf("nodes %zu\n", nodes_.size());
  for (const Node& node : nodes_) {
    out += StrPrintf("%d %.17g %d %d %d\n", node.feature, node.threshold,
                     node.left, node.right, node.distribution);
  }
  out += StrPrintf("distributions %zu %d\n", leaf_distributions_.size(),
                   num_classes_);
  for (const std::vector<double>& dist : leaf_distributions_) {
    for (size_t c = 0; c < dist.size(); ++c) {
      if (c > 0) out += ' ';
      out += StrPrintf("%.17g", dist[c]);
    }
    out += '\n';
  }
  out += StrPrintf("importances %zu\n", importances_.size());
  for (size_t f = 0; f < importances_.size(); ++f) {
    if (f > 0) out += ' ';
    out += StrPrintf("%.17g", importances_[f]);
  }
  out += '\n';
}

Result<DecisionTree> DecisionTree::DeserializeBlock(
    const std::vector<std::string_view>& lines, size_t& cursor) {
  DecisionTree tree;

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view header, NextLine(lines, cursor));
  {
    const auto fields = SplitString(header, ' ');
    if (fields.size() != 3 || fields[0] != "tree") {
      return Status::ParseError("bad tree header");
    }
    TRAJKIT_ASSIGN_OR_RETURN(tree.num_classes_, ParseInt32(fields[1]));
    TRAJKIT_ASSIGN_OR_RETURN(tree.depth_, ParseInt32(fields[2]));
    if (tree.num_classes_ <= 0) {
      return Status::ParseError("tree must have positive class count");
    }
  }

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view nodes_line,
                           NextLine(lines, cursor));
  {
    const auto fields = SplitString(nodes_line, ' ');
    if (fields.size() != 2 || fields[0] != "nodes") {
      return Status::ParseError("bad nodes header");
    }
    TRAJKIT_ASSIGN_OR_RETURN(long long count, ParseInt64(fields[1]));
    // One line per node: a count the file cannot hold is an error here,
    // not a huge reserve.
    if (count < 0 || static_cast<size_t>(count) > lines.size() - cursor) {
      return Status::ParseError("node count exceeds the model file");
    }
    tree.nodes_.reserve(static_cast<size_t>(count));
    for (long long i = 0; i < count; ++i) {
      TRAJKIT_ASSIGN_OR_RETURN(std::string_view line,
                               NextLine(lines, cursor));
      const auto f = SplitString(line, ' ');
      if (f.size() != 5) return Status::ParseError("bad node line");
      Node node;
      TRAJKIT_ASSIGN_OR_RETURN(node.feature, ParseInt32(f[0]));
      TRAJKIT_ASSIGN_OR_RETURN(node.threshold, ParseDouble(f[1]));
      TRAJKIT_ASSIGN_OR_RETURN(node.left, ParseInt32(f[2]));
      TRAJKIT_ASSIGN_OR_RETURN(node.right, ParseInt32(f[3]));
      TRAJKIT_ASSIGN_OR_RETURN(node.distribution, ParseInt32(f[4]));
      tree.nodes_.push_back(node);
    }
  }

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view dist_line,
                           NextLine(lines, cursor));
  {
    const auto fields = SplitString(dist_line, ' ');
    if (fields.size() != 3 || fields[0] != "distributions") {
      return Status::ParseError("bad distributions header");
    }
    TRAJKIT_ASSIGN_OR_RETURN(long long count, ParseInt64(fields[1]));
    TRAJKIT_ASSIGN_OR_RETURN(long long k, ParseInt64(fields[2]));
    if (static_cast<int>(k) != tree.num_classes_) {
      return Status::ParseError("distribution width != class count");
    }
    for (long long i = 0; i < count; ++i) {
      TRAJKIT_ASSIGN_OR_RETURN(std::string_view line,
                               NextLine(lines, cursor));
      TRAJKIT_ASSIGN_OR_RETURN(
          std::vector<double> dist,
          ParseDoubles(line, static_cast<size_t>(k)));
      tree.leaf_distributions_.push_back(std::move(dist));
    }
  }

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view imp_line,
                           NextLine(lines, cursor));
  {
    const auto fields = SplitString(imp_line, ' ');
    if (fields.size() != 2 || fields[0] != "importances") {
      return Status::ParseError("bad importances header");
    }
    TRAJKIT_ASSIGN_OR_RETURN(long long count, ParseInt64(fields[1]));
    TRAJKIT_ASSIGN_OR_RETURN(std::string_view line,
                             NextLine(lines, cursor));
    TRAJKIT_ASSIGN_OR_RETURN(
        std::vector<double> imp,
        ParseDoubles(line, static_cast<size_t>(count)));
    tree.importances_ = std::move(imp);
  }

  // Structural validation, so the compile and both descents only ever
  // see a well-formed tree: walking from node 0 must reach every node
  // exactly once (no cycle, no child shared by two parents, no unreachable
  // node), a split must read a column inside the importance width, a leaf
  // must name a stored distribution, and the header depth must be the
  // structure's (the flat form descends exactly that many levels).
  const size_t node_count = tree.nodes_.size();
  if (node_count == 0) return Status::ParseError("tree has no nodes");
  const size_t dist_count = tree.leaf_distributions_.size();
  const size_t width = tree.importances_.size();
  std::vector<int> node_depth(node_count, -1);
  std::vector<size_t> frontier = {0};
  node_depth[0] = 0;
  int depth = 0;
  while (!frontier.empty()) {
    const size_t index = frontier.back();
    frontier.pop_back();
    const Node& node = tree.nodes_[index];
    depth = std::max(depth, node_depth[index]);
    if (node.feature < -1) {
      return Status::ParseError(StrPrintf(
          "node %zu: feature %d is neither a column nor -1 (leaf)", index,
          node.feature));
    }
    if (node.feature == -1) {
      if (node.distribution < 0 ||
          static_cast<size_t>(node.distribution) >= dist_count) {
        return Status::ParseError(StrPrintf(
            "leaf %zu: distribution %d out of range [0, %zu)", index,
            node.distribution, dist_count));
      }
      continue;
    }
    if (static_cast<size_t>(node.feature) >= width) {
      return Status::ParseError(StrPrintf(
          "node %zu splits on feature %d but the tree has %zu features",
          index, node.feature, width));
    }
    for (const int child : {node.left, node.right}) {
      if (child < 0 || static_cast<size_t>(child) >= node_count) {
        return Status::ParseError(StrPrintf(
            "node %zu: child %d out of range [0, %zu)", index, child,
            node_count));
      }
      if (node_depth[static_cast<size_t>(child)] >= 0) {
        return Status::ParseError(StrPrintf(
            "node graph is not a tree: node %d is reached twice", child));
      }
      node_depth[static_cast<size_t>(child)] = node_depth[index] + 1;
      frontier.push_back(static_cast<size_t>(child));
    }
  }
  const auto unreached = std::find(node_depth.begin(), node_depth.end(), -1);
  if (unreached != node_depth.end()) {
    return Status::ParseError(StrPrintf(
        "node graph is not a tree: node %td is unreachable from the root",
        unreached - node_depth.begin()));
  }
  if (depth != tree.depth_) {
    return Status::ParseError(StrPrintf(
        "tree header says depth %d but its nodes are %d deep", tree.depth_,
        depth));
  }
  return tree;
}

std::string RandomForest::Serialize() const {
  TRAJKIT_CHECK(fitted());
  std::string out = "trajkit_random_forest v1\n";
  out += StrPrintf(
      "params %d %d %d %d %d %d %d %d %llu\n", params_.n_estimators,
      static_cast<int>(params_.criterion), params_.max_depth,
      params_.min_samples_split, params_.min_samples_leaf,
      params_.max_features, params_.bootstrap ? 1 : 0,
      params_.balanced_class_weights ? 1 : 0,
      static_cast<unsigned long long>(params_.seed));
  out += StrPrintf("classes %d\n", num_classes_);
  out += StrPrintf("trees %zu\n", trees_.size());
  for (const DecisionTree& tree : trees_) {
    tree.AppendSerialized(out);
  }
  return out;
}

Result<RandomForest> RandomForest::Deserialize(std::string_view text) {
  std::vector<std::string_view> lines;
  for (std::string_view line : SplitString(text, '\n')) {
    const std::string_view stripped = StripWhitespace(line);
    if (!stripped.empty()) lines.push_back(stripped);
  }
  size_t cursor = 0;
  TRAJKIT_ASSIGN_OR_RETURN(std::string_view magic, NextLine(lines, cursor));
  // Version-aware magic check: a file written by a future trajkit with a
  // newer format version gets a clean, actionable error instead of a
  // confusing structural parse failure further down.
  {
    const auto fields = SplitString(magic, ' ');
    if (fields.size() != 2 || fields[0] != "trajkit_random_forest" ||
        fields[1].size() < 2 || fields[1][0] != 'v') {
      return Status::ParseError("not a trajkit_random_forest file");
    }
    TRAJKIT_ASSIGN_OR_RETURN(long long version,
                             ParseInt64(fields[1].substr(1)));
    if (version != 1) {
      return Status::ParseError(StrPrintf(
          "model file uses format v%lld; this build reads v1 only — "
          "re-save the model with a matching trajkit version",
          version));
    }
  }

  RandomForestParams params;
  TRAJKIT_ASSIGN_OR_RETURN(std::string_view params_line,
                           NextLine(lines, cursor));
  {
    const auto f = SplitString(params_line, ' ');
    if (f.size() != 10 || f[0] != "params") {
      return Status::ParseError("bad params line");
    }
    TRAJKIT_ASSIGN_OR_RETURN(long long v1, ParseInt64(f[1]));
    TRAJKIT_ASSIGN_OR_RETURN(long long v2, ParseInt64(f[2]));
    TRAJKIT_ASSIGN_OR_RETURN(long long v3, ParseInt64(f[3]));
    TRAJKIT_ASSIGN_OR_RETURN(long long v4, ParseInt64(f[4]));
    TRAJKIT_ASSIGN_OR_RETURN(long long v5, ParseInt64(f[5]));
    TRAJKIT_ASSIGN_OR_RETURN(long long v6, ParseInt64(f[6]));
    TRAJKIT_ASSIGN_OR_RETURN(long long v7, ParseInt64(f[7]));
    TRAJKIT_ASSIGN_OR_RETURN(long long v8, ParseInt64(f[8]));
    TRAJKIT_ASSIGN_OR_RETURN(long long v9, ParseInt64(f[9]));
    params.n_estimators = static_cast<int>(v1);
    params.criterion = static_cast<SplitCriterion>(v2);
    params.max_depth = static_cast<int>(v3);
    params.min_samples_split = static_cast<int>(v4);
    params.min_samples_leaf = static_cast<int>(v5);
    params.max_features = static_cast<int>(v6);
    params.bootstrap = v7 != 0;
    params.balanced_class_weights = v8 != 0;
    params.seed = static_cast<uint64_t>(v9);
  }
  RandomForest forest(params);

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view classes_line,
                           NextLine(lines, cursor));
  {
    const auto f = SplitString(classes_line, ' ');
    if (f.size() != 2 || f[0] != "classes") {
      return Status::ParseError("bad classes line");
    }
    TRAJKIT_ASSIGN_OR_RETURN(long long k, ParseInt64(f[1]));
    forest.num_classes_ = static_cast<int>(k);
  }

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view trees_line,
                           NextLine(lines, cursor));
  const auto f = SplitString(trees_line, ' ');
  if (f.size() != 2 || f[0] != "trees") {
    return Status::ParseError("bad trees line");
  }
  TRAJKIT_ASSIGN_OR_RETURN(long long tree_count, ParseInt64(f[1]));
  if (tree_count <= 0) {
    return Status::ParseError("forest must contain at least one tree");
  }
  for (long long i = 0; i < tree_count; ++i) {
    TRAJKIT_ASSIGN_OR_RETURN(DecisionTree tree,
                             DecisionTree::DeserializeBlock(lines, cursor));
    if (tree.num_classes() != forest.num_classes_) {
      return Status::ParseError("tree class count != forest class count");
    }
    forest.trees_.push_back(std::move(tree));
  }

  // Rebuild aggregate importances from the trees.
  if (!forest.trees_.empty()) {
    const std::vector<double>& first =
        forest.trees_.front().FeatureImportances();
    forest.importances_.assign(first.size(), 0.0);
    for (const DecisionTree& tree : forest.trees_) {
      const std::vector<double>& imp = tree.FeatureImportances();
      if (imp.size() != forest.importances_.size()) {
        return Status::ParseError("inconsistent importance widths");
      }
      for (size_t j = 0; j < imp.size(); ++j) {
        forest.importances_[j] += imp[j];
      }
    }
    double total = 0.0;
    for (double v : forest.importances_) total += v;
    if (total > 0.0) {
      for (double& v : forest.importances_) v /= total;
    }
  }
  TRAJKIT_RETURN_IF_ERROR(forest.CompileTrees());
  return forest;
}

Status SaveRandomForest(const RandomForest& forest,
                        const std::string& path) {
  if (!forest.fitted()) {
    return Status::FailedPrecondition("cannot save an unfitted forest");
  }
  return WriteStringToFile(path, forest.Serialize());
}

Result<RandomForest> LoadRandomForest(const std::string& path) {
  TRAJKIT_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return RandomForest::Deserialize(text);
}

}  // namespace trajkit::ml
