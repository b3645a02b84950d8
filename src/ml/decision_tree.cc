#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace strudel::ml {

namespace {

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeOptions options)
    : options_(options) {}

Status DecisionTree::Fit(const Dataset& data) {
  STRUDEL_RETURN_IF_ERROR(CheckFeaturesFinite(data, "decision tree"));
  std::vector<size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  return FitIndices(data, indices);
}

Status DecisionTree::FitIndices(const Dataset& data,
                                const std::vector<size_t>& indices) {
  if (!data.Valid()) {
    return Status::InvalidArgument("decision tree: invalid dataset");
  }
  if (indices.empty()) {
    return Status::InvalidArgument("decision tree: no training samples");
  }
  nodes_.clear();
  num_classes_ = data.num_classes;
  num_features_ = data.num_features();
  build_status_ = Status::OK();
  Rng rng(options_.seed);
  std::vector<size_t> work = indices;
  BuildNode(data, work, 0, work.size(), 0, rng);
  if (!build_status_.ok()) {
    nodes_.clear();  // never leave a partially-built tree behind
    return build_status_;
  }
  return Status::OK();
}

int DecisionTree::BuildNode(const Dataset& data, std::vector<size_t>& indices,
                            size_t begin, size_t end, int depth, Rng& rng) {
  const size_t n = end - begin;
  // Cooperative budget checkpoint, charged with the samples this node
  // scans. Once exhausted, the recursion collapses to leaves and
  // FitIndices reports the violation.
  if (options_.budget != nullptr && build_status_.ok()) {
    build_status_ = options_.budget->Charge("tree_build", n);
  }
  std::vector<double> counts(static_cast<size_t>(num_classes_), 0.0);
  for (size_t i = begin; i < end; ++i) {
    ++counts[static_cast<size_t>(data.labels[indices[i]])];
  }
  const double total = static_cast<double>(n);
  const double impurity = GiniFromCounts(counts, total);

  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_.back();
    node.samples = static_cast<int>(n);
    node.impurity = impurity;
    node.node_depth = depth;
    node.distribution = counts;
    for (double& d : node.distribution) d /= total;
  }

  const bool depth_reached =
      options_.max_depth > 0 && depth >= options_.max_depth;
  if (!build_status_.ok() || impurity <= 0.0 || depth_reached ||
      n < static_cast<size_t>(options_.min_samples_split)) {
    return node_id;
  }

  // Choose the candidate feature set for this split.
  int budget;
  if (options_.max_features == 0) {
    budget = static_cast<int>(num_features_);
  } else if (options_.max_features < 0) {
    budget = std::max(1, static_cast<int>(std::sqrt(
                             static_cast<double>(num_features_))));
  } else {
    budget = std::min(options_.max_features,
                      static_cast<int>(num_features_));
  }
  std::vector<size_t> candidates(num_features_);
  std::iota(candidates.begin(), candidates.end(), 0);
  if (budget < static_cast<int>(num_features_)) {
    // Partial Fisher-Yates: the first `budget` entries become the sample.
    for (int i = 0; i < budget; ++i) {
      size_t j = static_cast<size_t>(i) +
                 rng.UniformInt(num_features_ - static_cast<size_t>(i));
      std::swap(candidates[static_cast<size_t>(i)], candidates[j]);
    }
    candidates.resize(static_cast<size_t>(budget));
  }

  // Best split search: for each candidate feature, sort samples by value
  // and scan boundaries between distinct values.
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<std::pair<double, int>> values;  // (feature value, label)
  values.reserve(n);
  std::vector<double> left_counts(static_cast<size_t>(num_classes_));
  const int min_leaf = options_.min_samples_leaf;

  for (size_t feature : candidates) {
    values.clear();
    for (size_t i = begin; i < end; ++i) {
      values.emplace_back(data.features.at(indices[i], feature),
                          data.labels[indices[i]]);
    }
    std::sort(values.begin(), values.end());
    if (values.front().first == values.back().first) continue;  // constant

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    for (size_t i = 0; i + 1 < n; ++i) {
      ++left_counts[static_cast<size_t>(values[i].second)];
      if (values[i].first == values[i + 1].first) continue;
      const double n_left = static_cast<double>(i + 1);
      const double n_right = total - n_left;
      if (n_left < min_leaf || n_right < min_leaf) continue;
      double sum_sq_left = 0.0, sum_sq_right = 0.0;
      for (int k = 0; k < num_classes_; ++k) {
        const double cl = left_counts[static_cast<size_t>(k)];
        const double cr = counts[static_cast<size_t>(k)] - cl;
        sum_sq_left += cl * cl;
        sum_sq_right += cr * cr;
      }
      const double gini_left = 1.0 - sum_sq_left / (n_left * n_left);
      const double gini_right = 1.0 - sum_sq_right / (n_right * n_right);
      const double weighted =
          (n_left * gini_left + n_right * gini_right) / total;
      const double gain = impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(feature);
        best_threshold = (values[i].first + values[i + 1].first) / 2.0;
      }
    }
  }

  if (best_feature < 0) return node_id;  // no useful split found

  // Partition indices[begin, end) around the threshold.
  size_t mid = begin;
  for (size_t i = begin; i < end; ++i) {
    if (data.features.at(indices[i], static_cast<size_t>(best_feature)) <=
        best_threshold) {
      std::swap(indices[i], indices[mid]);
      ++mid;
    }
  }
  if (mid == begin || mid == end) return node_id;  // degenerate (ties)

  nodes_[static_cast<size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
  int left = BuildNode(data, indices, begin, mid, depth + 1, rng);
  nodes_[static_cast<size_t>(node_id)].left = left;
  int right = BuildNode(data, indices, mid, end, depth + 1, rng);
  nodes_[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

std::vector<double> DecisionTree::PredictProba(
    std::span<const double> features) const {
  if (nodes_.empty()) {
    return std::vector<double>(static_cast<size_t>(num_classes_), 0.0);
  }
  const Node* node = &nodes_[0];
  while (node->left >= 0) {
    const double v = features[static_cast<size_t>(node->feature)];
    node = v <= node->threshold ? &nodes_[static_cast<size_t>(node->left)]
                                : &nodes_[static_cast<size_t>(node->right)];
  }
  return node->distribution;
}

std::unique_ptr<Classifier> DecisionTree::CloneUntrained() const {
  return std::make_unique<DecisionTree>(options_);
}

std::vector<double> DecisionTree::FeatureImportances() const {
  std::vector<double> importances(num_features_, 0.0);
  for (const Node& node : nodes_) {
    if (node.left < 0) continue;
    const Node& left = nodes_[static_cast<size_t>(node.left)];
    const Node& right = nodes_[static_cast<size_t>(node.right)];
    const double decrease =
        node.samples * node.impurity -
        left.samples * left.impurity - right.samples * right.impurity;
    importances[static_cast<size_t>(node.feature)] += decrease;
  }
  double total = 0.0;
  for (double v : importances) total += v;
  if (total > 0.0) {
    for (double& v : importances) v /= total;
  }
  return importances;
}

int DecisionTree::depth() const {
  int depth = 0;
  for (const Node& node : nodes_) depth = std::max(depth, node.node_depth);
  return depth;
}

Status DecisionTree::Save(std::ostream& out) const {
  out << "tree v1 " << num_classes_ << ' ' << num_features_ << ' '
      << nodes_.size() << '\n';
  out.precision(17);
  for (const Node& node : nodes_) {
    out << node.feature << ' ' << node.threshold << ' ' << node.left << ' '
        << node.right << ' ' << node.impurity << ' ' << node.samples << ' '
        << node.node_depth;
    out << ' ' << node.distribution.size();
    for (double p : node.distribution) out << ' ' << p;
    out << '\n';
  }
  if (!out) return Status::IOError("decision tree: write failed");
  return Status::OK();
}

Status DecisionTree::Load(std::istream& in) {
  std::string magic, version;
  int num_classes = 0;
  size_t num_features = 0;
  size_t node_count = 0;
  in >> magic >> version >> num_classes >> num_features >> node_count;
  if (!in || magic != "tree" || version != "v1") {
    return Status::CorruptModel("decision tree: bad header");
  }
  if (num_classes < 1 || num_classes > 1'000'000) {
    return Status::CorruptModel("decision tree: implausible class count " +
                                std::to_string(num_classes));
  }
  if (num_features < 1 || num_features > 10'000'000) {
    return Status::CorruptModel("decision tree: implausible feature count " +
                                std::to_string(num_features));
  }
  if (node_count < 1 || node_count > 10'000'000) {
    return Status::CorruptModel("decision tree: implausible node count " +
                                std::to_string(node_count));
  }
  // Grow incrementally instead of trusting the claimed count up front, so
  // an inflated header cannot force a huge allocation before the stream
  // runs dry.
  std::vector<Node> nodes;
  nodes.reserve(std::min<size_t>(node_count, 4096));
  const int count = static_cast<int>(node_count);
  for (size_t id = 0; id < node_count; ++id) {
    Node node;
    size_t dist_size = 0;
    in >> node.feature >> node.threshold >> node.left >> node.right >>
        node.impurity >> node.samples >> node.node_depth >> dist_size;
    if (!in) return Status::CorruptModel("decision tree: truncated node");
    if (dist_size != static_cast<size_t>(num_classes)) {
      return Status::CorruptModel(
          "decision tree: node distribution size mismatch");
    }
    node.distribution.resize(dist_size);
    // Fit writes each entry as a count ratio c/n <= 1, and Save's 17
    // digits read back exactly, so an entry outside [0, 1] is corrupt
    // (the forest's early-exit vote relies on the bound).
    for (double& p : node.distribution) {
      in >> p;
      if (!in || !std::isfinite(p) || p < 0.0 || p > 1.0) {
        return Status::CorruptModel(
            "decision tree: invalid class distribution");
      }
    }
    if (!std::isfinite(node.threshold) || !std::isfinite(node.impurity) ||
        node.samples < 0 || node.node_depth < 0) {
      return Status::CorruptModel("decision tree: invalid node payload");
    }
    const int node_id = static_cast<int>(id);
    const bool leaf = node.left < 0;
    if (leaf) {
      // Leaves carry no split; enforce the canonical encoding so a child
      // index cannot hide in `right`.
      if (node.left != -1 || node.right != -1 || node.feature != -1) {
        return Status::CorruptModel("decision tree: malformed leaf node");
      }
    } else {
      // BuildNode appends children strictly after their parent, so valid
      // trees are topologically ordered; enforcing it makes traversal
      // provably acyclic (PredictProba can never loop).
      if (node.feature < 0 ||
          static_cast<size_t>(node.feature) >= num_features) {
        return Status::CorruptModel(
            "decision tree: split feature out of range");
      }
      if (node.left <= node_id || node.left >= count ||
          node.right <= node_id || node.right >= count) {
        return Status::CorruptModel(
            "decision tree: child index out of range");
      }
    }
    nodes.push_back(std::move(node));
  }
  nodes_ = std::move(nodes);
  num_classes_ = num_classes;
  num_features_ = num_features;
  return Status::OK();
}

}  // namespace strudel::ml
