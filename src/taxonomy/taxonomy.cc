#include "taxonomy/taxonomy.h"

#include <algorithm>

#include "common/logging.h"

namespace semsim {

ConceptId TaxonomyBuilder::AddConcept(std::string name, ConceptId parent) {
  SEMSIM_CHECK(name_to_id_.find(name) == name_to_id_.end())
      << "duplicate concept name: " << name;
  ConceptId id = static_cast<ConceptId>(names_.size());
  name_to_id_.emplace(name, id);
  names_.push_back(std::move(name));
  parents_.push_back(parent);
  return id;
}

Status TaxonomyBuilder::SetParent(ConceptId child, ConceptId parent) {
  if (child >= names_.size()) {
    return Status::InvalidArgument("SetParent: child out of range");
  }
  if (parent != kInvalidConcept && parent >= names_.size()) {
    return Status::InvalidArgument("SetParent: parent out of range");
  }
  if (parent == child) {
    return Status::InvalidArgument("SetParent: self-parenting");
  }
  parents_[child] = parent;
  return Status::OK();
}

Result<Taxonomy> TaxonomyBuilder::Build() && {
  size_t n = names_.size();
  if (n == 0) return Status::InvalidArgument("empty taxonomy");
  for (ConceptId c = 0; c < n; ++c) {
    if (parents_[c] != kInvalidConcept && parents_[c] >= n) {
      return Status::InvalidArgument("parent id out of range");
    }
  }

  // Attach multiple roots under a synthetic root.
  std::vector<ConceptId> roots;
  for (ConceptId c = 0; c < n; ++c) {
    if (parents_[c] == kInvalidConcept) roots.push_back(c);
  }
  if (roots.empty()) return Status::InvalidArgument("taxonomy has a cycle");
  ConceptId root;
  if (roots.size() == 1) {
    root = roots[0];
  } else {
    if (name_to_id_.contains("<ROOT>")) {
      return Status::InvalidArgument(
          "taxonomy has several roots and already names a concept "
          "'<ROOT>', the name of the synthetic root above them");
    }
    root = AddConcept("<ROOT>");
    for (ConceptId r : roots) parents_[r] = root;
    n = names_.size();
  }

  Taxonomy t;
  t.names_ = std::move(names_);
  t.parents_ = std::move(parents_);
  t.name_to_id_ = std::move(name_to_id_);
  t.root_ = root;

  // Children CSR.
  t.child_offsets_.assign(n + 1, 0);
  for (ConceptId c = 0; c < n; ++c) {
    if (c != root) ++t.child_offsets_[t.parents_[c] + 1];
  }
  for (size_t i = 1; i <= n; ++i) t.child_offsets_[i] += t.child_offsets_[i - 1];
  t.children_flat_.resize(n - 1);
  std::vector<size_t> cursor(t.child_offsets_.begin(),
                             t.child_offsets_.end() - 1);
  for (ConceptId c = 0; c < n; ++c) {
    if (c != root) t.children_flat_[cursor[t.parents_[c]]++] = c;
  }

  // Depths + cycle detection via BFS from the root: any concept not
  // reached lies on (or under) a cycle.
  t.depths_.assign(n, std::numeric_limits<uint32_t>::max());
  std::vector<ConceptId> queue = {root};
  t.depths_[root] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    ConceptId c = queue[head];
    for (ConceptId ch : t.children(c)) {
      t.depths_[ch] = t.depths_[c] + 1;
      queue.push_back(ch);
    }
  }
  if (queue.size() != n) {
    return Status::InvalidArgument("taxonomy has a cycle");
  }

  // Subtree sizes bottom-up (reverse BFS order is a valid topological
  // order from leaves to root).
  t.subtree_sizes_.assign(n, 1);
  for (size_t i = n; i-- > 0;) {
    ConceptId c = queue[i];
    if (c != root) t.subtree_sizes_[t.parents_[c]] += t.subtree_sizes_[c];
  }
  return t;
}

Result<ConceptId> Taxonomy::FindConcept(std::string_view name) const {
  auto it = name_to_id_.find(std::string(name));
  if (it == name_to_id_.end()) {
    return Status::NotFound("no concept named '" + std::string(name) + "'");
  }
  return it->second;
}

ConceptId Taxonomy::LcaSlow(ConceptId a, ConceptId b) const {
  while (depths_[a] > depths_[b]) a = parents_[a];
  while (depths_[b] > depths_[a]) b = parents_[b];
  while (a != b) {
    a = parents_[a];
    b = parents_[b];
  }
  return a;
}

uint32_t Taxonomy::TreeDistance(ConceptId a, ConceptId b) const {
  ConceptId l = LcaSlow(a, b);
  return (depths_[a] - depths_[l]) + (depths_[b] - depths_[l]);
}

}  // namespace semsim
