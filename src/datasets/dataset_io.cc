#include "datasets/dataset_io.h"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <system_error>
#include <unordered_set>

#include "graph/graph_io.h"

namespace semsim {

namespace {

std::string GraphPath(const std::string& dir) { return dir + "/graph.hin"; }
std::string SemanticsPath(const std::string& dir) {
  return dir + "/semantics.txt";
}
std::string TasksPath(const std::string& dir) { return dir + "/tasks.txt"; }

}  // namespace

Status SaveDataset(const Dataset& dataset, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + directory + ": " +
                           ec.message());
  }
  SEMSIM_RETURN_NOT_OK(SaveHin(dataset.graph, GraphPath(directory)));

  {
    std::ofstream out(SemanticsPath(directory));
    if (!out) {
      return Status::IOError("cannot open " + SemanticsPath(directory));
    }
    out << std::setprecision(17);
    const Taxonomy& tax = dataset.context.taxonomy();
    out << "# semsim semantics v1\n";
    out << "floor " << dataset.context.ic_floor() << "\n";
    for (ConceptId c = 0; c < tax.num_concepts(); ++c) {
      long long parent =
          c == tax.root() ? -1 : static_cast<long long>(tax.parent(c));
      out << "c " << tax.name(c) << " " << parent << " "
          << dataset.context.ic(c) << "\n";
    }
    for (NodeId v = 0; v < dataset.graph.num_nodes(); ++v) {
      out << "m " << v << " " << dataset.context.concept_of(v) << "\n";
    }
    out.flush();
    if (!out) return Status::IOError("write failed: semantics.txt");
  }

  {
    std::ofstream out(TasksPath(directory));
    if (!out) return Status::IOError("cannot open " + TasksPath(directory));
    out << std::setprecision(17);
    out << "# semsim tasks v1\n";
    out << "name " << dataset.name << "\n";
    for (const auto& [a, b] : dataset.heldout_edges) {
      out << "h " << a << " " << b << "\n";
    }
    for (const auto& [a, b] : dataset.duplicate_pairs) {
      out << "d " << a << " " << b << "\n";
    }
    for (const RelatednessPair& p : dataset.relatedness) {
      out << "r " << p.a << " " << p.b << " " << p.human_score << "\n";
    }
    out.flush();
    if (!out) return Status::IOError("write failed: tasks.txt");
  }
  return Status::OK();
}

Result<Dataset> LoadDataset(const std::string& directory) {
  Dataset dataset;
  SEMSIM_ASSIGN_OR_RETURN(dataset.graph, LoadHin(GraphPath(directory)));

  {
    std::ifstream in(SemanticsPath(directory));
    if (!in) {
      return Status::IOError("cannot open " + SemanticsPath(directory));
    }
    double floor = 1e-3;
    std::vector<std::string> names;
    std::vector<long long> parents;
    std::vector<double> ic;
    std::vector<ConceptId> node_concept(dataset.graph.num_nodes(),
                                        kInvalidConcept);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ss(line);
      std::string kind;
      ss >> kind;
      if (kind == "floor") {
        if (!(ss >> floor)) {
          return Status::IOError("bad floor line " + std::to_string(lineno));
        }
      } else if (kind == "c") {
        std::string name;
        long long parent;
        double value;
        if (!(ss >> name >> parent >> value)) {
          return Status::IOError("bad concept line " +
                                 std::to_string(lineno));
        }
        names.push_back(std::move(name));
        parents.push_back(parent);
        ic.push_back(value);
      } else if (kind == "m") {
        unsigned long node, concept_id;
        if (!(ss >> node >> concept_id)) {
          return Status::IOError("bad mapping line " +
                                 std::to_string(lineno));
        }
        if (node >= node_concept.size()) {
          return Status::IOError("mapping for unknown node at line " +
                                 std::to_string(lineno));
        }
        node_concept[node] = static_cast<ConceptId>(concept_id);
      } else {
        return Status::IOError("unknown directive '" + kind + "' at line " +
                               std::to_string(lineno));
      }
    }
    TaxonomyBuilder builder;
    std::unordered_set<std::string_view> seen;
    for (const std::string& name : names) {
      // Checked here: AddConcept check-fails on a repeated name.
      if (!seen.insert(name).second) {
        return Status::IOError("duplicate concept '" + name + "'");
      }
      builder.AddConcept(name);
    }
    for (ConceptId c = 0; c < parents.size(); ++c) {
      if (parents[c] >= 0) {
        SEMSIM_RETURN_NOT_OK(
            builder.SetParent(c, static_cast<ConceptId>(parents[c])));
      }
    }
    SEMSIM_ASSIGN_OR_RETURN(Taxonomy taxonomy, std::move(builder).Build());
    for (ConceptId c : node_concept) {
      if (c == kInvalidConcept) {
        return Status::IOError("semantics.txt misses a node mapping");
      }
    }
    SEMSIM_ASSIGN_OR_RETURN(
        dataset.context,
        SemanticContext::FromTaxonomyWithIc(std::move(taxonomy),
                                            std::move(node_concept),
                                            std::move(ic), floor));
  }

  {
    std::ifstream in(TasksPath(directory));
    if (!in) return Status::IOError("cannot open " + TasksPath(directory));
    std::string line;
    size_t lineno = 0;
    size_t n = dataset.graph.num_nodes();
    auto check_node = [&](unsigned long v) {
      return v < n ? Status::OK()
                   : Status::IOError("node out of range at line " +
                                     std::to_string(lineno));
    };
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ss(line);
      std::string kind;
      ss >> kind;
      if (kind == "name") {
        ss >> dataset.name;
      } else if (kind == "h" || kind == "d") {
        unsigned long a, b;
        if (!(ss >> a >> b)) {
          return Status::IOError("bad pair at line " + std::to_string(lineno));
        }
        SEMSIM_RETURN_NOT_OK(check_node(a));
        SEMSIM_RETURN_NOT_OK(check_node(b));
        auto& list =
            kind == "h" ? dataset.heldout_edges : dataset.duplicate_pairs;
        list.emplace_back(static_cast<NodeId>(a), static_cast<NodeId>(b));
      } else if (kind == "r") {
        unsigned long a, b;
        double score;
        if (!(ss >> a >> b >> score)) {
          return Status::IOError("bad judgment at line " +
                                 std::to_string(lineno));
        }
        SEMSIM_RETURN_NOT_OK(check_node(a));
        SEMSIM_RETURN_NOT_OK(check_node(b));
        dataset.relatedness.push_back(RelatednessPair{
            static_cast<NodeId>(a), static_cast<NodeId>(b), score});
      } else {
        return Status::IOError("unknown directive '" + kind + "' at line " +
                               std::to_string(lineno));
      }
    }
  }
  return dataset;
}

}  // namespace semsim
