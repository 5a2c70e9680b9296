#include "taxonomy/taxonomy_io.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace semsim {

namespace {

bool HasWhitespace(std::string_view s) {
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) return true;
  }
  return false;
}

}  // namespace

Status SaveTaxonomy(const Taxonomy& t, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << "# semsim taxonomy v1: " << t.num_concepts() << " concepts\n";
  for (ConceptId c = 0; c < t.num_concepts(); ++c) {
    std::string_view name = t.name(c);
    if (name.empty() || HasWhitespace(name)) {
      return Status::InvalidArgument(
          "concept names must be non-empty whitespace-free tokens: '" +
          std::string(name) + "'");
    }
    out << "c " << name << " ";
    if (t.parent(c) == kInvalidConcept) {
      out << "-";
    } else {
      out << t.name(t.parent(c));
    }
    out << "\n";
  }
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Taxonomy> LoadTaxonomy(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  // Two passes so parents may be declared after their children: saved
  // files are in concept-id order, and the synthetic "<ROOT>" a forest
  // build appends gets the HIGHEST id — its children reference it before
  // it appears. Ids are assigned by declaration order either way, so a
  // Save/Load round-trip preserves every ConceptId.
  struct Entry {
    std::string parent;
    size_t lineno;
  };
  TaxonomyBuilder b;
  std::unordered_map<std::string, ConceptId> ids;
  std::vector<Entry> entries;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind;
    if (!(ss >> kind)) {
      return Status::IOError("blank line " + std::to_string(lineno) + " in " +
                             path);
    }
    if (kind != "c") {
      return Status::IOError("unknown directive '" + kind + "' at line " +
                             std::to_string(lineno));
    }
    std::string name, parent;
    if (!(ss >> name >> parent)) {
      return Status::IOError("malformed concept at line " +
                             std::to_string(lineno));
    }
    // Checked before AddConcept, which check-fails on a repeated name.
    if (ids.contains(name)) {
      return Status::IOError("duplicate concept '" + name + "' at line " +
                             std::to_string(lineno));
    }
    ids.emplace(name, b.AddConcept(name));
    entries.push_back(Entry{std::move(parent), lineno});
  }
  for (size_t c = 0; c < entries.size(); ++c) {
    if (entries[c].parent == "-") continue;
    auto it = ids.find(entries[c].parent);
    if (it == ids.end()) {
      return Status::IOError("unknown parent '" + entries[c].parent +
                             "' at line " + std::to_string(entries[c].lineno));
    }
    SEMSIM_RETURN_NOT_OK(
        b.SetParent(static_cast<ConceptId>(c), it->second));
  }
  return std::move(b).Build();
}

Status SaveConceptMap(const Taxonomy& t, const std::vector<ConceptId>& map,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << "# semsim concept map v1: " << map.size() << " nodes\n";
  for (size_t v = 0; v < map.size(); ++v) {
    if (map[v] >= t.num_concepts()) {
      return Status::InvalidArgument("node " + std::to_string(v) +
                                     " maps to out-of-range concept");
    }
    out << "m " << v << " " << t.name(map[v]) << "\n";
  }
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<ConceptId>> LoadConceptMap(const Taxonomy& t,
                                              const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  // Ids are checked once every line is read: k lines with no gaps and
  // no duplicates name exactly the nodes 0..k-1, so an id >= k is a gap
  // and is rejected before anything is sized by it.
  struct Entry {
    unsigned long node;
    ConceptId concept_id;
    size_t lineno;
  };
  std::vector<Entry> entries;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind, concept_name;
    unsigned long node = 0;
    if (!(ss >> kind)) {
      return Status::IOError("blank line " + std::to_string(lineno) + " in " +
                             path);
    }
    if (kind != "m" || !(ss >> node >> concept_name)) {
      return Status::IOError("malformed mapping at line " +
                             std::to_string(lineno));
    }
    Result<ConceptId> c = t.FindConcept(concept_name);
    if (!c.ok()) {
      return Status::IOError("unknown concept '" + concept_name + "' at line " +
                             std::to_string(lineno));
    }
    entries.push_back(Entry{node, c.value(), lineno});
  }
  std::vector<ConceptId> map(entries.size(), kInvalidConcept);
  for (const Entry& e : entries) {
    if (e.node >= map.size()) {
      return Status::IOError("concept map has " +
                             std::to_string(entries.size()) +
                             " entries but names node " +
                             std::to_string(e.node) + " at line " +
                             std::to_string(e.lineno));
    }
    if (map[e.node] != kInvalidConcept) {
      return Status::IOError("duplicate node " + std::to_string(e.node) +
                             " at line " + std::to_string(e.lineno));
    }
    map[e.node] = e.concept_id;
  }
  return map;
}

}  // namespace semsim
