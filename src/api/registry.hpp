// Registry<Entry> — one catalog of named entries, in listed order.
//
// The three catalogs every entry point enumerates are plain lists in
// src/api, each built on first use inside its accessor:
//
//   api::policies()   policy_registry.cpp   online packing policies
//   api::rankers()    ranker_registry.cpp   buffered-router FrameRankers
//   api::scenarios()  scenario.cpp          workload specs and sweeps
//
// and this template serves all three.  An Entry has a `name` and a
// one-line `description`; policies and rankers also carry `aliases`
// (alternate spellings) and a `make` factory.  The constructor checks once
// that every name and alias is non-empty and answers to one entry only.
// Lookups that fail throw a RequireError that enumerates the catalog
// ("unknown ranker 'x'; registered rankers: ..."), so the CLI, the benches
// and the tests share one error surface and one name table.  The order is
// the list's, in every binary: `osp_cli list`, docs/CATALOG.md and every
// "all policies" grid (whose column index feeds engine::trial_seed) see
// the same sequence.
#pragma once

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp::api {

namespace detail {

template <class Entry, class = void>
struct HasAliases : std::false_type {};
template <class Entry>
struct HasAliases<Entry, std::void_t<decltype(Entry::aliases)>>
    : std::true_type {};

/// "`a`, `b`" for a catalog table cell; an em dash when empty.
inline std::string code_list(const std::vector<std::string>& items,
                             const char* separator = ", ") {
  if (items.empty()) return "—";
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += separator;
    out += '`' + items[i] + '`';
  }
  return out;
}

}  // namespace detail

/// How a catalog names itself in its errors and its docs/CATALOG.md table.
template <class Entry>
struct CatalogFormat {
  std::string noun;                        // "policy": "unknown policy 'x'"
  std::string plural;                      // "policies": "registered policies"
  std::vector<std::string> header;         // the table's three column names
  std::string (*last_cell)(const Entry&);  // the table's third column
};

/// The aliases column of the policy and ranker tables.
template <class Entry>
std::string alias_cell(const Entry& e) {
  return detail::code_list(e.aliases);
}

template <class Entry>
class Registry {
 public:
  /// Keeps `entries` in order; an empty name or alias, or one that another
  /// entry already answers to, throws RequireError.
  Registry(CatalogFormat<Entry> format, std::vector<Entry> entries)
      : format_(std::move(format)), entries_(std::move(entries)) {
    for (const Entry& e : entries_) {
      require_unique(e, e.name);
      if constexpr (detail::HasAliases<Entry>::value)
        for (const std::string& alias : e.aliases) require_unique(e, alias);
    }
  }

  /// Looks `name` up by name or alias; nullptr when absent.
  const Entry* find(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return &e;
      if constexpr (detail::HasAliases<Entry>::value)
        for (const std::string& alias : e.aliases)
          if (alias == name) return &e;
    }
    return nullptr;
  }

  /// find() that throws a RequireError on failure.  The message lists the
  /// family's variants when the part of `name` before a ':' names entries
  /// ("randpr:bogus" lists every randpr variant), and the whole catalog
  /// otherwise.
  const Entry& at(const std::string& name) const {
    const Entry* e = find(name);
    if (e == nullptr) {
      const std::string family = family_of(name);
      std::string variants;
      for (const Entry& other : entries_)
        if (family_of(other.name) == family) variants += ' ' + other.name;
      OSP_REQUIRE_MSG(variants.empty(), "unknown variant in "
                                            << format_.noun << " spec '" << name
                                            << "'; family '" << family
                                            << "' provides:" << variants);
    }
    OSP_REQUIRE_MSG(e != nullptr, "unknown " << format_.noun << " '" << name
                                             << "'; registered "
                                             << format_.plural << ":\n"
                                             << render_catalog());
    return *e;
  }

  /// at() and the entry's factory in one call (policies, rankers).
  auto make(const std::string& name, Rng rng) const {
    return at(name).make(rng);
  }

  /// All entries in listed order.
  const std::vector<Entry>& entries() const { return entries_; }

  /// Names in listed order.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }

  /// "  name  description" lines, one per entry, for help text and errors.
  std::string render_catalog() const {
    std::size_t width = 0;
    for (const Entry& e : entries_) width = std::max(width, e.name.size());
    std::ostringstream os;
    for (const Entry& e : entries_)
      os << "  " << e.name << std::string(width - e.name.size() + 2, ' ')
         << e.description << '\n';
    return os.str();
  }

  /// The catalog's markdown table (a section of docs/CATALOG.md, which CI
  /// regenerates and compares byte for byte).
  std::string render_markdown() const {
    std::ostringstream os;
    auto line = [&os](const std::vector<std::string>& cells) {
      os << '|';
      for (const std::string& cell : cells) os << ' ' << cell << " |";
      os << '\n';
    };
    line(format_.header);
    line(std::vector<std::string>(format_.header.size(), "---"));
    for (const Entry& e : entries_)
      line({'`' + e.name + '`', e.description, format_.last_cell(e)});
    return os.str();
  }

 private:
  static std::string family_of(const std::string& name) {
    return name.substr(0, name.find(':'));
  }

  void require_unique(const Entry& e, const std::string& spelling) const {
    OSP_REQUIRE_MSG(!spelling.empty(), format_.noun << " '" << e.name
                                                    << "' lists an empty "
                                                       "name or alias");
    OSP_REQUIRE_MSG(find(spelling) == &e,
                    "duplicate " << format_.noun << " name or alias '"
                                 << spelling << "' (listing '" << e.name
                                 << "')");
  }

  CatalogFormat<Entry> format_;
  std::vector<Entry> entries_;
};

}  // namespace osp::api
