#include "api/shard.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace osp::api {

namespace {

/// Stable text key for a generator family (fingerprint input — never
/// reuse enum integer values, which renumber on reorder).
const char* family_key(ScenarioFamily family) {
  switch (family) {
    case ScenarioFamily::kRandom: return "random";
    case ScenarioFamily::kRandomCapacity: return "capacity";
    case ScenarioFamily::kRegular: return "regular";
    case ScenarioFamily::kFixedLoad: return "fixedload";
    case ScenarioFamily::kVideo: return "video";
    case ScenarioFamily::kMultihop: return "multihop";
    case ScenarioFamily::kWeakLb: return "weaklb";
    case ScenarioFamily::kLemma9: return "lemma9";
    case ScenarioFamily::kTheorem3: return "theorem3";
  }
  return "unknown";
}

const char* weight_kind_key(WeightModel::Kind kind) {
  switch (kind) {
    case WeightModel::Kind::kUnit: return "unit";
    case WeightModel::Kind::kUniform: return "uniform";
    case WeightModel::Kind::kZipf: return "zipf";
    case WeightModel::Kind::kExponential: return "exp";
  }
  return "unknown";
}

void describe_cell(std::ostream& os, const ScenarioSpec& cell) {
  char num[128];
  std::snprintf(num, sizeof num, "%.17g %.17g %.17g %.17g", cell.weights.lo,
                cell.weights.hi, cell.weights.zipf_s, cell.weights.rate);
  os << "cell " << cell.name << '\n'
     << "label " << cell.display_label() << '\n'
     << "family " << family_key(cell.family) << '\n'
     << "shape " << cell.m << ' ' << cell.n << ' ' << cell.k << ' '
     << cell.sigma << ' ' << cell.cap_max << ' ' << cell.ell << ' ' << cell.t
     << '\n'
     << "traffic " << cell.streams << ' ' << cell.frames << ' '
     << cell.packets << ' ' << cell.switches << ' ' << cell.capacity << ' '
     << cell.service_rate << ' ' << cell.buffer << '\n'
     << "weights " << weight_kind_key(cell.weights.kind) << ' ' << num
     << '\n';
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Sequential line reader whose errors carry origin:line.
struct LineReader {
  std::istream& in;
  const std::string& origin;
  std::size_t lineno = 0;

  bool next(std::string* line) {
    if (!std::getline(in, *line)) return false;
    ++lineno;
    // Partials are written with '\n' endings; tolerate a CRLF transport.
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return true;
  }
  std::string where() const {
    return origin + ":" + std::to_string(lineno);
  }
  std::string require_line(const char* expected) {
    std::string line;
    OSP_REQUIRE_MSG(next(&line), origin << ": truncated partial file "
                                           "(expected "
                                        << expected << ", hit end of file)");
    return line;
  }
  /// Strips `prefix` off the next line, failing with its name otherwise.
  std::string require_field(const std::string& prefix) {
    const std::string line = require_line(prefix.c_str());
    OSP_REQUIRE_MSG(line.rfind(prefix + " ", 0) == 0,
                    where() << ": expected '" << prefix << " …', got '"
                            << line << "'");
    return line.substr(prefix.size() + 1);
  }
};

constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

std::size_t parse_manifest_size(const std::string& text,
                                const std::string& where,
                                const char* field) {
  const std::optional<std::uint64_t> v = parse_unsigned(text, kSizeMax);
  OSP_REQUIRE_MSG(v.has_value(),
                  where << ": malformed " << field << " '" << text << "'");
  return static_cast<std::size_t>(*v);
}

/// The byte offset at which `s` stops being the shape row_json writes —
/// one JSON object, without whitespace, whose values are strings,
/// numbers, true, false or null — or npos when it has that shape.  The
/// merge keeps row texts verbatim, so this is all it checks of them.
std::size_t row_text_error(const std::string& s) {
  std::size_t i = 0;
  const auto eat = [&](std::string_view token) {
    if (s.compare(i, token.size(), token) != 0) return false;
    i += token.size();
    return true;
  };
  const auto digits = [&] {
    const std::size_t begin = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > begin;
  };
  const auto string = [&] {
    if (!eat("\"")) return false;
    while (i < s.size() && static_cast<unsigned char>(s[i]) >= 0x20) {
      const char c = s[i++];
      if (c == '"') return true;
      if (c != '\\') continue;
      if (eat("u")) {
        for (int k = 0; k < 4; ++k, ++i)
          if (i == s.size() ||
              !std::isxdigit(static_cast<unsigned char>(s[i])))
            return false;
      } else if (i == s.size() ||
                 std::string_view("\"\\/bfnrt").find(s[i++]) ==
                     std::string_view::npos) {
        return false;
      }
    }
    return false;
  };
  const auto number = [&] {
    eat("-");
    if (!eat("0") && !digits()) return false;
    if (eat(".") && !digits()) return false;
    if (!eat("e") && !eat("E")) return true;
    if (!eat("+")) eat("-");
    return digits();
  };
  const auto value = [&] {
    if (i < s.size() && s[i] == '"') return string();
    return eat("true") || eat("false") || eat("null") || number();
  };
  bool ok = eat("{");
  if (ok && !eat("}")) {
    do {
      ok = string() && eat(":") && value();
    } while (ok && eat(","));
    ok = ok && eat("}");
  }
  return ok && i == s.size() ? std::string::npos : i;
}

}  // namespace

ShardPlan ShardPlan::parse(const std::string& what, const std::string& text) {
  const auto fail = [&]() {
    OSP_REQUIRE_MSG(false, what << " expects i/N with 0 <= i < N (e.g. "
                                   "0/4), got '"
                                << text << "'");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= text.size() || text.find('/', slash + 1) != std::string::npos)
    fail();
  const std::string_view view(text);
  const std::optional<std::uint64_t> index =
      parse_unsigned(view.substr(0, slash), kSizeMax);
  const std::optional<std::uint64_t> count =
      parse_unsigned(view.substr(slash + 1), kSizeMax);
  if (!index || !count || *count < 1 || *index >= *count) fail();
  return ShardPlan{static_cast<std::size_t>(*index),
                   static_cast<std::size_t>(*count)};
}

std::pair<std::size_t, std::size_t> ShardPlan::slice(
    std::size_t total_cells) const {
  // Contiguous row-major slices, sizes differing by at most one: the
  // first (total % count) shards carry the extra cell.
  const std::size_t base = total_cells / count;
  const std::size_t rem = total_cells % count;
  const std::size_t begin = index * base + std::min(index, rem);
  const std::size_t size = base + (index < rem ? 1 : 0);
  return {begin, begin + size};
}

std::size_t ShardPlan::owner(std::size_t cell, std::size_t total_cells) const {
  OSP_REQUIRE(cell < total_cells);
  const std::size_t base = total_cells / count;
  const std::size_t rem = total_cells % count;
  const std::size_t boundary = rem * (base + 1);
  if (cell < boundary) return cell / (base + 1);
  return rem + (cell - boundary) / base;
}

std::uint64_t grid_fingerprint(const std::vector<ScenarioSpec>& cells,
                               const std::vector<std::string>& policies,
                               int trials, std::uint64_t seed) {
  std::ostringstream os;
  os << "osp-grid 1\n";
  for (const ScenarioSpec& cell : cells) describe_cell(os, cell);
  for (const std::string& policy : policies) os << "policy " << policy << '\n';
  os << "trials " << trials << '\n' << "seed " << seed << '\n';
  return fnv1a64(os.str());
}

ShardSink::ShardSink(std::ostream& os, const ShardManifest& manifest)
    : os_(&os), manifest_(manifest) {
  write_header();
}

ShardSink::ShardSink(const std::string& path, const ShardManifest& manifest)
    : file_(path), os_(&file_), manifest_(manifest) {
  OSP_REQUIRE_MSG(file_.good(),
                  "cannot open partial-result file '" << path
                                                      << "' for writing");
  write_header();
}

void ShardSink::write_header() {
  OSP_REQUIRE_MSG(manifest_.cell_begin <= manifest_.cell_end &&
                      manifest_.cell_end <= manifest_.total_cells,
                  "shard manifest cell range ["
                      << manifest_.cell_begin << ", " << manifest_.cell_end
                      << ") does not fit a grid of " << manifest_.total_cells
                      << " cells");
  OSP_REQUIRE_MSG(manifest_.shard_index < manifest_.shard_count,
                  "shard manifest index " << manifest_.shard_index
                                          << " is not < count "
                                          << manifest_.shard_count);
  OSP_REQUIRE_MSG(!manifest_.bench.empty() &&
                      manifest_.bench.find('\n') == std::string::npos,
                  "shard manifest needs a one-line bench name");
  *os_ << "osp-shard 1\n"
       << "bench " << manifest_.bench << '\n'
       << "fingerprint " << hex16(manifest_.fingerprint) << '\n'
       << "shard " << manifest_.shard_index << '/' << manifest_.shard_count
       << '\n'
       << "cells " << manifest_.cell_begin << ".." << manifest_.cell_end
       << '/' << manifest_.total_cells << '\n'
       << "threads " << manifest_.threads << '\n'
       << "---\n";
}

ShardSink::~ShardSink() {
  // Destruction without close() (unwinding on error) must not fake a
  // complete partial: only close() writes the row-count footer.
  if (!closed_) closed_ = true;
}

void ShardSink::write(const Row& row) {
  OSP_REQUIRE_MSG(!closed_, "ShardSink written after close()");
  const std::size_t expected = manifest_.cell_end - manifest_.cell_begin;
  OSP_REQUIRE_MSG(rows_ < expected,
                  "shard " << manifest_.shard_index << '/'
                           << manifest_.shard_count << " received more rows "
                           << "than its " << expected << "-cell slice");
  *os_ << "row " << manifest_.cell_begin + rows_ << ' ' << row_json(row)
       << '\n';
  ++rows_;
}

void ShardSink::close() {
  if (closed_) return;
  const std::size_t expected = manifest_.cell_end - manifest_.cell_begin;
  OSP_REQUIRE_MSG(rows_ == expected,
                  "shard " << manifest_.shard_index << '/'
                           << manifest_.shard_count << " closed with "
                           << rows_ << " rows for a " << expected
                           << "-cell slice");
  closed_ = true;
  *os_ << "total " << rows_ << '\n';
  if (file_.is_open()) file_.flush();
}

ShardPartial parse_shard_partial(std::istream& in,
                                 const std::string& origin) {
  LineReader lines{in, origin};
  ShardPartial partial;
  partial.origin = origin;
  ShardManifest& m = partial.manifest;

  const std::string magic = lines.require_line("the 'osp-shard 1' magic");
  OSP_REQUIRE_MSG(magic == "osp-shard 1",
                  origin << ": not an osp partial-result file (first line "
                            "is '"
                         << magic << "', expected 'osp-shard 1')");

  m.bench = lines.require_field("bench");
  OSP_REQUIRE_MSG(!m.bench.empty(),
                  lines.where() << ": empty bench name");

  const std::string fp = lines.require_field("fingerprint");
  OSP_REQUIRE_MSG(fp.size() == 16 &&
                      fp.find_first_not_of("0123456789abcdef") ==
                          std::string::npos,
                  lines.where() << ": fingerprint must be 16 lowercase hex "
                                   "digits, got '"
                                << fp << "'");
  m.fingerprint =
      static_cast<std::uint64_t>(std::strtoull(fp.c_str(), nullptr, 16));

  {
    const std::string shard = lines.require_field("shard");
    const ShardPlan plan = ShardPlan::parse(lines.where() + ": shard field",
                                            shard);
    m.shard_index = plan.index;
    m.shard_count = plan.count;
  }

  {
    const std::string cells = lines.require_field("cells");
    const std::size_t dots = cells.find("..");
    const std::size_t slash = cells.find('/', dots == std::string::npos
                                                  ? 0
                                                  : dots + 2);
    OSP_REQUIRE_MSG(dots != std::string::npos && slash != std::string::npos,
                    lines.where() << ": expected 'cells <begin>..<end>"
                                     "/<total>', got '"
                                  << cells << "'");
    const std::string where = lines.where();
    m.cell_begin =
        parse_manifest_size(cells.substr(0, dots), where, "cell begin");
    m.cell_end = parse_manifest_size(cells.substr(dots + 2, slash - dots - 2),
                                     where, "cell end");
    m.total_cells =
        parse_manifest_size(cells.substr(slash + 1), where, "cell total");
    OSP_REQUIRE_MSG(m.cell_begin <= m.cell_end && m.cell_end <= m.total_cells,
                    where << ": cell range [" << m.cell_begin << ", "
                          << m.cell_end << ") does not fit a grid of "
                          << m.total_cells << " cells");
  }

  m.threads = parse_manifest_size(lines.require_field("threads"),
                                  lines.where(), "threads");
  OSP_REQUIRE_MSG(m.threads >= 1, lines.where() << ": threads must be >= 1");

  const std::string sep = lines.require_line("the '---' separator");
  OSP_REQUIRE_MSG(sep == "---", lines.where()
                                    << ": expected '---' after the "
                                       "manifest, got '"
                                    << sep << "'");

  // Row lines in cell order, then the row-count footer.  EOF anywhere
  // before the footer means the file was truncated in flight.
  for (;;) {
    const std::string head =
        lines.require_line("'row <cell> <json>' or 'total'");
    if (head.rfind("total ", 0) == 0) {
      const std::size_t total = parse_manifest_size(
          head.substr(6), lines.where(), "footer row count");
      OSP_REQUIRE_MSG(total == partial.rows.size(),
                      lines.where()
                          << ": footer says " << total << " rows but "
                          << partial.rows.size() << " were present");
      OSP_REQUIRE_MSG(
          partial.rows.size() == m.cell_end - m.cell_begin,
          lines.where() << ": partial carries " << partial.rows.size()
                        << " rows for a " << m.cell_end - m.cell_begin
                        << "-cell slice");
      std::string tail;
      OSP_REQUIRE_MSG(!lines.next(&tail) || tail.empty(),
                      lines.where() << ": trailing content after the "
                                       "'total' footer");
      return partial;
    }
    const std::size_t space = head.find(' ', 4);
    OSP_REQUIRE_MSG(head.rfind("row ", 0) == 0 && space != std::string::npos,
                    lines.where() << ": expected 'row <cell> <json>' or "
                                     "'total <count>', got '"
                                  << head << "'");
    const std::size_t cell = parse_manifest_size(
        head.substr(4, space - 4), lines.where(), "row cell index");
    const std::size_t expected = m.cell_begin + partial.rows.size();
    OSP_REQUIRE_MSG(cell == expected,
                    lines.where() << ": row for cell " << cell
                                  << " out of order (expected cell "
                                  << expected << " of ["
                                  << m.cell_begin << ", " << m.cell_end
                                  << "))");
    std::string text = head.substr(space + 1);
    const std::size_t bad = row_text_error(text);
    OSP_REQUIRE_MSG(bad == std::string::npos,
                    lines.where() << ": row for cell " << cell
                                  << " is not one compact JSON object of "
                                     "scalar values (byte "
                                  << bad << " of its text)");
    partial.rows.push_back(std::move(text));
  }
}

MergedShards merge_shards(std::vector<ShardPartial> partials) {
  OSP_REQUIRE_MSG(!partials.empty(), "merge needs at least one partial file");

  const ShardManifest& first = partials.front().manifest;
  const std::string& first_origin = partials.front().origin;
  for (const ShardPartial& p : partials) {
    const ShardManifest& m = p.manifest;
    OSP_REQUIRE_MSG(m.bench == first.bench,
                    "bench name mismatch: " << first_origin << " records '"
                                            << first.bench << "' but "
                                            << p.origin << " records '"
                                            << m.bench << "'");
    OSP_REQUIRE_MSG(m.fingerprint == first.fingerprint,
                    "grid fingerprint mismatch: "
                        << first_origin << " records "
                        << hex16(first.fingerprint) << " but " << p.origin
                        << " records " << hex16(m.fingerprint)
                        << " — the partials come from different grids "
                           "(scenario, policies, trials, or seed differ)");
    OSP_REQUIRE_MSG(m.total_cells == first.total_cells,
                    "grid size mismatch: " << first_origin << " records "
                                           << first.total_cells
                                           << " cells but " << p.origin
                                           << " records " << m.total_cells);
    OSP_REQUIRE_MSG(m.shard_count == first.shard_count,
                    "shard count mismatch: " << first_origin
                                             << " is a shard of "
                                             << first.shard_count << " but "
                                             << p.origin << " is a shard of "
                                             << m.shard_count);
    OSP_REQUIRE_MSG(m.threads == first.threads,
                    "threads mismatch: " << first_origin << " ran with "
                                         << first.threads << " but "
                                         << p.origin << " ran with "
                                         << m.threads
                                         << " (the merged preamble must "
                                            "record one worker count)");
  }

  std::stable_sort(partials.begin(), partials.end(),
                   [](const ShardPartial& a, const ShardPartial& b) {
                     return a.manifest.cell_begin < b.manifest.cell_begin;
                   });

  // Tiling check: the non-empty slices must cover [0, total) exactly.
  // Empty slices (N > cells leaves trailing shards nothing) cover
  // nothing and are skipped — they are valid partials, not overlaps.
  std::size_t covered = 0;
  const std::string* last_origin = nullptr;
  for (const ShardPartial& p : partials) {
    const ShardManifest& m = p.manifest;
    if (m.cell_begin == m.cell_end) continue;
    OSP_REQUIRE_MSG(m.cell_begin >= covered,
                    "partials overlap: " << p.origin << " covers cells ["
                                         << m.cell_begin << ", "
                                         << m.cell_end << ") but "
                                         << *last_origin
                                         << " already covered up to cell "
                                         << covered);
    OSP_REQUIRE_MSG(m.cell_begin == covered,
                    "partials leave a gap: cells [" << covered << ", "
                                                    << m.cell_begin
                                                    << ") are covered by no "
                                                       "partial (next is "
                                                    << p.origin << ")");
    covered = m.cell_end;
    last_origin = &p.origin;
  }
  OSP_REQUIRE_MSG(covered == first.total_cells,
                  "partials leave a gap: cells ["
                      << covered << ", " << first.total_cells
                      << ") at the end of the grid are covered by no "
                         "partial");

  MergedShards merged;
  merged.bench = first.bench;
  merged.threads = first.threads;
  merged.shard_count = first.shard_count;
  for (ShardPartial& p : partials)
    for (std::string& row : p.rows) merged.rows.push_back(std::move(row));
  return merged;
}

}  // namespace osp::api
