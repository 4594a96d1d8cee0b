#include "api/result_sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/require.hpp"

namespace osp::api {

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_value(std::string& out, const Row::Value& value) {
  switch (value.index()) {
    case 0: out += std::get<bool>(value) ? "true" : "false"; break;
    case 1: out += std::to_string(std::get<std::int64_t>(value)); break;
    case 2: out += std::to_string(std::get<std::uint64_t>(value)); break;
    case 3: {
      const double v = std::get<double>(value);
      char buf[32] = "null";  // JSON has no NaN or infinity
      if (std::isfinite(v)) std::snprintf(buf, sizeof buf, "%.17g", v);
      out += buf;
      break;
    }
    default: append_json_string(out, std::get<std::string>(value));
  }
}

std::string render(const Row::Value& value, int precision) {
  switch (value.index()) {
    case 0: return std::get<bool>(value) ? "yes" : "no";
    case 1: return fmt(std::get<std::int64_t>(value));
    case 2: return fmt(std::get<std::uint64_t>(value));
    case 3: return fmt(std::get<double>(value), precision);
    default: return std::get<std::string>(value);
  }
}

}  // namespace

const Row::Value& Row::at(const std::string& key) const {
  const auto it =
      std::find_if(cells.begin(), cells.end(),
                   [&](const auto& cell) { return cell.first == key; });
  OSP_REQUIRE_MSG(it != cells.end(), "row has no cell '" << key << "'");
  return it->second;
}

std::string row_json(const Row& row) {
  std::string out = "{";
  for (const auto& [key, value] : row.cells) {
    if (out.size() > 1) out += ',';
    append_json_string(out, key);
    out += ':';
    append_json_value(out, value);
  }
  out += '}';
  return out;
}

JsonSink::JsonSink(const std::string& name, std::size_t threads)
    : file_("BENCH_" + name + ".json"), os_(&file_) {
  OSP_REQUIRE_MSG(file_.good(), "cannot open BENCH_" << name
                                                     << ".json for writing");
  begin(name, threads);
}

JsonSink::JsonSink(std::ostream& os, const std::string& name,
                   std::size_t threads)
    : os_(&os) {
  begin(name, threads);
}

void JsonSink::begin(const std::string& name, std::size_t threads) {
  std::string preamble = "{\"bench\":";
  append_json_string(preamble, name);
  *os_ << preamble << ",\"threads\":" << threads << ",\"results\":[";
}

JsonSink::~JsonSink() { close(); }

void JsonSink::write(const Row& row) { write_json(row_json(row)); }

void JsonSink::write_json(const std::string& row_text) {
  OSP_REQUIRE_MSG(!closed_, "JsonSink written after close()");
  if (!empty_) *os_ << ',';
  empty_ = false;
  *os_ << row_text;
}

void JsonSink::close() {
  if (closed_) return;
  closed_ = true;
  *os_ << "]}";
  if (file_.is_open())
    file_ << '\n';
}

void TableSink::write(const Row& row) {
  if (table_ == nullptr) {
    columns_.clear();
    for (const auto& [key, value] : row.cells) {
      (void)value;
      columns_.push_back(key);
    }
    table_ = std::make_unique<Table>(columns_);
  }
  OSP_REQUIRE_MSG(row.cells.size() == columns_.size(),
                  "TableSink row arity changed mid-stream");
  std::vector<std::string> cells;
  cells.reserve(row.cells.size());
  for (std::size_t i = 0; i < row.cells.size(); ++i) {
    OSP_REQUIRE_MSG(row.cells[i].first == columns_[i],
                    "TableSink row keys changed mid-stream ('"
                        << row.cells[i].first << "' vs '" << columns_[i]
                        << "')");
    cells.push_back(render(row.cells[i].second, precision_));
  }
  table_->row(std::move(cells));
}

void TableSink::print(std::ostream& os) const {
  if (table_ != nullptr) table_->print(os);
}

}  // namespace osp::api
